from collections import Counter

import numpy as np
import pytest

from nilorbit import linalg, orbits as ob, polar
from nilorbit.dixon import dixon_table
from nilorbit.families import fake_heisenberg, ul_lie_scheme
from nilorbit.groups import build_group, twisted_classes
from nilorbit.heisenberg import (
    ElementaryCoords,
    heisenberg_classify,
    is_heisenberg_character,
    reduce_to_heisenberg,
)
from nilorbit.liering import abelian_ring, heisenberg_ring
from nilorbit.twisted import twisted_trace_basis


def _reference_coords(G, elems, p):
    """ElementaryCoords' (basis, coords) by one scalar product per
    (element, power), or the ValueError message it raises."""
    coords = {G.identity: ()}
    basis = []
    for a in sorted(int(x) for x in elems):
        if a in coords:
            continue
        if G.element_orders([a])[0] != p:
            return "subgroup is not of prime exponent %d" % p
        k = len(basis)
        basis.append(a)
        new = {}
        for e, c in coords.items():
            cur = e
            for j in range(1, p):
                cur = G.mult(cur, a)
                new[cur] = c + (j,)
        for e, c in new.items():
            if e in coords:
                return "subgroup is not abelian of exponent p"
            coords[e] = c
        for e in list(coords):
            coords[e] = coords[e] + (0,) * (k + 1 - len(coords[e]))
    coords = {e: c + (0,) * (len(basis) - len(c)) for e, c in coords.items()}
    if len(coords) != len(elems):
        return "element set is not a subgroup"
    return basis, coords


def test_elementary_coords_match_scalar_reference():
    H3 = ob.lazard_group(heisenberg_ring(3))
    H5 = ob.lazard_group(heisenberg_ring(5))
    c9 = build_group(lambda i, j: (i + j) % 9, 9, gens=[1], inv=lambda i: (-i) % 9)
    cases = [
        (ob.lazard_group(abelian_ring(3, 2)), np.arange(9), 3),
        (H5, H5.center(), 5),
        (H3, np.arange(H3.n), 3),  # not abelian
        (H3, [0, 1], 3),  # not closed
        (c9, np.arange(9), 3),  # exponent 9
    ]
    for G, elems, p in cases:
        want = _reference_coords(G, elems, p)
        try:
            ec = ElementaryCoords(G, elems, p)
            got = ec.basis.tolist(), dict(zip(ec.elems.tolist(), map(tuple, ec.coords.tolist())))
        except ValueError as e:
            got = str(e)
        assert got == want


def test_classify_abelian():
    G = ob.lazard_group(abelian_ring(3, 2))
    out = heisenberg_classify(G, 3)
    assert len(out) == 9
    assert all(c.degree.rational_value() == 1 for _, _, c in out)


def test_classify_heisenberg_f3():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    out = heisenberg_classify(G, 3)
    table, _ = ob.orbit_method_table(h3)
    assert Counter(c.values for _, _, c in out) == Counter(r.values for r in table.rows)
    degs = sorted(int(c.degree.rational_value()) for _, _, c in out)
    assert degs.count(3) == 2
    # nonlinear rows vanish off the center
    cd = table.class_data
    center_idx = {h3.element_index(v) for v in h3.center().points()}
    for _, _, c in out:
        if c.degree.rational_value() == 3:
            for j, r in enumerate(cd.reps):
                if int(r) not in center_idx:
                    assert c.values[j].is_zero()


def test_classify_lagrangian_independence():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    a = heisenberg_classify(G, 3)
    b = heisenberg_classify(G, 3, flag_perm=[1, 0])
    assert Counter(c.values for _, _, c in a) == Counter(c.values for _, _, c in b)


def test_classify_fake_heisenberg_q9_matches_table_and_oracle():
    ring = fake_heisenberg(3, 2)
    G = ob.lazard_group(ring)
    out = heisenberg_classify(G, 3)
    table, _ = ob.orbit_method_table(ring)
    oracle = dixon_table(G)
    rows = Counter(c.values for _, _, c in out)
    assert rows == Counter(r.values for r in table.rows)
    assert rows == Counter(r.values for r in oracle.rows)


def test_classify_on_class3_group_matches_oracle_restriction():
    # Heis(G) = exactly the oracle rows whose Gamma/N is abelian
    from nilorbit.battery import appendix_h2_ring

    ring = appendix_h2_ring(5)
    G = ob.lazard_group(ring)
    table, _ = ob.orbit_method_table(ring)
    cd = table.class_data
    out = heisenberg_classify(G, 5, cd=cd)
    heis_rows = Counter(r.values for r in table.rows if is_heisenberg_character(G, r, cd))
    assert Counter(c.values for _, _, c in out) == heis_rows
    # class 3: not every character is Heisenberg here
    assert len(out) < len(table.rows)


def test_reduce_linear_and_heisenberg_are_terminal():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    table, _ = ob.orbit_method_table(h3)
    cd = table.class_data
    lin = next(r for r in table.rows if r.degree.rational_value() == 1)
    chain, term = reduce_to_heisenberg(G, lin, 3, cd=cd)
    assert chain == []
    big = next(r for r in table.rows if r.degree.rational_value() == 3)
    chain2, term2 = reduce_to_heisenberg(G, big, 3, cd=cd)
    assert chain2 == []
    assert is_heisenberg_character(term2[0], term2[2], term2[1])


def test_reduce_rejects_reducible():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    table, _ = ob.orbit_method_table(h3)
    bad = table.rows[0] + table.rows[1]
    with pytest.raises(ValueError):
        reduce_to_heisenberg(G, bad, 3, cd=table.class_data)


def test_reduce_ul4_f5_degree25():
    # the full pipeline check: descent plus re-induction at every stage
    ul4 = ul_lie_scheme(4, 5).at_level(1)
    G = ob.lazard_group(ul4)
    table, _ = ob.orbit_method_table(ul4)
    cd = table.class_data
    chi = next(r for r in table.rows if r.degree.rational_value() == 25)
    chain, term = reduce_to_heisenberg(G, chi, 5, cd=cd)
    assert len(chain) >= 1
    assert is_heisenberg_character(term[0], term[2], term[1])
    # terminal degree times the total index recovers the original degree
    # (re-induction equality at every stage is asserted inside the descent)
    total_index = G.n // term[0].n
    assert int(term[2].degree.rational_value()) * total_index == 25


def test_twisted_classes_reject_maps_that_are_automorphisms_only_on_generators():
    G = ob.lazard_group(heisenberg_ring(3))
    gens = G.generators()
    near = {G.identity, *gens} | {G.mult(g, h) for g in gens for h in gens}
    x, y = [i for i in range(G.n) if i not in near][:2]
    swap = np.arange(G.n)
    swap[[x, y]] = y, x
    # swap respects every product of two generators, yet is no automorphism
    with pytest.raises(ValueError, match="not an automorphism"):
        twisted_classes(G, swap)
    with pytest.raises(ValueError, match="not a permutation"):
        twisted_classes(G, np.full(G.n, G.identity))
    assert twisted_classes(G, np.arange(G.n))["num_classes"] == 11


def test_twisted_trace_basis_ul3_f9():
    # UL3(F_9) under Frobenius: 11 fixed rows, two of them of degree 9
    ring = ul_lie_scheme(3, 3, 2).at_level(1)
    G = ob.lazard_group(ring)
    table, orbits = ob.orbit_method_table(ring)
    F = ring.fq.frobenius_matrix
    perm = linalg.encode_vectors((ring.all_elements() @ F.T) % 3, 3)
    counts = twisted_classes(G, perm, table=table)
    assert counts["counts_match"] and len(counts["fixed_rows"]) == 11
    flag = polar.flag_from_weights(ring)
    fixed_reps = []
    for i in counts["fixed_rows"]:
        pol = polar.vergne_polarization(ring, flag, orbits[i].base_point)
        fixed_reps.append((i, polar.MonomialRep(ring, pol)))
    rep = twisted_trace_basis(ring, G, F, table, fixed_reps)
    assert rep["basis_rank"] == 11 and rep["basis_is_basis"]
    # equal reps have equal traces, which Schur orthogonality rules out
    with pytest.raises(AssertionError, match="not orthogonal"):
        twisted_trace_basis(ring, G, F, table, fixed_reps + fixed_reps[:1])
    large = [r for _, r in fixed_reps if r.dim == 9]
    assert len(large) == 2
    assert all(r.check_homomorphism() for r in large)
