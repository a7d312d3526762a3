from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import orbits as ob, polar
from nilorbit.battery import appendix_h2_ring, random_class_le3_rings
from nilorbit.families import fake_heisenberg, strict_upper_algebra
from nilorbit.liering import Subspace, abelian_ring, heisenberg_ring

from helpers import element_from_index


def test_vergne_heisenberg_example():
    h5 = heisenberg_ring(5)
    flag = polar.FlagOfIdeals(
        h5,
        [
            h5.zero_subspace(),
            h5.subspace(np.array([[0, 0, 1]])),
            h5.subspace(np.array([[0, 1, 0], [0, 0, 1]])),
            h5.full_subspace(),
        ],
    )
    pol = polar.vergne_polarization(h5, flag, np.array([0, 0, 1]), "direct")
    assert pol.space.rows.tolist() == [[0, 1, 0], [0, 0, 1]]
    rec = polar.vergne_polarization(h5, flag, np.array([0, 0, 1]), "recursive")
    assert pol.space == rec.space


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flag_from_weights_is_complete(p):
    # every step adds exactly one dimension and every member is an ideal
    for ring in random_class_le3_rings(p, 30, seed=p):
        spaces = polar.flag_from_weights(ring).spaces
        assert [V.dim for V in spaces] == list(range(ring.dim + 1))
        assert all(polar._is_ideal(ring, V) for V in spaces)


def test_vergne_abelian_gives_everything():
    ab = abelian_ring(5, 3)
    flag = polar.flag_from_weights(ab)
    pol = polar.vergne_polarization(ab, flag, np.array([1, 2, 3]))
    assert pol.dim == 3


def test_flag_rejects_non_ideal():
    h3 = heisenberg_ring(3)
    with pytest.raises(ValueError):
        polar.FlagOfIdeals(
            h3,
            [
                h3.zero_subspace(),
                h3.subspace(np.array([[1, 0, 0]])),  # span(x) is not an ideal
                h3.subspace(np.array([[1, 0, 0], [0, 0, 1]])),
                h3.full_subspace(),
            ],
        )


def test_direct_equals_recursive_randomized():
    h2 = appendix_h2_ring(5)
    rng = np.random.default_rng(42)
    for _ in range(25):
        flag = polar.random_ideal_flag(h2, rng)
        f = rng.integers(0, 5, 4)
        d = polar.vergne_polarization(h2, flag, f, "direct")
        r = polar.vergne_polarization(h2, flag, f, "recursive")
        assert d.space == r.space


def test_good_basis_examples():
    _, s0, _ = polar.good_basis_and_involution(np.zeros((3, 3), dtype=np.int64), 5)
    assert s0.tolist() == [0, 1, 2]
    _, s2, _ = polar.good_basis_and_involution(np.array([[0, 1], [-1, 0]]), 5)
    assert s2.tolist() == [1, 0]
    with pytest.raises(ValueError):
        polar.good_basis_and_involution(np.array([[1, 0], [0, 1]]), 5)


def test_involution_census_n3_f3():
    # every (B, flag) triple over F_3 with n = 3 realizes one of the 4
    # involutions of S_3, all four occur, and rescaled good bases match the
    # canonical form of their involution
    sigmas = {}
    p = 3
    for a in range(3):
        for b in range(3):
            for c in range(3):
                B = np.array([[0, a, b], [-a, 0, c], [-b, -c, 0]], dtype=np.int64) % p
                basis, s, _ = polar.good_basis_and_involution(B, p)
                sigmas.setdefault(tuple(s.tolist()), []).append((B, basis))
    assert len(sigmas) == 4
    for s, items in sigmas.items():
        for B, basis in items:
            G = (basis @ B @ basis.T) % p
            # rescale rows so paired entries become 1 above the diagonal
            R = basis.copy()
            for i in range(3):
                j = s[i]
                if j > i:
                    scale = pow(int(G[i, j]), -1, p)
                    R[i] = (R[i] * scale) % p
            C = (R @ B @ R.T) % p
            canonical = np.zeros((3, 3), dtype=np.int64)
            for i in range(3):
                j = s[i]
                if j > i:
                    canonical[i, j] = 1
                    canonical[j, i] = p - 1
            assert (C == canonical).all()


def test_vergne_L_from_good_basis():
    # span{e_i : sigma(i) >= i} equals the sum-of-kernels subspace
    rng = np.random.default_rng(9)
    p = 5
    for _ in range(20):
        n = int(rng.integers(2, 6))
        U = rng.integers(0, p, (n, n))
        B = (U - U.T) % p
        basis, s, L_rows = polar.good_basis_and_involution(B, p)
        # direct Vergne with the standard complete flag
        total = None
        for i in range(1, n + 1):
            S = np.eye(n, dtype=np.int64)[:i]
            from nilorbit import linalg

            M = (S @ B @ S.T) % p
            K = linalg.kernel(M.T, p)
            rows = (K @ S) % p if K.shape[0] else np.zeros((0, n), dtype=np.int64)
            sp = Subspace(rows, p, d=n)
            total = sp if total is None else total.sum(sp)
        assert Subspace(L_rows, p, d=n) == total


def test_associative_vergne():
    A = strict_upper_algebra(3, 5)
    # f = coefficient of E_13; B(x, y) = f(xy - yx)
    f = np.array([0, 1, 0], dtype=np.int64)  # basis order: E12, E13, E23
    d = A.dim
    B = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            ei, ej = np.eye(d, dtype=np.int64)[i], np.eye(d, dtype=np.int64)[j]
            B[i, j] = int((A.product(ei, ej) - A.product(ej, ei)) @ f) % 5
    flag = [
        Subspace(np.zeros((0, d), dtype=np.int64), 5, d=d),
        Subspace(np.array([[0, 1, 0]]), 5),  # span(E13)
        Subspace(np.array([[1, 0, 0], [0, 1, 0]]), 5),  # + E12
        Subspace(np.eye(d, dtype=np.int64), 5),
    ]
    L = polar.associative_vergne(A, flag, B)
    assert L.dim == 2
    # B = 0 gives everything
    L0 = polar.associative_vergne(A, flag, np.zeros((d, d), dtype=np.int64))
    assert L0.dim == d
    # the Lie polarization from the same data coincides (B is a Lie coboundary)
    ring = A.lie_ring()
    vflag = polar.FlagOfIdeals(ring, flag)
    pol = polar.vergne_polarization(ring, vflag, f)
    assert pol.space == L


def test_quasi_polarization():
    h2 = appendix_h2_ring(5)
    chain, term_ring, term_f, embed = polar.quasi_polarization(
        h2, np.array([0, 0, 0, 1])
    )
    assert [s.dim for s in chain] == [4, 3]
    assert chain[1].rows.tolist() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert polar.is_heisenberg_functional(term_ring, term_f)
    # Heisenberg ring with central f: zero steps
    h3 = heisenberg_ring(3)
    chain3, _, _, _ = polar.quasi_polarization(h3, np.array([0, 0, 1]))
    assert len(chain3) == 1
    ab = abelian_ring(5, 2)
    chain_a, _, _, _ = polar.quasi_polarization(ab, np.array([1, 0]))
    assert len(chain_a) == 1


def test_quasi_polarization_reinduction_matches_orbit_character():
    # induced character from the Heisenberg stage equals rho_Omega
    h2 = appendix_h2_ring(5)
    cd = ob.conjugacy_class_data(h2)
    table, orbits = ob.orbit_method_table(h2)
    f = np.array([0, 0, 0, 1], dtype=np.int64)
    chain, term_ring, term_f, embed = polar.quasi_polarization(h2, f)
    # polarize inside the terminal (Heisenberg) stage, lift, and induce
    tflag = polar.flag_from_weights(term_ring)
    tpol = polar.vergne_polarization(term_ring, tflag, term_f)
    lifted_rows = (tpol.space.rows @ embed) % h2.p
    pol = polar.Polarization(h2, h2.subspace(lifted_rows), f, kind="quasi")
    pol.verify()
    chi = polar.induced_character(h2, pol, class_data=cd)
    target = next(
        row
        for row, orb in zip(table.rows, orbits)
        if int(ob.coadjoint_orbits(h2).labels[h2.element_index(f)])
        == int(ob.coadjoint_orbits(h2).labels[orb.base_index])
    )
    assert chi == target


def test_kirillov_induction_matches_orbit_characters():
    for ring in (heisenberg_ring(3), heisenberg_ring(5)):
        cd = ob.conjugacy_class_data(ring)
        table, orbits = ob.orbit_method_table(ring)
        flag = polar.flag_from_weights(ring)
        for row, orb in zip(table.rows, orbits):
            pol = polar.vergne_polarization(ring, flag, orb.base_point)
            pol.verify()
            chi = polar.induced_character(ring, pol, class_data=cd)
            rep = polar.MonomialRep(ring, pol)
            assert chi == row
            assert rep.dim == int(row.degree.rational_value())


def test_monomial_rep_checks():
    h3 = heisenberg_ring(3)
    cd = ob.conjugacy_class_data(h3)
    table, orbits = ob.orbit_method_table(h3)
    flag = polar.flag_from_weights(h3)
    row, orb = next((r, o) for r, o in zip(table.rows, orbits) if o.size > 1)
    pol = polar.vergne_polarization(h3, flag, orb.base_point)
    chi = polar.induced_character(h3, pol, class_data=cd)
    rep = polar.MonomialRep(h3, pol)
    assert rep.check_homomorphism()
    for j, r in enumerate(cd.reps):
        assert rep.trace(element_from_index(h3, int(r))) == chi.values[j]
    # the identity monomial in the table row of (2, 2, 1), neither a
    # generator nor a product of two generators, breaks the homomorphism
    g = h3.element_index((2, 2, 1))
    perm, exps = rep.perm.copy(), rep.exps.copy()
    perm[g], exps[g] = np.arange(rep.dim), 0
    rep.perm, rep.exps = perm, exps
    assert not rep.check_homomorphism()


def test_monomial_rep_refuses_tables_beyond_the_budget():
    # 37^3 elements, below the whole-group budget, but 37^3 x 37 table entries
    h = heisenberg_ring(37)
    pol = polar.vergne_polarization(h, polar.flag_from_weights(h), np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="exceed the budget"):
        polar.MonomialRep(h, pol)


@lru_cache(maxsize=None)
def _monomial_cases():
    """(ring, polarization, psi_k, MonomialRep) at every orbit's base point
    of a few rings, class 3 included."""
    cases = []
    rings = (
        (heisenberg_ring(3), 1),
        (heisenberg_ring(5), 2),
        (fake_heisenberg(3, 2), 1),
        (appendix_h2_ring(5), 3),
    )
    for ring, psi_k in rings:
        flag = polar.flag_from_weights(ring)
        for orb in ob.orbit_method_table(ring)[1]:
            pol = polar.vergne_polarization(ring, flag, orb.base_point)
            cases.append((ring, pol, psi_k, polar.MonomialRep(ring, pol, psi_k=psi_k)))
    return cases


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_monomial_tables_match_the_scalar_law(data):
    # the tables against their definition, one scalar product at a time:
    # the reps are the least elements of distinct cosets x H, and
    # g rep_i = rep_perm[i] h with h in H and exps[i] = psi_k f(h)
    ring, pol, psi_k, rep = data.draw(st.sampled_from(_monomial_cases()))
    p, H = ring.p, pol.space.points()
    R = [element_from_index(ring, int(r)) for r in rep.reps]
    assert len(set(rep.reps.tolist())) == rep.dim == ring.order // len(H)
    for r, x in zip(rep.reps, R):
        assert min(ring.element_index(ring.group_mul(x, h)) for h in H) == r
    for g in data.draw(st.lists(st.integers(0, ring.order - 1), min_size=1, max_size=4)):
        g_vec = element_from_index(ring, g)
        perm, exps = rep.matrix(g_vec)
        for i, x in enumerate(R):
            h = ring.group_mul(-R[perm[i]] % p, ring.group_mul(g_vec, x))
            assert pol.space.contains(h)
            assert exps[i] == psi_k * int(pol.f_vec @ h) % p


def test_containment_search_examples():
    h2 = appendix_h2_ring(5)
    f = np.array([0, 0, 0, 1])
    h0 = np.array([[1, 0, 0, 0], [0, 0, 0, 1]])  # span(x, t)
    assert polar.polarization_containment_search(h2, f, h0) is None
    h3 = heisenberg_ring(3)
    found = polar.polarization_containment_search(
        h3, np.array([0, 0, 1]), np.zeros((0, 3))
    )
    assert found is not None and found.verify()
    already = polar.polarization_containment_search(
        h3, np.array([0, 0, 1]), np.array([[0, 1, 0], [0, 0, 1]])
    )
    assert already.space.rows.tolist() == [[0, 1, 0], [0, 0, 1]]


def test_containment_search_budget(monkeypatch):
    monkeypatch.setattr(polar, "SEARCH_BUDGET", 26)
    with pytest.raises(ValueError, match="ring order 27 exceeds the search budget"):
        polar.polarization_containment_search(heisenberg_ring(3), np.array([0, 0, 1]), np.zeros((0, 3)))
