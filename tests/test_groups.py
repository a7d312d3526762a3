import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import families as fam
from nilorbit import linalg
from nilorbit import orbits as ob
from nilorbit import polar
from nilorbit.battery import appendix_h2_ring, witness_ring
from nilorbit.chartable import ClassFunction, convolve
from nilorbit.cyclo import Cyclotomic, from_ints, lincomb, product_table
from nilorbit.dixon import dixon_table
from nilorbit.families import USp4, usp4, usp4_via_sp
from nilorbit.groups import (
    WHOLE_GROUP_BUDGET,
    AbelianGroup,
    ClassData,
    FiniteGroup,
    _check_action,
    build_group,
    induce_character,
    little_groups,
    semidirect_product,
    twisted_classes,
)
from nilorbit.liering import heisenberg_ring

from helpers import element_from_index, regular_character, trivial_character, ul_group, usp4_mult_quads


def test_build_group_examples():
    G6 = build_group(lambda i, j: (i + j) % 6, 6, gens=[1], inv=lambda i: (-i) % 6)
    assert G6.conjugacy_classes().num_classes == 6
    # UL3(F_3) has order 27 and 11 classes (3 central + 8 of size 3)
    u33 = ul_group(3, 3)
    cd = u33.conjugacy_classes()
    assert u33.n == 27 and cd.num_classes == 11
    from collections import Counter

    assert Counter(cd.sizes.tolist()) == {1: 3, 3: 8}
    # USp4(F_2): class count equals irreducible count from the oracle
    G = usp4(2)
    assert G.conjugacy_classes().num_classes == len(dixon_table(G).rows)


def test_center_derived_quotient():
    u33 = ul_group(3, 3)
    assert len(u33.center()) == 3
    D = u33.derived_subgroup()
    assert len(D) == 3
    Q, coset_rep, reps = u33.quotient(D)
    assert Q.n == 9 and Q.is_abelian()


def test_class_function_ops():
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    cd = table.class_data
    G = ob.lazard_group(h3)
    for row in table.rows:
        assert row.inner(row) == 1
    assert table.rows[0].inner(table.rows[1]) == 0
    assert trivial_character(cd).inner(regular_character(cd)) == 1
    # chi * chi = (|G| / deg) chi and chi * chi' = 0
    chi = table.rows[-1]
    conv = convolve(chi, chi, G)
    scale = Fraction(cd.n) / chi.degree.rational_value()
    assert conv == chi.scale(scale)
    assert convolve(table.rows[0], table.rows[-1], G) == ClassFunction(
        cd, tuple([Cyclotomic.rational(0)] * cd.num_classes)
    )


def _zetas(p):
    return [Cyclotomic.zeta(p, r) for r in range(p)]


def test_induce_character_examples():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    cd = G.conjugacy_classes()
    table, _ = ob.orbit_method_table(h3)
    # Ind of trivial character of the trivial subgroup = regular character
    ind = induce_character(cd, np.array([0]), np.array([0]), [Cyclotomic.rational(1)])
    assert ind == regular_character(cd)
    # Heisenberg F_3: Ind of chi_f from a 9-element polarization subgroup is
    # an irreducible of degree 3
    H = np.sort(
        np.array([h3.element_index(v) for v in h3.subspace(np.array([[0, 1, 0], [0, 0, 1]])).points()])
    )
    f = np.array([0, 0, 1])

    def chi_f(idx):
        h = element_from_index(h3, int(idx))
        return int(f @ h) % 3

    ind = induce_character(cd, H, [chi_f(e) for e in H], _zetas(3))
    assert ind.degree == Cyclotomic.rational(3)
    assert any(ind == row for row in table.rows)


def test_frobenius_reciprocity():
    h3 = heisenberg_ring(3)
    G = ob.lazard_group(h3)
    cd = G.conjugacy_classes()
    table, _ = ob.orbit_method_table(h3)
    H = np.sort(
        np.array([h3.element_index(v) for v in h3.subspace(np.array([[1, 0, 0], [0, 0, 1]])).points()])
    )
    rng = np.random.default_rng(3)
    for f_vec in rng.integers(0, 3, (4, 3)):
        def chi_H(idx, f_vec=f_vec):
            h = element_from_index(h3, int(idx))
            return Cyclotomic.zeta(3, int(f_vec @ h) % 3)

        keys = [int(f_vec @ element_from_index(h3, int(idx))) % 3 for idx in H]
        ind = induce_character(cd, H, keys, _zetas(3))
        for chi_G in table.rows[::4]:
            lhs = ind.inner(chi_G)
            # <chi_H, Res chi_G>_H computed directly
            acc = Cyclotomic.rational(0)
            for idx in H:
                g_inv = G.inv(int(idx))
                acc = acc + chi_H(int(idx)) * chi_G.values[cd.class_of[g_inv]]
            rhs = acc * Fraction(1, len(H))
            assert lhs == rhs


# Lie rings whose drawn bracket-closed subspaces give the subgroups below:
# Heisenberg over F_3 and F_5, and the strictly upper triangular 3 x 3
# matrices over F_3
INDUCTION_RINGS = {
    "heisenberg_f3": lambda: heisenberg_ring(3),
    "heisenberg_f5": lambda: heisenberg_ring(5),
    "ul3_f3": lambda: fam.ul_lie_scheme(3, 3).at_level(1),
}


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_induce_character_matches_the_definition(data):
    """induce_character on a drawn subgroup, keys and values against
    Ind(g) = |H|^-1 sum over x in G of chi°(x g x^-1), chi° the values on H
    and 0 off it, summed term by term over the bulk law."""
    ring = INDUCTION_RINGS[data.draw(st.sampled_from(sorted(INDUCTION_RINGS)))]()
    p, d = ring.p, ring.dim
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=d, max_size=d), max_size=d))
    sub = polar.bracket_closure(ring, ring.subspace(np.array(rows, dtype=np.int64).reshape(-1, d)))
    elems = linalg.encode_vectors(sub.points(), p)
    m = data.draw(st.sampled_from([1, 3, 4, 5, 12]))
    coeffs = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    values = [
        Cyclotomic.from_root_counts(m, c, Fraction(1, data.draw(st.integers(1, 4))))
        for c in data.draw(st.lists(coeffs, min_size=1, max_size=4))
    ]
    keys = np.array(
        data.draw(st.lists(st.integers(0, len(values) - 1), min_size=len(elems), max_size=len(elems)))
    )
    G = ob.lazard_group(ring)
    cd = G.conjugacy_classes()
    got = induce_character(cd, elems, keys, values)
    key_of = np.full(G.n, -1)
    key_of[elems] = keys
    everything = np.arange(G.n)
    want = []
    for g in cd.reps:
        conj = G.mult_bulk(G.mult_bulk(everything, np.full(G.n, g)), G.inverses())
        total = Cyclotomic.rational(0)
        for k in key_of[conj]:
            if k >= 0:
                total = total + values[k]
        want.append(total * Fraction(1, len(elems)))
    assert got == ClassFunction(cd, tuple(want))


def _action_table(H, A, act):
    """table[h, a] = index of act(h, a) in A: the scalar act evaluated once
    per pair, the reference for tables built from a bulk law."""
    a_elems = [A.from_index(i) for i in range(A.order)]
    return np.array(
        [[A.index(act(H.from_index(h), a)) for a in a_elems] for h in range(H.order)],
        dtype=np.int64,
    ).reshape(H.order, A.order)


def test_little_groups_trivial_action():
    H = AbelianGroup([2, 2])
    A = AbelianGroup([3])
    table = little_groups(H, A, _action_table(H, A, lambda h, a: a))
    assert sorted(table.degree_multiset().items()) == [(1, 12)]
    assert table.verify()


def test_little_groups_degrees_are_orbit_sizes():
    # C_2 acting on C_3 by inversion: S_3; degrees 1,1,2
    H = AbelianGroup([2])
    A = AbelianGroup([3])

    def act(h, a):
        return a if h[0] == 0 else A.neg(a)

    table = little_groups(H, A, _action_table(H, A, act))
    assert sorted(table.degrees) == [1, 1, 2]
    assert table.verify()


def test_twisted_classes_counts():
    # abelian G, phi = inversion: #classes = #fixed characters
    G6 = build_group(lambda i, j: (i + j) % 6, 6, gens=[1], inv=lambda i: (-i) % 6)
    table = dixon_table(G6)
    phi = np.array([(-i) % 6 for i in range(6)])
    rep = twisted_classes(G6, phi, table=table)
    assert rep["counts_match"]
    # identity: ordinary classes
    rep_id = twisted_classes(G6, np.arange(6), table=table)
    assert rep_id["num_classes"] == 6 and rep_id["counts_match"]
    with pytest.raises(ValueError):
        twisted_classes(G6, np.array([0, 2, 1, 3, 4, 5]), table=table)


def _dense_matrix(rep, g_vec):
    """rho(g) as nested lists of Cyclotomic entries, read off rep.matrix."""
    perm, exps = rep.matrix(g_vec)
    M = [[Cyclotomic.rational(0)] * rep.dim for _ in range(rep.dim)]
    for i in range(rep.dim):
        M[int(perm[i])][i] = Cyclotomic.zeta(rep.ring.p, int(exps[i]))
    return M


def _mat_mul(A, B):
    n = len(A)
    return [
        [sum((A[i][k] * B[k][j] for k in range(n)), Cyclotomic.rational(0)) for j in range(n)]
        for i in range(n)
    ]


def test_minimal_ideal_elements_via_monomial_reps():
    # psi_V(f) acts as f on V and 0 on W, tested with monomial matrices
    from nilorbit import polar

    h3 = heisenberg_ring(3)
    cd = ob.conjugacy_class_data(h3)
    table, orbits = ob.orbit_method_table(h3)
    flag = polar.flag_from_weights(h3)
    nonlinear = [
        (row, orb) for row, orb in zip(table.rows, orbits) if orb.size > 1
    ]
    (rowV, orbV), (rowW, orbW) = nonlinear[0], nonlinear[1]
    repV = polar.MonomialRep(h3, polar.vergne_polarization(h3, flag, orbV.base_point))
    repW = polar.MonomialRep(h3, polar.vergne_polarization(h3, flag, orbW.base_point))
    # f = rho_V(g0) for a noncentral g0; psi_V(f) = (dim/|G|) sum tr(f rho(g^-1)) g
    g0 = element_from_index(h3, 1)
    f_mat = _dense_matrix(repV, g0)
    n = h3.order
    coeffs = []
    for idx in range(n):
        ginv = (-element_from_index(h3, idx)) % 3
        tr = Cyclotomic.rational(0)
        M = _mat_mul(f_mat, _dense_matrix(repV, ginv))
        for i in range(repV.dim):
            tr = tr + M[i][i]
        coeffs.append(tr * Fraction(3, n))
    for rep, expect_f in ((repV, True), (repW, False)):
        acc = [[Cyclotomic.rational(0)] * rep.dim for _ in range(rep.dim)]
        for idx in range(n):
            if coeffs[idx].is_zero():
                continue
            M = _dense_matrix(rep, element_from_index(h3, idx))
            for i in range(rep.dim):
                for j in range(rep.dim):
                    acc[i][j] = acc[i][j] + coeffs[idx] * M[i][j]
        if expect_f:
            target = _dense_matrix(repV, g0)
            assert all(
                acc[i][j] == target[i][j] for i in range(rep.dim) for j in range(rep.dim)
            )
        else:
            assert all(
                acc[i][j].is_zero() for i in range(rep.dim) for j in range(rep.dim)
            )


# -- the bulk law against the scalar oracles it replaced ----------------------
#
# The references below are the scalar laws and the one-product-at-a-time
# group algorithms (class BFS, brute-scan inverse, element-by-element
# powering) that FiniteGroup ran before it had one vectorized law.


def _usp4_scalar(U):
    return lambda i, j: U.index(usp4_mult_quads(U, U.from_index(i), U.from_index(j)))


def _sp_scalar(G):
    A, members = G.algebra, G.members
    p, d = A.p, A.dim
    pos = {int(e): k for k, e in enumerate(members)}

    def mult(i, j):
        x = linalg.decode_indices(members[i], d, p)
        y = linalg.decode_indices(members[j], d, p)
        return pos[int(linalg.encode_vectors((x + y + A.product(x, y)) % p, p))]

    return mult


def _semidirect_scalar(H, A, act):
    nA = A.order

    def mult(i, j):
        h1, a1 = H.from_index(i // nA), A.from_index(i % nA)
        h2, a2 = H.from_index(j // nA), A.from_index(j % nA)
        return H.index(H.add(h1, h2)) * nA + A.index(A.add(act(H.neg(h2), a1), a2))

    return mult


def _scan_inverses(n, mult, identity):
    return [next(j for j in range(n) if mult(i, j) == identity) for i in range(n)]


def _bfs_class_data(n, mult, inv, identity, gens):
    class_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for seed in range(n):
        if class_of[seed] >= 0:
            continue
        reps.append(seed)
        class_of[seed] = len(reps) - 1
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = mult(mult(g, x), inv[g])
                if class_of[y] < 0:
                    class_of[y] = len(reps) - 1
                    frontier.append(y)
    reps = np.array(reps, dtype=np.int64)
    sizes = np.bincount(class_of, minlength=len(reps))
    inv_class = np.array([class_of[inv[r]] for r in reps], dtype=np.int64)
    return ClassData(n, class_of, reps, sizes, inv_class, int(class_of[identity]))


def _element_order(mult, identity, i):
    k, x = 1, i
    while x != identity:
        x, k = mult(x, i), k + 1
    return k


def _assert_matches_scalar_algorithms(G, mult):
    """Classes, inverses, orders, exponent and power map of G against the
    scalar algorithms run on the scalar law."""
    inv = _scan_inverses(G.n, mult, G.identity)
    assert G.inverses().tolist() == inv
    ref = _bfs_class_data(G.n, mult, inv, G.identity, G.generators())
    cd = G.conjugacy_classes()
    assert cd.n == ref.n and cd.identity_class == ref.identity_class
    for field in ("class_of", "reps", "sizes", "inv_class"):
        assert getattr(cd, field).tolist() == getattr(ref, field).tolist(), field
    orders = [_element_order(mult, G.identity, int(r)) for r in ref.reps]
    assert G.element_orders(cd.reps).tolist() == orders
    e = math.lcm(*orders)
    assert G.exponent() == e
    pm = np.zeros((len(ref.reps), e), dtype=np.int64)
    for j, r in enumerate(ref.reps):
        x = G.identity
        for s in range(e):
            pm[j, s] = ref.class_of[x]
            x = mult(x, int(r))
    assert (G.power_classes(e) == pm).all()


def _pairs(n, draw_seed, count=300):
    rng = np.random.default_rng(draw_seed)
    return rng.integers(0, n, count), rng.integers(0, n, count)


@settings(max_examples=25)
@given(q=st.sampled_from([2, 3, 4, 5, 8]), seed=st.integers(0, 2**32 - 1))
def test_usp4_bulk_law_matches_quadruple_law(q, seed):
    U = USp4(q)
    G = U.group(spot_check=False)
    mult = _usp4_scalar(U)
    I, J = _pairs(G.n, seed)
    assert G.mult_bulk(I, J).tolist() == [mult(int(i), int(j)) for i, j in zip(I, J)]
    inv = G.inv_bulk(I)
    assert (G.mult_bulk(I, inv) == 0).all() and (G.mult_bulk(inv, I) == 0).all()


@settings(max_examples=10)
@given(seed=st.integers(0, 2**32 - 1))
def test_sp_a_sigma_bulk_law_matches_member_lookup(seed):
    G = usp4_via_sp(3)
    mult = _sp_scalar(G)
    I, J = _pairs(G.n, seed)
    assert G.mult_bulk(I, J).tolist() == [mult(int(i), int(j)) for i, j in zip(I, J)]


def test_sp_a_sigma_product_outside_the_members_raises():
    G = usp4_via_sp(3)
    one_plus_a = fam.algebra_group(G.algebra, spot_check=False)
    # Sp(A, sigma) is the checked subgroup of 1 + A on its members
    assert G.members[0] == 0 and G.identity == 0
    inside = G.members[[0, 5, 7]]
    assert np.searchsorted(G.members, one_plus_a.mult_bulk(inside, inside)).tolist() == (
        G.mult_bulk([0, 5, 7], [0, 5, 7]).tolist()
    )
    # three more points of 1 + A: some product of two of them leaves the set
    outside = np.setdiff1d(np.arange(G.algebra.order), G.members)[:3]
    H = one_plus_a.subgroup(np.concatenate([G.members, outside]))
    every = np.arange(H.n)
    with pytest.raises(ValueError, match="not closed"):
        H.mult_bulk(np.repeat(every, H.n), np.tile(every, H.n))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_usp4_classes_and_powers_match_scalar_algorithms(q):
    U = USp4(q)
    _assert_matches_scalar_algorithms(U.group(spot_check=False), _usp4_scalar(U))


@pytest.mark.parametrize("q", [3])
def test_sp_a_sigma_classes_and_powers_match_scalar_algorithms(q):
    G = usp4_via_sp(q)
    _assert_matches_scalar_algorithms(G, _sp_scalar(G))


def _dihedral(m):
    # r^i s^f as i + m f; (r^i s^f)(r^j s^g) = r^(i + (-1)^f j) s^(f + g)
    def mult(x, y):
        i, f = x % m, x // m
        j, g = y % m, y // m
        return (i + (-1) ** f * j) % m + m * ((f + g) % 2)

    return mult


def _symmetric(k):
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return lambda x, y: index[tuple(perms[x][t] for t in perms[y])], len(perms)


@pytest.mark.parametrize(
    "mult, n",
    [
        (lambda i, j: (i + j) % 12, 12),
        (_dihedral(5), 10),
        (_dihedral(8), 16),
        _symmetric(4),
        (lambda i, j: (i % 4 + j % 4) % 4 + 4 * ((i // 4 + j // 4) % 2), 8),  # Z4 x Z2
    ],
)
def test_scalar_oracle_groups_match_scalar_algorithms(mult, n):
    G = build_group(mult, n)
    _assert_matches_scalar_algorithms(G, mult)
    # the greedy generators are the parent's: least element outside the closure
    closure, gens = {0}, []
    while len(closure) < n:
        gens.append(min(set(range(n)) - closure))
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                if mult(x, g) not in closure:
                    closure.add(mult(x, g))
                    frontier.append(mult(x, g))
    assert G.generators() == gens
    center = [x for x in range(n) if all(mult(x, g) == mult(g, x) for g in gens)]
    assert G.center().tolist() == center
    assert G.is_abelian() == (len(center) == n)
    inv = _scan_inverses(n, mult, 0)
    comms = {mult(mult(a, b), mult(inv[a], inv[b])) for a in gens for b in gens}
    D = G.derived_subgroup()
    assert D.tolist() == _normal_closure(mult, inv, 0, gens, sorted(comms))
    for x in range(n):
        assert G.normal_closure([x]).tolist() == _normal_closure(mult, inv, 0, gens, [x])
    Q, coset_rep, reps = G.quotient(D)
    rep_index = {int(r): k for k, r in enumerate(reps)}
    I, J = np.divmod(np.arange(Q.n * Q.n), Q.n)
    assert Q.mult_bulk(I, J).tolist() == [
        rep_index[int(coset_rep[mult(int(reps[i]), int(reps[j]))])] for i, j in zip(I, J)
    ]
    assert Q.is_abelian()


def _normal_closure(mult, inv, identity, gens, seeds):
    seen = {identity}
    frontier = [s for s in seeds if s != identity]
    seen.update(frontier)
    members = list(seen)
    while frontier:
        x = frontier.pop()
        candidates = [mult(mult(g, x), inv[g]) for g in gens]
        candidates.extend(mult(x, m) for m in list(members))
        candidates.append(inv[x])
        for y in candidates:
            if y not in seen:
                seen.add(y)
                members.append(y)
                frontier.append(y)
    stable = False
    while not stable:
        stable = True
        members_list = sorted(seen)
        for x in members_list:
            for y in members_list:
                if mult(x, y) not in seen:
                    seen.add(mult(x, y))
                    stable = False
    return sorted(seen)


@st.composite
def abelian_actions(draw):
    """A finite abelian H acting on A = Z_m^k by automorphisms: the first
    generator of H by a unimodular matrix M, the second by a unit scalar c,
    with H = Z_ord(M) x Z_ord(c), of order at most 300."""
    m = draw(st.sampled_from([2, 3, 4, 5]))
    k = draw(st.integers(1, 2))
    entries = draw(st.lists(st.integers(0, m - 1), min_size=k * k, max_size=k * k))
    M = np.array(entries, dtype=np.int64).reshape(k, k)
    if math.gcd(round(np.linalg.det(M)), m) != 1:
        M = np.eye(k, dtype=np.int64)
    c = draw(st.sampled_from([u for u in range(1, m) if math.gcd(u, m) == 1]))

    def order(step, x):
        r, y = 1, step(x)
        while not np.array_equal(y, x):
            y, r = step(y), r + 1
        return r

    eye = np.eye(k, dtype=np.int64)
    r2 = order(lambda X: (c * X) % m, eye)
    r1 = order(lambda X: (M @ X) % m, eye)
    if r1 * r2 * m**k > 300:  # keep the scalar references quick
        M, r1 = eye, 1
    H, A = AbelianGroup([r1, r2]), AbelianGroup([m] * k)
    Mpow = [np.linalg.matrix_power(M, t) % m for t in range(r1)]

    def act(h, a):
        return tuple(int(v) for v in (pow(c, h[1], m) * (Mpow[h[0]] @ np.array(a))) % m)

    return H, A, act


@settings(max_examples=30)
@given(abelian_actions(), st.integers(0, 2**32 - 1))
def test_semidirect_bulk_law_matches_scalar_law(data, seed):
    H, A, act = data
    G = semidirect_product(H, A, _action_table(H, A, act))
    mult = _semidirect_scalar(H, A, act)
    I, J = _pairs(G.n, seed)
    assert G.mult_bulk(I, J).tolist() == [mult(int(i), int(j)) for i, j in zip(I, J)]
    inverses = [
        H.index(H.neg(h)) * A.order + A.index(A.neg(act(h, a)))
        for h, a in ((H.from_index(int(i) // A.order), A.from_index(int(i) % A.order)) for i in I)
    ]
    assert G.inv_bulk(I).tolist() == inverses


@settings(max_examples=25)
@given(abelian_actions())
def test_semidirect_classes_and_little_groups_match_scalar_algorithms(data):
    H, A, act = data
    G = semidirect_product(H, A, _action_table(H, A, act))
    _assert_matches_scalar_algorithms(G, _semidirect_scalar(H, A, act))
    table = little_groups(H, A, _action_table(H, A, act))
    assert table.verify()
    assert table.equals_as_set(dixon_table(table.group))


def test_little_groups_rejects_bad_actions():
    H, A = AbelianGroup([2]), AbelianGroup([3])

    def rejects(act, message):
        with pytest.raises(ValueError, match=message):
            little_groups(H, A, _action_table(H, A, act))

    rejects(lambda h, a: a if h[0] == 0 else ((a[0] * a[0]) % 3,), "not additive")
    H = AbelianGroup([3])
    rejects(lambda h, a: ((1, 2, 2)[h[0]] * a[0] % 3,), "not a homomorphism")
    rejects(lambda h, a: (2 * a[0] % 3,), "identity of H")
    for bad in (np.zeros((3, 2), dtype=np.int64), np.array([[0, 1, 2], [0, 2, 1], [0, 1, 3]])):
        with pytest.raises(ValueError, match="indices into A"):
            little_groups(H, A, bad)


def test_little_groups_rejects_a_bad_row_at_a_non_generator():
    # Z_2^3 acts on Z_3 by the sign (-1)^(h1+h2+h3); the row of h1+h2+h3, a
    # sum of three generators, is replaced by the identity, an automorphism
    H, A = AbelianGroup([2, 2, 2]), AbelianGroup([3])
    table = _action_table(H, A, lambda h, a: ((-1) ** sum(h) * a[0] % 3,))
    assert little_groups(H, A, table).verify()
    table[H.index((1, 1, 1))] = np.arange(3)
    with pytest.raises(ValueError, match="not a homomorphism"):
        little_groups(H, A, table)


def _usp4_conjugation(U):
    """act(h, a): (0,b,c,d) conjugated by (h,0,0,0) in USp4, one quadruple
    at a time through usp4_mult_quads, with H and A coordinates as F_q tuples."""
    F, s = U.field, U.field.s

    def act(h, a):
        g, g_inv = (h, F.zero, F.zero, F.zero), (F.neg(h), F.zero, F.zero, F.zero)
        ga = usp4_mult_quads(U, g, (F.zero, a[:s], a[s : 2 * s], a[2 * s :]))
        y = usp4_mult_quads(U, ga, g_inv)
        assert y[0] == F.zero
        return tuple(y[1]) + tuple(y[2]) + tuple(y[3])

    return act


@pytest.mark.parametrize("q", [2, 4, 8])
def test_usp4_semidirect_table_matches_scalar_conjugation(q):
    U = USp4(q)
    H, A, table = U.semidirect_data()
    assert table.tolist() == _action_table(H, A, _usp4_conjugation(U)).tolist()


def _reference_action_check(H, A, table):
    """The definition on all pairs: the identity row is trivial, every row is
    additive on all (a, b), and table[h1 + h2] = table[h1] o table[h2] on
    all (h1, h2); sums from the scalar laws."""
    add_a = _action_table(A, A, A.add)  # add_a[a, b] = a + b
    add_h = _action_table(H, H, H.add)
    return (
        (table[0] == np.arange(A.order)).all()
        and all((T[add_a] == add_a[T[:, None], T[None, :]]).all() for T in table)
        and (table[add_h] == table[np.arange(H.order)[:, None, None], table[None]]).all()
    )


@settings(max_examples=300)
@given(abelian_actions(), st.data())
def test_action_check_on_generators_matches_the_all_pairs_definition(data, draw):
    H, A, act = data
    table = _action_table(H, A, act)
    assert _reference_action_check(H, A, table)
    _check_action(H, A, table)
    kind = draw.draw(st.sampled_from(["none", "swap", "row", "permutation"]))
    h = draw.draw(st.integers(0, H.order - 1))
    if kind == "swap":
        i, j = draw.draw(st.lists(st.integers(0, A.order - 1), min_size=2, max_size=2))
        table[h, [i, j]] = table[h, [j, i]]
    elif kind == "row":
        table[h] = table[draw.draw(st.integers(0, H.order - 1))]
    elif kind == "permutation":
        table[h] = draw.draw(st.permutations(range(A.order)))
    try:
        _check_action(H, A, table)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _reference_action_check(H, A, table)


def test_twisted_classes_match_scalar_bfs():
    from nilorbit import families

    ring = families.fake_heisenberg(3, 2)
    G = ob.lazard_group(ring)
    phi = linalg.encode_vectors((ring.all_elements() @ ring.fq.frobenius_matrix.T) % 3, 3)
    gens = G.generators()
    labels = np.full(G.n, -1, dtype=np.int64)
    reps = []
    for seed in range(G.n):
        if labels[seed] >= 0:
            continue
        reps.append(seed)
        labels[seed] = len(reps) - 1
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = G.mult(G.mult(int(phi[g]), x), G.inv(g))
                if labels[y] < 0:
                    labels[y] = len(reps) - 1
                    frontier.append(y)
    report = twisted_classes(G, phi)
    assert report["labels"].tolist() == labels.tolist()
    assert report["reps"].tolist() == reps and report["num_classes"] == len(reps)



# -- class pair counts, convolution and quotients ----------------------------
#
# The references are the loops these ran before: one law call per class rep
# for the pair counts, recounted on every convolution, and one per coset for
# a quotient.


def _z4xz2(i, j):
    return (i % 4 + j % 4) % 4 + 4 * ((i // 4 + j // 4) % 2)


_SMALL_GROUPS = {
    "heisenberg F3": lambda: ob.lazard_group(heisenberg_ring(3)),
    "heisenberg F5": lambda: ob.lazard_group(heisenberg_ring(5)),
    "appendix H.2": lambda: ob.lazard_group(appendix_h2_ring(5)),
    "class-3 witness": lambda: ob.lazard_group(witness_ring(5, 3)),
    "usp4(2)": lambda: usp4(2),
    "usp4_via_sp(3)": lambda: usp4_via_sp(3),
    "Z12": lambda: build_group(lambda i, j: (i + j) % 12, 12),
    "D5": lambda: build_group(_dihedral(5), 10),
    "D8": lambda: build_group(_dihedral(8), 16),
    "S4": lambda: build_group(*_symmetric(4)),
    "Z4xZ2": lambda: build_group(_z4xz2, 8),
}


def _pair_counts_per_rep(G):
    cd = G.conjugacy_classes()
    n, t = G.n, cd.num_classes
    inv_all = G.inv_bulk(np.arange(n, dtype=np.int64))
    rows = []
    for z in cd.reps:
        w = G.mult_bulk(inv_all, np.full(n, int(z), dtype=np.int64))
        rows.append(np.bincount(cd.class_of * t + cd.class_of[w], minlength=t * t))
    return np.array(rows)


def _convolve_per_rep(f, g, G):
    t = f.class_data.num_classes
    P, M, den = product_table(f.values, g.values)
    sums = [lincomb(counts, P.reshape(t * t, -1)) for counts in _pair_counts_per_rep(G)]
    return ClassFunction(f.class_data, tuple(from_ints(np.array(sums), M, den)))


def _random_class_function(cd, rng):
    return ClassFunction(cd, tuple(
        int(a) + Cyclotomic.zeta(int(m), int(k)) * int(b)
        for a, b, m, k in zip(*rng.integers([-3, -3, 1, 0], [4, 4, 6, 6], (cd.num_classes, 4)).T)
    ))


@pytest.mark.parametrize("name", sorted(_SMALL_GROUPS))
def test_class_pair_counts_and_convolve_match_per_rep_loop(name):
    G = _SMALL_GROUPS[name]()
    cd = G.conjugacy_classes()
    K = G.class_pair_counts()
    ref = _pair_counts_per_rep(G)
    assert K.dtype == np.int32 and K.shape == ref.shape == (cd.num_classes, cd.num_classes**2)
    assert (K == ref).all()
    assert (K.sum(axis=1) == G.n).all()  # every x pairs with one y per rep
    assert G.class_pair_counts() is K
    rng = np.random.default_rng(len(name))
    pairs = [(_random_class_function(cd, rng), _random_class_function(cd, rng)) for _ in range(3)]
    if hasattr(G, "ring"):
        rows = ob.orbit_method_table(G.ring)[0].rows
        pairs += [(rows[-1], rows[-1]), (rows[1], rows[-1]), (rows[0], rows[len(rows) // 2])]
    for f, g in pairs:
        assert convolve(f, g, G) == _convolve_per_rep(f, g, G)


def test_convolve_rejects_another_groups_class_data():
    D4 = build_group(_dihedral(4), 8)
    # D4 with two elements of different classes (r and s) swapped: the same
    # order and class count, but another class_of
    swap = np.arange(8)
    swap[[1, 4]] = [4, 1]
    D4_relabeled = build_group(lambda i, j: int(swap[_dihedral(4)(swap[i], swap[j])]), 8)
    cd, other = D4.conjugacy_classes(), D4_relabeled.conjugacy_classes()
    assert cd.num_classes == other.num_classes and not cd.same_as(other)
    f = _random_class_function(cd, np.random.default_rng(1))
    with pytest.raises(ValueError):
        convolve(f, f, D4_relabeled)
    with pytest.raises(ValueError):
        convolve(_random_class_function(other, np.random.default_rng(2)), f, D4)
    with pytest.raises(ValueError):
        convolve(f, f, build_group(_z4xz2, 8))
    row = ob.orbit_method_table(heisenberg_ring(3))[0].rows[-1]
    with pytest.raises(ValueError):
        convolve(row, row, ob.lazard_group(heisenberg_ring(5)))


def _quotient_per_coset(G, normal):
    coset_rep = np.full(G.n, -1, dtype=np.int64)
    reps = []
    for x in range(G.n):
        if coset_rep[x] >= 0:
            continue
        coset = G.mult_bulk(np.full(len(normal), x, dtype=np.int64), normal)
        r = int(coset.min())
        coset_rep[coset] = r
        reps.append(r)
    return coset_rep, np.array(sorted(reps), dtype=np.int64)


@pytest.mark.parametrize("name", ["S4", "D5", "D8", "Z4xZ2", "heisenberg F3", "heisenberg F5",
                                  "class-3 witness"])
def test_quotient_matches_per_coset_loop(name):
    G = _SMALL_GROUPS[name]()
    rng = np.random.default_rng(3)
    normals = [[G.identity], np.arange(G.n), G.center(), G.derived_subgroup()]
    normals += [G.normal_closure([x]) for x in rng.integers(0, G.n, 4)]
    for N in normals:
        N = np.asarray(N, dtype=np.int64)
        Q, coset_rep, reps = G.quotient(N)
        ref_rep, ref_reps = _quotient_per_coset(G, N)
        assert coset_rep.tolist() == ref_rep.tolist()
        assert reps.tolist() == ref_reps.tolist()
        assert Q.n == G.n // len(N) and Q.identity == ref_reps.tolist().index(ref_rep[G.identity])
        I, J = rng.integers(0, Q.n, (2, 300))
        expected = np.searchsorted(ref_reps, ref_rep[G.mult_bulk(ref_reps[I], ref_reps[J])])
        assert Q.mult_bulk(I, J).tolist() == expected.tolist()


@pytest.mark.parametrize("name", ["S4", "D8", "heisenberg F3", "class-3 witness"])
def test_subgroup_numbers_sorted_members_and_refuses_a_set_that_is_not_closed(name):
    G = _SMALL_GROUPS[name]()
    rng = np.random.default_rng(5)
    for elems in (G.center(), G.derived_subgroup(), G.normal_closure(rng.integers(0, G.n, 1))):
        H = G.subgroup(rng.permutation(elems))
        assert H.members.tolist() == sorted(elems.tolist())
        assert H.members[H.identity] == G.identity
        I, J = rng.integers(0, H.n, (2, 200))
        assert H.members[H.mult_bulk(I, J)].tolist() == G.mult_bulk(H.members[I], H.members[J]).tolist()
        assert H.members[H.inv_bulk(I)].tolist() == G.inv_bulk(H.members[I]).tolist()
    # an element of order > 2 and the identity: its square leaves the set
    g = next(x for x in range(G.n) if G.mult(x, x) != G.identity)
    H = G.subgroup([G.identity, g])
    k = int(np.searchsorted(H.members, g))
    with pytest.raises(ValueError, match="not closed"):
        H.mult_bulk([k], [k])
    with pytest.raises(ValueError, match="not closed"):
        G.subgroup([g])  # the identity is missing
    with pytest.raises(ValueError, match="repeat"):
        G.subgroup([G.identity, g, g])


def _traced_peak(fn):
    """(exception raised by fn, tracemalloc's peak in bytes during it)"""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            fn()
        return err.value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_whole_group_passes_refuse_an_oversized_group():
    # UL_6(F_3) has 3^15 elements: its axiom check would ask for ~24 GiB
    err, peak = _traced_peak(lambda: ul_group(6, 3))
    budget = WHOLE_GROUP_BUDGET
    assert str(err) == "group order %d exceeds the whole-group budget %d" % (3**15, budget)
    assert peak < 1 << 20
    n = WHOLE_GROUP_BUDGET + 1
    G = FiniteGroup(n, lambda I, J: (I + J) % n, gens=[1])
    for pass_ in (
        G.spot_check_axioms, G.inverses, G.center, G.conjugacy_classes, lambda: G.quotient([0])
    ):
        err, peak = _traced_peak(pass_)
        assert "order %d" % n in str(err) and peak < 1 << 16
