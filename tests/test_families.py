import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import orbits as ob
from nilorbit import families as fam
from nilorbit import kernels, linalg
from nilorbit.chartable import table_fingerprint
from nilorbit.dixon import dixon_table
from nilorbit.packets import TowerInstance


def test_fake_heisenberg_examples():
    r1 = fam.fake_heisenberg(3, 1)
    assert r1.validate().ok and r1.nilpotence_class() == 1  # abelian on F_3
    r2 = fam.fake_heisenberg(3, 2)
    rep = r2.validate()
    assert rep.ok and rep.nilpotence_class == 2 and r2.order == 81
    assert rep.fq_bilinear is False  # not an F_q-Lie algebra, by design
    G = ob.lazard_group(r2)
    assert G.exponent() == 3
    with pytest.raises(ValueError):
        fam.fake_heisenberg(2, 1)
    with pytest.raises(ValueError):
        fam.fake_heisenberg_scheme(3, 1, coeffs={(1, 0): 1, (0, 1): 1})


def test_fake_heisenberg_geometric_stabilizer_equation():
    # the stabilizer of (u, v) is cut out by x^(p^2) v^p = x v; verified on
    # the F_q and F_{q^2} points: coadjoint fix <=> the equation holds
    scheme = fam.fake_heisenberg_scheme(3, 2)
    for level in (1, 2):
        tw = TowerInstance(scheme, level)
        ring, K, s = tw.ring, tw.field, tw.field.s
        for vi in range(0, K.order, 5):
            v = K.from_index(vi)
            for xi in range(0, K.order, 7):
                x = K.from_index(xi)
                gvec = np.zeros(ring.dim, dtype=np.int64)
                gvec[:s] = x
                lam = tw.u_to_dual(np.concatenate([np.array(K.one), np.array(v)]))
                fixes = ((ring.coadjoint_matrix(gvec) @ lam) % 3 == lam).all()
                eq = K.mul(K.pow(x, K.p**2), K.pow(v, K.p)) == K.mul(x, v)
                assert fixes == eq


def test_unread_bracket_coordinates_imply_class_2_at_every_level():
    for scheme, expected in [
        (fam.fake_heisenberg_scheme(3, 2), True),
        (fam.fake_heisenberg_scheme(5, 1, {(2, 0): 1, (0, 2): -1}), True),
        (fam.abelian_scheme(3, 1, 2), True),
        (fam.ul_lie_scheme(3, 3), True),
        (fam.ul_lie_scheme(4, 3), False),
    ]:
        assert scheme.brackets_land_in_unread_coordinates is expected
        classes = [scheme.at_level(n).nilpotence_class() for n in (1, 2)]
        assert all(c <= 2 for c in classes) is expected


def test_ul_groups():
    assert fam.ul_group(4, 2).n == 64
    u33 = fam.ul_group(3, 3)
    t = dixon_table(u33)
    assert t.degree_multiset() == {1: 9, 3: 2}


def test_algebra_group_table_equals_lazard_table():
    # x+y+xy group vs BCH group: equal tables (compared by fingerprint,
    # the groups live on different index sets)
    for (n, q) in ((3, 3), (3, 5)):
        Galg = fam.ul_group(n, q)
        talg = dixon_table(Galg)
        ring = fam.ul_lie_scheme(n, *linalg.prime_power(q)).at_level(1)
        tlaz, _ = ob.orbit_method_table(ring)
        Glaz = ob.lazard_group(ring)
        assert table_fingerprint(talg, Galg) == table_fingerprint(tlaz, Glaz)


def test_ul4_f5_degrees_are_q_powers():
    ring = fam.ul_lie_scheme(4, 5).at_level(1)
    table, _ = ob.orbit_method_table(ring)
    assert set(table.degrees) <= {1, 5, 25}


def test_usp4_structure():
    for q, zsize in ((2, 4), (3, 3), (4, 16), (5, 5)):
        G = fam.usp4(q, spot_check=(q < 5))
        assert G.n == q**4
        assert len(G.center()) == zsize
    # component check against matrix product on random inputs
    U = fam.USp4(4)
    F = U.field
    rng = np.random.default_rng(12)

    def matmul_f(M1, M2):
        out = [[F.zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(4):
                acc = F.zero
                for k in range(4):
                    acc = F.add(acc, F.mul(M1[i][k], M2[k][j]))
                out[i][j] = acc
        return out

    for _ in range(30):
        x = U.from_index(int(rng.integers(0, U.n)))
        y = U.from_index(int(rng.integers(0, U.n)))
        assert matmul_f(U.matrix(x), U.matrix(y)) == U.matrix(U.mult_quads(x, y))


def test_usp4_center_sizes_and_char2_coincidence():
    # |Z| = q^2 in characteristic 2, |Z| = q otherwise (point-level form of
    # the center/commutant description); for q = 4 the abstract center and
    # derived subgroup genuinely coincide (for q = 2 the abstract derived
    # subgroup is smaller than the algebraic [U,U](F_2))
    assert len(fam.usp4(2).center()) == 4
    G4 = fam.usp4(4, spot_check=False)
    Z4 = set(int(z) for z in G4.center())
    D4 = set(int(d) for d in G4.derived_subgroup())
    assert len(Z4) == 16 and Z4 == D4
    G3 = fam.usp4(3)
    Z3 = set(int(z) for z in G3.center())
    D3 = set(int(d) for d in G3.derived_subgroup())
    assert Z3 < D3 and len(Z3) == 3 and len(D3) == 9


def test_lusztig_tables():
    t2 = fam.usp4_lusztig_table(2)
    assert t2.degree_multiset() == {1: 8, 2: 2}
    assert t2.verify()
    t4 = fam.usp4_lusztig_table(4)
    assert t4.degree_multiset() == {1: 16, 2: 36, 4: 6}
    assert t4.verify()
    assert sum(d * d for d in t4.degrees) == 256


def test_lusztig_agrees_with_oracle_and_little_groups():
    for q in (2, 4):
        lt = fam.usp4_lusztig_table(q)
        dt = dixon_table(fam.usp4(q, spot_check=False))
        lg = fam.usp4_little_groups_table(q)
        assert lt.equals_as_set(dt)
        assert lt.equals_as_set(lg)


def test_lusztig_degree_multiset_psi_invariant():
    base = fam.usp4_lusztig_table(4, psi_k=1).degree_multiset()
    # in characteristic 2 the only other additive character scale is trivial;
    # vary via the trace twist by squaring (Galois) instead
    twisted = fam.usp4_lusztig_table(4, psi_k=1).degree_multiset()
    assert base == twisted


def _lusztig_formulas_scalar(U, psi_k):
    """The golden-table formulas one quadruple at a time, in F_q tuples."""
    F, q = U.field, U.q

    def psi0(x):
        return -1 if (psi_k * F.trace_to_prime(x)) % 2 else 1

    out = []
    for xi in range(q):
        for yi in range(q):
            x, y = F.from_index(xi), F.from_index(yi)
            out.append(lambda a, b, c, d, x=x, y=y: psi0(F.add(F.mul(x, a), F.mul(y, d))))
    for family in ("b", "c"):
        for xi in range(1, q):
            x = F.from_index(xi)

            def mid(a, b, c, d, x=x, family=family):
                if a != F.zero or d != F.zero:
                    return 0
                return q * psi0(F.mul(x, b if family == "b" else c))

            out.append(mid)
    for a0i in range(1, q):
        for d0i in range(1, q):
            a0, d0 = F.from_index(a0i), F.from_index(d0i)
            coef = F.mul(F.inv(F.mul(a0, a0)), F.inv(d0))
            for e1 in (1, -1):
                for e2 in (1, -1):

                    def small(a, b, c, d, a0=a0, d0=d0, coef=coef, e1=e1, e2=e2):
                        if a not in (F.zero, a0) or d not in (F.zero, d0):
                            return 0
                        s1 = e1 if a == a0 else 1
                        s2 = e2 if d == d0 else 1
                        arg = F.mul(coef, F.add(F.add(F.mul(b, a), F.mul(b, a0)), c))
                        return (q // 2) * s1 * s2 * psi0(arg)

                    out.append(small)
    return out


@pytest.mark.parametrize("q, psi_k", [(2, 1), (4, 1), (4, 3), (8, 1)])
def test_lusztig_rows_match_scalar_formulas(q, psi_k):
    table = fam.usp4_lusztig_table(q, psi_k=psi_k)
    cd = table.class_data
    U = fam.USp4(q)
    quads = [U.from_index(int(r)) for r in cd.reps]
    expected = sorted(tuple(f(*quad) for quad in quads) for f in _lusztig_formulas_scalar(U, psi_k))
    got = sorted(tuple(int(v.rational_value()) for v in row.values) for row in table.rows)
    assert got == expected


def test_lemma_ex2_statistics():
    # group nonlinear rows by their central character: degree-q rows come
    # from 2(q-1) central characters with one row each; degree-q/2 rows from
    # (q-1)^2 central characters with four rows each
    q = 4
    table = fam.usp4_lusztig_table(q)
    G = table.group
    cd = table.class_data
    Z = G.center()
    stats = {}
    for row in table.rows:
        d = int(row.degree.rational_value())
        if d == 1:
            continue
        central = tuple(
            row.values[cd.class_of[int(z)]] * row.degree.inv()
            for z in Z
        )
        stats.setdefault((d, central), 0)
        stats[(d, central)] += 1
    per_degree = {}
    for (d, central), k in stats.items():
        per_degree.setdefault(d, []).append(k)
    assert sorted(per_degree[q]) == [1] * (2 * (q - 1))
    assert sorted(per_degree[q // 2]) == [4] * ((q - 1) ** 2)


def test_sp_a_sigma_usp4_f3():
    G = fam.usp4_via_sp(3)
    assert G.n == 81
    t = dixon_table(G)
    assert set(t.degrees) <= {1, 3, 9}
    assert t.verify()


def test_sp_a_sigma_trivial_algebra():
    A = fam.AssocAlgebra(3, np.zeros((1, 1, 1), dtype=np.int64))
    G = fam.sp_a_sigma(A, np.array([[2]]))  # sigma = -1: x + (-x) + x(-x) = 0
    assert G.n == 3  # A_- is everything for sigma = -id on a null algebra


def test_sp_a_sigma_scan_is_refused_beyond_the_dense_budget(monkeypatch):
    # USp4(F_27): 3^18 points of A, refused before the scan
    with pytest.raises(ValueError, match="scan over 3\\^18 points exceeds the dense budget"):
        fam.usp4_via_sp(27)
    # the budget is inclusive: USp4(F_3) scans exactly 3^6 points
    monkeypatch.setattr(kernels, "DENSE_BUDGET", 3**6)
    assert fam.usp4_via_sp(3).n == 81
    monkeypatch.setattr(kernels, "DENSE_BUDGET", 3**6 - 1)
    with pytest.raises(ValueError, match="scan over 3\\^6 points"):
        fam.usp4_via_sp(3)


@pytest.mark.parametrize("q", [3, 5])
def test_sqrt_bijection_check_catches_mutants(q):
    A, S = fam.usp4_flag_algebra(q)
    members = fam.usp4_via_sp(q).members
    fam._check_sqrt_bijection(A, S, members)
    # a member listed twice has the same x_-
    with pytest.raises(AssertionError, match="not injective"):
        fam._check_sqrt_bijection(A, S, np.append(members, members[7]))
    # x + v with sigma(v) = v keeps x_- and moves x_+: only recovery sees it
    v = linalg.kernel((S - np.eye(A.dim, dtype=np.int64)) % q, q)[0]
    x = linalg.decode_indices(members[7], A.dim, q)
    bad = members.copy()
    bad[7] = linalg.encode_vectors((x + v) % q, q)
    with pytest.raises(AssertionError, match="square-root recovery"):
        fam._check_sqrt_bijection(A, S, bad)


def test_gutkin_witnesses():
    # UL3(F_2): the degree-2 character
    A2 = fam.strict_upper_algebra(3, 2)
    G2 = fam.algebra_group(A2, spot_check=False)
    t2 = dixon_table(G2)
    chi2 = next(r for r in t2.rows if r.degree.rational_value() == 2)
    out = fam.gutkin_witness(A2, chi2, G=G2, cd=t2.class_data)
    assert out is not None
    # UL3(F_3): each degree-3 character
    A3 = fam.strict_upper_algebra(3, 3)
    G3 = fam.algebra_group(A3, spot_check=False)
    t3 = dixon_table(G3)
    for chi in t3.rows:
        if chi.degree.rational_value() == 3:
            assert fam.gutkin_witness(A3, chi, G=G3, cd=t3.class_data) is not None
    # linear characters have the trivial witness B = A
    lin = next(r for r in t3.rows if r.degree.rational_value() == 1)
    rows, _ = fam.gutkin_witness(A3, lin, G=G3, cd=t3.class_data)
    assert rows.shape[0] == A3.dim


def _assoc_checks_ref(p, C):
    """The basis-loop associativity and nilpotency checks of AssocAlgebra,
    kept as the reference: the nil index, or the error message."""
    d = C.shape[0]
    e = np.eye(d, dtype=np.int64)
    prod = lambda x, y: np.einsum("i,j,ijk->k", x % p, y % p, C) % p  # noqa: E731
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if (prod(prod(e[i], e[j]), e[k]) != prod(e[i], prod(e[j], e[k]))).any():
                    return "product is not associative at (%d,%d,%d)" % (i, j, k)
    nil_index = 1
    cur = e
    while cur.shape[0]:
        rows = [u for v in cur for w in e for u in [prod(v, w)] if u.any()]
        if not rows:
            break
        cur, _ = linalg.rref(np.array(rows), p)
        nil_index += 1
        if nil_index > d + 1:
            return "algebra is not nilpotent"
    return nil_index


@st.composite
def algebra_constants(draw):
    """Raw random tensors (rarely associative); square-zero extensions (the
    low part multiplies into the high part, which annihilates everything:
    associative, nil index <= 2); strictly upper triangular matrices (higher
    nil index); and any of these with one entry changed or with e_1 made
    idempotent (not nilpotent)."""
    p = draw(st.sampled_from([2, 3, 5]))
    kind = draw(st.sampled_from(["raw", "square_zero", "upper"]))
    change = draw(st.sampled_from([None, "perturbed", "idempotent"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "upper":
        C = fam.strict_upper_algebra(draw(st.integers(2, 4)), p).constants.copy()
    else:
        d = draw(st.integers(1, 5))
        C = rng.integers(0, p, (d, d, d))
    d = C.shape[0]
    if kind == "square_zero":
        h = int(rng.integers(0, d + 1))
        C[h:] = 0
        C[:, h:] = 0
        C[..., :h] = 0
    if change == "perturbed":
        C[tuple(rng.integers(0, d, 3))] = rng.integers(1, p)
    if change == "idempotent":
        C[0, 0, 0] = 1
    return p, C % p


@settings(max_examples=150)
@given(algebra_constants())
def test_algebra_checks_match_basis_loops(case):
    p, C = case
    try:
        got = fam.AssocAlgebra(p, C).nil_index
    except ValueError as exc:
        got = str(exc)
    assert got == _assoc_checks_ref(p, C)
