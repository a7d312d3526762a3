import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import linalg
from nilorbit.battery import appendix_h2_ring, random_class_le3_rings
from nilorbit.families import AssocAlgebra, fake_heisenberg, fake_heisenberg_scheme, ul_lie_scheme
from nilorbit.gfq import FqField
from nilorbit.liering import (
    FqStructure,
    LieRing,
    Subspace,
    ValidationReport,
    abelian_ring,
    heisenberg_ring,
)
from nilorbit.packets import TowerInstance


def test_validate_examples():
    h3 = heisenberg_ring(3)
    rep = h3.validate()
    assert rep.ok and rep.nilpotence_class == 2 and rep.lazard_ok

    C = np.zeros((2, 2, 2))
    C[0, 1, 0] = 1
    C[1, 0, 0] = 1  # not antisymmetric
    bad = LieRing(3, C)
    rep = bad.validate()
    assert not rep.ok
    assert rep.failures[0][0] in ("alternating", "antisymmetric")

    ul4 = ul_lie_scheme(4, 5).at_level(1)
    rep = ul4.validate()
    assert rep.ok and rep.nilpotence_class == 3
    assert [s.dim for s in ul4.lower_central_series()] == [6, 3, 1, 0]


def test_jacobi_failure_named():
    # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi on (1,2,3)
    C = np.zeros((3, 3, 3), dtype=np.int64)
    C[0, 1, 2] = 1
    C[1, 0, 2] = -1
    C[0, 2, 0] = 1
    C[2, 0, 0] = -1
    rep = LieRing(5, C).validate()
    assert not rep.ok
    assert any(f[0] == "jacobi" for f in rep.failures)


def test_lower_central_series_examples():
    assert [s.dim for s in abelian_ring(5, 3).lower_central_series()] == [3, 0]
    assert [s.dim for s in heisenberg_ring(3).lower_central_series()] == [3, 1, 0]
    h2 = appendix_h2_ring(5)
    assert [s.dim for s in h2.lower_central_series()] == [4, 2, 1, 0]


def test_largest_ideal_within():
    h2 = appendix_h2_ring(5)
    assert h2.largest_ideal_within(h2.full_subspace()).dim == 4
    W = h2.subspace(np.array([[0, 1, 0, 0], [0, 0, 0, 1]]))  # span(y, t)
    ideal = h2.largest_ideal_within(W)
    assert ideal.rows.tolist() == [[0, 0, 0, 1]]  # span(t)
    ctr = h2.center()
    assert h2.largest_ideal_within(ctr) == ctr


def test_group_law_examples():
    h5 = heisenberg_ring(5)
    assert h5.group_mul([1, 0, 0], [0, 1, 0]).tolist() == [1, 1, 3]
    x = np.array([2, 3, 1])
    assert not h5.group_mul(x, -x % 5).any()
    ab = abelian_ring(5, 3)
    assert ab.group_mul([1, 2, 3], [4, 4, 4]).tolist() == [0, 1, 2]


def test_group_axioms_exhaustive_and_powers():
    h3 = heisenberg_ring(3)
    pts = h3.all_elements()
    n = len(pts)
    # associativity on all n^3 triples via bulk evaluation
    AS = np.repeat(pts, n * n, axis=0)
    BS = np.tile(np.repeat(pts, n, axis=0), (n, 1))
    CS = np.tile(pts, (n * n, 1))
    lhs = h3.group_mul_bulk(h3.group_mul_bulk(AS, BS), CS)
    rhs = h3.group_mul_bulk(AS, h3.group_mul_bulk(BS, CS))
    assert (lhs == rhs).all()
    # identity and inverse exhaustively
    zero = np.zeros_like(pts)
    assert (h3.group_mul_bulk(pts, zero) == pts).all()
    assert not h3.group_mul_bulk(pts, (-pts) % 3).any()
    # exponent p: x^(*p) = 0
    for x in pts:
        y = x.copy()
        for _ in range(h3.p - 1):
            y = h3.group_mul(y, x)
        assert not y.any()


def test_coadjoint_matrices():
    h3 = heisenberg_ring(3)
    assert (h3.coadjoint_matrix(np.zeros(3, dtype=np.int64)) == np.eye(3)).all()
    assert (h3.coadjoint_matrix(np.array([0, 0, 2])) == np.eye(3)).all()
    # action law on all pairs
    pts = h3.all_elements()
    for a in pts[:12]:
        for b in pts[:12]:
            lhs = h3.coadjoint_matrix(h3.group_mul(a, b))
            rhs = (h3.coadjoint_matrix(a) @ h3.coadjoint_matrix(b)) % 3
            assert (lhs == rhs).all()


def test_fake_heisenberg_coadjoint_closed_form():
    # Ad*(x, z): (u, v) -> (u + x^(1/p) v^(1/p) - x^p v, v), exhaustive over
    # all points of F_q and F_{q^2} (vectorized over the dual per x)
    scheme = fake_heisenberg_scheme(3, 2)
    from nilorbit import linalg

    for level in (1, 2):
        tower = TowerInstance(scheme, level)
        ring = tower.ring
        K = tower.field
        p, s = K.p, K.s
        n = K.order
        U = linalg.all_vectors(s, p)  # all u coords
        pairs_u = np.repeat(U, n, axis=0)
        pairs_v = np.tile(U, (n, 1))
        lam = (tower.gram_full @ np.concatenate([pairs_u, pairs_v], axis=1).T).T % p
        vp_inv = K.bulk_pow(pairs_v, p ** (s - 1))  # v^(1/p)
        for xi in range(n):
            x = K.from_index(xi)
            gvec = np.zeros(ring.dim, dtype=np.int64)
            gvec[:s] = x
            M = ring.coadjoint_matrix(gvec)
            img_u = ((tower.gram_full_inv @ (M @ lam.T % p)).T % p)[:, :s]
            xinv = np.array(K.pow(x, p ** (s - 1)), dtype=np.int64)  # x^(1/p)
            xp = np.array(K.pow(x, p), dtype=np.int64)
            shift = (
                K.bulk_mul(np.tile(xinv, (len(pairs_v), 1)), vp_inv)
                - K.bulk_mul(np.tile(xp, (len(pairs_v), 1)), pairs_v)
            ) % p
            assert ((pairs_u + shift) % p == img_u).all()


def test_bch_associativity_exhaustive_and_random():
    # exhaustive on |g| = 5^3; randomized triples at 5^4
    h5 = heisenberg_ring(5)
    pts = h5.all_elements()
    n = len(pts)
    AS = np.repeat(pts, n * n, axis=0)
    BS = np.tile(np.repeat(pts, n, axis=0), (n, 1))
    CS = np.tile(pts, (n * n, 1))
    lhs = h5.group_mul_bulk(h5.group_mul_bulk(AS, BS), CS)
    rhs = h5.group_mul_bulk(AS, h5.group_mul_bulk(BS, CS))
    assert (lhs == rhs).all()
    h2 = appendix_h2_ring(5)
    rng = np.random.default_rng(4)
    A = rng.integers(0, 5, (20000, 4))
    B = rng.integers(0, 5, (20000, 4))
    C = rng.integers(0, 5, (20000, 4))
    lhs = h2.group_mul_bulk(h2.group_mul_bulk(A, B), C)
    rhs = h2.group_mul_bulk(A, h2.group_mul_bulk(B, C))
    assert (lhs == rhs).all()


def test_frobenius_is_group_automorphism():
    ring = fake_heisenberg(3, 2)
    F = ring.fq.frobenius_matrix
    pts = ring.all_elements()
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = pts[rng.integers(0, len(pts), 2)]
        lhs = (F @ ring.group_mul(a, b)) % 3
        rhs = ring.group_mul((F @ a) % 3, (F @ b) % 3)
        assert (lhs == rhs).all()


def test_element_index_roundtrip():
    ring = heisenberg_ring(3)
    assert ring.element_index(np.zeros(3, dtype=np.int64)) == 0
    r2 = abelian_ring(3, 2)
    assert r2.element_index(np.array([2, 1])) == 5
    # all_elements lists the elements in index order
    assert [ring.element_index(x) for x in ring.all_elements()] == list(range(ring.order))


def test_subspace_operations():
    p = 5
    A = Subspace(np.array([[1, 0, 0], [0, 1, 0]]), p)
    B = Subspace(np.array([[0, 1, 1]]), p)
    assert A.sum(B).dim == 3
    inter = A.intersect(B)
    assert inter.dim == 0
    C = Subspace(np.array([[0, 1, 0], [0, 0, 1]]), p)
    assert A.intersect(C).rows.tolist() == [[0, 1, 0]]
    assert A.contains(np.array([2, 3, 0]))
    assert not A.contains(np.array([0, 0, 1]))


def test_subring_and_quotient():
    h2 = appendix_h2_ring(5)
    sub, rows = h2.subring(h2.subspace(np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])))
    assert sub.validate().ok
    assert sub.nilpotence_class() == 1  # span(y,z,t) is abelian in H.2
    q, project = h2.quotient(h2.subspace(np.array([[0, 0, 0, 1]])))
    assert q.dim == 3 and q.validate().ok
    assert q.nilpotence_class() == 2


def _bilinear_exact(C, X, Y, p):
    """linalg.bilinear in Python ints, row by broadcast row."""
    d = C.shape[0]
    lead = np.broadcast_shapes(np.shape(X)[:-1], np.shape(Y)[:-1])
    X, Y = np.broadcast_to(X, lead + (d,)), np.broadcast_to(Y, lead + (d,))
    out = np.zeros(lead + (d,), dtype=np.int64)
    for at in np.ndindex(lead):
        x, y = [int(v) for v in X[at]], [int(v) for v in Y[at]]
        for k in range(d):
            out[at + (k,)] = sum(x[i] * y[j] * int(C[i, j, k]) for i in range(d) for j in range(d)) % p
    return out


# d = 4: the primes on either side of d^2 (p-1)^3 = 2^53, where the
# contraction leaves float64 for int64, and one where (p-1)^3 overflows int64
@pytest.mark.parametrize("p", [82571, 82591, 3000017])
def test_bracket_and_product_exact_at_large_prime(p):
    d = 4
    assert (d * d * (p - 1) ** 3 <= linalg.FLOAT_EXACT) == (p == 82571)
    rng = np.random.default_rng(p)
    # entries near p - 1, so the partial sums come near d^2 (p-1)^3 with
    # low bits a float64 above 2^53 would round away
    C = rng.integers(p - 8, p, (d, d, d))
    C[0, 0] = p - 1
    X, Y = rng.integers(p - 8, p, (2, 5, d))
    X[0] = Y[0] = p - 1
    ring = LieRing(p, C)
    for x, y in [(X, Y), (X - p, Y + 3 * p), (X + 5 * p, -Y)]:
        for a, b in [(x[1], y[2]), (x, y), (x[:, None], y), (x[:3, None], y[1])]:
            want = _bilinear_exact(C, a % p, b % p, p)
            got = linalg.bilinear(C, a, b, p)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert (got == want).all()
        assert (ring.bracket(x, y) == _bilinear_exact(C, x % p, y % p, p)).all()
    # a two-step nilpotent algebra's product, through AssocAlgebra
    N = np.zeros((d, d, d), dtype=np.int64)
    N[0, 1, 2] = N[1, 0, 3] = p - 1
    assert AssocAlgebra(p, N).product([p - 1, 0, 0, 0], [0, -1, 0, 0]).tolist() == [0, 0, p - 1, 0]


# -- basis-vector loop versions of the tensor checks, kept as references -------


def _bracket_ref(C, x, y, p):
    return np.einsum("i,j,ijk->k", np.asarray(x) % p, np.asarray(y) % p, C) % p


def _basis(d, i):
    return np.eye(d, dtype=np.int64)[i]


def _lcs_ref(ring):
    C, p, d = ring.constants, ring.p, ring.dim
    series = [ring.full_subspace()]
    current = series[0]
    while current.dim > 0:
        rows = [_bracket_ref(C, _basis(d, i), w, p) for i in range(d) for w in current.rows]
        nxt = Subspace(np.array(rows), p, d=d)
        if nxt.dim == current.dim:
            raise ValueError("ring is not nilpotent")
        series.append(nxt)
        current = nxt
    return series


def _validate_ref(ring):
    C, p, d = ring.constants, ring.p, ring.dim
    e = [_basis(d, i) for i in range(d)]
    br = lambda x, y: _bracket_ref(C, x, y, p)  # noqa: E731
    failures = []
    for i in range(d):
        if C[i, i].any():
            failures.append(("alternating", (i, i)))
    anti = (C + np.swapaxes(C, 0, 1)) % p
    if anti.any():
        failures.append(("antisymmetric", tuple(np.argwhere(anti.any(axis=2))[0])))
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                v = (br(br(e[i], e[j]), e[k]) + br(br(e[j], e[k]), e[i]) + br(br(e[k], e[i]), e[j])) % p
                if v.any():
                    failures.append(("jacobi", (i, j, k)))
    if failures:
        return ValidationReport(False, None, failures)
    cls = len(_lcs_ref(ring)) - 1
    report = ValidationReport(True, cls, [], lazard_ok=cls < p)
    if not report.lazard_ok:
        report.failures.append(("class >= p", (cls, p)))
    if ring.fq is None:
        return report
    F = ring.fq.frobenius_matrix
    for i in range(d):
        for j in range(d):
            if ((F @ br(e[i], e[j])) % p != br(F[:, i], F[:, j])).any():
                report.ok = False
                report.failures.append(("frobenius not automorphism", (i, j)))
                return report
    if linalg.matpow(F, ring.fq.field.s, p).tolist() != np.eye(d, dtype=np.int64).tolist():
        report.ok = False
        report.failures.append(("frobenius order", ring.fq.field.s))
    report.fq_bilinear = True
    for S in ring.fq.scalar_matrices:
        for i in range(d):
            for j in range(d):
                if (br(S[:, i], e[j]) != (S @ br(e[i], e[j])) % p).any():
                    report.fq_bilinear = False
                    return report
    return report


def _center_ref(ring):
    C, p, d = ring.constants, ring.p, ring.dim
    mats = [np.einsum("i,ijk->kj", _basis(d, i), C) % p for i in range(d)]
    return linalg.kernel(np.concatenate(mats, axis=0), p)


def _outcome(f):
    try:
        return "ok", f()
    except ValueError as exc:
        return "raises", str(exc)


def _assert_checks_match(ring):
    fresh = lambda: LieRing(ring.p, ring.constants, fq=ring.fq)  # noqa: E731
    assert repr(_outcome(fresh().validate)) == repr(_outcome(lambda: _validate_ref(ring)))
    rows = lambda series: [s.rows.tolist() for s in series]  # noqa: E731
    assert _outcome(lambda: rows(fresh().lower_central_series())) == _outcome(lambda: rows(_lcs_ref(ring)))
    assert fresh().center().rows.tolist() == _center_ref(ring).tolist()


@st.composite
def structure_constants(draw):
    """Random tensors: raw (not alternating), alternating (Jacobi and
    nilpotency usually fail) and strictly increasing alternating ones
    (nilpotent; Jacobi holds on sparse draws)."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["raw", "alternating", "increasing"]))
    density = draw(st.sampled_from([0.1, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    C = rng.integers(0, p, (d, d, d)) * (rng.random((d, d, d)) < density)
    if kind != "raw":
        if kind == "increasing":
            i, j, k = np.indices((d, d, d))
            C = C * (k > np.maximum(i, j))
        C = np.triu(C.transpose(2, 0, 1), 1).transpose(1, 2, 0)
        C = C - C.transpose(1, 0, 2)
    return LieRing(p, C)


@settings(max_examples=150)
@given(structure_constants())
def test_tensor_checks_match_basis_loops(ring):
    _assert_checks_match(ring)


def test_tensor_checks_match_basis_loops_on_class_le3_zoo():
    # with an F_q structure so the Frobenius and F_q-bilinearity checks run:
    # identity, random and field-scalar matrices hit every branch
    rng = np.random.default_rng(11)
    for p in (3, 5):
        for ring in random_class_le3_rings(p, 6, seed=p):
            d = ring.dim
            _assert_checks_match(ring)
            for F, S in [
                (np.eye(d, dtype=np.int64), 2 * np.eye(d, dtype=np.int64)),
                (np.eye(d, dtype=np.int64), rng.integers(0, p, (d, d))),
                (rng.integers(0, p, (d, d)), np.eye(d, dtype=np.int64)),
            ]:
                fq = FqStructure(FqField(p, 1), d, F, (S,))
                _assert_checks_match(LieRing(p, ring.constants, fq=fq))
    for ring in (fake_heisenberg(3, 2), fake_heisenberg_scheme(3, 1).at_level(2), ul_lie_scheme(3, 3, 2).at_level(1)):
        _assert_checks_match(ring)
