import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import linalg
from nilorbit.gfq import (
    FqField,
    _FIXED_MODULI,
    _first_irreducible,
    _least_root,
    _poly_mulmod,
    fq_embed,
    fq_trace_frobenius,
    is_irreducible,
    is_primitive,
    register_composite,
)


def test_fixed_moduli_are_primitive():
    for (p, s), modulus in _FIXED_MODULI.items():
        assert is_irreducible(modulus, p), (p, s)
        assert is_primitive(modulus, p), (p, s)


def test_fixed_moduli_are_the_least_primitive():
    # the table only pins what the search would return, so default_modulus
    # is the same function with or without it
    for (p, s), modulus in _FIXED_MODULI.items():
        assert modulus == _first_irreducible(p, s, primitive=True), (p, s)


@pytest.mark.parametrize("p, s", sorted(k for k in _FIXED_MODULI if k[0] ** k[1] <= 256))
def test_index_tables_match_polynomial_arithmetic(p, s):
    F = FqField(p, s)
    add, sub, mul = F.index_tables()
    elems = list(F.elements())
    for i, x in enumerate(elems):
        assert [F.index(F.add(x, y)) for y in elems] == add[i].tolist()
        assert [F.index(F.sub(x, y)) for y in elems] == sub[i].tolist()
        assert [F.index(F.mul(x, y)) for y in elems] == mul[i].tolist()
    assert F.index_tables() is FqField(p, s).index_tables()  # cached per field


def test_arith_examples():
    F4 = FqField(2, 2)
    t = F4.gen()
    assert F4.mul(t, t) == (1, 1)  # t^2 = t + 1
    assert F4.add(t, F4.one) == (1, 1)
    F5 = FqField(5)
    assert F5.pow(F5.element(2), 4) == F5.one
    F9i = FqField(3, 2, modulus=(1, 0, 1))  # F_3[t]/(t^2+1)
    ti = F9i.gen()
    assert F9i.mul(ti, ti) == (2, 0)
    assert F9i.mul(F9i.inv(ti), ti) == F9i.one
    with pytest.raises(ZeroDivisionError):
        F4.inv(F4.zero)


def test_trace_frobenius_examples():
    F4 = FqField(2, 2)
    tr, fr = fq_trace_frobenius(F4, 1, F4.gen())
    assert tr == (1,)
    assert fr == (1, 1)
    F9 = FqField(3, 2)
    tr9, _ = fq_trace_frobenius(F9, 1, F9.one)
    assert tr9 == (2,)
    with pytest.raises(ValueError):
        fq_trace_frobenius(FqField(2, 4), 3, FqField(2, 4).one)


def test_frobenius_periodic_and_linear():
    for (p, s) in [(2, 4), (3, 2), (5, 2)]:
        F = FqField(p, s)
        for x in F.elements():
            y = x
            for _ in range(s):
                y = F.frobenius(y)
            assert y == x
        a, b = F.from_index(3 % F.order), F.from_index(5 % F.order)
        assert F.frobenius(F.add(a, b)) == F.add(F.frobenius(a), F.frobenius(b))


def test_trace_surjective_small_fields():
    for (p, s) in [(2, 2), (2, 4), (3, 2), (3, 4), (5, 2)]:
        F = FqField(p, s)
        for sub in [d for d in range(1, s + 1) if s % d == 0]:
            assert len({F.trace(x, sub) for x in F.elements()}) == p**sub


def test_embeddings():
    F2, F4, F16 = FqField(2, 1), FqField(2, 2), FqField(2, 4)
    e1, e2, e3 = fq_embed(F2, F4), fq_embed(F4, F16), fq_embed(F2, F16)
    for x in F2.elements():
        assert e3(x) == e2(e1(x))
    # injective ring map, Frobenius-compatible
    e = fq_embed(F4, F16)
    imgs = {e(x) for x in F4.elements()}
    assert len(imgs) == 4
    for x in F4.elements():
        for y in F4.elements():
            assert e(F4.mul(x, y)) == F16.mul(e(x), e(y))
            assert e(F4.add(x, y)) == F16.add(e(x), e(y))
        assert F16.frobenius(e(x)) == e(F4.frobenius(x))
    with pytest.raises(ValueError):
        fq_embed(FqField(2, 3), F16)


def test_register_composite_pins_chain():
    F3, F9, F81 = FqField(3, 1), FqField(3, 2), FqField(3, 4)
    emb = register_composite(F3, F9, F81)
    e1, e2 = fq_embed(F3, F9), fq_embed(F9, F81)
    for x in F3.elements():
        assert emb(x) == e2(e1(x))
        assert fq_embed(F3, F81)(x) == e2(e1(x))


def test_bulk_ops_match_scalar():
    F = FqField(5, 2)
    idx = np.arange(25)
    A = np.array([list(F.from_index(int(i))) for i in idx])
    B = np.array([list(F.from_index(int((7 * i + 3) % 25))) for i in idx])
    bulk = F.bulk_mul(A, B)
    for i in range(25):
        assert tuple(bulk[i]) == F.mul(tuple(A[i]), tuple(B[i]))
    bp = F.bulk_pow(A, 6)
    for i in range(25):
        assert tuple(bp[i]) == F.pow(tuple(A[i]), 6)


def test_frobenius_and_trace_matrices():
    for (p, s) in [(3, 2), (5, 4), (2, 6)]:
        F = FqField(p, s)
        M = F.frobenius_matrix()
        T = F.trace_matrix()
        for x in list(F.elements())[:40]:
            vec = np.array(x, dtype=np.int64)
            assert tuple((M @ vec) % p) == F.frobenius(x)
            assert int((T @ vec)[0] % p) == F.trace_to_prime(x)


def test_modulus_rejects_reducible():
    with pytest.raises(ValueError):
        FqField(2, 2, modulus=(0, 0, 1))  # t^2 is reducible


def _least_root_brute_force(modulus, big):
    """Reference: scan all of big in index order and return the first root."""
    pts = linalg.all_vectors(big.s, big.p)
    acc = np.zeros_like(pts)
    acc[:, 0] = modulus[-1] % big.p
    for c in reversed(modulus[:-1]):
        acc = big.bulk_mul(acc, pts)
        acc[:, 0] = (acc[:, 0] + c) % big.p
    return tuple(int(v) for v in pts[np.nonzero(~acc.any(axis=1))[0][0]])


@pytest.mark.parametrize(
    "p,s,S",
    [(2, 2, 4), (2, 2, 6), (2, 3, 6), (2, 2, 8), (2, 4, 8), (2, 3, 9), (2, 5, 10),
     (2, 2, 12), (2, 3, 12), (2, 4, 12), (2, 6, 12), (3, 2, 4), (3, 2, 6), (3, 3, 6),
     (3, 2, 8), (3, 4, 8), (5, 2, 4), (5, 3, 6), (7, 2, 4)],
)
def test_least_root_searches_the_subfield(p, s, S):
    small, big = FqField(p, s), FqField(p, S)
    assert _least_root(small.modulus, big) == _least_root_brute_force(small.modulus, big)


def _mulmod_schoolbook(a, b, mod, p):
    """Reference: the full product, then long division by the monic mod."""
    s = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    for i in range(len(out) - 1, s - 1, -1):
        c = out[i]
        for j in range(s + 1):
            out[i - s + j] -= c * mod[j]
    return [c % p for c in out[:s]]


@st.composite
def _mulmod_cases(draw):
    """Operands and a monic modulus (any, not only irreducible) of degree
    s >= 24, where products take the numpy path."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    s = draw(st.integers(24, 60))
    coeffs = st.lists(st.integers(0, p - 1), min_size=s, max_size=s)
    return draw(coeffs), draw(coeffs), tuple(draw(coeffs)) + (1,), p


@given(_mulmod_cases())
@settings(max_examples=100, deadline=None)
def test_large_degree_mulmod_matches_schoolbook(case):
    a, b, mod, p = case
    assert _poly_mulmod(a, b, mod, p) == _mulmod_schoolbook(a, b, mod, p)
