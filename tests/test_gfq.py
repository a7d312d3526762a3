import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import gfq, linalg
from nilorbit.gfq import (
    FqField,
    _FIXED_MODULI,
    _Monomials,
    _first_irreducible,
    _irreducible,
    _least_root,
    _poly_gcd_mod,
    _primitive,
    _table_top,
    default_modulus,
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
    out = [c % p for c in out[:s]]
    return out + [0] * (s - len(out))


def _powmod_reference(a, e, mod, p):
    """Reference: square-and-multiply over the schoolbook product."""
    out = [1] + [0] * (len(mod) - 2)
    base = list(a)
    while e:
        if e & 1:
            out = _mulmod_schoolbook(out, base, mod, p)
        base = _mulmod_schoolbook(base, base, mod, p)
        e >>= 1
    return out


def _rabin_reference(modulus, p):
    """Reference: Rabin's test with x^(p^i) by powering, as the field code
    ran it before the Frobenius matrix."""
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        return False
    if s == 1:
        return True
    t = [0, 1] + [0] * (s - 2)
    if _powmod_reference(t, p**s, modulus, p) != t:
        return False
    for r in linalg.prime_factors(s):
        diff = _powmod_reference(t, p ** (s // r), modulus, p)
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd_mod(diff, modulus, p)) != 1:
            return False
    return True


def _primitive_reference(modulus, p):
    """Reference: irreducible, and the multiplicative order of t is p^s - 1,
    found by dividing out prime factors of the group order (degree 1 by the
    generator -modulus[0] of F_p^*)."""
    s = len(modulus) - 1
    if not _rabin_reference(modulus, p):
        return False
    n = p**s - 1
    if s == 1:
        g = (-modulus[0]) % p
        return g != 0 and all(pow(g, n // q, p) != 1 for q in linalg.prime_factors(n))
    one = [1] + [0] * (s - 1)
    t = [0, 1] + [0] * (s - 2)
    order = n
    for q in linalg.prime_factors(n):
        while order % q == 0 and _powmod_reference(t, order // q, modulus, p) == one:
            order //= q
    return order == n


_PRIMES = [2, 3, 5, 7, 11, 13, 101]


def _monic(p, s, idx):
    """The monic polynomial of degree s whose low coefficients are the
    base-p digits of idx, in the order the modulus search visits them."""
    return tuple((idx // p**i) % p for i in range(s)) + (1,)


@pytest.mark.parametrize("p", _PRIMES)
def test_modulus_tests_match_reference_exhaustively(p):
    # every monic polynomial of each degree with at most 1024 of them; both
    # verdicts occur at every degree
    # one modulus at a time and all of a degree as one batch, as the search
    # tests them
    for s in range(1, 11):
        if p**s > 1024:
            break
        moduli = [_monic(p, s, idx) for idx in range(p**s)]
        irreducible = [_rabin_reference(f, p) for f in moduli]
        primitive = [irr and _primitive_reference(f, p) for f, irr in zip(moduli, irreducible)]
        for f, irr, prim in zip(moduli, irreducible, primitive):
            assert is_irreducible(f, p) == irr, f
            assert is_primitive(f, p) == prim, f
        assert _irreducible(p, moduli).tolist() == irreducible
        assert _primitive(p, moduli).tolist() == primitive


@st.composite
def _moduli(draw, max_order=None):
    p = draw(st.sampled_from(_PRIMES))
    top = 30
    while max_order is not None and p**top > max_order:
        top -= 1
    s = draw(st.integers(1, top))
    low = draw(st.lists(st.integers(0, p - 1), min_size=s, max_size=s))
    return tuple(low) + (1,), p


@given(_moduli())
@settings(max_examples=60, deadline=None)
def test_irreducibility_matches_rabin_reference(case):
    modulus, p = case
    assert is_irreducible(modulus, p) == _rabin_reference(modulus, p)


# p^s - 1 is factored by trial division, in the test and the reference alike
@given(_moduli(max_order=1 << 32))
@settings(max_examples=60, deadline=None)
def test_primitivity_matches_order_reference(case):
    modulus, p = case
    assert is_primitive(modulus, p) == _primitive_reference(modulus, p)


def test_t_is_never_primitive():
    # the modulus t: irreducible of degree 1, but t = 0 in F_p[t]/(t)
    for p in _PRIMES:
        assert is_irreducible((0, 1), p)
        assert not is_primitive((0, 1), p)


@pytest.mark.parametrize(
    "p, s, modulus",
    [
        (3, 18, (1, 2, 0, 1) + (0,) * 14 + (1,)),
        (7, 14, (4, 1) + (0,) * 12 + (1,)),
        (5, 10, (3, 1, 1) + (0,) * 7 + (1,)),
        (5, 20, (1, 1, 1) + (0,) * 17 + (1,)),
        (1009, 2, (11, 1, 1)),  # primitive, Q by powering
        (10007, 3, (1, 1, 0, 1)),  # 10,008 candidates, Q by powering
    ],
)
def test_searched_moduli_are_unchanged(p, s, modulus):
    primitive = p**s <= 2**20
    assert _first_irreducible(p, s, primitive=primitive) == modulus
    assert default_modulus(p, s) == modulus
    assert _rabin_reference(modulus, p)


@pytest.mark.parametrize("p, s, primitive", [(3, 6, False), (2, 12, True)])
def test_search_tests_every_candidate_once_in_order(monkeypatch, p, s, primitive):
    # batches of 32, 64, ... and, at (2, 12), batches capped by size
    seen = []

    def reject_all(p, moduli):
        seen.extend(tuple(f) for f in moduli.tolist())
        return np.zeros(len(moduli), dtype=bool)

    monkeypatch.setattr(gfq, "_primitive" if primitive else "_irreducible", reject_all)
    with pytest.raises(ArithmeticError):
        _first_irreducible(p, s, primitive=primitive)
    assert seen == [_monic(p, s, idx) for idx in range(p**s)]


@pytest.mark.parametrize("p, s", sorted(k for k in _FIXED_MODULI if k[0] ** k[1] <= 256))
def test_frobenius_trace_and_powers_match_scalar_powering(p, s):
    F = FqField(p, s)
    q = F.order

    def ref_pow(x, e):
        out = F.one
        while e:
            if e & 1:
                out = F.mul(out, x)
            x = F.mul(x, x)
            e >>= 1
        return out

    M = F.frobenius_matrix()
    assert not M.flags.writeable and not F.trace_matrix().flags.writeable
    assert np.shares_memory(M, FqField(p, s).frobenius_matrix())  # cached per field
    subdegs = [d for d in range(1, s + 1) if s % d == 0]
    for x in F.elements():
        chain = [x]  # x^(p^i) for i <= s
        for _ in range(s):
            chain.append(ref_pow(chain[-1], p))
        assert chain[s] == x
        assert F.frobenius(x) == chain[1]
        assert tuple(int(v) for v in M @ np.array(x) % p) == chain[1]
        assert F.frobenius_inv(x) == chain[s - 1]
        for d in subdegs:
            tr = F.zero
            for i in range(s // d):
                tr = F.add(tr, chain[i * d])
            assert F.trace(x, d) == tr
        for e in (0, 1, p, q - 2, 3 * q + 1):
            assert F.pow(x, e) == ref_pow(x, e)
        if x != F.zero:
            assert F.mul(F.inv(x), x) == F.one
            assert F.pow(x, -2) == ref_pow(F.inv(x), 2)
        assert tuple(int(v) for v in F.mul_matrix(x) @ np.array(F.gen()) % p) == F.mul(x, F.gen())


@st.composite
def _table_cases(draw):
    """A batch of monic moduli of one degree (any, not only irreducible);
    Q is read off the table for p <= 7 and taken by powering for p >= 101."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101, 4099, 65537]))
    s = draw(st.integers(1, 40 if p < 4099 else 4))
    coeffs = st.lists(st.integers(0, p - 1), min_size=s, max_size=s)
    return [tuple(draw(coeffs)) + (1,) for _ in range(draw(st.integers(1, 3)))], p


@given(_table_cases())
@settings(max_examples=80, deadline=None)
def test_monomial_table_and_frobenius_rows_match_powering(case):
    moduli, p = case
    s = len(moduli[0]) - 1
    mono = _Monomials(p, moduli)
    top = _table_top(p, s)
    assert top <= max(2 * s - 1, 4 * s * p.bit_length())  # O(s log p) rows for any p
    assert mono.table.shape == (len(moduli), top + 1, s)
    for mod, T, Q in zip(moduli, mono.table, mono.frobenius):
        # reference rows t^k, each t times the previous one by long division
        ref = [[1] + [0] * (s - 1)]
        for _ in range(top):
            row = [0] + ref[-1]
            ref.append([(x - row[-1] * m) % p for x, m in zip(row[:s], mod)])
        assert T.tolist() == ref
        for i in range(s):
            if i * p <= top:
                want = ref[i * p]
            else:  # beyond the table: (t^i)^p by powering
                want = _powmod_reference(ref[i], p, mod, p)
            assert Q[i].tolist() == want, i


@st.composite
def _mulmod_cases(draw):
    """Rows of operands and a monic modulus (any, not only irreducible)."""
    p = draw(st.sampled_from([2, 3, 5, 7, 101]))
    s = draw(st.integers(1, 60))
    n = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(0, p - 1), min_size=s, max_size=s)
    A = [draw(coeffs) for _ in range(n)]
    B = [draw(coeffs) for _ in range(n)]
    return A, B, tuple(draw(coeffs)) + (1,), p


@given(_mulmod_cases())
@settings(max_examples=100, deadline=None)
def test_large_degree_mulmod_matches_schoolbook(case):
    A, B, mod, p = case
    got = _Monomials(p, [mod]).mul(np.array([A]), np.array([B]))[0]
    assert got.tolist() == [_mulmod_schoolbook(a, b, mod, p) for a, b in zip(A, B)]


@pytest.mark.parametrize("p, s", [(3, 18), (7, 14), (2, 30)])
def test_scalar_mul_matches_schoolbook(p, s):
    F = FqField(p, s)
    rng = np.random.default_rng(s)
    for _ in range(20):
        a, b = (tuple(int(v) for v in rng.integers(0, p, s)) for _ in range(2))
        assert list(F.mul(a, b)) == _mulmod_schoolbook(a, b, F.modulus, p)


@pytest.mark.parametrize("p", [3037000493, 4294967311])
def test_large_prime_arithmetic_is_exact(p):
    # s p^2 < 2^63 only at p = 3037000493 and s = 1: int64 there, Python ints
    # in the other three fields
    rng = np.random.default_rng(p % 1000)
    for s in (1, 2):
        F = FqField(p, s)
        for _ in range(5):
            a, b = (tuple(int(v) for v in rng.integers(1, p, s)) for _ in range(2))
            want = _mulmod_schoolbook(a, b, F.modulus, p)
            assert list(F.mul(a, b)) == want
            assert F.bulk_mul([a], [b])[0].tolist() == want
            assert F.mul(F.inv(a), a) == F.one
            assert list(F.pow(a, p + 3)) == _powmod_reference(a, p + 3, F.modulus, p)
            chain = [list(a)]
            for _ in range(s):
                chain.append(_powmod_reference(chain[-1], p, F.modulus, p))
            assert list(F.frobenius(a)) == chain[1]
            assert F.frobenius_inv(F.frobenius(a)) == a
            assert list(F.trace(a)) == [sum(c) % p for c in zip(*chain[:s])]
    assert is_irreducible((1, 0, 1), p) == _rabin_reference((1, 0, 1), p)
    assert not is_irreducible((p - 1, 0, 1), p)  # t^2 - 1
