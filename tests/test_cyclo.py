import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nilorbit import cyclo
from nilorbit.chartable import CharacterTable, ClassFunction, _intern
from nilorbit.cyclo import (
    Cyclotomic,
    gather,
    _maxabs,
    _phi,
    _reduction_matrix,
    contract,
    cyclotomic_polynomial,
    from_ints,
    lincomb,
    parse,
    render,
    root_of_unity,
    times,
    to_ints,
)
from nilorbit.linalg import prime_factors


def test_roots_of_unity_basics():
    z = root_of_unity
    assert z(3, 1) * z(3, 2) == 1
    assert z(2, 1) == -1
    assert z(5, 1) + z(5, 2) + z(5, 3) + z(5, 4) == -1
    assert z(7, 0) == 1


def test_arith_examples():
    z4 = root_of_unity(4)
    assert z4 * z4 == -1
    z3 = root_of_unity(3)
    assert z3 + z3.conj() == -1
    assert Cyclotomic.rational(2).inv() == Cyclotomic.rational(Fraction(1, 2))
    assert -z3 + z3 == 0


def test_conjugation():
    z5 = root_of_unity(5)
    assert z5.conj() == root_of_unity(5, 4)
    r = Cyclotomic.rational(Fraction(3, 7))
    assert r.conj() == r
    assert (root_of_unity(3) + 2).conj() == root_of_unity(3, 2) + 2


def test_conj_is_ring_map_and_involutive():
    a = root_of_unity(12, 5) + Fraction(2, 3)
    b = root_of_unity(12, 7) * 3 - 1
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_vanishing_sums_and_canonical_equality():
    for m in (2, 3, 4, 6, 12):
        total = Cyclotomic.rational(0)
        for k in range(m):
            total = total + root_of_unity(m, k)
        assert total == 0
    # same value built through different orders is identical
    assert root_of_unity(6, 2) == root_of_unity(3, 1)
    assert hash(root_of_unity(6, 2)) == hash(root_of_unity(3, 1))
    assert root_of_unity(4, 2) == Cyclotomic.rational(-1)


def test_division_and_inverse():
    a = root_of_unity(5) + 1
    assert a.inv() * a == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.rational(0).inv()
    b = root_of_unity(8, 3) - Fraction(1, 2)
    assert (a / b) * b == a


def test_galois_maps():
    z = root_of_unity(7)
    x = z + z.galois(2)
    assert x.galois(3).galois(5) == x.galois(15 % 7)


def test_render_parse_roundtrip():
    vals = [
        Cyclotomic.rational(0),
        Cyclotomic.rational(Fraction(-7, 3)),
        root_of_unity(5, 2) * Fraction(1, 5) + 2,
        root_of_unity(8, 3) - root_of_unity(8, 1),
        root_of_unity(12, 11) * Fraction(-2, 9),
    ]
    for v in vals:
        assert parse(render(v)) == v


def test_from_root_counts():
    # 2 + 3 zeta_5 + zeta_5^2, scaled by 1/5
    v = Cyclotomic.from_root_counts(5, [2, 3, 1, 0, 0], Fraction(1, 5))
    w = (
        Cyclotomic.rational(2)
        + root_of_unity(5) * 3
        + root_of_unity(5, 2)
    ) * Fraction(1, 5)
    assert v == w
    # equal counts at every root sum to zero
    assert Cyclotomic.from_root_counts(5, [4, 4, 4, 4, 4]) == 0
    # counts between 2^63 and 2^64 stay exact integers
    assert Cyclotomic.from_root_counts(3, [2**63 + 5, 0, 1]) == 2**63 + 5 + root_of_unity(3, 2)


# -- the integer coefficient form against a root-count model ------------------
#
# A reference value is (m, v): sum_k v[k] zeta_m^k with Fraction entries, one
# per root (not unique).  Sums add lifted vectors, products convolve them
# cyclically; canonical forms come from reduction by Phi_m and descent by
# Gaussian elimination over Q, as the object path computed them before the
# integer form replaced it.


def _ref_reduce(m, v):
    """Canonical coefficients at order m of sum_k v[k] zeta_m^k."""
    mod = cyclotomic_polynomial(m)
    dn = len(mod) - 1
    vec = [Fraction(c) for c in v] + [Fraction(0)] * max(0, dn - len(v))
    for i in range(len(vec) - 1, dn - 1, -1):
        c = vec[i]
        if c:
            for j in range(dn + 1):
                vec[i - dn + j] -= c * mod[j]
    return vec[:dn] if m > 1 else [sum(v, Fraction(0))]


def _ref_solve_rational(A, b, ncols):
    """Solve A x = b over Q; A given as list of rows. None if inconsistent."""
    m = len(A)
    rows = [list(A[i]) + [b[i]] for i in range(m)]
    piv = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        piv.append(c)
        r += 1
    for i in range(r, m):
        if rows[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        x[c] = rows[i][ncols]
    return x


def _ref_canonical(m, v):
    """(order, coeffs) of the reference value (m, v)."""
    coeffs = _ref_reduce(m, v)
    changed = True
    while changed and m > 1:
        changed = False
        for q in prime_factors(m):
            sub = m // q
            phi_sub = len(_ref_reduce(sub, [0]))
            embed = [_ref_reduce(m, [0] * (j * q) + [1]) for j in range(phi_sub)]
            aug = [[row[i] for row in embed] for i in range(len(coeffs))]
            down = _ref_solve_rational(aug, coeffs, len(embed))
            if down is not None:
                m, coeffs, changed = sub, down, True
                break
    return m, tuple(coeffs)


def _ref_lift(m, v, M):
    out = [Fraction(0)] * M
    for k, c in enumerate(v):
        out[k * (M // m) % M] += c
    return out


def _ref_dot(xs, ys):
    """sum_i xs[i] * ys[i] in the root-count model."""
    M = math.lcm(*(m for m, _ in xs + ys))
    acc = [Fraction(0)] * M
    for (mx, x), (my, y) in zip(xs, ys):
        x, y = _ref_lift(mx, x, M), _ref_lift(my, y, M)
        for a in range(M):
            if x[a]:
                for b in range(M):
                    acc[(a + b) % M] += x[a] * y[b]
    return M, acc


@st.composite
def _ref_pairs(draw):
    """Pairs of reference values at divisors m of one order M <= 36; each
    holds root counts over a divisor d of m lifted to m, so the canonical
    order is often a proper divisor of m.  Some scales are large enough that
    the integer form needs Python ints."""
    M = draw(st.integers(1, 36))
    divisors = [d for d in range(1, M + 1) if M % d == 0]

    def value():
        m = draw(st.sampled_from(divisors))
        d = draw(st.sampled_from([d for d in divisors if m % d == 0]))
        counts = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
        scale = Fraction(draw(st.sampled_from([1, -2, 7, 10**20])), draw(st.integers(1, 6)))
        return m, _ref_lift(d, [c * scale for c in counts], m)

    return [(value(), value()) for _ in range(draw(st.integers(1, 4)))]


def _fields(x):
    """(order, Fraction coefficients) of a Cyclotomic, checking its fields:
    phi(order) integer numerators over a positive den in lowest terms."""
    assert len(x.num) == len(_ref_reduce(x.order, [0])) and x.den > 0
    assert all(type(c) is int for c in x.num + (x.den,))
    assert math.gcd(x.den, *x.num) == 1
    return x.order, tuple(Fraction(c, x.den) for c in x.num)


def _from_ref(m, v):
    den = math.lcm(*(c.denominator for c in v))
    return Cyclotomic.from_root_counts(m, [int(c * den) for c in v], Fraction(1, den))


@given(_ref_pairs())
@settings(max_examples=150)
def test_integer_form_matches_root_count_model(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    vals_x = [_from_ref(m, v) for m, v in xs]
    vals_y = [_from_ref(m, v) for m, v in ys]
    # from_root_counts and the cached descent against elimination over Q,
    # and against a sum of zeta terms
    for (m, v), val in zip(xs + ys, vals_x + vals_y):
        assert _fields(val) == _ref_canonical(m, v)
        terms = [root_of_unity(m, k) * c for k, c in enumerate(v)]
        assert sum(terms, Cyclotomic.rational(0)) == val
    # the to/from round trip
    C, M, s = to_ints(vals_x + vals_y)
    back = from_ints(C, M, s)
    assert [_fields(b) for b in back] == [_fields(v) for v in vals_x + vals_y]
    # the contraction against the model and a plain loop over objects
    n = len(pairs)
    got = from_ints(contract(C[None, :n], C[n:, None], M), M, s * s)[0]
    assert _fields(got) == _ref_canonical(*_ref_dot(xs, ys))
    plain = Cyclotomic.rational(0)
    for x, y in zip(vals_x, vals_y):
        plain = plain + x * y
    assert got == plain
    # equal iff the serialized forms are equal
    for a in vals_x:
        for b in vals_y:
            assert (a == b) == (render(a) == render(b))


def test_descent_at_every_order_and_subfield():
    # a dense value of every subfield Q(zeta_d), d | M <= 36, written at
    # order M, so each cached descent step and all of its entries are used
    for M in range(1, 37):
        for d in (d for d in range(1, M + 1) if M % d == 0):
            for dense in ([k + 1 for k in range(d)], [(-2) ** k for k in range(d)]):
                counts = _ref_lift(d, [Fraction(c) for c in dense], M)
                val = Cyclotomic.from_root_counts(M, [int(c) for c in counts])
                assert _fields(val) == _ref_canonical(M, counts), (M, d)


# -- the integer fields against a Fraction-tuple model -------------------------
#
# A model value is the canonical (order, Fraction coefficients) pair that
# the Fraction representation stored.  Sums and products go through the
# root-count model above, inverses solve x * y = 1 over Q, and text and
# table order are the Fraction forms' own.


def _row_order(rows):
    """The permutation that puts class functions in table order."""
    keys, index = _intern((r.values for r in rows), len(rows[0].values))
    return CharacterTable.from_index(rows[0].class_data, keys, index)[1].tolist()


def _ref_add(a, b, sign=1):
    M = math.lcm(a[0], b[0])
    x, y = _ref_lift(a[0], a[1], M), _ref_lift(b[0], b[1], M)
    return _ref_canonical(M, [u + sign * w for u, w in zip(x, y)])


def _ref_mul(a, b):
    return _ref_canonical(*_ref_dot([a], [b]))


def _ref_inv(a):
    m, x = a
    n = len(x)
    cols = [_ref_reduce(m, [0] * j + list(x)) for j in range(n)]  # x * zeta^j
    y = _ref_solve_rational([[col[i] for col in cols] for i in range(n)], [1] + [0] * (n - 1), n)
    return _ref_canonical(m, y)


def _ref_galois(a, j):
    m, x = a
    out = [Fraction(0)] * m
    for k, c in enumerate(x):
        out[k * j % m] += c
    return _ref_canonical(m, out)


def _ref_render(a):
    m, x = a
    parts = []
    for k, c in enumerate(x):
        if c == 0 and not (m == 1 and k == 0 and len(x) == 1):
            continue
        f = str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
        parts.append(f if k == 0 else "%s*z" % f if k == 1 else "%s*z^%d" % (f, k))
    return "+".join(parts or ["0"]) + "@%d" % m


@st.composite
def _values(draw, M):
    """Values at divisors of M; small counts and denominators make equal
    values and equal leading coefficients common."""
    divisors = [d for d in range(1, M + 1) if M % d == 0]
    d = draw(st.sampled_from(divisors))
    counts = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
    scale = Fraction(draw(st.sampled_from([1, -1, 3, 10**20])), draw(st.integers(1, 4)))
    return _from_ref(d, [c * scale for c in counts])


@given(st.sampled_from([1, 3, 4, 5, 8, 9, 12, 15, 16, 20, 25, 27, 30]).flatmap(
    lambda M: st.lists(_values(M), min_size=2, max_size=6)))
@settings(max_examples=150, deadline=None)
def test_integer_fields_match_fraction_model(vals):
    refs = [_fields(v) for v in vals]
    for (x, rx), (y, ry) in zip(zip(vals, refs), zip(vals[1:], refs[1:])):
        assert _fields(x + y) == _ref_add(rx, ry)
        assert _fields(x - y) == _ref_add(rx, ry, -1)
        assert _fields(x * y) == _ref_mul(rx, ry)
        assert (x == y) == (rx == ry)
        if x == y:
            assert hash(x) == hash(y)
    for x, rx in zip(vals, refs):
        assert _fields(-x) == (rx[0], tuple(-c for c in rx[1]))
        if not x.is_zero():
            assert _fields(x.inv()) == _ref_inv(rx)
            assert x * x.inv() == 1
        for j in (j for j in range(-1, 2 * x.order) if math.gcd(j, x.order) == 1):
            assert _fields(x.galois(j)) == _ref_galois(rx, j % x.order)
        assert render(x) == _ref_render(rx)
        assert parse(render(x)) == x
        if x.is_rational():
            assert x.rational_value() == rx[1][0]
    # table order: rows of the values keyed as the Fraction tuples were
    cd = SimpleNamespace(num_classes=2, identity_class=0)
    n = len(vals)
    rows = [ClassFunction(cd, (vals[i], vals[(i + j) % n])) for i in range(n) for j in (0, 1)]
    keys = [tuple(_fields(v) for v in r.values) for r in rows]
    assert _row_order(rows) == sorted(range(len(rows)), key=lambda i: (keys[i][0], keys[i]))


def _inv_sequential(x):
    """The inverse as the product of the Galois conjugates taken one at a
    time, one single-row contraction per conjugate, over the norm."""
    m = x.order
    C = np.array([x.num], dtype=object)
    y = None
    for j in range(2, m):
        if math.gcd(j, m) == 1:
            conj = gather(C, np.arange(_phi(m)) * j, m)
            y = conj if y is None else contract(y[None], conj[None], m)[0]
    norm = int(contract(C[None], y[None], m)[0, 0, 0])
    return from_ints(times(y, x.den), m, norm)[0]


@given(st.sampled_from([3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 25, 27]).flatmap(_values))
@settings(max_examples=120, deadline=None)
def test_inverse_product_tree_matches_sequential_product(x):
    assume(x.order > 1)
    y, ref = x.inv(), _inv_sequential(x)
    assert (y.order, y.num, y.den) == (ref.order, ref.num, ref.den)
    assert x * y == 1


# -- the dtype ladder of lincomb and contract ---------------------------------
#
# Both multiply in float64 while their magnitude bound is at most 2^53, in
# int64 up to 2^63 - 1 and in Python ints beyond; the result is int64 while
# the bound fits it and Python ints otherwise.  The inputs sit just under
# and just over each step, with most entries at the largest magnitude, so
# the true sums come close to the bound.

_STEPS = (2**53, 2**63 - 1)


@st.composite
def _near_step(draw, terms):
    """(ma, mb): largest magnitudes whose bound terms * ma * mb lies just
    under or just over one step of the ladder.  ma is odd, so that a bound
    just over 2^53 is often odd, which float64 cannot hold."""
    step = draw(st.sampled_from(_STEPS)) + draw(st.integers(-3, 3))
    ma = 2 * draw(st.integers(0, 500)) + 1
    mb = max(1, step // (max(1, terms) * ma) + draw(st.sampled_from([1, 0])))
    return ma, mb


@st.composite
def _ints_near(draw, shape, m, as_object, aligned):
    """An integer array of the given shape, magnitudes at most m, with m
    itself present when non-empty: every entry m when aligned, so that the
    sums reach the bound, else entries of mixed signs, most near m."""
    size = math.prod(shape)
    vals = [m] * size
    if not aligned:
        near = st.integers(0, 2).map(lambda k: max(m - k, 0)) | st.integers(0, m)
        vals = draw(st.lists(near, min_size=size, max_size=size))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=size, max_size=size))
        vals = [v * s for v, s in zip(vals, signs)]
        if size:
            i = draw(st.integers(0, size - 1))
            vals[i] = m * signs[i]
    A = np.array(vals, dtype=object).reshape(shape)
    return A if as_object or m > _STEPS[1] else A.astype(np.int64)


def _expected_dtype(bound):
    return np.dtype(np.int64) if bound <= _STEPS[1] else np.dtype(object)


def _dtype(x):
    """The dtype of a result; a vector product of Python ints is one."""
    return x.dtype if isinstance(x, (np.ndarray, np.generic)) else np.dtype(object)


@st.composite
def _lincomb_case(draw):
    k = draw(st.integers(0, 4))
    lead = draw(st.sampled_from([(), (0,), (1,), (3,), (2, 3)]))
    tail = draw(st.sampled_from([(), (2,), (0,)]))
    ma, mb = draw(_near_step(k))
    aligned = draw(st.sampled_from([True, False]))
    W = draw(_ints_near(lead + (k,), ma, draw(st.booleans()), aligned))
    C = draw(_ints_near((k,) + tail, mb, draw(st.booleans()), aligned))
    return W, C


@given(_lincomb_case())
@settings(max_examples=300, deadline=None)
def test_lincomb_ladder_matches_object_reference(case):
    W, C = case
    got = lincomb(W, C)
    ref = W.astype(object) @ C.astype(object)
    bound = W.shape[-1] * _maxabs(W) * _maxabs(C)
    assert _dtype(got) == _expected_dtype(bound)
    assert np.shape(got) == np.shape(ref)
    assert np.array_equal(got, ref)


def _contract_reference(X, Y, M):
    """The contraction over Python ints: every coefficient pair (a, b) lands
    on the reduction row of zeta_M^(a+b)."""
    X, Y = X.astype(object), Y.astype(object)
    phi = X.shape[-1]
    R = _reduction_matrix(M).astype(object)
    Z = 0
    for a in range(phi):
        for b in range(phi):
            Z = Z + (X[..., a] @ Y[..., b])[..., None] * R[(a + b) % M]
    shape = np.broadcast_shapes(X.shape[:-3], Y.shape[:-3]) + (X.shape[-3], Y.shape[-2], phi)
    return np.broadcast_to(np.asarray(Z, dtype=object), shape)


@st.composite
def _contract_case(draw):
    # only at order 1 do the sums come close to the bound: the fold rows of
    # higher orders mix signs
    M = draw(st.sampled_from([1, 1, 1, 3, 4, 5, 8, 9]))
    phi = _phi(M)
    i, j, l = (draw(st.sampled_from([1, 2, 3, 0])) for _ in range(3))
    xlead, ylead = draw(st.sampled_from([((), ()), ((2,), ()), ((), (2,)), ((2, 1), (3,))]))
    fold = _maxabs(_reduction_matrix(M)[np.arange(2 * phi - 1) % M])
    ma, mb = draw(_near_step(j * phi * (2 * phi - 1) * fold))
    aligned = draw(st.sampled_from([True, False]))
    X = draw(_ints_near(xlead + (i, j, phi), ma, draw(st.booleans()), aligned))
    Y = draw(_ints_near(ylead + (j, l, phi), mb, draw(st.booleans()), aligned))
    return X, Y, M, j * phi * _maxabs(X) * _maxabs(Y) * (2 * phi - 1) * fold


@given(_contract_case())
@settings(max_examples=300, deadline=None)
def test_contract_ladder_matches_object_reference(case):
    X, Y, M, bound = case
    got = contract(X, Y, M)
    ref = _contract_reference(X, Y, M)
    assert got.dtype == _expected_dtype(bound)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_ladder_step_at_two_to_the_53():
    # 2^53 + 1 is the least integer float64 does not hold: the bound
    # 2 * 2^53 * 1 is over the float step, so the sum is exact in int64
    W, C = np.array([1, 1]), np.array([2**53, 1])
    got = lincomb(W, C)
    assert got.dtype == np.int64 and int(got) == 2**53 + 1
    X = np.array([[[2**52]], [[1]]]).reshape(1, 2, 1)
    Y = np.array([[[2]], [[1]]]).reshape(2, 1, 1)
    got = contract(X, Y, 1)
    assert got.dtype == np.int64 and int(got[0, 0, 0]) == 2**53 + 1
    # at the float step itself the bound still holds every partial sum
    assert int(lincomb(np.array([1, 1]), np.array([2**52, 2**52]))) == 2**53


def test_row_blocks_match_one_block(monkeypatch):
    # blocks of one row give the same products as one whole block
    rng = np.random.default_rng(5)
    X = rng.integers(-9, 10, size=(2, 7, 3, 4))
    Y = rng.integers(-9, 10, size=(3, 5, 4))
    W, C = rng.integers(-9, 10, size=(6, 3)), rng.integers(-9, 10, size=(3, 2))
    whole = contract(X, Y, 5), lincomb(W, C)
    monkeypatch.setattr(cyclo, "_BLOCK", 1)
    assert np.array_equal(contract(X, Y, 5), whole[0])
    assert np.array_equal(lincomb(W, C), whole[1])
    assert np.array_equal(whole[0], _contract_reference(X, Y, 5))
    assert np.array_equal(whole[1], W.astype(object) @ C.astype(object))
