"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as a coefficient vector against the powers
1, zeta_m, ..., zeta_m^{phi(m)-1}, reduced modulo the m-th cyclotomic
polynomial and then pushed down to the smallest order that can represent
it.  This makes the representation unique per value: equality is
(order, coefficients) equality and values hash consistently across how they
were built.  Rationals are Fraction, never floats.

Sums, products and canonical forms, of one value or many, run on one
integer coefficient form (only `inv` keeps a Euclid over Fraction):
a batch of values is an integer array C at a common order M with one scale
1/den, value i = scale * sum_k C[i, k] zeta_M^k.  `to_ints` and `from_ints`
convert (the latter once per output value), `lincomb` takes integer
combinations of rows, and `contract` is the one sum-of-products contraction
against the fold tensor fold[a, b] = zeta_M^(a+b) (rows of the cached
reduction matrix).  Arrays are int64 when a magnitude bound computed from
the inputs fits and Python ints (dtype object) when it does not; both run
the same code.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .linalg import prime_factors

_ZERO = Fraction(0)
_INT64_MAX = np.iinfo(np.int64).max
# Prime for computing the (unimodular) descent inverses; the result is
# checked exactly over the integers.
_LIFT_PRIME = 2**31 - 1


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Coefficients (ascending, int) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    # x^m - 1 divided by the product of Phi_d for proper divisors d.
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in range(1, m):
        if m % d == 0:
            num = _int_poly_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _int_poly_div(num, den):
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, den[dn])
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dn] = q
        for j in range(dn + 1):
            num[i - dn + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _phi(m):
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


# -- the integer coefficient form ----------------------------------------------


@lru_cache(maxsize=None)
def _reduction_matrix(m):
    """int64 (m, phi(m)): row k holds the canonical coefficients of zeta_m^k.

    Phi_m is monic, so every row is integral: zeta^k = zeta * zeta^(k-1),
    with zeta^phi replaced by -(Phi_m(zeta) - zeta^phi).
    """
    phi = _phi(m)
    low = np.array(cyclotomic_polynomial(m)[:phi], dtype=np.int64)
    R = np.zeros((m, phi), dtype=np.int64)
    R[:phi] = np.eye(phi, dtype=np.int64)
    for k in range(phi, m):
        R[k, 1:] = R[k - 1, :-1]
        R[k] -= R[k - 1, -1] * low
    R.flags.writeable = False
    return R


@lru_cache(maxsize=None)
def _descent(m, q):
    """(E, pivots, L) for the subfield Q(zeta_{m/q}) of Q(zeta_m).

    Row j of E is the order-m form of zeta_{m/q}^j, so a value y at order
    m/q is y @ E at order m.  E[:, pivots] is unimodular with inverse L:
    x at order m lies in the subfield iff y = x[:, pivots] @ L re-embeds to
    x, and then y is its form at order m/q.
    """
    E = _reduction_matrix(m)[q * np.arange(_phi(m // q))]
    _, pivots = linalg.rref(E, _LIFT_PRIME)
    B = E[:, pivots]
    L = linalg.inverse(B, _LIFT_PRIME)
    L = np.where(L > _LIFT_PRIME // 2, L - _LIFT_PRIME, L)
    if not (B @ L == np.eye(len(pivots), dtype=np.int64)).all():
        raise ArithmeticError("no integral descent from order %d by %d" % (m, q))
    return E, pivots, L


def _maxabs(A):
    """max |A|, but at least 1, so a product of these bounds each factor."""
    return max(1, int(np.abs(A).max())) if A.size else 1


def _exact(bound, *arrays):
    """The integer arrays as int64 when they and every magnitude the caller
    computes from them are at most `bound` <= 2^63 - 1, else as Python ints."""
    dtype = np.int64 if bound <= _INT64_MAX else object
    return [np.asarray(a).astype(dtype, copy=False) for a in arrays]


def lincomb(W, C):
    """W @ C exactly, for integer weights W (..., k) and integer rows C (k, ...)."""
    W, C = np.asarray(W), np.asarray(C)
    W, C = _exact(W.shape[-1] * _maxabs(W) * _maxabs(C), W, C)
    return W @ C


def times(A, B):
    """A * B exactly (elementwise, broadcasting) for integer arrays."""
    A, B = np.asarray(A), np.asarray(B)
    A, B = _exact(_maxabs(A) * _maxabs(B), A, B)
    return A * B


def _gather(C, exps, M):
    """sum_k C[..., k] * zeta_M^exps[k] in integer form at order M."""
    return lincomb(C, _reduction_matrix(M)[np.asarray(exps) % M])


def contract(X, Y, M):
    """Z[..., i, l] = sum_j X[..., i, j] * Y[..., j, l] over Q(zeta_M).

    X and Y hold integer forms at order M (last axis phi(M)); leading axes
    broadcast as in matmul.  The product of coefficient a of one factor and
    b of the other lands on zeta_M^(a+b), so the result is the coefficient
    sum per exponent times the reduction rows of those exponents.
    """
    phi = X.shape[-1]
    fold = _reduction_matrix(M)[np.arange(2 * phi - 1) % M]
    bound = X.shape[-2] * phi * _maxabs(X) * _maxabs(Y) * (2 * phi - 1) * _maxabs(fold)
    X, Y, fold = _exact(bound, X, Y, fold)
    shape = np.broadcast_shapes(X.shape[:-3], Y.shape[:-3]) + (X.shape[-3], Y.shape[-2])
    Yf = Y.reshape(Y.shape[:-2] + (-1,))
    acc = np.zeros(shape + (2 * phi - 1,), dtype=X.dtype)
    for a in range(phi):
        acc[..., a:a + phi] += (X[..., a] @ Yf).reshape(shape + (phi,))
    return acc @ fold


def to_ints(values, order=1):
    """(C, M, scale): values[i] == scale * sum_k C[i, k] zeta_M^k.

    M is the least common multiple of `order` and the values' orders, and
    scale = 1/den for the least common denominator of all coefficients.
    """
    values = [_coerce(v) for v in values]
    M, den = order, 1
    for v in values:
        M = math.lcm(M, v.order)
        den = math.lcm(den, *(c.denominator for c in v.coeffs))
    by_order = {}
    for i, v in enumerate(values):
        by_order.setdefault(v.order, []).append(i)
    idx, blocks = [], []
    for m, rows in by_order.items():
        ints = np.array(
            [[c.numerator * (den // c.denominator) for c in values[i].coeffs] for i in rows],
            dtype=object,
        )
        blocks.append(_gather(ints, np.arange(_phi(m)) * (M // m), M))
        idx += rows
    C = np.zeros((len(values), _phi(M)), dtype=np.int64)
    if blocks:
        C = np.concatenate(blocks)[np.argsort(idx)]
    (C,) = _exact(_maxabs(C), C)
    return C, M, Fraction(1, den)


def from_ints(C, M, scale=1):
    """The canonical Cyclotomic of scale * C[i] for every row of C (order M).

    Each row descends one prime at a time while it lies in the subfield;
    the canonical form is unique, so the order of the descents is immaterial.
    """
    scale = Fraction(scale)
    num, den = scale.numerator, scale.denominator
    C = np.asarray(C).reshape(-1, _phi(M))
    out = [None] * len(C)
    pending = {M: (np.arange(len(C)), C)}
    while pending:
        m = max(pending)
        idx, X = pending.pop(m)
        for q in prime_factors(m):
            if not len(idx):
                break
            E, pivots, L = _descent(m, q)
            Y = lincomb(X[:, pivots], L)
            ok = (lincomb(Y, E) == X).all(axis=1)
            if ok.any():
                sub = m // q
                if sub in pending:
                    i0, Y0 = pending[sub]
                    pending[sub] = (np.concatenate([i0, idx[ok]]), np.concatenate([Y0, Y[ok]]))
                else:
                    pending[sub] = (idx[ok], Y[ok])
                idx, X = idx[~ok], X[~ok]
        for i, row in zip(idx.tolist(), X.tolist()):
            out[i] = Cyclotomic(m, tuple(Fraction(c * num, den) for c in row), _canonical=True)
    return out


def product_table(xs, ys):
    """(P, M, scale): P[a, b] is xs[a] * ys[b] in integer form at order M."""
    C, M, s = to_ints(list(xs) + list(ys))
    n = len(xs)
    return contract(C[:n, None], C[None, n:], M), M, s * s


class Cyclotomic:
    """An exact element of Q(zeta_m), canonical and immutable."""

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order, coeffs, _canonical=False):
        if not _canonical:
            order, coeffs = _canonicalize(order, coeffs)
        self.order = order
        self.coeffs = coeffs
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r):
        return Cyclotomic(1, (Fraction(r),), _canonical=True)

    @staticmethod
    def zeta(m, k=1):
        """zeta_m^k."""
        if m < 1:
            raise ValueError("order must be >= 1")
        return _zeta(m, k % m)

    @staticmethod
    def from_root_counts(m, counts, scale=1):
        """scale * sum_k counts[k] * zeta_m^k for an integer sequence counts;
        for a 2-D array, the list of these values, one per row."""
        counts = np.asarray(counts)
        values = from_ints(_gather(counts, np.arange(counts.shape[-1]), m), m, scale)
        return values if counts.ndim == 2 else values[0]

    # -- canonical access --------------------------------------------------

    def is_rational(self):
        return self.order == 1

    def rational_value(self):
        if self.order != 1:
            raise ValueError("not rational: %r" % (self,))
        return self.coeffs[0]

    def is_zero(self):
        return self.order == 1 and self.coeffs[0] == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(
                1, (self.coeffs[0] + other.coeffs[0],), _canonical=True
            )
        C, M, s = to_ints((self, other))
        return from_ints(lincomb([1, 1], C), M, s)[0]

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyclotomic(
            self.order, tuple(-c for c in self.coeffs), _canonical=True
        )

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            r = self.coeffs[0]
            if other.order == 1:
                return Cyclotomic(1, (r * other.coeffs[0],), _canonical=True)
            if r == 0:
                return ZERO
            # a nonzero rational multiple keeps the minimal order
            return Cyclotomic(other.order, tuple(r * c for c in other.coeffs), _canonical=True)
        if other.order == 1:
            return other.__mul__(self)
        P, M, s = product_table((self,), (other,))
        return from_ints(P, M, s)[0]

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self):
        """Multiplicative inverse (extended Euclid against Phi_m)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.order == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],), _canonical=True)
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, u = _poly_ext_gcd(list(self.coeffs), mod)
        if len(g) != 1:
            raise ArithmeticError("unit gcd expected in a field")
        return Cyclotomic(self.order, tuple(x / g[0] for x in u))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def conj(self):
        """The Galois map zeta_m -> zeta_m^{-1} (complex conjugation)."""
        return self.galois(-1)

    def galois(self, j):
        """The Galois map zeta_m -> zeta_m^j; requires gcd(j, m) = 1."""
        m = self.order
        if m == 1:
            return self
        if math.gcd(j % m, m) != 1:
            raise ValueError("galois exponent not coprime to order")
        C, _, s = to_ints((self,))
        return from_ints(_gather(C, np.arange(_phi(m)) * j, m), m, s)[0]

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.coeffs))
        return self._hash

    def __repr__(self):
        return "Cyclotomic(%s)" % render(self)

    # A deterministic sort key (not a numeric order).
    def sort_key(self):
        return (self.order, self.coeffs)


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic(1, (Fraction(x),), _canonical=True)
    return NotImplemented


@lru_cache(maxsize=None)
def _zeta(m, k):
    return from_ints(_reduction_matrix(m)[[k]], m)[0]


def _canonicalize(order, coeffs):
    """Reduce mod Phi_order, then minimize the order."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(1, *(c.denominator for c in coeffs))
    ints = np.array([[c.numerator * (den // c.denominator) for c in coeffs]], dtype=object)
    v = from_ints(_gather(ints, np.arange(len(coeffs)), order), order, Fraction(1, den))[0]
    return v.order, v.coeffs


def _poly_ext_gcd(a, b):
    """Return (g, u) with u*a = g mod b, over Q (ascending coeff lists)."""
    a = _trim(list(a))
    b = _trim(list(b))
    r0, r1 = a, b
    u0, u1 = [Fraction(1)], []
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
    return r0, u0


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    db = len(b) - 1
    lead = b[-1]
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        q = c / lead
        out[i - db] = q
        for j in range(db + 1):
            a[i - db + j] -= q * b[j]
    return _trim(out), _trim(a)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)


def root_of_unity(m, k=1):
    """zeta_m^k in canonical form; root_of_unity(m, 0) = 1."""
    return Cyclotomic.zeta(m, k)


def cyclo_arith(op, a, b=None):
    """Field arithmetic dispatcher: op in {add, mul, neg, inv}."""
    a = _coerce(a)
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "neg":
        return -a
    if op == "inv":
        return a.inv()
    raise ValueError("unknown op %r" % op)


def cyclo_conjugate(a):
    return _coerce(a).conj()


# -- text form: "a0+a1*z+a2*z^2@m" ----------------------------------------


def render(x):
    x = _coerce(x)
    parts = []
    for k, c in enumerate(x.coeffs):
        if c == 0 and not (x.order == 1 and k == 0 and len(x.coeffs) == 1):
            continue
        if k == 0:
            parts.append(_render_frac(c))
        elif k == 1:
            parts.append("%s*z" % _render_frac(c))
        else:
            parts.append("%s*z^%d" % (_render_frac(c), k))
    if not parts:
        parts = ["0"]
    return "+".join(parts) + "@%d" % x.order


def _render_frac(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def parse(text):
    body, _, m = text.rpartition("@")
    if not _:
        raise ValueError("missing @order in %r" % text)
    m = int(m)
    coeffs = [_ZERO] * max(_phi(m), 1)
    # split on '+' not inside a fraction; '-' signs are attached to numerators
    for term in body.replace("+-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        if "*z" in term:
            c, _, rest = term.partition("*z")
            k = int(rest[1:]) if rest.startswith("^") else 1
        else:
            c, k = term, 0
        coeffs[k] = coeffs[k] + Fraction(c)
    return Cyclotomic(m, tuple(coeffs))
