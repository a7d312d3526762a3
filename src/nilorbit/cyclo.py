"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Everything runs on one integer coefficient form: a batch of values is an
integer array C at a common order M over one denominator den, value
i = (1/den) * sum_k C[i, k] zeta_M^k.  A `Cyclotomic` is one row of that
form: the order m is the least that holds the value, the phi(m)
numerators are its coefficients against 1, zeta_m, ..., zeta_m^{phi(m)-1}
(reduced modulo the m-th cyclotomic polynomial) and den > 0 is coprime to
them.  So the representation is unique per value, equality is field
equality and hashes agree however a value was built.  Rationals enter as
int or Fraction and leave through `rational_value`; a float carries only
an integer, inside a product (see the dtype ladder below).

`to_ints` rescales values to a common order and denominator and
`from_ints` canonicalizes rows (descent to the least order, then lowest
terms), `distinct` does so once per distinct row, `gather` sums roots of
unity into the form, `lincomb` takes integer combinations of rows, and
`contract` is the one sum-of-products contraction against the fold tensor
fold[a, b] = zeta_M^(a+b) (rows of the cached reduction matrix); `inv` is a
product of Galois conjugates, taken by a tree of batched products, over the
rational norm.

Sums of products run on one dtype ladder, chosen from a bound, computed
from the inputs, on the magnitude of every partial sum: `lincomb` and
`contract` multiply in float64 (BLAS) when the bound is at most 2^53, in
int64 up to 2^63 - 1 and in Python ints (dtype object) beyond, through the
same code and with no option.  The float product is exact: every product
and partial sum is an integer of magnitude at most 2^53, and float64 holds
each one.  Results come back as int64 when the bound fits it and as Python
ints otherwise, whatever dtype they were multiplied in.  Both take the rows
of their left factor in blocks of at most `_BLOCK` entries, so the ladder's
copies of that factor and of the product stay a block in size; the right
factor is converted once, whole.  `times` and the rescaling in `to_ints` are
elementwise, so they gain nothing from BLAS and use only the int64 and
Python-int steps.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import linalg
from .linalg import FLOAT_EXACT, prime_factors

_INT64_MAX = np.iinfo(np.int64).max
# entries per row block of a product (512 KiB of float64)
_BLOCK = 1 << 16
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


def _int_dtype(bound):
    return np.int64 if bound <= _INT64_MAX else object


def _exact(bound, *arrays):
    """The integer arrays as int64 when they and every magnitude the caller
    computes from them are at most `bound` <= 2^63 - 1, else as Python ints."""
    return [np.asarray(a).astype(_int_dtype(bound), copy=False) for a in arrays]


def _product(bound, *arrays):
    """The integer factors of a sum of products whose partial sums are all
    at most `bound` in magnitude, in the ladder's dtype: float64 up to
    2^53, then as `_exact` gives them."""
    if bound <= FLOAT_EXACT:
        return [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]
    return _exact(bound, *arrays)


def lincomb(W, C):
    """Integer combinations of rows, exactly: the sum over k of
    W[..., k] * C[k, ...], for integer weights W (..., k) and integer rows
    C (k, ...), of shape W.shape[:-1] + C.shape[1:].

    The weights go in row blocks, so the ladder's copies of W and of the
    product stay a block in size; C is converted once, whole.
    """
    W, C = np.asarray(W), np.asarray(C)
    k = W.shape[-1]
    bound = k * _maxabs(W) * _maxabs(C)
    shape = W.shape[:-1] + C.shape[1:]
    W = W.reshape(math.prod(W.shape[:-1]), k)
    (C,) = _product(bound, C.reshape(k, math.prod(C.shape[1:])))
    out = np.empty((len(W), C.shape[1]), dtype=_int_dtype(bound))
    step = max(1, _BLOCK // max(k, C.shape[1], 1))
    for i in range(0, len(W), step):
        (Wb,) = _product(bound, W[i:i + step])
        out[i:i + step] = Wb @ C
    return out.reshape(shape)


def times(A, B):
    """A * B exactly (elementwise, broadcasting) for integer arrays."""
    A, B = np.asarray(A), np.asarray(B)
    A, B = _exact(_maxabs(A) * _maxabs(B), A, B)
    return A * B


def gather(C, exps, M):
    """sum_k C[..., k] * zeta_M^exps[k] in integer form at order M."""
    return lincomb(C, _reduction_matrix(M)[np.asarray(exps) % M])


def contract(X, Y, M):
    """Z[..., i, l] = sum_j X[..., i, j] * Y[..., j, l] over Q(zeta_M).

    X and Y hold integer forms at order M (last axis phi(M)); leading axes
    broadcast as in matmul.  The product of coefficient a of one factor and
    b of the other lands on zeta_M^(a+b), so the result is the coefficient
    sum per exponent times the reduction rows of those exponents.  The rows
    i go in blocks, so the ladder's copies of X and the accumulator stay a
    block in size; Y is converted once, whole.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    phi = X.shape[-1]
    fold = _reduction_matrix(M)[np.arange(2 * phi - 1) % M]
    bound = X.shape[-2] * phi * _maxabs(X) * _maxabs(Y) * (2 * phi - 1) * _maxabs(fold)
    Y, fold = _product(bound, Y, fold)
    Yf = Y.reshape(Y.shape[:-2] + (Y.shape[-2] * phi,))
    shape = np.broadcast_shapes(X.shape[:-3], Y.shape[:-3]) + (X.shape[-3], Y.shape[-2])
    out = np.empty(shape + (phi,), dtype=_int_dtype(bound))
    # entries per row i, of the accumulator and of the block of X
    acc_row = math.prod(shape[:-2]) * shape[-1] * (2 * phi - 1)
    x_row = math.prod(X.shape[:-3]) * X.shape[-2] * phi
    step = max(1, _BLOCK // max(1, acc_row, x_row))
    for i in range(0, shape[-2], step):
        # the coefficient axis first, so that each X[..., a] is one operand
        (Xb,) = _product(bound, np.moveaxis(X[..., i:i + step, :, :], -1, 0))
        acc = np.zeros(shape[:-2] + (Xb.shape[-2], shape[-1], 2 * phi - 1), dtype=Xb.dtype)
        for a in range(phi):
            acc[..., a:a + phi] += (Xb[a] @ Yf).reshape(acc.shape[:-1] + (phi,))
        Z = acc.reshape(-1, 2 * phi - 1) @ fold
        out[..., i:i + step, :, :] = Z.reshape(acc.shape[:-1] + (phi,))
    return out


def to_ints(values, order=1):
    """(C, M, den): values[i] == (1/den) * sum_k C[i, k] zeta_M^k.

    M is the least common multiple of `order` and the values' orders, and
    den the least common multiple of their denominators.
    """
    values = [_coerce(v) for v in values]
    M = math.lcm(order, *(v.order for v in values))
    den = math.lcm(1, *(v.den for v in values))
    by_order = {}
    for i, v in enumerate(values):
        by_order.setdefault(v.order, []).append(i)
    idx, blocks = [], []
    for m, rows in by_order.items():
        ints = np.array(
            [[c * (den // values[i].den) for c in values[i].num] for i in rows],
            dtype=object,
        )
        # at the common order the coefficients are already the form
        blocks.append(ints if m == M else gather(ints, np.arange(_phi(m)) * (M // m), M))
        idx += rows
    C = np.zeros((len(values), _phi(M)), dtype=np.int64)
    if blocks:
        C = np.concatenate(blocks)[np.argsort(idx)]
    (C,) = _exact(_maxabs(C), C)
    return C, M, den


def from_ints(C, M, den=1):
    """The canonical Cyclotomic of C[i] / den for every row of C (order M).

    Each row descends one prime at a time while it lies in the subfield;
    the canonical form is unique, so the order of the descents is immaterial.
    """
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
            out[i] = _lowest_terms(m, row, den)
    return out


def distinct(C, M, den=1):
    """(values, inverse): the canonical Cyclotomics of the distinct rows of
    C / den at order M, with row i of C equal to values[inverse[i]].  The
    rows dedupe before the descent by one lexsort, which unlike np.unique by
    rows also sorts Python-int (object) rows, and is faster on int64 ones."""
    C = np.asarray(C).reshape(-1, _phi(M))
    order = np.lexsort(C.T[::-1])
    S = C[order]
    new = np.ones(len(S), dtype=bool)
    new[1:] = (S[1:] != S[:-1]).any(axis=1)
    inverse = np.empty(len(C), dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return from_ints(S[new], M, den), inverse


def _lowest_terms(order, num, den):
    """The Cyclotomic sum_k num[k] zeta_order^k / den, for a canonical row
    num at its minimal order and den > 0."""
    g = math.gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
    return Cyclotomic(order, tuple(num), den // g)


def product_table(xs, ys):
    """(P, M, den): P[a, b] / den is xs[a] * ys[b] in integer form at order M."""
    C, M, den = to_ints(list(xs) + list(ys))
    n = len(xs)
    return contract(C[:n, None], C[None, n:], M), M, den * den


class Cyclotomic:
    """An exact element of Q(zeta_m), canonical and immutable.

    The value is sum_k num[k] zeta_m^k / den: m is the least order that
    holds it, num its phi(m) coefficients against 1, zeta_m, ...,
    zeta_m^(phi(m)-1) and den > 0 with gcd(num..., den) = 1, so one row of
    the integer form.  The constructor takes these fields as they are.
    """

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order, num, den=1):
        self.order = order
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r):
        return _coerce(r if isinstance(r, (int, Fraction)) else Fraction(r))

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
        # a list goes through Python ints: numpy reads ints in [2^63, 2^64) as floats
        counts = counts if isinstance(counts, np.ndarray) else np.array(counts, dtype=object)
        scale = Fraction(scale)
        C = gather(times(counts, scale.numerator), np.arange(counts.shape[-1]), m)
        values = from_ints(C, m, scale.denominator)
        return values if counts.ndim == 2 else values[0]

    # -- canonical access --------------------------------------------------

    def is_rational(self):
        return self.order == 1

    def rational_value(self):
        if self.order != 1:
            raise ValueError("not rational: %r" % (self,))
        return Fraction(self.num[0], self.den)

    def is_zero(self):
        return self.order == 1 and self.num[0] == 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return _lowest_terms(
                1, [self.num[0] * other.den + other.num[0] * self.den], self.den * other.den
            )
        C, M, den = to_ints((self, other))
        return from_ints(lincomb([1, 1], C), M, den)[0]

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.num), self.den)

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
            r = self.num[0]
            if other.order == 1:
                return _lowest_terms(1, [r * other.num[0]], self.den * other.den)
            if r == 0:
                return ZERO
            # a nonzero rational multiple keeps the minimal order
            return _lowest_terms(other.order, [r * c for c in other.num], self.den * other.den)
        if other.order == 1:
            return other.__mul__(self)
        P, M, den = product_table((self,), (other,))
        return from_ints(P, M, den)[0]

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self):
        """Multiplicative inverse: the product y of the Galois conjugates
        sigma_j(x), j != 1, over the rational norm x * y."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        m = self.order
        if m == 1:
            n = self.num[0]
            return _lowest_terms(1, [self.den if n > 0 else -self.den], abs(n))
        C = np.array([self.num], dtype=object)
        js = [j for j in range(2, m) if math.gcd(j, m) == 1]
        # every conjugate in one gather, then their product by a tree of
        # batched pairwise products (an odd row waits for the next round)
        y = lincomb(C[0], _reduction_matrix(m)[np.outer(np.arange(_phi(m)), js) % m])
        while len(y) > 1:
            half = len(y) // 2
            pairs = contract(y[:half, None, None], y[half:2 * half, None, None], m)
            y = np.concatenate([pairs[:, 0, 0], y[2 * half:]])
        # norm = x * y * den^phi, positive: complex conjugation pairs the
        # conjugates, so x * y is a product of squared absolute values
        norm = int(contract(C[None], y[None], m)[0, 0, 0])
        # x^-1 = y / (x * y) = (y / den^(phi-1)) / (norm / den^phi)
        return from_ints(times(y, self.den), m, norm)[0]

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
        C = np.array([self.num], dtype=object)
        return from_ints(gather(C, np.arange(_phi(m)) * j, m), m, self.den)[0]

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.num, self.den))
        return self._hash

    def __repr__(self):
        return "Cyclotomic(%s)" % render(self)


def _coerce(x):
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, int):
        return Cyclotomic(1, (int(x),))
    if isinstance(x, Fraction):
        return Cyclotomic(1, (x.numerator,), x.denominator)
    return NotImplemented


@lru_cache(maxsize=None)
def _zeta(m, k):
    return from_ints(_reduction_matrix(m)[[k]], m)[0]


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)


def root_of_unity(m, k=1):
    """zeta_m^k in canonical form; root_of_unity(m, 0) = 1."""
    return Cyclotomic.zeta(m, k)


# -- text form: "a0+a1*z+a2*z^2@m" ----------------------------------------


def render(x):
    x = _coerce(x)
    parts = []
    for k, c in enumerate(x.num):
        if c == 0:
            continue
        g = math.gcd(c, x.den)
        coeff = "%d" % (c // g) if g == x.den else "%d/%d" % (c // g, x.den // g)
        if k == 0:
            parts.append(coeff)
        elif k == 1:
            parts.append("%s*z" % coeff)
        else:
            parts.append("%s*z^%d" % (coeff, k))
    return "+".join(parts or ["0"]) + "@%d" % x.order


def parse(text):
    body, _, m = text.rpartition("@")
    if not _:
        raise ValueError("missing @order in %r" % text)
    m = int(m)
    coeffs = [Fraction(0)] * max(_phi(m), 1)
    # '-' signs are attached to the numerators
    for term in body.split("+"):
        term = term.strip()
        if not term:
            continue
        if "*z" in term:
            c, _, rest = term.partition("*z")
            k = int(rest[1:]) if rest.startswith("^") else 1
        else:
            c, k = term, 0
        coeffs[k] += Fraction(c)
    den = math.lcm(1, *(c.denominator for c in coeffs))
    ints = np.array([[c.numerator * (den // c.denominator) for c in coeffs]], dtype=object)
    return from_ints(gather(ints, np.arange(len(coeffs)), m), m, den)[0]
