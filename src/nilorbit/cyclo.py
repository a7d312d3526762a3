"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A value is stored as a coefficient vector against the powers
1, zeta_m, ..., zeta_m^{m-1}, reduced modulo the m-th cyclotomic polynomial
(so entries at positions >= phi(m) vanish) and then pushed down to the
smallest order that can represent it.  This makes the representation unique
per value: equality is (order, coefficients) equality and values hash
consistently across how they were built.  Rationals are Fraction, never
floats.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .linalg import prime_factors

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


@lru_cache(maxsize=None)
def _reduction_rows(m):
    """Row k (0 <= k < m) = canonical coefficients of zeta_m^k, length phi(m)."""
    phi = _phi(m)
    mod = cyclotomic_polynomial(m)
    rows = []
    for k in range(m):
        vec = [_ZERO] * max(k + 1, phi)
        vec[k] = _ONE
        rows.append(tuple(_poly_mod(vec, mod, phi)))
    return tuple(rows)


def _poly_mod(vec, mod, phi):
    vec = list(vec)
    dn = len(mod) - 1
    for i in range(len(vec) - 1, dn - 1, -1):
        c = vec[i]
        if c == 0:
            continue
        for j in range(dn + 1):
            vec[i - dn + j] -= c * mod[j]
    out = vec[:phi]
    out += [_ZERO] * (phi - len(out))
    return out


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
        k %= m
        phi = _phi(m)
        row = _reduction_rows(m)[k]
        return Cyclotomic(m, tuple(Fraction(c) for c in row[:phi]), _canonical=False)

    @staticmethod
    def from_root_counts(m, counts, scale=1):
        """scale * sum_k counts[k] * zeta_m^k  (counts: integer sequence)."""
        scale = Fraction(scale)
        rows = _reduction_rows(m)
        phi = _phi(m)
        acc = [_ZERO] * phi
        for k, n in enumerate(counts):
            if n == 0:
                continue
            row = rows[k % m]
            for j in range(phi):
                if row[j]:
                    acc[j] += n * row[j]
        if scale != 1:
            acc = [scale * c for c in acc]
        return Cyclotomic(m, tuple(acc))

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

    def _to_order(self, m):
        """Coefficient list of self in Q(zeta_m) (self.order must divide m)."""
        if m == self.order:
            return list(self.coeffs)
        step = m // self.order
        phi = _phi(m)
        rows = _reduction_rows(m)
        acc = [_ZERO] * phi
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = rows[(k * step) % m]
            for j in range(phi):
                if row[j]:
                    acc[j] += c * row[j]
        return acc

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(
                1, (self.coeffs[0] + other.coeffs[0],), _canonical=True
            )
        m = _lcm(self.order, other.order)
        a = self._to_order(m)
        b = other._to_order(m)
        return Cyclotomic(m, tuple(x + y for x, y in zip(a, b)))

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
            return Cyclotomic(other.order, tuple(r * c for c in other.coeffs))
        if other.order == 1:
            return other.__mul__(self)
        m = _lcm(self.order, other.order)
        a = self._to_order(m)
        b = other._to_order(m)
        prod = [_ZERO] * (2 * len(a))
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y:
                    prod[i + j] += x * y
        # fold exponents >= m back (zeta_m^m = 1), then reduce mod Phi_m
        folded = [_ZERO] * m
        for e, c in enumerate(prod):
            if c:
                folded[e % m] += c
        return Cyclotomic(m, tuple(_poly_mod(folded, cyclotomic_polynomial(m), _phi(m))))

    def __rmul__(self, other):
        return self.__mul__(other)

    def inv(self):
        """Multiplicative inverse (extended Euclid against Phi_m)."""
        if self.is_zero():
            raise ZeroDivisionError("cyclotomic division by zero")
        if self.order == 1:
            return Cyclotomic(1, (1 / self.coeffs[0],), _canonical=True)
        mod = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = list(self.coeffs)
        g, u = _poly_ext_gcd(a, mod)
        if len(g) != 1:
            raise ArithmeticError("unit gcd expected in a field")
        c = g[0]
        inv = [x / c for x in u]
        return Cyclotomic(self.order, tuple(_poly_mod(inv, cyclotomic_polynomial(self.order), _phi(self.order))))

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
        rows = _reduction_rows(m)
        phi = _phi(m)
        acc = [_ZERO] * phi
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            row = rows[(k * j) % m]
            for t in range(phi):
                if row[t]:
                    acc[t] += c * row[t]
        return Cyclotomic(m, tuple(acc))

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


def _lcm(a, b):
    return a * b // math.gcd(a, b)


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


def _canonicalize(order, coeffs):
    """Reduce mod Phi_order, then minimize the order."""
    coeffs = [Fraction(c) for c in coeffs]
    phi = _phi(order)
    if len(coeffs) > phi:
        coeffs = _poly_mod(coeffs, cyclotomic_polynomial(order), phi)
    else:
        coeffs += [_ZERO] * (phi - len(coeffs))
    # strip trailing zeros beyond what the minimal order requires later;
    # first try to descend to a smaller order.
    changed = True
    while changed and order > 1:
        changed = False
        for q in prime_factors(order):
            sub = order // q
            down = _descend(order, sub, coeffs)
            if down is not None:
                order, coeffs = sub, down
                changed = True
                break
    if order == 1:
        return 1, (coeffs[0] if coeffs else _ZERO,)
    return order, tuple(coeffs)


@lru_cache(maxsize=None)
def _descend_matrix(order, sub):
    """Rows: canonical order-coeffs of zeta_sub^j for j < phi(sub)."""
    step = order // sub
    rows = _reduction_rows(order)
    return tuple(rows[(j * step) % order] for j in range(_phi(sub)))


def _descend(order, sub, coeffs):
    """Express coeffs (canonical over order) in Q(zeta_sub), or None."""
    phis = _phi(sub)
    mat = _descend_matrix(order, sub)
    phi = _phi(order)
    # solve sum_j a_j * mat[j] = coeffs by Gaussian elimination over Q
    # augmented system: columns are the phi coordinates
    aug = [[mat[j][i] for j in range(phis)] for i in range(phi)]
    rhs = list(coeffs)
    sol = _solve_rational(aug, rhs, phis)
    return sol


def _solve_rational(A, b, ncols):
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
