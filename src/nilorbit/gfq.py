"""Finite fields F_{p^s}: exact arithmetic, Frobenius, trace, embeddings.

Elements are coefficient tuples of length s over Z/p (little-endian against
the power basis 1, t, ..., t^{s-1} of F_p[t]/(modulus)).  Moduli come from a
fixed table for small (p, s) so embeddings reproduce across runs; otherwise
the lexicographically first irreducible monic polynomial is used.  Embeddings
pick the lexicographically least root of the small modulus in the big field
and compose consistently within a run via a registry.
"""

from functools import lru_cache

import numpy as np

from . import linalg

# Fixed moduli (ascending coefficients, monic): lexicographically least
# PRIMITIVE monic polynomial per (p, s).  Verified irreducible/primitive by
# the test suite; extend freely, the fallback below covers everything else.
_FIXED_MODULI = {
    (2, 1): (1, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (3, 1): (1, 1),
    (3, 2): (2, 1, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 8): (2, 0, 0, 1, 0, 0, 0, 0, 1),
    (3, 12): (2, 2, 2, 1, 2, 0, 0, 0, 0, 0, 0, 0, 1),
    (5, 1): (2, 1),
    (5, 2): (2, 1, 1),
    (5, 3): (2, 3, 0, 1),
    (5, 4): (2, 2, 1, 0, 1),
    (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 8): (3, 2, 1, 0, 0, 0, 0, 0, 1),
    (7, 1): (2, 1),
    (7, 2): (3, 1, 1),
    (7, 4): (5, 3, 1, 0, 1),
}


def _poly_mulmod(a, b, mod, p):
    s = len(mod) - 1
    if s >= 24:
        return _poly_mulmod_np(a, b, mod, p)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    for i in range(len(out) - 1, s - 1, -1):
        c = out[i]
        if c:
            for j in range(s + 1):
                out[i - s + j] = (out[i - s + j] - c * mod[j]) % p
    out = out[:s]
    out += [0] * (s - len(out))
    return out


def _poly_mulmod_np(a, b, mod, p):
    """numpy product-and-reduce for large degrees and operands of s
    coefficients: those of t^s, ..., t^(2s-2) fold back through the
    reduction matrix."""
    s = len(mod) - 1
    conv = np.convolve(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)) % p
    return ((conv[:s] + conv[s:] @ _reduction_matrix(p, mod)) % p).tolist()


def _poly_powmod(a, e, mod, p):
    s = len(mod) - 1
    out = [1] + [0] * (s - 1)
    base = list(a)
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, mod, p)
        base = _poly_mulmod(base, base, mod, p)
        e >>= 1
    return out


def _poly_gcd_mod(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    while any(b):
        a, b = b, _poly_rem(a, b, p)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, b, p):
    a = list(a)
    while b and b[-1] == 0:
        b = b[:-1]
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q = (c * inv) % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - q * b[j]) % p
    return a[:db]


def is_irreducible(modulus, p):
    """Rabin test for a monic polynomial over F_p."""
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        return False
    if s == 1:
        return True
    t = [0, 1] + [0] * (s - 2)
    if _poly_powmod(t, p**s, modulus, p) != t:
        return False
    for r in linalg.prime_factors(s):
        cur = _poly_powmod(t, p ** (s // r), modulus, p)
        diff = list(cur)
        diff[1] = (diff[1] - 1) % p
        g = _poly_gcd_mod(diff, modulus, p)
        if len(g) - 1 != 0:
            return False
    return True


def _order_of_t(modulus, p):
    """Multiplicative order of t modulo (p, modulus)."""
    s = len(modulus) - 1
    n = p**s - 1
    one = [1] + [0] * (s - 1)
    order = n
    for q in linalg.prime_factors(n):
        while order % q == 0 and _poly_powmod(_tpoly(s), order // q, modulus, p) == one:
            order //= q
    return order


def _tpoly(s):
    return ([0, 1] + [0] * (s - 2)) if s >= 2 else None


def is_primitive(modulus, p):
    s = len(modulus) - 1
    if not is_irreducible(modulus, p):
        return False
    if s == 1:
        g = (-modulus[0]) % p
        if g == 0:
            return False
        n = p - 1
        return all(pow(g, n // q, p) != 1 for q in linalg.prime_factors(n))
    return _order_of_t(modulus, p) == p**s - 1


def _first_irreducible(p, s, primitive=False):
    """Lexicographically least monic polynomial of degree s (by ascending
    coefficient tuple) that is irreducible (and primitive if asked)."""
    test = is_primitive if primitive else is_irreducible
    for idx in range(p**s):
        coeffs = []
        k = idx
        for _ in range(s):
            coeffs.append(k % p)
            k //= p
        modulus = tuple(coeffs) + (1,)
        if test(modulus, p):
            return modulus
    raise ArithmeticError("no irreducible polynomial found")


@lru_cache(maxsize=None)
def default_modulus(p, s):
    if (p, s) in _FIXED_MODULI:
        return _FIXED_MODULI[(p, s)]
    if p**s <= 2**20:
        return _first_irreducible(p, s, primitive=True)
    return _first_irreducible(p, s, primitive=False)


class FqField:
    """F_{p^s} = F_p[t]/(modulus); elements are length-s coefficient tuples."""

    def __init__(self, p, s=1, modulus=None):
        if not linalg.is_prime(p):
            raise ValueError("characteristic must be prime")
        if s < 1:
            raise ValueError("degree must be >= 1")
        if modulus is None:
            # fixed entries are checked primitive by the test suite, searched
            # ones passed the primitivity or irreducibility test
            modulus = default_modulus(p, s)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != s + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree s")
            if not is_irreducible(modulus, p):
                raise ValueError("modulus is reducible mod %d" % p)
        self.p = p
        self.s = s
        self.modulus = modulus
        self.zero = (0,) * s
        self.one = (1,) + (0,) * (s - 1)

    @property
    def order(self):
        return self.p**self.s

    def __repr__(self):
        return "FqField(p=%d, s=%d)" % (self.p, self.s)

    def __eq__(self, other):
        return (
            isinstance(other, FqField)
            and (self.p, self.s, self.modulus) == (other.p, other.s, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.s, self.modulus))

    # -- element plumbing ----------------------------------------------------

    def element(self, coeffs):
        if isinstance(coeffs, int):
            return (coeffs % self.p,) + (0,) * (self.s - 1)
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.s:
            raise ValueError("element needs %d coefficients" % self.s)
        return coeffs

    def gen(self):
        """The class of t (a generator of the field over F_p)."""
        if self.s == 1:
            return ((-self.modulus[0]) % self.p,)
        return (0, 1) + (0,) * (self.s - 2)

    def elements(self):
        for idx in range(self.order):
            yield self.from_index(idx)

    def from_index(self, idx):
        coeffs = []
        for _ in range(self.s):
            coeffs.append(idx % self.p)
            idx //= self.p
        return tuple(coeffs)

    def index(self, x):
        out = 0
        for c in reversed(x):
            out = out * self.p + c
        return out

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.s == 1:
            return ((a[0] * b[0]) % self.p,)
        return tuple(_poly_mulmod(list(a), list(b), self.modulus, self.p))

    def scalar_mul(self, c, a):
        c = int(c) % self.p
        return tuple((c * x) % self.p for x in a)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        return self.pow(a, self.order - 2)

    def frobenius(self, a):
        """One absolute Frobenius step x -> x^p."""
        return self.pow(a, self.p)

    def frobenius_inv(self, a):
        return self.pow(a, self.p ** (self.s - 1))

    def trace(self, a, subdeg=1):
        """Trace to the subfield of degree subdeg: sum of x^(p^(i*subdeg))."""
        if self.s % subdeg != 0:
            raise ValueError("subdeg must divide the field degree")
        out = self.zero
        cur = a
        step = self.p**subdeg
        for _ in range(self.s // subdeg):
            out = self.add(out, cur)
            cur = self.pow(cur, step)
        return out

    def trace_to_prime(self, a):
        """Absolute trace as an integer in Z/p."""
        return self.trace(a, 1)[0]

    # -- linear-algebra views ---------------------------------------------------

    def mul_matrix(self, a):
        """Matrix over Z/p of multiplication by a in the power basis."""
        basis = [
            self.element([1 if i == j else 0 for i in range(self.s)])
            for j in range(self.s)
        ]
        return np.array([list(self.mul(a, b)) for b in basis], dtype=np.int64).T

    def frobenius_matrix(self):
        """Matrix over Z/p of x -> x^p in the power basis.

        Columns are (t^p)^k for k < s: one powmod, then repeated products.
        """
        y = self.pow(self.gen(), self.p) if self.s > 1 else self.gen()
        if self.s == 1:
            return np.array([[1]], dtype=np.int64)
        cols = [self.one]
        for _ in range(self.s - 1):
            cols.append(self.mul(cols[-1], y))
        return np.array(cols, dtype=np.int64).T

    def trace_matrix(self):
        """Matrix of x -> tr_{F_q/F_p}(x) embedded: sum of Frobenius powers."""
        F = self.frobenius_matrix()
        out = np.zeros((self.s, self.s), dtype=np.int64)
        cur = np.eye(self.s, dtype=np.int64)
        for _ in range(self.s):
            out = (out + cur) % self.p
            cur = (cur @ F) % self.p
        return out

    # -- bulk (numpy) arithmetic ------------------------------------------------

    def bulk_mul(self, A, B):
        """Rowwise products of two (n, s) coefficient arrays."""
        A = np.asarray(A, dtype=np.int64) % self.p
        B = np.asarray(B, dtype=np.int64) % self.p
        s = self.s
        if s == 1:
            return (A * B) % self.p
        conv = np.zeros((len(A), 2 * s - 1), dtype=np.int64)
        for i in range(s):
            conv[:, i : i + s] += A[:, i : i + 1] * B
        conv %= self.p
        red = _reduction_matrix(self.p, self.modulus)
        out = conv[:, :s] + conv[:, s:] @ red
        return out % self.p

    def index_tables(self):
        """(add, sub, mul): q x q arrays of element indices, mul[i, j] the
        index of from_index(i) * from_index(j) and so on, for table-driven
        arithmetic on index arrays at small q (cached per field)."""
        return _index_tables(self)

    def bulk_pow(self, A, e):
        A = np.asarray(A, dtype=np.int64) % self.p
        out = np.tile(np.array(self.one, dtype=np.int64), (len(A), 1))
        base = A
        while e:
            if e & 1:
                out = self.bulk_mul(out, base)
            base = self.bulk_mul(base, base)
            e >>= 1
        return out


_TABLE_MAX_ORDER = 1 << 8


@lru_cache(maxsize=None)
def _index_tables(field):
    q = field.order
    if q > _TABLE_MAX_ORDER:
        raise ValueError("index tables are for q <= %d, not %d" % (_TABLE_MAX_ORDER, q))
    pts = linalg.all_vectors(field.s, field.p)  # index order
    X = np.repeat(pts, q, axis=0)
    Y = np.tile(pts, (q, 1))
    tables = []
    for Z in (X + Y, X - Y, field.bulk_mul(X, Y)):
        T = linalg.encode_vectors(Z, field.p).reshape(q, q)
        T.flags.writeable = False  # shared by every caller
        tables.append(T)
    return tuple(tables)


@lru_cache(maxsize=None)
def _reduction_matrix_cached(p, modulus):
    """int64 (s - 1, s): row k holds t^(s+k) reduced modulo (p, modulus).

    The modulus is monic, so t^s = -(modulus - t^s) and each further row is
    t times the previous one: shift up, then subtract the overflowing
    coefficient times the low part of the modulus.
    """
    s = len(modulus) - 1
    low = np.array(modulus[:s], dtype=np.int64) % p
    R = np.zeros((max(s - 1, 0), s), dtype=np.int64)
    if s > 1:
        R[0] = -low % p
    for k in range(1, s - 1):
        R[k, 1:] = R[k - 1, :-1]
        R[k] = (R[k] - R[k - 1, -1] * low) % p
    R.flags.writeable = False
    return R


def _reduction_matrix(p, modulus):
    return _reduction_matrix_cached(p, tuple(modulus))


def fq_trace_frobenius(field, subdeg, x):
    """(trace to the degree-subdeg subfield as a subfield element, x^p)."""
    tr_big = field.trace(x, subdeg)
    sub = FqField(field.p, subdeg)
    emb = fq_embed(sub, field)
    tr_small = emb.preimage(tr_big)
    return tr_small, field.frobenius(x)


class FieldEmbedding:
    """An F_p-algebra embedding small -> big, as a linear map on coefficients."""

    def __init__(self, small, big, root):
        self.small = small
        self.big = big
        self.root = root
        powers = [big.one]
        for _ in range(small.s - 1):
            powers.append(big.mul(powers[-1], root))
        self.matrix = np.array(powers, dtype=np.int64).T  # big.s x small.s

    def __call__(self, x):
        vec = (self.matrix @ np.array(x, dtype=np.int64)) % self.big.p
        return tuple(int(v) for v in vec)

    def preimage(self, y):
        sol = linalg.solve(self.matrix, np.array(y, dtype=np.int64), self.big.p)
        if sol is None:
            raise ValueError("element not in the embedded subfield")
        return tuple(int(v) for v in sol)


_embedding_registry = {}


def fq_embed(small, big):
    """Deterministic embedding small -> big (degrees must divide).

    The root is the root of small.modulus in big with the least element
    index (little-endian digits).  Within a run, embeddings along a chain
    that was explicitly composed are registered so that composites stay
    consistent.
    """
    if small.p != big.p or big.s % small.s != 0:
        raise ValueError("no embedding: degrees incompatible")
    key = (small, big)
    if key in _embedding_registry:
        return _embedding_registry[key]
    if small.s == 1:
        emb = FieldEmbedding(small, big, big.element(small.gen()[0]))
    else:
        root = _least_root(small.modulus, big)
        emb = FieldEmbedding(small, big, root)
    _embedding_registry[key] = emb
    return emb


def register_composite(small, mid, big):
    """Pin embed(small, big) := embed(mid, big) o embed(small, mid)."""
    e1 = fq_embed(small, mid)
    e2 = fq_embed(mid, big)
    root = e2(e1.root) if small.s > 1 else big.element(small.gen()[0])
    emb = FieldEmbedding(small, big, root)
    _embedding_registry[(small, big)] = emb
    return emb


def _least_root(modulus, big):
    """Least-index root of modulus among big's elements.

    A root of a degree-s modulus lies in the subfield F_{p^s} of big, the
    kernel of Frob^s - I, so only that subfield's p^s points are tried.
    """
    p = big.p
    frob_s = linalg.matpow(big.frobenius_matrix(), len(modulus) - 1, p)
    sub = linalg.kernel((frob_s - np.eye(big.s, dtype=np.int64)) % p, p)
    pts = linalg.enumerate_row_space(sub, p)
    pts = pts[np.argsort(linalg.encode_vectors(pts, p))]
    acc = np.zeros_like(pts)
    acc[:, 0] = modulus[-1] % p
    for c in reversed(modulus[:-1]):
        acc = big.bulk_mul(acc, pts)
        acc[:, 0] = (acc[:, 0] + c) % p
    hit = np.nonzero(~acc.any(axis=1))[0]
    if len(hit):
        return tuple(int(v) for v in pts[hit[0]])
    raise ArithmeticError("modulus has no root in the big field")
