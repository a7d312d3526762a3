"""Finite fields F_{p^s}: exact arithmetic, Frobenius, trace, embeddings.

Elements are coefficient tuples of length s over Z/p (little-endian against
the power basis 1, t, ..., t^{s-1} of F_p[t]/(modulus)).  Moduli come from a
fixed table for small (p, s) so embeddings reproduce across runs; otherwise
the lexicographically first irreducible monic polynomial is used.  Embeddings
pick the least root of the small modulus in the big field that agrees with
the embeddings of the small field's subfields, so they compose.

Everything polynomial derives from one table per modulus f of degree s
(`_Monomials`, cached per field, and built for a whole batch of candidate
moduli at once by the modulus search): the rows t^k mod (p, f).
- Rows t^s, ..., t^(2s-2) reduce every product: `bulk_mul` multiplies (n, s)
  coefficient rows and folds the high coefficients back through them, and
  `bulk_pow` (with `pow`, `inv` as one-row calls) is the one
  square-and-multiply.
- Q, the Frobenius matrix, has row i = (t^i)^p = t^(ip), so a^p = a @ Q.  At
  small p it is the rows t^0, t^p, ..., t^((s-1)p) of the table; at large p
  the table stops at t^(2s-1) and Q is the identity rows raised to the p-th
  power (`_table_top` picks the cheaper).  Frobenius and the traces are
  products with powers and sums of Q, cached per field.
- `is_irreducible` is Rabin's test on the iterates x^(p^i) = x^(p^(i-1)) @ Q,
  and the primitivity test `_primitive` powers t through the
  square-and-multiply; both test a batch of moduli at once.
Coefficients are int64 while a sum of s products below p^2 fits, Python ints
beyond, so the arithmetic is exact for any p.  The scalar `FqField.mul` is
the one pure-int product (schoolbook and long division), for callers that
multiply one pair at a time.
"""

from functools import cached_property, lru_cache

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


# The modulus search tests candidates in batches: the first of up to
# _FIRST_BATCH of them (a batch that small costs about what one candidate
# costs, numpy's per-call cost dominating), then doubling up to about
# _BATCH_ENTRIES entries of working arrays.
_FIRST_BATCH = 32
_BATCH_ENTRIES = 1 << 18


def _table_top(p, s):
    """The last table row: (s - 1)p when reading Q off the table takes
    fewer multiply-adds than powering, else 2s - 1.  The (s - 1)p rows cost
    about s^2 each; powering costs about 2 log2(p) products of s rows at
    2s^2 each.  Either way a modulus takes O(s^2 log p) entries."""
    return max(2 * s - 1, (s - 1) * p if (s - 1) * p <= 4 * s * p.bit_length() else 0)


class _Monomials:
    """The rows t^k mod (p, f) for a batch of monic moduli f of one degree
    s, with the products, powers and Frobenius matrices they give.

    table[b, k] is t^k mod f_b for k = 0, ..., _table_top(p, s).  The first s
    rows are the unit vectors and t^s is minus the low part of the modulus;
    then rows [0, k) give rows [k, 2k - s) in one product,
    t^i t^(k-s) = T[i] @ T[k-s:k] for s <= i < k, so the table doubles in
    length per step.  Elements are (b, n, s) arrays: n coefficient rows per
    modulus.  Entries are int64 while a sum of s products below p^2 fits,
    exact Python ints beyond.
    """

    def __init__(self, p, moduli):
        moduli = np.asarray(moduli)
        b, s = moduli.shape[0], moduli.shape[1] - 1
        self.p, self.s = p, s
        self.dtype = np.int64 if s * p * p < 2**63 else object
        top = _table_top(p, s)
        T = np.zeros((b, top + 1, s), dtype=self.dtype)
        T[:, :s] = np.eye(s, dtype=self.dtype)
        T[:, s] = -moduli[:, :s].astype(self.dtype) % p
        k = s + 1
        while k <= top:
            m = min(2 * k - s, top + 1)
            T[:, k:m] = T[:, s : m - k + s] @ T[:, k - s : k] % p
            k = m
        T.flags.writeable = False
        self.table = T
        self.reduction = T[:, s : 2 * s - 1]  # folds t^s, ..., t^(2s-2) back

    @cached_property
    def frobenius(self):
        """Q per modulus: row i is t^(ip) = (t^i)^p, so a @ Q = a^p."""
        s, p = self.s, self.p
        if (s - 1) * p < self.table.shape[1]:
            return self.table[:, : (s - 1) * p + 1 : p]
        Q = self.pow(self.table[:, :s], p)
        Q.flags.writeable = False
        return Q

    def mul(self, A, B):
        """Products of two (b, n, s) arrays of reduced coefficients."""
        s = self.s
        conv = np.zeros(A.shape[:-1] + (2 * s - 1,), dtype=self.dtype)
        for i in range(s):
            conv[..., i : i + s] += A[..., i : i + 1] * B
        conv %= self.p
        return (conv[..., :s] + conv[..., s:] @ self.reduction) % self.p

    def pow(self, A, e):
        """A^e for e >= 0 by square-and-multiply."""
        out = np.zeros_like(A)
        out[..., 0] = 1
        while e:
            if e & 1:
                out = self.mul(out, A)
            e >>= 1
            if e:
                A = self.mul(A, A)
        return out


@lru_cache(maxsize=None)
def _field_monomials(p, modulus):
    return _Monomials(p, [modulus])


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
    """Rabin's test for a monic polynomial over F_p (see _irreducible)."""
    if len(modulus) < 2 or modulus[-1] != 1:
        return False
    return bool(_irreducible(p, [modulus])[0])


def _irreducible(p, moduli):
    """Rabin's test on a batch of monic moduli of one degree s: f is
    irreducible iff x^(p^s) = x mod f and gcd(x^(p^(s/r)) - x, f) = 1 for
    each prime r dividing s.  The iterates x^(p^i) are t @ Q^i."""
    moduli = np.asarray(moduli)
    s = moduli.shape[1] - 1
    ok = np.ones(len(moduli), dtype=bool)
    if s == 1:
        return ok
    mono = _Monomials(p, moduli)
    Q, t = mono.frobenius, mono.table[:, 1:2]
    wanted = {s // r: None for r in linalg.prime_factors(s)}
    y = Q[:, 1:2]  # x^p
    for i in range(1, s):
        if i in wanted:
            wanted[i] = y
        y = y @ Q % p
    ok &= (y == t).all(axis=(1, 2))
    for b in np.flatnonzero(ok):
        for x in wanted.values():
            diff = (x[b, 0] - t[b, 0]) % p
            if len(_poly_gcd_mod(diff.tolist(), moduli[b].tolist(), p)) != 1:
                ok[b] = False
                break
    return ok


def _primitive(p, moduli):
    """Irreducible, and t generates the multiplicative group: t is a unit
    (t does not divide f) and t^(n/r) != 1 for each prime r dividing
    n = p^s - 1.  The powers are taken for the irreducible moduli only."""
    moduli = np.asarray(moduli)
    ok = _irreducible(p, moduli) & (moduli[:, 0] % p != 0)
    if ok.any():
        mono = _Monomials(p, moduli[ok])
        t, one = mono.table[:, 1:2], mono.table[:, :1]
        n = p**mono.s - 1
        unit = np.ones(len(t), dtype=bool)
        for r in linalg.prime_factors(n):
            unit &= (mono.pow(t, n // r) != one).any(axis=(1, 2))
        ok[ok] = unit
    return ok


def _first_irreducible(p, s, primitive=False):
    """Lexicographically least monic polynomial of degree s (by ascending
    coefficient tuple) that is irreducible (and primitive if asked).

    Candidates are tested in batches in search order (see _FIRST_BATCH),
    so a long search pays numpy's per-call cost once per batch, not once
    per candidate.
    """
    test = _primitive if primitive else _irreducible
    cap = max(1, _BATCH_ENTRIES // ((_table_top(p, s) + 2 * s) * s))
    start, size = 0, min(_FIRST_BATCH, cap)
    while start < p**s:
        idx = np.arange(start, min(start + size, p**s), dtype=np.int64)
        moduli = np.ones((len(idx), s + 1), dtype=np.int64)
        moduli[:, :s] = linalg.decode_indices(idx, s, p)
        hit = np.flatnonzero(test(p, moduli))
        if len(hit):
            return tuple(int(c) for c in moduli[hit[0]])
        start += size
        size = min(2 * size, cap)
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
        self._mono = _field_monomials(p, modulus)

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
        return tuple(linalg.decode_indices(idx, self.s, self.p).tolist())

    def index(self, x):
        return int(linalg.encode_vectors(x, self.p))

    # -- arithmetic -----------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        """The scalar product, on ints: schoolbook, then long division by
        the monic modulus."""
        p, s = self.p, self.s
        if s == 1:
            return ((a[0] * b[0]) % p,)
        out = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] = (out[i + j] + x * y) % p
        mod = self.modulus
        for i in range(2 * s - 2, s - 1, -1):
            c = out[i]
            if c:
                for j in range(s):
                    out[i - s + j] = (out[i - s + j] - c * mod[j]) % p
        del out[s:]
        return tuple(out)

    def scalar_mul(self, c, a):
        c = int(c) % self.p
        return tuple((c * x) % self.p for x in a)

    def pow(self, a, e):
        if e < 0:
            return self.pow(self.inv(a), -e)
        return tuple(self.bulk_pow([a], e)[0].tolist())

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of 0 in %r" % self)
        return self.pow(a, self.order - 2)

    def _apply(self, a, M):
        """a @ M mod p for a row-acting matrix M, as an element."""
        return tuple((np.array(a, dtype=M.dtype) @ M % self.p).tolist())

    def frobenius(self, a):
        """One absolute Frobenius step x -> x^p."""
        return self._apply(a, _frobenius_power(self, 1))

    def trace(self, a, subdeg=1):
        """Trace to the subfield of degree subdeg: sum of x^(p^(i*subdeg))."""
        if self.s % subdeg != 0:
            raise ValueError("subdeg must divide the field degree")
        return self._apply(a, _trace_rows(self, subdeg))

    def trace_to_prime(self, a):
        """Absolute trace as an integer in Z/p."""
        return self.trace(a, 1)[0]

    # -- linear-algebra views ---------------------------------------------------

    def mul_matrix(self, a):
        """Matrix over Z/p of multiplication by a in the power basis: column
        j is a t^j, from one bulk product."""
        return self.bulk_mul(np.eye(self.s, dtype=np.int64), np.tile(a, (self.s, 1))).T

    def frobenius_matrix(self):
        """Matrix over Z/p of x -> x^p in the power basis: Q transposed,
        cached per field and read-only."""
        return _frobenius_power(self, 1).T

    def trace_matrix(self):
        """Matrix of x -> tr_{F_q/F_p}(x) embedded: sum of Frobenius powers,
        cached per field and read-only."""
        return _trace_rows(self, 1).T

    # -- bulk (numpy) arithmetic ------------------------------------------------

    def bulk_mul(self, A, B):
        """Rowwise products of two (n, s) coefficient arrays."""
        mono = self._mono
        A = np.asarray(A, dtype=mono.dtype) % self.p
        B = np.asarray(B, dtype=mono.dtype) % self.p
        return mono.mul(A[None], B[None])[0]

    def index_tables(self):
        """(add, sub, mul): q x q arrays of element indices, mul[i, j] the
        index of from_index(i) * from_index(j) and so on, for table-driven
        arithmetic on index arrays at small q (cached per field)."""
        return _index_tables(self)

    def bulk_pow(self, A, e):
        """Rowwise A^e of an (n, s) coefficient array, e >= 0."""
        mono = self._mono
        return mono.pow(np.asarray(A, dtype=mono.dtype)[None] % self.p, e)[0]


@lru_cache(maxsize=None)
def _frobenius_power(field, k):
    """Q^k for 0 <= k <= s, read-only: a @ Q^k = a^(p^k).  Each power is
    the previous one times Q, cached per field, in Q's dtype (Python ints
    at large p, where linalg.matpow's int64 would overflow)."""
    if k == 1:
        return field._mono.frobenius[0]
    if k == 0:
        M = np.eye(field.s, dtype=field._mono.dtype)
    else:
        M = _frobenius_power(field, k - 1) @ _frobenius_power(field, 1) % field.p
    M.flags.writeable = False
    return M


@lru_cache(maxsize=None)
def _trace_rows(field, subdeg):
    """Sum of Q^(i subdeg) over i < s / subdeg, read-only: a @ it is the
    trace of a to the degree-subdeg subfield."""
    out = sum(_frobenius_power(field, i * subdeg) for i in range(field.s // subdeg)) % field.p
    out.flags.writeable = False
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
        self.matrix.flags.writeable = False  # fq_embed hands it to every caller

    def __call__(self, x):
        vec = (self.matrix @ np.array(x, dtype=np.int64)) % self.big.p
        return tuple(int(v) for v in vec)


# Points of the subfield that one embedding's root search enumerates: 2^16.
# A 2^16-point scan at p = 2 takes about 2 s and 95 MiB on a 2-core Xeon;
# the benchmark and the CLI runs pinned in CHANGES.md search at most 5^2
# points, the test suite 3^6.
ROOT_SCAN_BUDGET = 1 << 16


@lru_cache(maxsize=None)
def fq_embed(small, big):
    """The embedding small -> big (degrees must divide), a function of the
    two fields alone.

    A prime field maps by its one root and a field maps to itself by the
    identity.  Otherwise the root is the least-index root of small.modulus
    in big (little-endian digits) that agrees with the embeddings of every
    proper subfield D = FqField(p, d), 1 < d < small.s: the root's image of
    fq_embed(D, small).root is fq_embed(D, big).root.  So on the default
    fields the embeddings form one compatible lattice, fq_embed(E, F) o
    fq_embed(D, E) = fq_embed(D, F) (Bosma, Cannon and Steel, "Lattices of
    compatibly embedded finite fields", J. Symbolic Comput. 24 (1997)).
    """
    if small.p != big.p or big.s % small.s != 0:
        raise ValueError("no embedding: degrees incompatible")
    if small.s == 1:
        return FieldEmbedding(small, big, big.element(small.gen()[0]))
    if small == big:
        return FieldEmbedding(small, big, small.gen())
    subs = [FqField(small.p, d) for d in range(2, small.s) if small.s % d == 0]
    for root in _roots(small.modulus, big):
        emb = FieldEmbedding(small, big, tuple(int(v) for v in root))
        if all(emb(fq_embed(D, small).root) == fq_embed(D, big).root for D in subs):
            return emb
    raise ArithmeticError("no root of the modulus agrees with the subfield embeddings")


def _roots(modulus, big):
    """The roots of modulus among big's elements, in index order.

    A root of a degree-s modulus lies in the subfield F_{p^s} of big, the
    kernel of Frob^s - I, so only that subfield's p^s points are tried,
    and no more than ROOT_SCAN_BUDGET of them.
    """
    p, s = big.p, len(modulus) - 1
    if p**s > ROOT_SCAN_BUDGET:
        raise ValueError(
            "root search over %d^%d points exceeds the root-scan budget %d" % (p, s, ROOT_SCAN_BUDGET)
        )
    frob_s = _frobenius_power(big, s).T
    sub = linalg.kernel((frob_s - np.eye(big.s, dtype=np.int64)) % p, p)
    pts = linalg.enumerate_row_space(sub, p)
    pts = pts[np.argsort(linalg.encode_vectors(pts, p))]
    acc = np.zeros_like(pts)
    acc[:, 0] = modulus[-1] % p
    for c in reversed(modulus[:-1]):
        acc = big.bulk_mul(acc, pts)
        acc[:, 0] = (acc[:, 0] + c) % p
    return pts[~acc.any(axis=1)]
