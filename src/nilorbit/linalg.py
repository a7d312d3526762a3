"""Dense exact linear algebra over prime fields Z/p.

Matrices are numpy int64 arrays with entries reduced mod p.  Sizes here are
small (dimensions <= ~20 for ring computations, a few hundred for the Dixon
oracle), so clarity wins over asymptotics; row operations are vectorized.
`bilinear` is the one structure-constant contraction behind every Lie
bracket and algebra product.  It has two exactness regimes: while every
partial sum of the contraction fits in FLOAT_EXACT it runs in float64 on
BLAS, exact in any summation order; above that it runs in int64, reduced
after each stage.  `rational_mod` is the one map from exact
rationals to F_p.  The primality, prime-factor and prime-power helpers are
shared by the field, cyclotomic, family and oracle modules and the CLI.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

# float64 holds every integer of magnitude at most 2^53, so a product whose
# partial sums all stay within it is exact on BLAS, in any summation order
FLOAT_EXACT = 2**53
# entries from which reduced() checks the range rather than reducing
FEW_ENTRIES = 1 << 8


def asmod(a, p):
    return np.asarray(a, dtype=np.int64) % p


def _out_of_range(V, bound):
    """Whether a non-empty int64 array has an entry outside [0, bound).  A
    negative entry reads as a huge unsigned one, so one max finds any such
    entry, at a fraction of the cost of the `%` it lets a caller skip."""
    return np.maximum.reduce(V.view(np.uint64), axis=None) >= bound


def reduced(a, p):
    """a as int64 entries in [0, p), not to be written to: a itself when
    it has at least FEW_ENTRIES entries, all in range already.  Below that
    the `%` costs less than the check."""
    a = np.asarray(a, dtype=np.int64)
    return a % p if a.size < FEW_ENTRIES or _out_of_range(a, p) else a


def modinv(a, p):
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod %d" % p)
    return pow(a, -1, p)


def rational_mod(v, p):
    """The rational v (a Fraction or an int) as an element of F_p."""
    num = v.numerator % p
    den = v.denominator % p
    if den == 0:
        raise ValueError(
            "denominator %d not invertible mod %d (class >= p?)" % (v.denominator, p)
        )
    return (num * pow(den, -1, p)) % p


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@lru_cache(maxsize=None)
def prime_factors(n):
    """The distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def prime_power(q):
    """(p, s) with q = p^s, p prime and s >= 1."""
    factors = prime_factors(q)
    if len(factors) != 1:
        raise ValueError("%d is not a prime power" % q)
    p, s = factors[0], 0
    while q > 1:
        q //= p
        s += 1
    return p, s


def rref(mat, p):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    Entries are reduced lazily: an elimination step adds less than p^2 in
    absolute value to the columns from the pivot on, each column is read
    mod p when its turn comes, and the whole matrix is reduced every
    2^62 // p^2 steps and at the end, so nothing overflows int64.
    """
    R = asmod(mat, p)  # a new array
    if R.ndim != 2:
        raise ValueError("expected a matrix")
    nrows, ncols = R.shape
    lazy = max(1, (1 << 62) // (p * p))
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        col = R[:, c] % p
        nz = col[r:].nonzero()[0]
        if not len(nz):
            continue
        i = r + nz[0]
        inv = modinv(col[i], p)
        if i != r:
            R[[r, i]] = R[[i, r]]
            col[i] = col[r]
        col[r] = 0
        # rows r.. are zero mod p left of column c
        row = R[r, c:] % p * inv % p
        R[r, c:] = row
        # only rows with a nonzero entry in column c change; when they are
        # few, as in sparse class-algebra actions, only they are updated
        rows = col.nonzero()[0]
        if 2 * len(rows) < nrows:
            R[rows, c:] -= col[rows, None] * row
        else:
            R[:, c:] -= col[:, None] * row
        pivots.append(c)
        r += 1
        if r % lazy == 0:
            R %= p
    return R[:r] % p, pivots


def rank(mat, p):
    return rref(mat, p)[0].shape[0]


def kernel(mat, p):
    """Basis (as rows, in RREF) of the right null space {x : mat @ x = 0}."""
    A = asmod(mat, p)
    n = A.shape[1]
    R, pivots = rref(A, p)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-R[:, free].T) % p
    return rref(basis, p)[0] if len(free) else basis


def solve(A, b, p):
    """One solution x of A @ x = b, or None if inconsistent."""
    A = asmod(A, p)
    b = asmod(b, p)
    aug = np.concatenate([A, b.reshape(-1, 1)], axis=1)
    R, pivots = rref(aug, p)
    n = A.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, n]
    return x


def inverse(A, p):
    A = asmod(A, p)
    n = A.shape[0]
    aug = np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod %d" % p)
    return R[:, n:]


def matmul(A, B, p):
    return (asmod(A, p) @ asmod(B, p)) % p


def matpow(A, k, p):
    n = A.shape[0]
    out = np.eye(n, dtype=np.int64)
    base = asmod(A, p)
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def nilpotent_exp(A, p):
    """exp(A) = sum A^i / i! for nilpotent A; requires A^k = 0 with k <= p."""
    n = A.shape[0]
    out = np.eye(n, dtype=np.int64)
    term = np.eye(n, dtype=np.int64)
    A = asmod(A, p)
    for i in range(1, n + 1):
        term = (term @ A) % p
        if not term.any():
            break
        if i >= p:
            raise ValueError("matrix not nilpotent of index < p")
        out = (out + term * rational_mod(Fraction(1, math.factorial(i)), p)) % p
    return out


def reduce_by(R, V, p):
    """Reduce V, a vector or a batch of rows, modulo the row space of the
    RREF matrix R: the canonical coset representative of each row."""
    V = asmod(V, p)
    for row, c in zip(R, (R != 0).argmax(axis=1)):
        V = (V - V[..., c, None] * row) % p
    return V


def bilinear(C, X, Y, p):
    """The bilinear map with structure constants C[i, j, k] (coefficient of
    e_k in e_i * e_j, reduced mod p) on X and Y, which are vectors or
    batches of rows that broadcast against each other over their leading
    axes.

    X and Y go through `reduced`, so a large batch already in range is not
    copied.  The contraction runs one slot at a time, X against C and then
    Y against that, in one of two exact regimes:

    * while d^2 (p-1)^3 <= FLOAT_EXACT, in float64 on BLAS: every partial
      sum is a non-negative integer at most d^2 (p-1)^3, so any summation
      order is exact, and the result is reduced once, at the end;
    * above it (e.g. p = 3000017), in int64, reduced after each stage, so
      every partial sum stays below d (p-1)^2: exact while that is < 2^63.
    """
    d = C.shape[0]
    X, Y = reduced(X, p), reduced(Y, p)
    dtype = np.float64 if d * d * (int(p) - 1) ** 3 <= FLOAT_EXACT else np.int64
    T = X.astype(dtype, copy=False) @ C.reshape(d, d * d).astype(dtype, copy=False)
    if dtype is np.int64:
        T %= p
    T = T.reshape(X.shape[:-1] + (d, d))
    out = (Y.astype(dtype, copy=False)[..., None, :] @ T)[..., 0, :].astype(np.int64, copy=False)
    out %= p
    return out


def intersect_row_spaces(A, B, p):
    """RREF basis for the intersection of two row spaces."""
    A = asmod(A, p)
    B = asmod(B, p)
    if A.shape[0] == 0 or B.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    # x = a^T A = b^T B  <=>  (a, b) in kernel of [A^T | -B^T]
    M = np.concatenate([A.T, (-B.T) % p], axis=1)
    K = kernel(M, p)
    if K.shape[0] == 0:
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    vecs = (K[:, : A.shape[0]] @ A) % p
    nz = vecs.any(axis=1)
    if not nz.any():
        return np.zeros((0, A.shape[1]), dtype=np.int64)
    return rref(vecs[nz], p)[0]


def enumerate_row_space(R, p):
    """All p^k vectors of the row space of R (k rows), as a (p^k, n) array."""
    k, n = R.shape
    if k == 0:
        return np.zeros((1, n), dtype=np.int64)
    coeffs = all_vectors(k, p)
    return (coeffs @ R) % p


# digits in all up to which decode_indices divides by every place value in
# one call: below it numpy's per-call cost dominates, above it the division
FEW_DIGITS = 1 << 10


def _codec(p, d):
    """(moduli, the modulus array, place values) of d little-endian digits:
    p is one modulus for every digit or a sequence of d per-digit moduli."""
    return _digits(int(p) if isinstance(p, (int, np.integer)) else tuple(map(int, p)), d)


@lru_cache(maxsize=None)
def _digits(p, d):
    """_codec for an int or a tuple p; the arrays are shared, so read-only."""
    moduli = (p,) * d if isinstance(p, int) else p
    if len(moduli) != d:
        raise ValueError("%d moduli for %d digits" % (len(moduli), d))
    place = np.cumprod((1,) + moduli[:-1], dtype=np.int64)[:d]
    m = np.array(p if isinstance(p, int) else moduli, dtype=np.int64)
    place.flags.writeable = m.flags.writeable = False
    return moduli, m, place


def all_vectors(d, p):
    """All vectors of F_p^d (or of the per-digit moduli p) in index order."""
    return decode_indices(np.arange(math.prod(_codec(p, d)[0]), dtype=np.int64), d, p)


def encode_vectors(V, p):
    """Little-endian mixed-radix index of each row of V (its last axis);
    digit j is read mod p, or mod p[j] for a sequence of d moduli.  This and
    decode_indices are the one index <-> digit conversion."""
    V = np.asarray(V, dtype=np.int64)
    moduli, m, place = _codec(p, V.shape[-1])
    if V.size and _out_of_range(V, min(moduli)):
        V = V % m
    return V @ place


def decode_indices(idx, d, p):
    """The d little-endian digits of each index, on a new trailing axis
    (moduli as in encode_vectors).  Beyond FEW_DIGITS digits in all they fill
    a digit-first buffer, one pass per digit, and come as a view of it: X.T
    gives each digit as a contiguous array (its other axes reversed)."""
    idx = np.asarray(idx, dtype=np.int64)
    moduli, m, place = _codec(p, d)
    if idx.size * d <= FEW_DIGITS:  # two calls in all, not one per digit
        return idx[..., None] // place % m
    rest = idx.copy()  # divided in place
    out = np.empty((d,) + idx.shape, dtype=np.int64)
    for j, modulus in enumerate(moduli):
        np.divmod(rest, modulus, out=(rest, out[j, ...]))
    return out.transpose(tuple(range(1, out.ndim)) + (0,))
