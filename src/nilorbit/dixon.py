"""Dixon-Burnside character-table oracle.

Entirely independent of the orbit method: class-algebra structure constants
are split into common eigenvectors over a prime field F_l with
l = 1 (mod exponent), rows are normalized to character values mod l, and
eigenvalue multiplicities are recovered by the inverse discrete Fourier
transform over the power map, giving exact values in Z[zeta_e].

Each stage is a few whole-array operations over F_l:

* a class matrix is one bulk pass of the group law over all its
  (x^-1, rep_k) pairs and one bincount;
* splitting is column-lazy, after G. J. A. Schneider, "Dixon's character
  table algorithm revisited", J. Symbolic Comput. 9 (1990): a class acts on
  an RREF subspace S by S @ N at the pivot columns of S, so only those
  columns of N are computed.  The subspaces of one dimension are tested
  together, by one stacked product and one comparison, and those on which
  the action is scalar are kept whole.  The others split with no kernel per
  eigenvalue: the action A is diagonalizable, so the lambda-eigenrows are
  the row space of the product of A - mu I over the other roots mu, taken
  from prefix and suffix products; a simple root needs no elimination.
  Products mod l run in float64 on BLAS while their partial sums stay
  within 2^53;
* the multiplicities of all rows come from one product of the character
  values mod l at the powers of each class rep with the e x e matrix of
  powers of theta (a primitive e-th root of unity mod l).

The only inputs are the multiplication oracle and the class partition, so
agreement with the orbit-method table is a genuine cross-validation.
"""

import math

import numpy as np

from .chartable import CharacterTable
from . import linalg

DEFAULT_MAX_ORDER = 20000  # the oracle budget: the largest group order it takes
BLOCK = 1 << 16  # group-law pairs, or gathered values, per bulk step
# multiply-adds per matrix from which a float64 product beats int64
_BLAS_MIN = 1 << 12


def dixon_prime(order, exponent):
    """Least prime l = 1 (mod exponent) with l > max(order, 2 * exponent)."""
    l = max(order, 2 * exponent)
    while True:
        l += 1
        if l % exponent != 1 % exponent:
            continue
        if linalg.is_prime(l):
            return l


def _primitive_root(l):
    n = l - 1
    factors = linalg.prime_factors(n)
    for g in range(2, l):
        if all(pow(g, n // q, l) != 1 for q in factors):
            return g
    raise ArithmeticError("no primitive root found")


def class_matrix(G, cd, j, cols=None):
    """Columns `cols` (all by default) of N_j, where
    N_j[i, k] = #{(x, y) : x in C_j, y in C_i, x y = rep_k}.

    This is the transpose of the multiplication-by-C_j matrix, so candidate
    character rows v satisfy v @ N_j = omega_j * v.  y = x^-1 rep_k, so the
    (x^-1, rep_k) pairs of every requested column go through the group law
    together, in blocks of at most BLOCK pairs, and one bincount over
    (class of y, column) per block fills the matrix.
    """
    t = cd.num_classes
    cols = np.arange(t) if cols is None else np.asarray(cols, dtype=np.int64)
    inv_members = G.inv_bulk(np.flatnonzero(cd.class_of == j))
    m, c = len(inv_members), len(cols)
    reps = np.asarray(cd.reps, dtype=np.int64)[cols]
    counts = np.zeros(t * c, dtype=np.int64)
    for a in range(0, m * c, BLOCK):
        pair = np.arange(a, min(a + BLOCK, m * c), dtype=np.int64)
        k = pair // m
        ys = G.mult_bulk(inv_members[pair % m], reps[k])
        counts += np.bincount(cd.class_of[ys] * c + k, minlength=t * c)
    return counts.reshape(t, c)


def _mulmod(A, B, l):
    """A @ B mod l for int64 operands reduced mod l: matrices, or stacks of
    matrices of equal length.

    Every partial sum is an integer of magnitude below inner * l^2.  While
    that is at most 2^53 float64 holds each one exactly, so products of at
    least `_BLAS_MIN` multiply-adds per matrix run in float64 on BLAS, over
    blocks of whole matrices or of rows of A, so that the float copies of A
    and of the product, and BLAS's packing buffers, stay a block in size.
    Smaller products, where int64 is faster, and larger bounds run in int64,
    exact while inner * l^2 < 2^63: inner is at most the class count, below
    l, so for every group order up to 2^20, the whole-group budget.
    """
    inner = A.shape[-1]
    if inner * l * l > linalg.FLOAT_EXACT or A.shape[-2] * inner * B.shape[-1] < _BLAS_MIN:
        out = A @ B
        out %= l
        return out
    out = np.empty(A.shape[:-1] + B.shape[-1:], dtype=np.int64)
    A3, B3, out3 = (A[None], B[None], out[None]) if A.ndim == 2 else (A, B, out)
    g, k, _ = A3.shape
    rows = max(1, BLOCK // inner)  # rows of A per block
    mats = min(g, max(1, rows // k))  # whole matrices per block, or one in row blocks
    # one float buffer per operand, reused by every block: fresh float
    # temporaries per block fragment the heap (with them, and with the
    # eigenspaces as views of one product, the 1,186-class USp4(F_16)
    # oracle run peaked 11 MiB higher)
    Af = np.empty((mats, min(rows, k), inner))
    Bf = np.empty((mats,) + B3.shape[1:])
    Cf = np.empty(Af.shape[:2] + B3.shape[2:])
    for a in range(0, g, mats):
        bf = Bf[:len(B3[a:a + mats])]
        bf[...] = B3[a:a + mats]
        for r in range(0, k, rows):
            dst = out3[a:a + mats, r:r + rows]
            af, cf = Af[:len(dst), :dst.shape[1]], Cf[:len(dst), :dst.shape[1]]
            af[...] = A3[a:a + mats, r:r + rows]
            np.matmul(af, bf, out=cf)
            dst[...] = cf
            dst %= l
    return out


def _charpoly_mod(A, l):
    """Characteristic polynomial coefficients (ascending) of A over F_l."""
    H = A.copy() % l
    n = H.shape[0]
    # Hessenberg form by similarity transformations: per column, one step
    # L H L^-1 clears every entry below the subdiagonal
    for c in range(n - 2):
        nz = c + 1 + np.flatnonzero(H[c + 1:, c])
        if not len(nz):
            continue
        if nz[0] != c + 1:
            H[[c + 1, nz[0]]] = H[[nz[0], c + 1]]
            H[:, [c + 1, nz[0]]] = H[:, [nz[0], c + 1]]
        # the other rows with a nonzero entry in column c (row c + 1 held
        # none before the swap), all zero left of it
        rows = nz[1:]
        if not len(rows):
            continue
        f = H[rows, c] * pow(int(H[c + 1, c]), -1, l) % l
        H[rows, c:] = (H[rows, c:] - f[:, None] * H[c + 1, c:]) % l
        H[:, c + 1] = (H[:, c + 1] + H[:, rows] @ f) % l
    # p_k, the characteristic polynomial of the leading k x k block, as row
    # k of P by the Hessenberg determinant recurrence
    # p_k = (x - H[k-1,k-1]) p_{k-1} - sum_i H[k-1-i,k-1] beta_i p_{k-1-i},
    # with beta_i the product of the i subdiagonal entries above row k
    sub = np.diagonal(H, -1).tolist()
    P = np.zeros((n + 1, n + 1), dtype=np.int64)
    P[0, 0] = 1
    for k in range(1, n + 1):
        col = H[:k, k - 1].tolist()
        coef, beta = [], 1
        for i in range(1, k):
            beta = beta * sub[k - i - 1] % l
            if not beta:
                break
            coef.append(col[k - 1 - i] * beta % l)
        P[k, 1:] = P[k - 1, :-1]
        P[k] -= col[k - 1] * P[k - 1] % l
        if coef:
            P[k] -= np.array(coef) @ P[k - 2::-1][:len(coef)] % l
        P[k] %= l
    return P[n].copy()  # not a view that keeps P


def _poly_at(poly, xs, l):
    """The polynomial (ascending coefficients) at every point of xs, mod l."""
    acc = np.zeros(len(xs), dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc * xs + int(c)) % l
    return acc


def _roots_mod(poly, l):
    return np.flatnonzero(_poly_at(poly, np.arange(l, dtype=np.int64), l) == 0).tolist()


def _excluded_products(A, roots, l):
    """Yields g_i = prod_{j != i} (A - roots[j] I) mod l for each i in turn,
    as a prefix product times a suffix product of the factors: about 3m
    products of k x k matrices for m roots, with the m suffixes held."""
    m = len(roots)

    def factor(mu):  # A - mu I mod l
        F = A.copy()
        F.flat[::len(A) + 1] -= mu
        F %= l
        return F

    def times(X, Y):  # None is the empty product I
        return Y if X is None else X if Y is None else _mulmod(X, Y, l)

    # suffix[i] = F_{i+1} ... F_{m-1}, with F_j = A - roots[j] I
    suffix = [None] * m
    for i in range(m - 2, -1, -1):
        suffix[i] = times(factor(roots[i + 1]), suffix[i + 1])
    prefix = None  # F_0 ... F_{i-1}
    for i in range(m):
        g = times(prefix, suffix[i])
        yield np.eye(len(A), dtype=np.int64) if g is None else g
        if i < m - 1:
            prefix = times(prefix, factor(roots[i]))


def _eigen_split(S, A, l):
    """Split the row space S (RREF rows) into the eigen-row-spaces of the
    action A, a k x k matrix that is not scalar: row i of A is S_i N in the
    basis S.

    The class algebra is commutative and semisimple over F_l, so A is
    diagonalizable (J. D. Dixon, "High speed computation of group
    characters", Numer. Math. 10 (1967)): for each root lambda of its
    characteristic polynomial chi, the lambda-eigenrows are the row space of
    g(A) = prod over the other roots mu of (A - mu I), and no kernel is
    needed.  A simple root (chi'(lambda) != 0) gives a line: one nonzero row
    of g(A), scaled to a leading 1.  A repeated root takes one rref.  Each
    R is RREF and S[:, pivots] = I, so R @ S is RREF as well.  A
    non-diagonalizable A (a bug) fails the check R @ A = lambda R and
    raises ArithmeticError.
    """
    k = A.shape[0]
    chi = _charpoly_mod(A, l)
    roots = _roots_mod(chi, l)
    slope = _poly_at(chi[1:] * np.arange(1, len(chi)) % l, np.array(roots, dtype=np.int64), l)
    parts = []
    for d, g in zip(slope, _excluded_products(A, roots, l)):
        if d:  # a simple root: g(A) is nonzero, of rank one if A is diagonalizable
            row = g[g.any(axis=1).argmax()]
            parts.append((row * pow(int(row[(row != 0).argmax()]), -1, l) % l)[None])
        else:
            parts.append(linalg.rref(g, l)[0])
    dims = [len(R) for R in parts]
    if sum(dims) != k:
        raise ArithmeticError("eigen split lost dimensions (bug)")
    R = np.concatenate(parts)
    del parts  # each k x k temporary is dropped before the next product
    off = _mulmod(R, A, l)
    off -= np.repeat(roots, dims)[:, None] * R
    off %= l
    if off.any():
        raise ArithmeticError("eigen split of a non-diagonalizable action (bug)")
    del off
    # one product per eigenspace: views of one product would keep all of it
    # alive until every part is freed
    return [_mulmod(P, S, l) for P in np.split(R, np.cumsum(dims)[:-1])]


def _split_by(spaces, N, cols, l):
    """Each RREF space S split by the class matrix N, given the columns
    of N at the pivots of S, in order.

    Spaces of one dimension k are tested together: one gather and one
    stacked product give every action A = S @ N[:, cols] and one comparison
    finds the scalar ones, which are one eigenspace each and come back as
    they are, the same objects.  Only the others go to _eigen_split.
    """
    out = [None] * len(spaces)
    by_dim = {}
    for i, S in enumerate(spaces):
        by_dim.setdefault(S.shape[0], []).append(i)
    for k, idx in by_dim.items():
        A = _mulmod(
            np.stack([spaces[i] for i in idx]),
            N[:, np.stack([cols[i] for i in idx])].transpose(1, 0, 2),
            l,
        )
        off = A.copy()
        off[:, range(k), range(k)] -= A[:, :1, 0]
        scalar = ~off.any(axis=(1, 2))
        del off
        for i, a, whole in zip(idx, A, scalar):
            out[i] = [spaces[i]] if whole else _eigen_split(spaces[i], a, l)
    return [T for parts in out for T in parts]


def _split_all(G, cd, l):
    """Common eigenvectors of the class algebra: one row per irreducible.

    Classes act in order of size; each class matrix is computed only at
    the union of the pivot columns of the spaces still to split.
    """
    t = cd.num_classes
    spaces = [np.eye(t, dtype=np.int64)]
    for j in sorted(range(t), key=lambda j: (int(cd.sizes[j]), int(cd.reps[j]))):
        todo = [S for S in spaces if S.shape[0] > 1]
        if not todo:
            break
        if j == cd.identity_class:
            continue
        pivots = [(S != 0).argmax(axis=1) for S in todo]
        wanted = np.zeros(t, dtype=bool)
        wanted[np.concatenate(pivots)] = True
        N = class_matrix(G, cd, j, np.flatnonzero(wanted)) % l
        col_of = np.cumsum(wanted) - 1  # class -> column of N
        spaces = [S for S in spaces if S.shape[0] == 1] + _split_by(
            todo, N, [col_of[piv] for piv in pivots], l
        )
    if any(S.shape[0] > 1 for S in spaces):
        raise ArithmeticError("class algebra did not fully split (bug)")
    return np.concatenate(spaces)


def _characters_mod(V, cd, l):
    """(chi, deg): the irreducible characters mod l, one per common
    eigenvector row of V, and their degrees lifted from F_l.

    A row scaled to y_k = chi(g_k)/chi(1) has sum_k |C_k| y_k y_k' = |G|/deg^2,
    with k' the class of the inverses."""
    n = cd.n
    Y = (V * np.array([pow(int(a), -1, l) for a in V[:, cd.identity_class]])[:, None]) % l
    w = np.asarray(cd.sizes, dtype=np.int64) % l
    s_norm = ((((Y * w) % l) * Y[:, cd.inv_class]) % l).sum(axis=1) % l
    sqrt_n = math.isqrt(n)
    degs = []
    for s in s_norm.tolist():
        deg_sq = (n * pow(s, -1, l)) % l
        deg = _sqrt_mod(deg_sq, l)
        if deg is None:
            raise ArithmeticError("degree is not a square mod l (bug)")
        if deg > sqrt_n:
            deg = l - deg
        if deg > sqrt_n or (deg * deg - deg_sq) % l != 0:
            raise ArithmeticError("no valid degree lift (bug)")
        degs.append(deg)
    deg = np.array(degs, dtype=np.int64)
    return (deg[:, None] * Y) % l, deg


def _root_counts(chi_mod, pm, e, l):
    """counts[r, k, s] = multiplicity of zeta_e^s among the eigenvalues of
    rep_k in the representation of row r, for every row at once:
    chi_mod[:, pm] @ F mod l, with F[u, s] = theta^(-s u) / e over F_l.

    Rows go in blocks so that the (rows, t, e) gather stays small."""
    theta = pow(_primitive_root(l), (l - 1) // e, l)
    su = np.outer(np.arange(e), np.arange(e)) % e
    theta_pows = np.array([pow(theta, -s, l) for s in range(e)], dtype=np.int64)
    F = (theta_pows[su] * pow(e, -1, l)) % l
    rows, t = chi_mod.shape
    step = max(1, BLOCK // (t * e))
    return np.concatenate(
        [(chi_mod[a:a + step][:, pm] @ F) % l for a in range(0, rows, step)]
    )


def check_order(n, max_order=DEFAULT_MAX_ORDER):
    """Refuses a group of order n above the oracle budget max_order."""
    if n > max_order:
        raise ValueError("group order %d exceeds the oracle budget %d" % (n, max_order))


def dixon_table(G, max_order=DEFAULT_MAX_ORDER):
    """The character table of G by the Dixon-Burnside algorithm; a group
    above max_order is refused before any use of its law."""
    check_order(G.n, max_order)
    cd = G.conjugacy_classes()
    e = G.exponent()
    l = dixon_prime(G.n, e)
    pm = G.power_classes(e)

    chi_mod, deg = _characters_mod(_split_all(G, cd, l), cd, l)
    counts = _root_counts(chi_mod, pm, e, l)
    if (counts > deg[:, None, None]).any():
        raise ArithmeticError("multiplicity lift out of range (bug)")
    if (counts.sum(axis=2) != deg[:, None]).any():
        raise ArithmeticError("multiplicities do not sum to the degree (bug)")
    return CharacterTable.from_root_counts(cd, e, counts)[0]


def _sqrt_mod(a, l):
    """A square root of a mod prime l (Tonelli-Shanks), or None."""
    a %= l
    if a == 0:
        return 0
    if pow(a, (l - 1) // 2, l) != 1:
        return None
    if l % 4 == 3:
        return pow(a, (l + 1) // 4, l)
    # Tonelli-Shanks
    q = l - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (l - 1) // 2, l) == 1:
        z += 1
    m, c, tt, r = s, pow(z, q, l), pow(a, q, l), pow(a, (q + 1) // 2, l)
    while tt != 1:
        i = 0
        t2 = tt
        while t2 != 1:
            t2 = (t2 * t2) % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, (b * b) % l
        tt, r = (tt * c) % l, (r * b) % l
    return r
