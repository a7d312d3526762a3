"""Dixon-Burnside character-table oracle.

Entirely independent of the orbit method: class-algebra structure constants
are split into common eigenvectors over a prime field F_l with
l = 1 (mod exponent), rows are normalized to character values mod l, and
eigenvalue multiplicities are recovered by the inverse discrete Fourier
transform over the power map, giving exact values in Z[zeta_e].

Each stage is a few whole-array operations over F_l:

* an action is one bulk pass of the group law over the (x^-1, rep_k)
  pairs of its classes and one weighted bincount.  The classes act in
  batches of BATCH, in order of size, each batch as one combination
  N = sum_j c_j N_j with seeded draws c_j in F_l^x (G. J. A. Schneider,
  "Dixon's character table algorithm revisited", J. Symbolic Comput. 9
  (1990)).  N is scalar on a space where every N_j is; where some N_j is
  not, the draws that make N scalar form a proper subspace, so a batch
  misses a split with probability at most 1/l per space.  A miss only
  delays the split: any space the batches leave whole then meets the
  classes one at a time, so the table is exact whatever the draws;
* splitting is column-lazy: an action on an RREF subspace S is S @ N at
  the pivot columns of S, so only those columns of N are computed.  The
  subspaces of one dimension are tested together, by one stacked product
  and one comparison, and those on which the action is scalar are kept
  whole.  The others split with no kernel per eigenvalue.  The action A
  is diagonalizable (J. D. Dixon, "High speed computation of group
  characters", Numer. Math. 10 (1967)), so with f the product of x - mu
  over its m distinct roots, the lambda-eigenrows are the row space of
  (f / (x - lambda))(A).  The roots and their multiplicities come from
  the squarefree factorization of the characteristic polynomial, so a
  root scan costs l m, not l k.  The roots share one block Krylov
  sequence X A^i, i < m, of drawn rows: every simple root comes from its
  first row v, vA, ..., vA^(m-1) and one product with the quotients, and
  a root of multiplicity d from its first d rows.
  Products mod l run in float64 on BLAS while their partial sums stay
  within 2^53;
* the multiplicities of all rows come from one product of the character
  values mod l at the powers of each class rep with the e x e matrix of
  powers of theta (a primitive e-th root of unity mod l).

The only inputs are the multiplication oracle and the class partition, so
agreement with the orbit-method table is a genuine cross-validation.
"""

import itertools
import math
import random

import numpy as np

from .chartable import CharacterTable
from . import linalg

DEFAULT_MAX_ORDER = 20000  # the oracle budget: the largest group order it takes
# values per bulk step: gathered, in a row block of a product, or in a
# chunk of Krylov steps
BLOCK = 1 << 16
# group-law pairs per law call of an action: a batch of classes fills
# every call, so this bounds the law's temporaries, and with them the peak
PAIR_BLOCK = 1 << 10
BATCH = 16  # classes combined into one action
DRAW_SEED = 1  # seeds every draw: class coefficients and Krylov rows
# draws per eigenspace before a projection still short of its dimension
# is taken for a bug; an honest draw falls short with probability about
# 1/l, and l >= 5 wherever a space splits
_ATTEMPTS = 32
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


def _draws(l, shape, key):
    """Draws from F_l^x of the given shape, the same on every run for the
    same DRAW_SEED and key: a stdlib generator seeded by both supplies the
    bytes, so the oracle never imports numpy.random."""
    n = math.prod(shape)
    raw = random.Random("%d %s" % (DRAW_SEED, key)).randbytes(8 * n)
    c = np.frombuffer(raw, dtype=np.uint64) % np.uint64(l - 1)
    return c.astype(np.int64).reshape(shape) + 1


def class_matrix(G, cd, classes, cols=None, coeffs=None):
    """Columns `cols` (all by default) of sum_j c_j N_j over `classes` (one
    class or a sequence of them) with coefficients `coeffs` (every c_j = 1
    by default), where
    N_j[i, k] = #{(x, y) : x in C_j, y in C_i, x y = rep_k}.

    N_j is the transpose of the multiplication-by-C_j matrix, so candidate
    character rows v satisfy v @ N_j = omega_j * v.  y = x^-1 rep_k, so the
    (x^-1, rep_k) pairs of every member x of the classes and every
    requested column go through the group law together, PAIR_BLOCK pairs
    per call, column by column.  One bincount over (column, class of y),
    weighted by c_j and spanning only the columns of the call, adds each
    call to the sum.  The sums are integers below max(c_j) |G|, exact in
    float64 for every coefficient below l and every order up to 2^20.
    """
    t = cd.num_classes
    cols = np.arange(t) if cols is None else np.asarray(cols, dtype=np.int64)
    weight = np.zeros(t)
    weight[classes] = 1 if coeffs is None else coeffs
    members = np.flatnonzero(weight[cd.class_of])
    inv_members, w = G.inv_bulk(members), weight[cd.class_of[members]]
    m, c = len(members), len(cols)
    reps = np.asarray(cd.reps, dtype=np.int64)[cols]
    counts = np.zeros(c * t)
    for a in range(0, m * c, PAIR_BLOCK):
        pair = np.arange(a, min(a + PAIR_BLOCK, m * c), dtype=np.int64)
        k, x = pair // m, pair % m
        ys = G.mult_bulk(inv_members[x], reps[k])
        k0 = int(k[0])
        span = np.bincount((k - k0) * t + cd.class_of[ys], weights=w[x])
        counts[k0 * t:k0 * t + len(span)] += span
    return counts.astype(np.int64).reshape(c, t).T


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


def _trim(poly):
    n = len(poly)
    while n and not poly[n - 1]:
        n -= 1
    return poly[:n]


def _poly_divmod(a, b, l):
    """(q, r): a = q b + r mod l with deg r < deg b, for ascending
    coefficient arrays with b nonzero and trimmed."""
    r, db = a.copy(), len(b) - 1
    q = np.zeros(max(len(a) - db, 0), dtype=np.int64)
    inv = pow(int(b[-1]), -1, l)
    for i in range(len(q) - 1, -1, -1):
        q[i] = c = int(r[i + db]) * inv % l
        if c:
            r[i:i + db + 1] = (r[i:i + db + 1] - c * b) % l
    return q, _trim(r[:db])


def _poly_gcd(a, b, l):
    """The monic gcd of a nonzero a and b."""
    while len(b):
        a, b = b, _poly_divmod(a, b, l)[1]
    return a * pow(int(a[-1]), -1, l) % l


def _squarefree_roots(f, l):
    """The roots of a monic squarefree f in F_l (l odd), ascending: by
    formula at degree 1 and 2, else by the l-point scan."""
    if len(f) > 3:
        return _roots_mod(f, l)
    if len(f) == 3:
        b, c = int(f[1]), int(f[0])
        s = _sqrt_mod(b * b - 4 * c, l)
        half = pow(2, -1, l)
        return [] if s is None else sorted({(-b + s) * half % l, (-b - s) * half % l})
    return [-int(f[0]) % l] if len(f) == 2 else []


def _eigenvalues(chi, l):
    """(roots, mults): the distinct roots in F_l of the monic chi, ascending,
    and their multiplicities, from its squarefree factorization.

    With c = gcd(chi, chi'), the squarefree part f = chi / c has the m
    distinct roots, so a scan costs l m, not l k, and chi' / c is the sum
    of d_lambda f / (x - lambda), so d_lambda = (chi' / c)(lambda) /
    f'(lambda) mod l.  In the oracle deg chi <= t < l, so that is d_lambda.
    Otherwise a root that l divides the multiplicity of is no root of f,
    and chi over the prod of (x - lambda)^(d_lambda mod l) is a polynomial
    in x^l: its roots, with multiplicities over l, recurse as one in x.
    """
    dchi = _trim(chi[1:] * np.arange(1, len(chi)) % l)
    c = _poly_gcd(chi, dchi, l)
    f = _poly_divmod(chi, c, l)[0]
    roots = np.array(_squarefree_roots(f, l), dtype=np.int64)
    slope = _poly_at(f[1:] * np.arange(1, len(f)) % l, roots, l).tolist()
    mults = _poly_at(_poly_divmod(dchi, c, l)[0], roots, l)
    mults = mults * np.array([pow(s, -1, l) for s in slope], dtype=np.int64) % l
    if len(chi) > l:
        rest = _poly_divmod(chi, _from_roots(np.repeat(roots, mults), l), l)[0]
        if len(rest) > 1:
            total = dict(zip(roots.tolist(), mults.tolist()))
            for r, d in zip(*_eigenvalues(rest[::l], l)):
                total[int(r)] = total.get(int(r), 0) + l * int(d)
            roots, mults = (np.array(x, dtype=np.int64) for x in zip(*sorted(total.items())))
    return roots, mults


def _from_roots(roots, l):
    """The product of x - mu over roots (with repeats) mod l, ascending."""
    f = np.ones(1, dtype=np.int64)
    for mu in roots.tolist():
        f = (np.concatenate([[0], f]) - mu * np.concatenate([f, [0]])) % l
    return f


def _quotients(roots, l):
    """Q[i] = f / (x - roots[i]) mod l, ascending, with f the product of
    x - mu over the distinct roots: row i is the product over the others."""
    m = len(roots)
    f = _from_roots(roots, l)
    Q = np.ones((m, m), dtype=np.int64)
    for i in range(m - 1, 0, -1):  # synthetic division by every x - lambda at once
        Q[:, i - 1] = (f[i] + roots * Q[:, i]) % l
    return Q


def _eigenrows(A, Q, mults, l):
    """For each root of the diagonalizable action A, with quotients Q from
    _quotients and multiplicities mults, the RREF rows of its
    eigen-row-space: the row space of Q_i(A), of dimension d_i = mults[i].

    d_i drawn rows projected by Q_i(A) span it unless the draw was
    unlucky; a projection short of its dimension is drawn again, at most
    _ATTEMPTS times.  The roots share one block Krylov sequence X A^j,
    j < m, of max d_i rows, BLOCK values of it at a time: row r of X serves
    the roots of multiplicity above r, by one product with their
    quotients, so every simple root comes from row 0.  A line is scaled to
    a leading 1, a larger space takes one rref.
    """
    k, m = A.shape[0], len(mults)
    # rows times A mod l, in float64 on BLAS while k l^2 <= 2^53
    At = A.astype(np.float64) if k * l * l <= linalg.FLOAT_EXACT else A
    parts = [None] * m
    for attempt in range(_ATTEMPTS):
        short = np.array([i for i in range(m) if parts[i] is None], dtype=np.int64)
        if not len(short):
            return parts
        # short roots by multiplicity, largest first: row r of X projects
        # the first n_r of them, those of multiplicity above r
        short = short[np.argsort(-mults[short], kind="stable")]
        d = mults[short]
        n = [int((d > r).sum()) for r in range(int(d[0]))]
        X = _draws(l, (len(n), k), "rows %d" % attempt).astype(At.dtype)
        Qs = Q[short].astype(At.dtype)
        P = [np.zeros((nr, k), dtype=At.dtype) for nr in n]
        # P[r] = sum_j Q[short[:n_r], j] X_r A^j, over chunks of the steps
        # of at most BLOCK values; each sum has m <= k terms below l^2, as
        # in a step, so it is reduced once, at the end
        step = max(1, BLOCK // X.size)
        for a in range(0, m, step):
            K = np.empty((min(step, m - a),) + X.shape, dtype=At.dtype)
            for j in range(len(K)):
                if a + j:
                    X = X @ At
                    X %= l
                K[j] = X
            for r, nr in enumerate(n):
                P[r] += Qs[:nr, a:a + len(K)] @ K[:, r]
        for p, (i, di) in enumerate(zip(short.tolist(), d.tolist())):
            Pi = np.array([P[r][p] for r in range(di)], dtype=np.int64) % l
            if di == 1 and Pi.any():
                parts[i] = Pi * pow(int(Pi[0, (Pi[0] != 0).argmax()]), -1, l) % l
            elif di > 1:
                R = linalg.rref(Pi, l)[0]
                parts[i] = R if len(R) == di else None
    if any(R is None for R in parts):
        raise ArithmeticError("eigen split drew no full eigenspace in %d draws (bug)" % _ATTEMPTS)
    return parts


def _eigen_split(S, A, l):
    """Split the row space S (RREF rows) into the eigen-row-spaces of the
    action A, a k x k matrix that is not scalar: row i of A is S_i N in the
    basis S.

    A is diagonalizable, so with f the product of x - mu over the m
    distinct roots of its characteristic polynomial, the lambda-eigenrows
    are the row space of (f / (x - lambda))(A), taken by _eigenrows.  Each
    R is RREF and S[:, pivots] = I, so R @ S is RREF as well.  A
    non-diagonalizable A (a bug) fails the check R @ A = lambda R and
    raises ArithmeticError.
    """
    k = A.shape[0]
    roots, mults = _eigenvalues(_charpoly_mod(A, l), l)
    if mults.sum() != k:
        raise ArithmeticError("eigen split lost dimensions (bug)")
    dims = mults.tolist()
    R = np.concatenate(_eigenrows(A, _quotients(roots, l), mults, l))
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
    """Each RREF space S split by the action N (a class matrix or a
    combination of them), given the columns of N at the pivots of S, in
    order.

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

    The classes other than the identity act in order of size: first in
    batches of BATCH, each batch as one combination with seeded
    coefficients, then, while any space is left whole, one class at a time.
    Each action is computed only at the union of the pivot columns of the
    spaces still to split.
    """
    t = cd.num_classes
    order = sorted(
        (j for j in range(t) if j != cd.identity_class),
        key=lambda j: (int(cd.sizes[j]), int(cd.reps[j])),
    )
    batches = [order[a:a + BATCH] for a in range(0, len(order), BATCH)]
    actions = itertools.chain(
        ((js, _draws(l, (len(js),), "classes %d" % b)) for b, js in enumerate(batches)),
        ((j, None) for j in order),
    )
    spaces = [np.eye(t, dtype=np.int64)]
    for classes, coeffs in actions:
        todo = [S for S in spaces if S.shape[0] > 1]
        if not todo:
            break
        pivots = [(S != 0).argmax(axis=1) for S in todo]
        wanted = np.zeros(t, dtype=bool)
        wanted[np.concatenate(pivots)] = True
        N = class_matrix(G, cd, classes, np.flatnonzero(wanted), coeffs) % l
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
