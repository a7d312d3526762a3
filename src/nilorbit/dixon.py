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
  columns of N are computed, and a subspace on which the action is scalar
  is kept whole without a characteristic polynomial;
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

DEFAULT_MAX_ORDER = 20000
BLOCK = 1 << 16  # group-law pairs, or gathered values, per bulk step


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


def _charpoly_mod(A, l):
    """Characteristic polynomial coefficients (ascending) of A over F_l."""
    H = A.copy() % l
    n = H.shape[0]
    # Hessenberg form by similarity transformations
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if H[r, c] % l:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), -1, l)
        for r in range(c + 2, n):
            f = (int(H[r, c]) * inv) % l
            if f:
                H[r] = (H[r] - f * H[c + 1]) % l
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % l
    # p_k via the Hessenberg determinant recurrence
    polys = [np.array([1], dtype=np.int64)]
    for k in range(1, n + 1):
        # (x - H[k-1,k-1]) * p_{k-1}
        prev = polys[k - 1]
        term = np.zeros(len(prev) + 1, dtype=np.int64)
        term[1:] += prev
        term[:-1] -= (int(H[k - 1, k - 1]) * prev) % l
        term %= l
        beta = 1
        for i in range(1, k):
            beta = (beta * int(H[k - i, k - i - 1])) % l
            if beta == 0:
                break
            coef = (int(H[k - 1 - i, k - 1]) * beta) % l
            if coef:
                q = polys[k - 1 - i]
                term[: len(q)] = (term[: len(q)] - coef * q) % l
        polys.append(term % l)
    return polys[n]


def _roots_mod(poly, l):
    xs = np.arange(l, dtype=np.int64)
    acc = np.zeros(l, dtype=np.int64)
    for c in poly[::-1]:
        acc = (acc * xs + int(c)) % l
    return np.nonzero(acc == 0)[0].tolist()


def _eigen_split(S, NP, l):
    """Split the row space S (RREF rows) into eigen-row-spaces of v -> v N,
    given NP, the columns of N at the pivots of S.

    In the basis S the action is A = S @ N restricted to the pivot columns.
    The class algebra is commutative and semisimple, so when A is scalar S
    is one eigenspace and is returned as it is.
    """
    k = S.shape[0]
    A = (S @ NP) % l
    if (A == A[0, 0] * np.eye(k, dtype=np.int64)).all():
        return [S]
    roots = _roots_mod(_charpoly_mod(A, l), l)
    out = []
    for lam in roots:
        # K is in RREF and S[:, pivots] = I, so K @ S is in RREF as well
        K = linalg.kernel((A.T - lam * np.eye(k, dtype=np.int64)) % l, l)
        if K.shape[0]:
            out.append((K @ S) % l)
    if sum(s.shape[0] for s in out) != k:
        raise ArithmeticError("eigen split lost dimensions (bug)")
    return out


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
        spaces = [S for S in spaces if S.shape[0] == 1] + [
            T for S, piv in zip(todo, pivots) for T in _eigen_split(S, N[:, col_of[piv]], l)
        ]
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


def dixon_table(G, class_data=None, max_order=DEFAULT_MAX_ORDER):
    """The character table of G by the Dixon-Burnside algorithm."""
    cd = class_data or G.conjugacy_classes()
    n = cd.n
    if n > max_order:
        raise ValueError("group order %d exceeds the oracle budget %d" % (n, max_order))
    e = G.exponent()
    l = dixon_prime(n, e)
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
