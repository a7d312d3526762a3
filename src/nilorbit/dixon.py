"""Dixon-Burnside character-table oracle.

Entirely independent of the orbit method: class-algebra structure constants
are split into common eigenvectors over a prime field F_l with
l = 1 (mod exponent), rows are normalized to character values mod l, and
eigenvalue multiplicities are recovered by the inverse discrete Fourier
transform over the power map, giving exact values in Z[zeta_e].

The only inputs are the multiplication oracle and the class partition, so
agreement with the orbit-method table is a genuine cross-validation.
"""

import math

import numpy as np

from .chartable import CharacterTable, ClassFunction
from .cyclo import Cyclotomic
from . import linalg

DEFAULT_MAX_ORDER = 20000


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


def class_matrix(G, cd, j):
    """N_j[i, k] = #{(x, y) : x in C_j, y in C_i, x y = rep_k}.

    This is the transpose of the multiplication-by-C_j matrix, so candidate
    character rows v satisfy v @ N_j = omega_j * v.
    """
    t = cd.num_classes
    members = np.nonzero(cd.class_of == j)[0].astype(np.int64)
    inv_members = G.inv_bulk(members)
    M = np.zeros((t, t), dtype=np.int64)
    for k, z in enumerate(cd.reps):
        ys = G.mult_bulk(inv_members, np.full(len(members), int(z), dtype=np.int64))
        M[:, k] = np.bincount(cd.class_of[ys], minlength=t)
    return M


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


def _eigen_split(space, N, l):
    """Split a row space (RREF rows) into eigen-row-spaces of v -> v N."""
    S = space
    k = S.shape[0]
    pivots = []
    for row in S:
        pivots.append(int(np.nonzero(row)[0][0]))
    A = ((S @ N) % l)[:, pivots]  # action in the subspace basis
    roots = _roots_mod(_charpoly_mod(A, l), l)
    out = []
    for lam in roots:
        K = linalg.kernel((A.T - lam * np.eye(k, dtype=np.int64)) % l, l)
        if K.shape[0]:
            rows, _ = linalg.rref((K @ S) % l, l)
            out.append(rows)
    if sum(s.shape[0] for s in out) != k:
        raise ArithmeticError("eigen split lost dimensions (bug)")
    return out


def dixon_table(G, class_data=None, max_order=DEFAULT_MAX_ORDER):
    """The character table of G by the Dixon-Burnside algorithm."""
    cd = class_data or G.conjugacy_classes()
    n = cd.n
    if n > max_order:
        raise ValueError("group order %d exceeds the oracle budget %d" % (n, max_order))
    t = cd.num_classes
    e = G.exponent()
    l = dixon_prime(n, e)
    pm = G.power_classes(e)

    # refine the full space into 1-dim common eigen-row-spaces
    spaces = [np.eye(t, dtype=np.int64)]
    order_js = sorted(range(t), key=lambda j: (int(cd.sizes[j]), int(cd.reps[j])))
    for j in order_js:
        if all(s.shape[0] == 1 for s in spaces):
            break
        if j == cd.identity_class:
            continue
        N = class_matrix(G, cd, j) % l
        new_spaces = []
        for S in spaces:
            if S.shape[0] == 1:
                new_spaces.append(S)
            else:
                new_spaces.extend(_eigen_split(S, N, l))
        spaces = new_spaces
    if not all(s.shape[0] == 1 for s in spaces):
        raise ArithmeticError("class algebra did not fully split (bug)")

    theta = pow(_primitive_root(l), (l - 1) // e, l)
    theta_pows = [pow(theta, s, l) for s in range(e)]
    inv_e = pow(e, -1, l)
    sqrt_n = math.isqrt(n)

    rows = []
    for S in spaces:
        v = S[0] % l
        v = (v * pow(int(v[cd.identity_class]), -1, l)) % l  # y_k = chi(g_k)/chi(1)
        s_norm = 0
        for k in range(t):
            s_norm = (s_norm + int(cd.sizes[k]) * int(v[k]) * int(v[cd.inv_class[k]])) % l
        deg_sq = (n * pow(s_norm, -1, l)) % l
        deg = _sqrt_mod(deg_sq, l)
        if deg is None:
            raise ArithmeticError("degree is not a square mod l (bug)")
        if deg > sqrt_n:
            deg = l - deg
        if deg > sqrt_n or (deg * deg - deg_sq) % l != 0:
            raise ArithmeticError("no valid degree lift (bug)")
        chi_mod = [(deg * int(v[k])) % l for k in range(t)]
        counts = []
        for k in range(t):
            row = []
            total = 0
            for s in range(e):
                acc = 0
                for u in range(e):
                    acc = (acc + chi_mod[pm[k, u]] * theta_pows[(-s * u) % e]) % l
                m_s = (acc * inv_e) % l
                if m_s > deg:
                    raise ArithmeticError("multiplicity lift out of range (bug)")
                row.append(m_s)
                total += m_s
            if total != deg:
                raise ArithmeticError("multiplicities do not sum to the degree (bug)")
            counts.append(row)
        rows.append(ClassFunction(cd, tuple(Cyclotomic.from_root_counts(e, counts))))
    table = CharacterTable(cd, rows)
    table.dixon_prime = l
    return table


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
