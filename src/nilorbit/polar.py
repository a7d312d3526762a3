"""Polarizations and monomial representations.

Vergne's flag construction in both forms (direct sum-of-kernels and the
recursive descent through V_k-perp), the good-basis/involution
classification of (flag, alternating form) pairs, the associative-algebra
variant (the same sum of kernels), the reduction to Heisenberg
quasi-polarizations, Kirillov induction, and an exhaustive containment
search used by the counterexample battery.  The induced character of chi_f
is groups.induce_character with the zeta_p exponent psi_k f(h) of each
member h of the polarization as its key.  MonomialRep builds the
representation itself as two (|Gamma|, dim) index tables: its cosets are
the orbit kernel's components of right products by the polarization's
basis, and the tables come from two bulk group-law calls.
"""

import numpy as np

from . import kernels, linalg
from .cyclo import Cyclotomic
from .groups import WHOLE_GROUP_BUDGET, induce_character, is_homomorphism
from .liering import Subspace
from .orbits import conjugacy_class_data, lazard_group

SEARCH_BUDGET = 5**5  # ring order of the exhaustive polarization_containment_search


class FlagOfIdeals:
    """V_0 = 0 < V_1 < ... < V_n = g with dim steps <= 1, each V_i an ideal."""

    def __init__(self, ring, spaces, check=True):
        self.ring = ring
        self.spaces = list(spaces)
        if check:
            self.validate()

    def validate(self):
        ring = self.ring
        prev_dim = None
        if self.spaces[0].dim != 0 or self.spaces[-1].dim != ring.dim:
            raise ValueError("flag must run from 0 to the full ring")
        prev = None
        for V in self.spaces:
            if prev is not None:
                if not V.contains_space(prev) or V.dim - prev.dim > 1 or V.dim < prev.dim:
                    raise ValueError("flag is not increasing by steps <= 1")
            if not _is_ideal(ring, V):
                raise ValueError("flag member of dim %d is not an ideal" % V.dim)
            prev = V

    def basis_rows(self):
        """A flag-adapted basis: row i spans V_{i+1} over V_i."""
        rows = []
        prev = self.spaces[0]
        for V in self.spaces[1:]:
            if V.dim == prev.dim:
                prev = V
                continue
            for r in V.rows:
                if not prev.contains(r):
                    rows.append(r)
                    break
            else:
                raise AssertionError("could not adapt basis to flag")
            prev = V
        return np.array(rows, dtype=np.int64)


def _is_ideal(ring, V):
    """[e_i, w] in V for every basis vector e_i and every row w of V."""
    return V.contains(ring.bracket(np.eye(ring.dim, dtype=np.int64)[:, None], V.rows))


def flag_from_weights(ring):
    """The natural complete ideal flag: refine the lower central series from
    the bottom, inserting RREF rows in order.

    Any refinement of the LCS by subspaces works: a subspace V between
    gamma_{i+1} and gamma_i satisfies [g, V] <= gamma_{i+1} <= V.
    """
    lcs = ring.lower_central_series()
    rows = []
    spaces = [ring.zero_subspace()]
    for term in reversed(lcs):  # from 0 up to g
        if term.dim == 0:
            continue
        for r in term.rows:
            if spaces[-1].contains(r):
                continue
            rows.append(r)
            spaces.append(ring.subspace(np.array(rows)))
    return FlagOfIdeals(ring, spaces)


def random_ideal_flag(ring, rng):
    """A random complete flag of ideals refining the lower central series."""
    lcs = ring.lower_central_series()
    p = ring.p
    rows = []
    spaces = [ring.zero_subspace()]
    for term in reversed(lcs):
        if term.dim == 0:
            continue
        # random chain through the layer between current span and term
        while spaces[-1].dim < term.dim:
            for _ in range(200):
                coeffs = rng.integers(0, p, term.dim)
                v = (coeffs @ term.rows) % p
                if not spaces[-1].contains(v):
                    rows.append(v)
                    spaces.append(ring.subspace(np.array(rows)))
                    break
            else:
                raise AssertionError("failed to refine flag layer")
    return FlagOfIdeals(ring, spaces)


class Polarization:
    def __init__(self, ring, space, f_vec, kind):
        self.ring = ring
        self.space = space
        self.f_vec = np.asarray(f_vec, dtype=np.int64) % ring.p
        self.kind = kind

    @property
    def dim(self):
        return self.space.dim

    def verify(self):
        ring = self.ring
        B = ring.bf_matrix(self.f_vec)
        S = self.space.rows
        if ((S @ B @ S.T) % ring.p).any():
            raise AssertionError("polarization is not isotropic")
        if not _is_subring(ring, self.space):
            raise AssertionError("polarization is not a subring")
        rk = linalg.rank(B, ring.p)
        if self.space.dim != ring.dim - rk // 2:
            raise AssertionError("polarization is not Lagrangian")
        return True

    def __repr__(self):
        return "Polarization(dim=%d, kind=%s)" % (self.dim, self.kind)


def _pair_brackets(ring, S):
    """[r_i, r_j] for the basis rows r_i, r_j of S with i < j."""
    i, j = np.triu_indices(S.dim, 1)
    return ring.bracket(S.rows[i], S.rows[j])


def _is_subring(ring, S):
    return S.contains(_pair_brackets(ring, S))


def bracket_closure(ring, S):
    cur = S
    while True:
        V = _pair_brackets(ring, cur)
        if cur.contains(V):
            return cur
        cur = ring.subspace(np.concatenate([cur.rows, V]))


# -- Vergne ---------------------------------------------------------------------


def vergne_polarization(ring, flag, f_vec, mode="direct"):
    """The Vergne polarization L(V_., B_f) = sum_i ker(B_f | V_i)."""
    f_vec = np.asarray(f_vec, dtype=np.int64) % ring.p
    B = ring.bf_matrix(f_vec)
    spaces = [V for V in flag.spaces]
    if mode == "direct":
        L = _vergne_direct(B, spaces, ring.p)
    elif mode == "recursive":
        L = _vergne_recursive(ring, B, spaces, ring.full_subspace())
    else:
        raise ValueError("mode must be direct or recursive")
    pol = Polarization(ring, L, f_vec, kind="vergne-flag")
    pol.verify()
    # uniqueness clause: L meets every flag member in a Lagrangian of it
    for V in spaces:
        inter = L.intersect(V)
        S = V.rows
        BV = (S @ B @ S.T) % ring.p
        rkV = linalg.rank(BV, ring.p)
        if inter.dim != V.dim - rkV // 2:
            raise AssertionError("L does not meet the flag Lagrangianly")
    return pol


def _restricted_kernel(B, V, p):
    """{v in V : B(v, V) = 0} as a Subspace."""
    if V.dim == 0:
        return V
    S = V.rows
    K = linalg.kernel(((S @ B @ S.T) % p).T, p)  # rows c with c @ M = 0
    return Subspace((K @ S) % p, p, d=V.ambient)


def _vergne_direct(B, spaces, p):
    """The Vergne subspace sum_i ker(B | V_i) of the flag spaces."""
    total = Subspace(np.zeros((0, len(B)), dtype=np.int64), p, d=len(B))
    for V in spaces:
        total = total.sum(_restricted_kernel(B, V, p))
    return total


def _vergne_recursive(ring, B, spaces, W):
    """L via Lemma-style descent: pass to V_k-perp for the minimal V_k not
    inside Ker B, intersect the flag, recurse; when B|W = 0, L = W."""
    S = W.rows
    BW = (S @ B @ S.T) % ring.p
    if not BW.any():
        return W
    # minimal flag member (cut to W) not contained in Ker(B|W)
    radical_coeffs = linalg.kernel(BW.T, ring.p)
    radical = (
        ring.subspace((radical_coeffs @ S) % ring.p)
        if radical_coeffs.shape[0]
        else ring.zero_subspace()
    )
    for V in spaces:
        VW = V.intersect(W)
        if VW.dim == 0:
            continue
        if not radical.contains_space(VW):
            # W' = {w in W : B(w, VW) = 0}
            T = VW.rows
            M = (S @ B @ T.T) % ring.p
            K = linalg.kernel(M.T, ring.p)
            Wn = ring.subspace((K @ S) % ring.p)
            return _vergne_recursive(ring, B, spaces, Wn)
    raise AssertionError("no descent step found though B|W != 0 (bug)")


# -- good bases and the involution classification --------------------------------


def good_basis_and_involution(B, p, flag_rows=None):
    """A good basis for (flag, alternating form) plus its involution.

    B: alternating n x n matrix over Z/p; flag_rows: basis rows adapted to
    the complete flag (defaults to the standard basis).  Returns
    (basis_rows, sigma, L_rows) where sigma is a permutation array with
    sigma[sigma[i]] = i, and L = span{e_i : sigma[i] >= i} is the Vergne
    subspace of the flag.  sigma is independently recomputed from the rank
    statistics eps_ij = r_ij - r_{i-1,j} - r_{i,j-1} + r_{i-1,j-1} and the
    two must agree.
    """
    B = np.asarray(B, dtype=np.int64) % p
    n = B.shape[0]
    if ((B + B.T) % p).any() or B.diagonal().any():
        raise ValueError("form is not alternating")
    rows = (
        np.asarray(flag_rows, dtype=np.int64) % p
        if flag_rows is not None
        else np.eye(n, dtype=np.int64)
    )

    def bval(u, v):
        return int(u @ B @ v % p)

    basis = []
    sigma = []
    for i in range(n):
        v = rows[i].copy()
        paired = [j for j in range(len(basis)) if sigma[j] != j]
        for j in paired:
            t = sigma[j]
            c = bval(basis[j], v)
            if c:
                denom = bval(basis[j], basis[t])
                v = (v - (c * pow(int(denom), -1, p)) * basis[t]) % p
        free = [j for j in range(len(basis)) if sigma[j] == j]
        hot = [j for j in free if bval(basis[j], v) != 0]
        if len(hot) >= 2:
            t = hot[0]
            denom = bval(basis[t], v)
            for j in hot[1:]:
                c = bval(v, basis[j])
                basis[j] = (basis[j] + (c * pow(int(denom), -1, p)) * basis[t]) % p
            hot = [t]
        basis.append(v % p)
        k = len(basis) - 1
        if hot:
            t = hot[0]
            sigma.append(t)
            sigma[t] = k
        else:
            sigma.append(k)
    basis = np.array(basis, dtype=np.int64)
    sigma = np.array(sigma, dtype=np.int64)
    # verify goodness: each basis vector pairs with at most one other
    G = (basis @ B @ basis.T) % p
    for i in range(n):
        nz = np.nonzero(G[i])[0]
        if len(nz) > 1:
            raise AssertionError("constructed basis is not good")
        if len(nz) == 1 and (sigma[i] != nz[0] or sigma[nz[0]] != i):
            raise AssertionError("involution mismatch in construction")
        if len(nz) == 0 and sigma[i] != i:
            raise AssertionError("involution mismatch at a fixed point")
    sigma_rank = involution_from_ranks(B, p, rows)
    if (sigma != sigma_rank).any():
        raise AssertionError("rank-statistics involution disagrees")
    L_rows = basis[[i for i in range(n) if sigma[i] >= i]]
    return basis, sigma, L_rows


def involution_from_ranks(B, p, flag_rows=None):
    """sigma from eps_ij = r_ij - r_{i-1,j} - r_{i,j-1} + r_{i-1,j-1}."""
    B = np.asarray(B, dtype=np.int64) % p
    n = B.shape[0]
    rows = (
        np.asarray(flag_rows, dtype=np.int64) % p
        if flag_rows is not None
        else np.eye(n, dtype=np.int64)
    )
    r = np.zeros((n + 1, n + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i, j] = linalg.rank((rows[:i] @ B @ rows[:j].T) % p, p)
    sigma = np.arange(n, dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            eps = r[i, j] - r[i - 1, j] - r[i, j - 1] + r[i - 1, j - 1]
            if eps == 1:
                sigma[i - 1] = j - 1
    return sigma


# -- associative Vergne ------------------------------------------------------------


def associative_vergne(algebra, flag_spaces, B):
    """L = sum ker(B|V_i) for an associative algebra with two-sided-ideal
    flag and B satisfying B(xy,z) + B(yz,x) + B(zx,y) = 0; L is verified
    multiplicatively closed."""
    p = algebra.p
    B = np.asarray(B, dtype=np.int64) % p
    # T[i, j, k] = B(e_i e_j, e_k); the identity is T + its two cyclic shifts
    T = (algebra.constants @ B) % p
    if ((T + T.transpose(2, 0, 1) + T.transpose(1, 2, 0)) % p).any():
        raise ValueError("cyclic identity fails on basis triple")
    for V in flag_spaces:
        if not _is_twosided_ideal(algebra, V):
            raise ValueError("flag member is not a two-sided ideal")
    total = _vergne_direct(B, flag_spaces, p)
    # multiplicative closure
    if not total.contains(algebra.product(total.rows[:, None], total.rows)):
        raise AssertionError("associative Vergne output not closed")
    return total


def _is_twosided_ideal(algebra, V):
    E = np.eye(algebra.dim, dtype=np.int64)[:, None]
    return V.contains(algebra.product(E, V.rows)) and V.contains(algebra.product(V.rows, E))


# -- quasi-polarizations -------------------------------------------------------------


def is_heisenberg_functional(ring, f_vec):
    """f is Heisenberg iff [g, g] lies in the radical g^f of B_f."""
    stab = ring.stabilizer_subspace(np.asarray(f_vec, dtype=np.int64) % ring.p)
    return stab.contains_space(ring.derived_subring())


def quasi_polarization(ring, f_vec):
    """The canonical Heisenberg quasi-polarization chain at f.

    Iterates n = largest ideal inside g^f, z~ = {x : [x, g] <= n},
    g_1 = z~ + z~^perp_f until f is Heisenberg on the current subring.
    Returns (chain, terminal_ring, terminal_f, embed_rows) where chain is
    the list of subspaces of the original ring (starting with g itself) and
    embed_rows maps the terminal ring's basis into original coordinates.
    """
    f_vec = np.asarray(f_vec, dtype=np.int64) % ring.p
    chain = [ring.full_subspace()]
    cur_ring, cur_f = ring, f_vec
    embed = np.eye(ring.dim, dtype=np.int64)
    guard = 0
    while not is_heisenberg_functional(cur_ring, cur_f):
        guard += 1
        if guard > ring.dim + 1:
            raise AssertionError("quasi-polarization failed to terminate (bug)")
        p = cur_ring.p
        stab = cur_ring.stabilizer_subspace(cur_f)
        nid = cur_ring.largest_ideal_within(stab)
        # z~ = {x : [x, e_j] in n for all j}
        D = linalg.kernel(nid.rows, p) if nid.dim else np.eye(cur_ring.dim, dtype=np.int64)
        # [x, e_j] = M_j x with M_j[k, i] = C[i, j, k]
        M = cur_ring.constants.transpose(1, 2, 0)
        ztilde = cur_ring.subspace(linalg.kernel(((D @ M) % p).reshape(-1, cur_ring.dim), p))
        zperp = ztilde.perp(cur_ring.bf_matrix(cur_f))
        g1 = ztilde.sum(zperp)
        if g1.dim >= cur_ring.dim:
            raise AssertionError("reduction step did not shrink (bug)")
        if not _is_subring(cur_ring, g1):
            raise AssertionError("g_1 is not a subring (bug)")
        # coisotropic: g1^perp_f <= g1; and g1 contains the derived subring
        if not g1.contains_space(g1.perp(cur_ring.bf_matrix(cur_f))):
            raise AssertionError("g_1 is not coisotropic (bug)")
        if not g1.contains_space(cur_ring.derived_subring()):
            raise AssertionError("g_1 misses the derived subring (bug)")
        sub, rows = cur_ring.subring(g1)
        embed_new = (rows @ embed) % ring.p
        chain.append(Subspace(embed_new, ring.p, d=ring.dim))
        cur_f = (rows @ cur_f) % ring.p
        cur_ring, embed = sub, embed_new
    return chain, cur_ring, cur_f, embed


# -- Kirillov induction and monomial representations ---------------------------------


class MonomialRep:
    """Ind_{Exp h}^{Gamma} chi_f as generalized permutation matrices.

    The cosets x Exp(h) are the components of right products by the
    polarization's basis rows; reps are their least elements, in order,
    and a coset's label is its rep's position.  The representation is two
    read-only (|Gamma|, dim) int64 tables: g * rep_i = rep_{perm[g, i]} * h
    with chi_f(h) = zeta_p^exps[g, i], g an element index.  Refuses tables
    of more than WHOLE_GROUP_BUDGET entries.
    """

    def __init__(self, ring, pol, psi_k=1):
        self.ring = ring
        p, n = ring.p, ring.order
        self.dim = p ** (ring.dim - pol.dim)
        if n * self.dim > WHOLE_GROUP_BUDGET:
            raise ValueError(
                "monomial tables of %d x %d entries exceed the budget %d"
                % (n, self.dim, WHOLE_GROUP_BUDGET)
            )
        X = ring.all_elements()
        products = [ring.group_mul_bulk(X, np.tile(h, (n, 1))) for h in pol.space.rows]
        labels = kernels.orbit_labels(
            [linalg.encode_vectors(Y, p).astype(np.int32) for Y in products], n
        )
        self.reps = kernels.first_indices(labels).astype(np.int64)
        R = X[self.reps]
        # XR[x * dim + i] = x * rep_i = rep_{perm[x, i]} * h
        XR = ring.group_mul_bulk(np.repeat(X, self.dim, axis=0), np.tile(R, (n, 1)))
        self.perm = labels[linalg.encode_vectors(XR, p)].reshape(n, self.dim)
        H = ring.group_mul_bulk(-R[self.perm.ravel()] % p, XR)
        self.exps = (psi_k * (H @ pol.f_vec) % p).reshape(n, self.dim)
        self.perm.flags.writeable = self.exps.flags.writeable = False

    def matrix(self, g_vec):
        """(perm, exps): column i carries chi_f(h) = zeta_p^exps[i] at row
        perm[i], where g * rep_i = rep_{perm[i]} * h."""
        g = self.ring.element_index(g_vec)
        return self.perm[g], self.exps[g]

    def trace(self, g_vec):
        perm, exps = self.matrix(g_vec)
        fixed = exps[perm == np.arange(self.dim)]
        return Cyclotomic.from_root_counts(self.ring.p, np.bincount(fixed, minlength=self.ring.p))

    def check_homomorphism(self):
        """The tables are a homomorphism on Exp(g), by groups.is_homomorphism
        over its bulk law and generators: a matrix is one row (perm, exps)
        and the destination law the monomial product (perm1[perm2],
        exps1[perm2] + exps2 mod p)."""
        n = self.dim
        G = lazard_group(self.ring)

        def rows(I):
            return np.hstack([self.perm[I], self.exps[I]])

        def product(A, B):
            P2 = B[:, :n]
            P = np.take_along_axis(A[:, :n], P2, axis=1)
            E = (np.take_along_axis(A[:, n:], P2, axis=1) + B[:, n:]) % self.ring.p
            return np.hstack([P, E])

        return is_homomorphism(rows, G.mult_bulk, product, G.n, G.gens)


def induced_character(ring, pol, class_data=None, psi_k=1):
    """Character of Ind_{Exp h}^Gamma chi_f by the conjugation-count formula,
    chi(g) = |C(g)|/|H| * sum over class(g) meet H of chi_f: one
    induce_character keyed by the zeta_p exponent of chi_f on each member."""
    cd = class_data or conjugacy_class_data(ring)
    p = ring.p
    points = pol.space.points()
    keys = (psi_k * (points @ pol.f_vec)) % p
    zetas = [Cyclotomic.zeta(p, r) for r in range(p)]
    return induce_character(cd, linalg.encode_vectors(points, p), keys, zetas)


def induced_character_and_rep(ring, f_vec, pol, class_data=None, psi_k=1):
    """(ClassFunction, MonomialRep) for Ind from a polarization at f."""
    f_vec = np.asarray(f_vec, dtype=np.int64) % ring.p
    if (pol.f_vec != f_vec).any():
        raise ValueError("polarization base functional mismatch")
    pol.verify()
    chi = induced_character(ring, pol, class_data=class_data, psi_k=psi_k)
    rep = MonomialRep(ring, pol, psi_k=psi_k)
    return chi, rep


# -- containment search -----------------------------------------------------------


def polarization_containment_search(ring, f_vec, h0_rows):
    """A polarization at f containing span(h0_rows), or None (exhaustive).

    DFS over bracket-closed isotropic extensions; prunes by the Lagrangian
    dimension bound and closure isotropy.
    """
    if ring.order > SEARCH_BUDGET:
        raise ValueError("ring order %d exceeds the search budget" % ring.order)
    p = ring.p
    f_vec = np.asarray(f_vec, dtype=np.int64) % p
    B = ring.bf_matrix(f_vec)
    target = ring.dim - linalg.rank(B, p) // 2
    h0 = ring.subspace(np.asarray(h0_rows, dtype=np.int64)) if np.asarray(h0_rows).size else ring.zero_subspace()
    if ((h0.rows @ B @ h0.rows.T) % p).any():
        raise ValueError("h0 is not isotropic for B_f")
    start = bracket_closure(ring, h0)
    if ((start.rows @ B @ start.rows.T) % p).any() or start.dim > target:
        return None
    seen = set()

    def dfs(S):
        if S.dim == target:
            pol = Polarization(ring, S, f_vec, kind="search")
            pol.verify()
            return pol
        key = S.rows.tobytes()
        if key in seen:
            return None
        seen.add(key)
        # candidates: canonical reps of (S^perp_f modulo S), nonzero
        perp = S.perp(B)
        for v in perp.points():
            v = linalg.reduce_by(S.rows, v, p)
            if not v.any():
                continue
            ext = bracket_closure(ring, S.sum(ring.subspace(v.reshape(1, -1))))
            if ext.dim > target:
                continue
            if ((ext.rows @ B @ ext.rows.T) % p).any():
                continue
            found = dfs(ext)
            if found is not None:
                return found
        return None

    return dfs(start)
