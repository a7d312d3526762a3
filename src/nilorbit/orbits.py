"""The orbit method: coadjoint orbits, the character formula, the Fourier
transform Phi on the group algebra, and the orbit-counting diagnostics.

The dual g* of a ring of order p^d is identified with F_p^d via the fixed
additive character psi(1) = zeta_p^k: lambda represents x -> zeta_p^(k l.x).
Orbits are connected components of the dual index space under the coadjoint
matrices of the exponentials of a basis of a complement of [g,g] (they
generate Exp(g)), found by the dense kernel; conjugacy classes of Exp(g) are
adjoint-matrix components of the same index space.

Every Fourier pairing of Exp(g) with g* (the character formula, Phi, its
inverse and the checks on them) is one block-wise residue count,
`_residue_counts`, keyed per caller, combined with integers only: a product
table of values against zeta_p^r, or the test that p-th roots with counts
c_r sum to 0 exactly when all c_r agree.
"""

import functools
import math
from fractions import Fraction

import numpy as np

from . import kernels, linalg
from .chartable import CharacterTable, ClassFunction, _intern
from .cyclo import Cyclotomic, from_ints, lincomb, product_table, times
from .groups import ClassData, FiniteGroup

# (dual point, row) pairs per block of _residue_counts
PHI_BLOCK = 1 << 16
MODULE_CHECK_BUDGET = 5**4  # group order of the exhaustive module_property_check


class CoadjointOrbit:
    """One orbit of an OrbitSet: sorted dual indices, base point, stabilizer g^f."""

    def __init__(self, ring, indices, base_point, half_log, psi_k=1):
        self.ring = ring
        self.indices = indices
        self.base_index = int(indices[0])
        self.size = len(indices)
        self.half_log = half_log
        self.base_point = base_point
        self.psi_k = psi_k

    @functools.cached_property
    def stabilizer(self):
        return self.ring.stabilizer_subspace(self.base_point)

    def points(self):
        return linalg.decode_indices(self.indices, self.ring.dim, self.ring.p)

    @property
    def dimension_even(self):
        return 2 * self.half_log

    def __repr__(self):
        return "CoadjointOrbit(base=%d, size=%d)" % (self.base_index, self.size)


class OrbitSet:
    """The coadjoint orbits of a ring as arrays over orbit ids.

    labels[i] is the orbit of dual index i; sizes, half_logs (orbit size
    p^(2 half_log)), base_indices (the minimal index of each orbit) and
    base_points (one row each) are indexed by orbit id.  The CoadjointOrbit
    objects, and the sort of the labels that gives their index sets, are
    built on first access to `orbits`.
    """

    def __init__(self, ring, labels, psi_k=1):
        p = ring.p
        self.ring = ring
        self.labels = labels
        self.psi_k = psi_k
        self.sizes = np.bincount(labels)
        m2 = np.rint(np.log(self.sizes) / math.log(p)).astype(np.int64)
        bad = (p**m2 != self.sizes) | (m2 % 2 != 0)
        if bad.any():
            raise ValueError(
                "orbit size %d is not an even power of %d" % (self.sizes[bad.argmax()], p)
            )
        self.half_logs = m2 // 2
        self.base_indices = kernels.first_indices(labels)
        self.base_points = linalg.decode_indices(self.base_indices, ring.dim, p)

    @functools.cached_property
    def orbits(self):
        # stable, so each orbit's slice is sorted and starts at its base index
        order = np.argsort(self.labels, kind="stable")
        starts = np.cumsum(self.sizes) - self.sizes
        return [
            CoadjointOrbit(self.ring, order[lo : lo + size], pt, int(h), self.psi_k)
            for lo, size, pt, h in zip(
                starts.tolist(), self.sizes.tolist(), self.base_points, self.half_logs
            )
        ]

    def orbit_of_index(self, idx):
        return self.orbits[int(self.labels[idx])]

    def __len__(self):
        return len(self.sizes)


def coadjoint_orbits(ring, psi_k=1):
    """Partition of g* into coadjoint orbits with stabilizer subspaces.

    The partition does not depend on psi_k; only the orbit objects carry it.
    psi(1) = zeta_p^psi_k must be a nontrivial character: psi_k = 0 mod p
    is refused.
    """
    _require_lazard(ring)
    if psi_k % ring.p == 0:
        raise ValueError("additive character psi(1) = zeta_%d^%d is trivial" % (ring.p, psi_k))
    key = ("orbits", psi_k)
    if key in ring._cache:
        return ring._cache[key]
    if "coadjoint_labels" not in ring._cache:
        ring._cache["coadjoint_labels"] = kernels.orbit_partition(
            ring.coadjoint_generators(), ring.p
        )
    out = OrbitSet(ring, ring._cache["coadjoint_labels"], psi_k)
    ring._cache[key] = out
    return out


def coadjoint_orbit_of(ring, lam):
    """The single coadjoint orbit through lam, as sorted dual points.

    Uses the dense partition when the whole dual fits the dense budget and
    a hash-set BFS beyond it (cost proportional to the orbit).
    """
    _require_lazard(ring)
    lam = np.asarray(lam, dtype=np.int64) % ring.p
    if ring.order <= kernels.DENSE_BUDGET:
        oset = coadjoint_orbits(ring)
        orb = oset.orbit_of_index(ring.element_index(lam))
        return orb.points()
    return kernels.single_orbit(ring.coadjoint_generators(), ring.p, lam)


def conjugacy_class_data(ring):
    """ClassData of Exp(g): adjoint-action components of the index space."""
    _require_lazard(ring)
    if "class_data" in ring._cache:
        return ring._cache["class_data"]
    labels = kernels.orbit_partition(ring.adjoint_generators(), ring.p)
    sizes = np.bincount(labels)
    reps = kernels.first_indices(labels)
    neg = linalg.encode_vectors(
        (-linalg.decode_indices(reps, ring.dim, ring.p)) % ring.p, ring.p
    )
    inv_class = labels[neg]
    cd = ClassData(ring.order, labels, reps, sizes, inv_class, int(labels[0]))
    ring._cache["class_data"] = cd
    return cd


def lazard_group(ring):
    """Exp(g) as a black-box FiniteGroup over element indices."""
    _require_lazard(ring)
    p, d = ring.p, ring.dim

    def mult_bulk(I, J):
        XS = linalg.decode_indices(I, d, p)
        YS = linalg.decode_indices(J, d, p)
        return linalg.encode_vectors(ring.group_mul_bulk(XS, YS), p)

    def inv_bulk(I):
        return linalg.encode_vectors(-linalg.decode_indices(I, d, p), p)

    gens = [int(ring.element_index(ring.basis_vector(i))) for i in range(d)]
    G = FiniteGroup(
        ring.order,
        mult_bulk,
        inv_bulk=inv_bulk,
        identity=0,
        gens=gens,
        classes_hook=lambda: conjugacy_class_data(ring),
        name="Exp(%r)" % (ring,),
    )
    G.ring = ring
    return G


def _residue_counts(lams, X, keys, width, k, p):
    """Yield (start, counts) per block of the dual points lams[start:]:
    counts[i, key * p + r] is the number of rows x of X with keys[x] = key
    and k lams[start + i] . x = r (mod p), for keys in [0, width).

    A block holds max(1, PHI_BLOCK // len(X)) dual points, so the keys of a
    block take about PHI_BLOCK entries and its counts width * p times that.
    """
    block = max(1, PHI_BLOCK // max(1, len(X)))
    keys = keys * p
    for start in range(0, len(lams), block):
        lam = lams[start : start + block]
        b = len(lam)
        flat = (k * (lam @ X.T)) % p
        flat += keys
        flat += np.arange(b)[:, None] * (width * p)
        yield start, np.bincount(flat.ravel(), minlength=b * width * p).reshape(b, width * p)


def _class_counts(ring, cd, X, keys, width, psi_k):
    """counts[j, key * p + r]: the rows f of X with keys[f] = key and
    psi_k f . log rep_j = r (mod p), for keys in [0, width)."""
    reps = linalg.decode_indices(cd.reps, ring.dim, ring.p)
    blocks = _residue_counts(reps, X, keys, width, psi_k, ring.p)
    return np.concatenate([counts for _, counts in blocks])


def orbit_character(ring, orbit, class_data=None, psi_k=1):
    """chi_Omega(g) = |Omega|^(-1/2) sum_{f in Omega} psi(f . log g)."""
    cd = class_data or conjugacy_class_data(ring)
    keys = np.zeros(len(orbit.indices), dtype=np.int64)
    counts = _class_counts(ring, cd, orbit.points(), keys, 1, psi_k)
    values = Cyclotomic.from_root_counts(ring.p, counts, Fraction(1, ring.p**orbit.half_log))
    return ClassFunction(cd, tuple(values))


def orbit_method_table(ring, psi_k=1):
    """The full character table of Exp(g) via the orbit method.

    Returns (table, orbits) with orbits aligned to table row order.  All
    orbits are counted at once, each dual point keyed by its orbit, and
    their root counts lifted to one denominator p^(largest half_log).
    """
    cd = conjugacy_class_data(ring)
    oset = coadjoint_orbits(ring, psi_k=psi_k)
    t = cd.num_classes
    if len(oset) != t:
        raise AssertionError("orbit count %d != class count %d" % (len(oset), t))
    p, top = ring.p, int(oset.half_logs.max())
    counts = _class_counts(ring, cd, ring.all_elements(), oset.labels, t, psi_k)
    counts = counts.reshape(t, t, p).transpose(1, 0, 2) * p ** (top - oset.half_logs)[:, None, None]
    table, perm = CharacterTable.from_root_counts(cd, p, counts, p**top)
    return table, [oset.orbits[i] for i in perm]


# -- the transform Phi ---------------------------------------------------------


def phi_transform(ring, mu, psi_k=1):
    """Phi(mu)(lambda) = sum_x mu(exp x) psi(lambda . x).

    mu: dense sequence of Cyclotomic/rational over group element indices.
    Returns the dense list of values over dual indices.  The kernel sign is
    fixed so that central idempotents map to orbit indicators.
    """
    C, M, den = _transform(ring, mu, psi_k)
    return from_ints(C, M, den)


def phi_inverse(ring, F, psi_k=1):
    """Inverse of phi_transform (inverse finite Fourier + exp_*)."""
    C, M, den = _transform(ring, F, -psi_k)
    return from_ints(C, M, den * ring.order)


def _transform(ring, values, k):
    """(C, M, den): sum_x values[x] zeta_p^(k y.x) = C[y] / den at order M
    for every index y, with each x of the support keyed by its position."""
    p = ring.p
    X = ring.all_elements()
    P, M, den = product_table(values, [Cyclotomic.zeta(p, r) for r in range(p)])
    support = np.flatnonzero(P.any(axis=(1, 2)))
    P = P[support].reshape(len(support) * p, P.shape[-1])
    blocks = _residue_counts(X, X[support], np.arange(len(support)), len(support), k, p)
    return np.concatenate([lincomb(counts, P) for _, counts in blocks]), M, den


def central_idempotent(ring, character, class_data=None):
    """e_chi as a dense function on group indices:
    e(g) = (deg/|G|) chi(g^-1)."""
    cd = class_data or conjugacy_class_data(ring)
    n = ring.order
    scale = character.degree * Fraction(1, n)
    vals_by_class = [
        character.values[cd.inv_class[j]] * scale for j in range(cd.num_classes)
    ]
    return [vals_by_class[cd.class_of[i]] for i in range(n)]


def verify_phi_idempotents(ring, table, orbits, psi_k=1):
    """Phi(e_Omega) = 1_Omega for every row, via an all-integer path.

    e_Omega(exp x) = (deg/|G|) chi(exp(-x)) has values in (1/|G|) Z[zeta_p],
    so |G| Phi(e)(lambda) = deg * sum_{j,r} counts[lambda, j, r] chi_j zeta^r
    with counts the residue counts per class.  One product table of each
    distinct row value against zeta_p^r, gathered by the rows' positions
    among those values; then, per block of dual points, one count,
    one contraction with the counts for all rows and one product with the
    degrees give every transform there, compared against |G| * indicator
    exactly, so nothing larger than a block is held.
    """
    p = ring.p
    n = ring.order
    cd = table.class_data
    t = cd.num_classes
    rows = len(table.rows)
    if len(orbits) != rows:
        raise ValueError("need one orbit per row")
    X = ring.all_elements()
    neg_class = cd.class_of[linalg.encode_vectors((-X) % p, p)]  # class of exp(-x)
    zetas = [Cyclotomic.zeta(p, r) for r in range(p)]
    values, index = _intern((row.values for row in table.rows), t)
    P, M, den = product_table(values, zetas)
    phi = P.shape[-1]
    # P[value, r] -> [(j, r), (row, coefficient)], matching the counts
    P = P[index.T].swapaxes(1, 2).reshape(t * p, rows * phi)
    degrees = [[int(row.degree.rational_value())] for row in table.rows]
    # (dual point, row) for every point of every row's orbit, by point
    points = np.concatenate([np.asarray(orb.indices, dtype=np.int64) for orb in orbits])
    owner = np.repeat(np.arange(rows), [len(orb.indices) for orb in orbits])
    by_point = np.argsort(points, kind="stable")
    points, owner = points[by_point], owner[by_point]
    # counts[lambda, j * p + r]: x in class j of exp(-x) with psi_k(lambda . x) = r
    for start, counts in _residue_counts(X, X, neg_class, t, psi_k, p):
        b = len(counts)
        got = times(lincomb(counts, P).reshape(b, rows, phi), degrees)
        inside = np.zeros((b, rows), dtype=bool)
        lo, hi = np.searchsorted(points, [start, start + b])
        inside[points[lo:hi] - start, owner[lo:hi]] = True
        # the products are P / den, so the indicator is n * den
        if got[..., 1:].any() or got[..., 0][~inside].any():
            return False
        if not (got[..., 0][inside] == n * den).all():
            return False
    return True


# -- Appendix-style diagnostics --------------------------------------------------


def perm_vs_tensor(ring, orbit):
    """Compare fibers of the subtraction map pi: Omega x Omega -> g* with
    fibers of the tangent map pi~: TOmega -> g*, whose image at f is the
    row space of B_f.

    Returns (report, equal) where report carries both fiber-count vectors
    (indexed by dual point index).
    """
    pts = orbit.points()
    report = pointset_fiber_comparison(pts, [ring.bf_matrix(f) for f in pts], ring.p)
    return report, report["equal"]


def pointset_fiber_comparison(points, tangent_spaces, p):
    """Generic pi vs pi~ fiber comparison for a point set Y in F_p^d.

    points: (N, d) array; tangent_spaces: list of row-generator matrices
    (the tangent space at the matching point, through the origin).
    """
    points = np.asarray(points, dtype=np.int64) % p
    N, d = points.shape
    n = p**d
    sub_counts = np.zeros(n, dtype=np.int64)
    for y in points:
        diffs = (y[None, :] - points) % p
        sub_counts += np.bincount(linalg.encode_vectors(diffs, p), minlength=n)
    tan_counts = np.zeros(n, dtype=np.int64)
    for y, T in zip(points, tangent_spaces):
        rows, _ = linalg.rref(np.asarray(T, dtype=np.int64) % p, p)
        space = linalg.enumerate_row_space(rows, p)
        tan_counts += np.bincount(linalg.encode_vectors(space, p), minlength=n)
    return {
        "subtraction_fibers": sub_counts,
        "tangent_fibers": tan_counts,
        "equal": bool((sub_counts == tan_counts).all()),
        "images_equal": bool(((sub_counts > 0) == (tan_counts > 0)).all()),
    }


def module_property_check(ring, orbit, psi_k=1):
    """Is Phi^{-1}(K(Omega)) a left ideal of the group algebra?

    K(Omega) = functions supported on Omega.  Checked on the generating
    deltas: for each basis exponential gamma and each lambda0 in Omega the
    transform of delta_gamma * Phi^{-1}(1_lambda0) must vanish outside
    Omega.  A sum of p-th roots with residue counts c_r vanishes iff all
    c_r agree, which keeps the check in integer arithmetic: each x is keyed
    by a = -psi lambda0 . log(gamma^-1 exp x), and c_s at lambda is the sum
    over a of the residue counts of (a, s - a).
    """
    p, d = ring.p, ring.dim
    n = ring.order
    if n > MODULE_CHECK_BUDGET:
        raise ValueError("group order %d exceeds the exhaustive-check budget" % n)
    X = ring.all_elements()
    in_orbit = np.zeros(n, dtype=bool)
    in_orbit[orbit.indices] = True
    U = X[~in_orbit]
    # [s, a] -> the count column of key a and residue s - a
    antidiagonals = (np.arange(p)[:, None] - np.arange(p)) % p + np.arange(p) * p
    for gi in range(d):
        gamma_inv = -ring.basis_vector(gi) % p
        # w(x) = log(gamma^-1 * exp x) for all x at once
        W = ring.group_mul_bulk(np.tile(gamma_inv, (n, 1)), X)
        for lam0 in orbit.points():
            keys = (-psi_k * (W @ lam0)) % p
            for _, counts in _residue_counts(U, X, keys, p, psi_k, p):
                c = counts[:, antidiagonals].sum(axis=-1)
                if (c != c[:, :1]).any():
                    return False
    return True


def _require_lazard(ring):
    cls = ring.nilpotence_class()
    if cls >= ring.p:
        raise ValueError("nilpotence class %d >= p = %d" % (cls, ring.p))
