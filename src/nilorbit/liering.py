"""Finite nilpotent Lie rings over F_p and their Lazard groups Exp(g).

A LieRing stores dense structure constants c[i,j,k] (coefficient of e_k in
[e_i, e_j]) over Z/p, with p * g = 0.  The group Exp(g) lives on the same
underlying set; its multiplication evaluates the truncated Campbell-Hausdorff
series of the ring's nilpotence class, which must be < p.  Elements are
int64 vectors; dense tabulation uses the little-endian mixed-radix index.
"""

from dataclasses import dataclass, field

import numpy as np

from . import freelie, linalg

# Entries of the dense dim^3 int64 structure-constant tensor of a ring or an
# algebra that a file or a family may ask for: 2^24 (dim <= 256, 128 MiB),
# checked before the tensor is allocated.
TENSOR_BUDGET = 1 << 24


class Subspace:
    """A subspace of F_p^d as a row-reduced (RREF) basis matrix."""

    def __init__(self, rows, p, d=None):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            if d is None:
                raise ValueError("empty subspace needs an ambient dimension")
            rows = np.zeros((0, d), dtype=np.int64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        R, _ = linalg.rref(rows, p)
        self.rows = R
        self.p = p
        self.ambient = rows.shape[1]

    @property
    def dim(self):
        return self.rows.shape[0]

    def contains(self, v):
        """Whether the vector v, or every row of the batch v, lies in self."""
        return not linalg.reduce_by(self.rows, v, self.p).any()

    def contains_space(self, other):
        return self.contains(other.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.p == other.p
            and self.rows.shape == other.rows.shape
            and (self.rows == other.rows).all()
        )

    def __le__(self, other):
        return other.contains_space(self)

    def sum(self, other):
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return Subspace(np.concatenate([self.rows, other.rows]), self.p)

    def intersect(self, other):
        rows = linalg.intersect_row_spaces(self.rows, other.rows, self.p)
        return Subspace(rows, self.p, d=self.ambient)

    def perp(self, form):
        """{v : rows . form . v = 0} for a bilinear form matrix."""
        if self.dim == 0:
            return Subspace(np.eye(self.ambient, dtype=np.int64), self.p)
        M = (self.rows @ (np.asarray(form, dtype=np.int64) % self.p)) % self.p
        return Subspace(linalg.kernel(M, self.p), self.p, d=self.ambient)

    def points(self):
        """All p^dim vectors of the subspace."""
        return linalg.enumerate_row_space(self.rows, self.p)

    def __repr__(self):
        return "Subspace(dim=%d/%d, p=%d)" % (self.dim, self.ambient, self.p)


@dataclass
class FqStructure:
    """Restriction-of-scalars bookkeeping for a ring defined over F_q.

    The F_p-basis is ordered as (b_1 e_1, ..., b_s e_1, b_1 e_2, ...) where
    e_i is the F_q-basis and b_t = t^(t-1) the field power basis; flat index
    (i, t) -> i*s + t.  The Frobenius matrix is one absolute (p-power)
    Frobenius step applied coordinate-wise.
    """

    field: object
    dim_q: int
    frobenius_matrix: np.ndarray
    scalar_matrices: tuple


@dataclass
class ValidationReport:
    ok: bool
    nilpotence_class: int | None
    failures: list = field(default_factory=list)
    lazard_ok: bool | None = None
    fq_bilinear: bool | None = None


class LieRing:
    """Finite Lie ring over F_p with dense structure constants."""

    def __init__(self, p, constants, fq=None):
        constants = np.asarray(constants, dtype=np.int64) % p
        if constants.ndim != 3 or constants.shape[0] != constants.shape[1] or constants.shape[0] != constants.shape[2]:
            raise ValueError("structure constants must be d x d x d")
        self.p = p
        self.dim = constants.shape[0]
        self.constants = constants
        self.fq = fq
        self._cache = {}

    @property
    def order(self):
        return self.p**self.dim

    def __repr__(self):
        return "LieRing(p=%d, dim=%d)" % (self.p, self.dim)

    # -- bracket ---------------------------------------------------------------

    def bracket(self, x, y):
        """[x, y] for vectors or batches of rows broadcasting against each
        other over their leading axes."""
        return linalg.bilinear(self.constants, x, y, self.p)

    def ad_matrix(self, x):
        """Matrix of ad x = [x, -] acting on column vectors."""
        return self.bracket(x, np.eye(self.dim, dtype=np.int64)).T

    def basis_vector(self, i):
        v = np.zeros(self.dim, dtype=np.int64)
        v[i] = 1
        return v

    def subspace(self, rows):
        return Subspace(rows, self.p, d=self.dim)

    def zero_subspace(self):
        return Subspace(np.zeros((0, self.dim), dtype=np.int64), self.p, d=self.dim)

    def full_subspace(self):
        return Subspace(np.eye(self.dim, dtype=np.int64), self.p, d=self.dim)

    # -- validation -------------------------------------------------------------

    def validate(self, for_lazard=True):
        """Alternating + Jacobi on basis triples, nilpotence class, class < p."""
        failures = []
        C = self.constants
        d = self.dim
        p = self.p
        diagonal = C[np.arange(d), np.arange(d)].any(axis=1)
        failures.extend(("alternating", (int(i), int(i))) for i in np.flatnonzero(diagonal))
        anti = (C + np.swapaxes(C, 0, 1)) % p
        if anti.any():
            ij = np.argwhere(anti.any(axis=2))
            failures.append(("antisymmetric", tuple(ij[0])))
        # Jacobi one i-slice at a time, over all (j, k) at once:
        # [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]
        E = np.eye(d, dtype=np.int64)
        for i in range(d):
            ki = C[:, i]  # rows [e_k, e_i], also the matrix of v -> [v, e_i]
            jac = (
                self.bracket(C[i][:, None], E)
                + (C @ ki) % p
                + self.bracket(ki[:, None], E).swapaxes(0, 1)
            ) % p
            bad = np.triu(jac.any(axis=2), 1)  # k > j
            bad[: i + 1] = False  # j > i
            failures.extend(("jacobi", (i, int(j), int(k))) for j, k in np.argwhere(bad))
        if failures:
            return ValidationReport(False, None, failures)
        cls = self.nilpotence_class()
        report = ValidationReport(True, cls, [])
        if for_lazard:
            report.lazard_ok = cls < p
            if not report.lazard_ok:
                report.failures.append(("class >= p", (cls, p)))
        if self.fq is not None:
            self._validate_fq(report)
        return report

    def _validate_fq(self, report):
        fq = self.fq
        F = fq.frobenius_matrix
        C = self.constants
        p = self.p
        E = np.eye(self.dim, dtype=np.int64)
        # Frobenius is a Lie-ring automorphism: F[e_i,e_j] = [Fe_i, Fe_j]
        bad = ((C @ F.T) % p != self.bracket(F.T[:, None], F.T)).any(axis=2)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            report.ok = False
            report.failures.append(("frobenius not automorphism", (int(i), int(j))))
            return
        # F^s = identity on the F_q-points (q-power Frobenius fixes them)
        if linalg.matpow(F, fq.field.s, p).tolist() != E.tolist():
            report.ok = False
            report.failures.append(("frobenius order", fq.field.s))
        # Is the bracket F_q-bilinear?  Recorded, not required: honest F_q-Lie
        # algebras (exponential type) say yes; fake Heisenberg brackets are
        # only F_p-bilinear by design.
        report.fq_bilinear = all(
            (self.bracket(S.T[:, None], E) == (C @ S.T) % p).all()
            for S in fq.scalar_matrices
        )

    def nilpotence_class(self):
        return len(self.lower_central_series()) - 1

    def lower_central_series(self):
        """g >= [g,g] >= [g,[g,g]] >= ... >= 0, as Subspace values."""
        if "lcs" in self._cache:
            return self._cache["lcs"]
        E = np.eye(self.dim, dtype=np.int64)
        series = [self.full_subspace()]
        current = series[0]
        while current.dim > 0:
            # [e_i, w] for every basis vector e_i and every row w
            nxt = self.subspace(self.bracket(E[:, None], current.rows).reshape(-1, self.dim))
            if nxt.dim == current.dim:
                raise ValueError("ring is not nilpotent")
            series.append(nxt)
            current = nxt
        self._cache["lcs"] = series
        return series

    def derived_subring(self):
        return self.subspace(self.constants[np.triu_indices(self.dim, 1)])

    def center(self):
        # x is central iff [e_i, x] = 0 for all i: rows (i, k) of C[i, :, k]
        M = self.constants.transpose(0, 2, 1).reshape(-1, self.dim)
        return Subspace(linalg.kernel(M, self.p), self.p, d=self.dim)

    def largest_ideal_within(self, W):
        """The unique largest ideal of the ring contained in the subspace W.

        Descending fixed point: I_{k+1} = {x in I_k : [e_i, x] in I_k for
        all basis e_i}; dimensions strictly decrease until stable.
        """
        ads = self.constants.transpose(0, 2, 1)  # ads[i] = ad(e_i)
        current = W
        while current.dim > 0:
            K = current.rows
            # v in span(K) iff D @ v = 0, where D spans the dot-complement
            D = linalg.kernel(K, self.p)
            if D.shape[0] == 0:
                return current  # current is everything
            M = (((D @ ads) % self.p) @ K.T) % self.p
            coeffs = linalg.kernel(M.reshape(-1, K.shape[0]), self.p)
            if coeffs.shape[0] == current.dim:
                return current
            if coeffs.shape[0] == 0:
                return self.zero_subspace()
            current = Subspace((coeffs @ K) % self.p, self.p, d=self.dim)
        return current

    # -- the Lazard group --------------------------------------------------------

    def bch(self):
        if "bch" not in self._cache:
            c = self.nilpotence_class()
            if c >= self.p:
                raise ValueError("nilpotence class %d >= p = %d" % (c, self.p))
            self._cache["bch"] = freelie.bch_series(max(c, 1))
        return self._cache["bch"]

    def group_mul(self, x, y):
        """x * y in Exp(g) for vectors or (n, d) batches of rows."""
        return freelie.evaluate(self.bch(), self, {freelie.X: x, freelie.Y: y})

    group_mul_bulk = group_mul

    def adjoint_matrix(self, x):
        """Ad(exp x) = exp(ad x) acting on the ring (column convention)."""
        return linalg.nilpotent_exp(self.ad_matrix(x), self.p)

    def coadjoint_matrix(self, x):
        """Ad*(exp x) on dual coordinates: the transpose of exp(-ad x)."""
        neg = (-self.ad_matrix(x)) % self.p
        return linalg.nilpotent_exp(neg, self.p).T.copy()

    def _generating_basis(self):
        """Indices of the basis vectors at the non-pivot columns of [g,g].

        They span a complement of [g,g], so their exponentials generate
        Exp(g): under Lazard [G,G] = exp([g,g]) lies in the Frattini
        subgroup, and elements generating G/[G,G] generate G.
        """
        pivots = set(_pivots(self.lower_central_series()[1].rows))
        return [i for i in range(self.dim) if i not in pivots]

    def adjoint_generators(self):
        """Ad(exp e_i) for the generating basis: d - dim [g,g] matrices."""
        if "adjoint_gens" not in self._cache:
            self._cache["adjoint_gens"] = np.array(
                [self.adjoint_matrix(self.basis_vector(i)) for i in self._generating_basis()]
            )
        return self._cache["adjoint_gens"]

    def coadjoint_generators(self):
        """Ad*(exp e_i) for the generating basis: d - dim [g,g] matrices."""
        if "coadjoint_gens" not in self._cache:
            self._cache["coadjoint_gens"] = np.array(
                [self.coadjoint_matrix(self.basis_vector(i)) for i in self._generating_basis()]
            )
        return self._cache["coadjoint_gens"]

    def bf_matrix(self, lam):
        """Matrix of the alternating form B_f(x, y) = <lam, [x, y]>."""
        return (self.constants @ linalg.asmod(lam, self.p)) % self.p

    def stabilizer_subspace(self, lam):
        """g^f = radical of B_f (the Lie ring of the stabilizer of f)."""
        return Subspace(linalg.kernel(self.bf_matrix(lam), self.p), self.p, d=self.dim)

    # -- indexing -----------------------------------------------------------------

    def element_index(self, x):
        return int(linalg.encode_vectors(np.asarray(x, dtype=np.int64), self.p))

    def all_elements(self):
        return linalg.all_vectors(self.dim, self.p)

    # -- substructures -------------------------------------------------------------

    def subring(self, space):
        """The ring structure induced on a bracket-closed subspace.

        Returns (ring, basis_rows) where basis_rows embeds the new basis.
        """
        rows = space.rows
        V = self.bracket(rows[:, None], rows)
        if not space.contains(V):
            raise ValueError("subspace is not bracket-closed")
        # an RREF basis has the identity at its pivot columns, so the
        # coordinates of a vector in the span are its pivot entries
        return LieRing(self.p, V[..., _pivots(rows)]), rows

    def quotient(self, ideal_space):
        """Quotient ring by an ideal; returns (ring, projection)."""
        I = ideal_space.rows
        pivots = _pivots(I)
        comp_idx = [c for c in range(self.dim) if c not in pivots]
        V = self.constants[np.ix_(comp_idx, comp_idx)]
        consts = linalg.reduce_by(I, V, self.p)[..., comp_idx]

        def project(v):
            return linalg.reduce_by(I, v, self.p)[comp_idx]

        return LieRing(self.p, consts), project


def _pivots(rref_rows):
    return [int(c) for c in (rref_rows != 0).argmax(axis=1)]


# -- basic constructors -------------------------------------------------------


def abelian_ring(p, dim):
    return LieRing(p, np.zeros((dim, dim, dim), dtype=np.int64))


def heisenberg_ring(p):
    """[e1, e2] = e3, e3 central."""
    C = np.zeros((3, 3, 3), dtype=np.int64)
    C[0, 1, 2] = 1
    C[1, 0, 2] = p - 1
    return LieRing(p, C)


def from_bracket_table(p, dim, table):
    """table: {(i, j): {k: coeff}} for i < j; antisymmetry is filled in."""
    C = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), row in table.items():
        for k, v in row.items():
            C[i, j, k] = v % p
            C[j, i, k] = (-v) % p
    return LieRing(p, C)
