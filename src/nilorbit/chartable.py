"""Class functions with exact cyclotomic values, and character tables.

Tables verify their own invariants exactly: row orthonormality under
<f1, f2> = |G|^-1 sum f1(g) f2(g^-1), column orthogonality, and
sum deg^2 = |G|.  The pairwise check is the definition; for larger tables
an equivalent integer-tensor path clears denominators, coerces every value
to a common cyclotomic order, and verifies the same identities with int64
matrix algebra (magnitudes are bounded and asserted).
"""

import math
from fractions import Fraction

import numpy as np

from .cyclo import ONE, ZERO, Cyclotomic, _phi, _reduction_rows, parse, render


class ClassFunction:
    """A function on conjugacy classes with Cyclotomic values."""

    __slots__ = ("class_data", "values")

    def __init__(self, class_data, values):
        values = tuple(
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v) for v in values
        )
        if len(values) != class_data.num_classes:
            raise ValueError("need one value per class")
        self.class_data = class_data
        self.values = values

    @property
    def degree(self):
        return self.values[self.class_data.identity_class]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.values == other.values
            and self.class_data.same_as(other.class_data)
        )

    def __hash__(self):
        return hash(self.values)

    def __add__(self, other):
        return ClassFunction(
            self.class_data, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other):
        return ClassFunction(
            self.class_data, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def scale(self, r):
        return ClassFunction(self.class_data, tuple(v * r for v in self.values))

    def conj(self):
        return ClassFunction(self.class_data, tuple(v.conj() for v in self.values))

    def inner(self, other):
        """<self, other> = |G|^-1 sum_g self(g) other(g^-1)."""
        cd = self.class_data
        acc = ZERO
        for j in range(cd.num_classes):
            acc = acc + self.values[j] * other.values[cd.inv_class[j]] * int(cd.sizes[j])
        return acc * Fraction(1, cd.n)

    def serialize(self):
        return ",".join(render(v) for v in self.values)

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)

    def __repr__(self):
        return "ClassFunction(deg=%s, t=%d)" % (self.degree, len(self.values))


def convolve(f, g, group):
    """Group-algebra convolution (f * g)(z) = sum_x f(x) g(x^-1 z).

    Exact; cost O(t * |G|) index work plus O(t^2) value work per class, so
    keep it to the sizes where it is used as a test oracle.
    """
    cd = f.class_data
    n = group.n
    t = cd.num_classes
    all_idx = np.arange(n, dtype=np.int64)
    inv_all = group.inv_bulk(all_idx)
    values = []
    for j, z in enumerate(cd.reps):
        w = group.mult_bulk(inv_all, np.full(n, int(z), dtype=np.int64))
        pair = cd.class_of[all_idx] * t + cd.class_of[w]
        counts = np.bincount(pair, minlength=t * t).reshape(t, t)
        acc = ZERO
        for a in range(t):
            row = counts[a]
            if not row.any():
                continue
            inner = ZERO
            for b in range(t):
                if row[b]:
                    inner = inner + g.values[b] * int(row[b])
            acc = acc + f.values[a] * inner
        values.append(acc)
    return ClassFunction(cd, tuple(values))


class CharacterTable:
    """A complete set of irreducible characters over shared class data."""

    def __init__(self, class_data, rows, sort=True):
        rows = [
            r if isinstance(r, ClassFunction) else ClassFunction(class_data, r)
            for r in rows
        ]
        if sort:
            rows.sort(key=lambda r: (r.degree.sort_key(), r.sort_key()))
        self.class_data = class_data
        self.rows = rows

    @property
    def degrees(self):
        out = []
        for r in self.rows:
            d = r.degree
            if not d.is_rational() or d.rational_value().denominator != 1:
                raise ValueError("non-integer degree in table")
            out.append(int(d.rational_value()))
        return out

    def degree_multiset(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def row_multiset(self):
        return sorted(r.sort_key() for r in self.rows)

    def equals_as_set(self, other):
        if not self.class_data.same_as(other.class_data):
            return False
        return self.row_multiset() == other.row_multiset()

    # -- invariants ------------------------------------------------------------

    def verify(self, columns=True):
        """Check sum deg^2 = |G|, row orthonormality, column orthogonality.

        Raises AssertionError with a description on the first failure.
        """
        cd = self.class_data
        t = cd.num_classes
        if len(self.rows) != t:
            raise AssertionError(
                "table has %d rows for %d classes" % (len(self.rows), t)
            )
        if sum(d * d for d in self.degrees) != cd.n:
            raise AssertionError("sum of squared degrees != group order")
        C, scales, M = self._integer_tensor()
        phi = C.shape[2]
        w = cd.sizes.astype(np.int64)
        invp = cd.inv_class
        fold = _fold_tensor(M)
        # rows: R[i1,i2,:] = canonical coeffs of sum_j w_j chi_i1(j) chi_i2(inv j)
        Cw = C * w[None, :, None]
        Cp = C[:, invp, :]
        R = np.zeros((t, t, phi), dtype=np.int64)
        for a in range(phi):
            for b in range(phi):
                if not fold[a, b].any():
                    continue
                prod = Cw[:, :, a] @ Cp[:, :, b].T
                for c in np.nonzero(fold[a, b])[0]:
                    R[:, :, c] += prod * int(fold[a, b, c])
        row_target = np.zeros((t, t, phi), dtype=np.int64)
        row_target[np.arange(t), np.arange(t), 0] = cd.n * scales * scales
        if not (R == row_target).all():
            bad = np.argwhere(R != row_target)
            raise AssertionError("row orthogonality fails at %s" % (bad[0],))
        if columns:
            L = int(np.lcm.reduce(scales))
            B = C * (L // scales)[:, None, None]
            S = np.zeros((t, t, phi), dtype=np.int64)
            for a in range(phi):
                for b in range(phi):
                    if not fold[a, b].any():
                        continue
                    prod = B[:, :, a].T @ B[:, invp, b]
                    for c in np.nonzero(fold[a, b])[0]:
                        S[:, :, c] += prod * int(fold[a, b, c])
            tgt = np.zeros((t, t, phi), dtype=np.int64)
            for j in range(t):
                tgt[j, j, 0] = (cd.n // int(cd.sizes[j])) * L * L
            if not (S == tgt).all():
                bad = np.argwhere(S != tgt)
                raise AssertionError("column orthogonality fails at %s" % (bad[0],))
        return True

    def _integer_tensor(self):
        """(C, scales, M): C[i,j,:] integer coeffs of scales[i] * value over
        the common order M, canonical basis of length phi(M)."""
        M = 1
        for r in self.rows:
            for v in r.values:
                M = math.lcm(M, v.order)
        phi = _phi(M)
        t = len(self.rows)
        C = np.zeros((t, self.class_data.num_classes, phi), dtype=np.int64)
        scales = np.zeros(t, dtype=np.int64)
        for i, r in enumerate(self.rows):
            den = 1
            for v in r.values:
                for c in v.coeffs:
                    den = math.lcm(den, c.denominator)
            scales[i] = den
            for j, v in enumerate(r.values):
                vec = v._to_order(M) if v.order != M else list(v.coeffs)
                for a, c in enumerate(vec):
                    C[i, j, a] = int(c * den)
        # int64 safety: |sum| <= n * max|C|^2 * max fold entries
        maxc = int(np.abs(C).max()) if C.size else 0
        bound = self.class_data.n * (maxc + 1) ** 2 * (phi + 1) * M
        if bound > 2**62:
            raise OverflowError("table too large for the int64 verification path")
        return C, scales, M

    # -- serialization ------------------------------------------------------------

    def to_csv(self):
        cd = self.class_data
        lines = [
            "rep," + ",".join(str(int(r)) for r in cd.reps),
            "size," + ",".join(str(int(s)) for s in cd.sizes),
        ]
        for r in self.rows:
            lines.append(r.serialize())
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_csv(text, class_data):
        lines = [ln for ln in text.strip().split("\n")]
        reps = [int(x) for x in lines[0].split(",")[1:]]
        sizes = [int(x) for x in lines[1].split(",")[1:]]
        if reps != [int(r) for r in class_data.reps] or sizes != [
            int(s) for s in class_data.sizes
        ]:
            raise ValueError("class data mismatch in CSV")
        rows = []
        for ln in lines[2:]:
            rows.append(
                ClassFunction(class_data, tuple(parse(tok) for tok in ln.split(",")))
            )
        return CharacterTable(class_data, rows)


_fold_cache = {}


def _fold_tensor(M):
    """fold[a, b, c]: canonical coefficient c of zeta_M^(a+b), for a, b < phi."""
    if M in _fold_cache:
        return _fold_cache[M]
    phi = _phi(M)
    rows = _reduction_rows(M)
    fold = np.zeros((phi, phi, phi), dtype=np.int64)
    for a in range(phi):
        for b in range(phi):
            row = rows[(a + b) % M]
            for c in range(phi):
                if row[c]:
                    fold[a, b, c] = int(row[c])
    _fold_cache[M] = fold
    return fold


def table_fingerprint(table, group):
    """A cross-group canonical form: rows as multisets of
    (class size, element order of the rep, value).  Two isomorphic groups
    with equal tables fingerprint equally regardless of element indexing.
    """
    cd = table.class_data
    orders = [group.element_order(int(r)) for r in cd.reps]
    rows = []
    for r in table.rows:
        rows.append(
            tuple(
                sorted(
                    (int(cd.sizes[j]), orders[j], r.values[j].sort_key())
                    for j in range(cd.num_classes)
                )
            )
        )
    return sorted(rows)


def regular_character(class_data):
    vals = [ZERO] * class_data.num_classes
    vals[class_data.identity_class] = Cyclotomic.rational(class_data.n)
    return ClassFunction(class_data, tuple(vals))


def trivial_character(class_data):
    return ClassFunction(class_data, tuple([ONE] * class_data.num_classes))
