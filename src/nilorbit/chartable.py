"""Class functions with exact cyclotomic values, and character tables.

A `CharacterTable` is its class data, `values`, the tuple of its distinct
Cyclotomics, and `index`, an int64 array (rows, t): row r is
values[index[r, j]] on class j.  Every constructor ends in one
canonicalizer.  It sorts `values` by the table key (a value's order, then
its numerators over the least common denominator of the table;
deterministic, not numeric) and the rows by degree, then by their values,
both read as positions in `values`.  So `index` is its own sort key, and two
tables on the same classes have the same rows exactly when their forms are
equal.  `rows`, the ClassFunctions, is a view built on first use.

Tables verify their own invariants exactly: row orthonormality under
<f1, f2> = |G|^-1 sum f1(g) f2(g^-1), column orthogonality, and
sum deg^2 = |G|.  Inner products, convolutions and both orthogonality
checks are contractions in the integer coefficient form of `cyclo`, so
each sums products without rounding or canonicalizing partial sums.
"""

import math
from functools import cached_property

import numpy as np

from .cyclo import (
    Cyclotomic,
    contract,
    distinct,
    from_ints,
    gather,
    lincomb,
    product_table,
    render,
    times,
    to_ints,
)


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
        t = cd.num_classes
        C, M, den = to_ints(self.values + tuple(other.values[j] for j in cd.inv_class))
        Z = contract(times(C[None, :t], cd.sizes[None, :, None]), C[t:, None], M)
        return from_ints(Z, M, den * den * cd.n)[0]

    def serialize(self):
        return ",".join(render(v) for v in self.values)

    def __repr__(self):
        return "ClassFunction(deg=%s, t=%d)" % (self.degree, len(self.values))


def convolve(f, g, group):
    """Group-algebra convolution (f * g)(z) = sum_x f(x) g(x^-1 z).

    Exact: (f * g)(rep_k) = sum_{a, b} K[k, a t + b] f(a) g(b), where K is
    group.class_pair_counts(), a t^3 int32 table built once per group.  So
    a call is one table of the products f(a) g(b) over class pairs and one
    integer contraction against K.  f and g must be on the group's classes.
    """
    cd = group.conjugacy_classes()
    if not (f.class_data.same_as(cd) and g.class_data.same_as(cd)):
        raise ValueError("convolve needs class functions on the group's own classes")
    P, M, den = product_table(f.values, g.values)
    sums = lincomb(group.class_pair_counts(), P.reshape(cd.num_classes**2, -1))
    return ClassFunction(f.class_data, tuple(from_ints(sums, M, den)))


def _intern(cells, t):
    """(keys, index): the distinct cells of rows of t hashable cells, in
    first-seen order, and the (rows, t) positions of every cell among them."""
    ids = {}
    index = [[ids.setdefault(c, len(ids)) for c in row] for row in cells]
    if any(len(row) != t for row in index):
        raise ValueError("need one value per class")
    return list(ids), np.array(index, dtype=np.int64).reshape(len(index), t)


class CharacterTable:
    """A complete set of irreducible characters over shared class data, in
    the table form of the module docstring."""

    def __init__(self, class_data, rows):
        keys, index = _intern(
            (r.values if isinstance(r, ClassFunction) else r for r in rows),
            class_data.num_classes,
        )
        values = [v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v) for v in keys]
        self._canonicalize(class_data, values, index)

    @classmethod
    def from_index(cls, class_data, values, index):
        """(table, perm) for rows of positions in the Cyclotomics values,
        (rows, t) or flattened row-major; row i of the table is input row
        perm[i]."""
        table = cls.__new__(cls)
        index = np.asarray(index, dtype=np.int64).reshape(-1, class_data.num_classes)
        return table, table._canonicalize(class_data, values, index)

    @classmethod
    def from_root_counts(cls, class_data, m, counts, den=1):
        """(table, perm) for the rows sum_s counts[row, class, s] zeta_m^s / den
        of integer counts; each distinct value is canonicalized once."""
        C = gather(np.reshape(counts, (-1, m)), np.arange(m), m)
        return cls.from_index(class_data, *distinct(C, m, den))

    def _canonicalize(self, class_data, values, index):
        """Set the table form of the rows index into values (equal values
        merge) and return the row permutation."""
        ids = {}
        merged = np.array([ids.setdefault(v, len(ids)) for v in values], dtype=np.int64)
        values = list(ids)
        den = math.lcm(1, *(v.den for v in values))
        keys = [(v.order, tuple(a * (den // v.den) for a in v.num)) for v in values]
        order = sorted(range(len(values)), key=keys.__getitem__)
        rank = np.empty(len(values), dtype=np.int64)
        rank[order] = np.arange(len(values))
        index = rank[merged][index]
        # np.lexsort sorts by its last key first
        perm = np.lexsort(np.vstack([index[:, ::-1].T, index[:, class_data.identity_class]]))
        self.class_data = class_data
        self.values = tuple(values[i] for i in order)
        self.index = index[perm]
        return perm

    @cached_property
    def rows(self):
        """The rows as ClassFunctions, built on first use."""
        return [
            ClassFunction(self.class_data, tuple(map(self.values.__getitem__, row)))
            for row in self.index.tolist()
        ]

    @property
    def degrees(self):
        ints = [v.num[0] if v.order == 1 and v.den == 1 else None for v in self.values]
        out = [ints[i] for i in self.index[:, self.class_data.identity_class].tolist()]
        if None in out:
            raise ValueError("non-integer degree in table")
        return out

    def degree_multiset(self):
        out = {}
        for d in self.degrees:
            out[d] = out.get(d, 0) + 1
        return out

    def equals_as_set(self, other):
        """Equal rows with multiplicity: both forms are canonical, so equal forms."""
        same = self.class_data.same_as(other.class_data) and self.values == other.values
        return same and np.array_equal(self.index, other.index)

    # -- invariants ------------------------------------------------------------

    def verify(self, columns=True):
        """Check sum deg^2 = |G|, row orthonormality, column orthogonality.

        Raises AssertionError with a description on the first failure.
        """
        cd = self.class_data
        t = cd.num_classes
        if len(self.index) != t:
            raise AssertionError(
                "table has %d rows for %d classes" % (len(self.index), t)
            )
        if sum(d * d for d in self.degrees) != cd.n:
            raise AssertionError("sum of squared degrees != group order")
        C, M, den = to_ints(self.values)
        C = C[self.index]
        Cbar = C[:, cd.inv_class]  # chi(g^-1)
        den2 = den**2  # the values are C / den
        # rows: sum_j |class j| chi_a(j) chi_b(j^-1) = |G| delta_ab
        w = cd.sizes.astype(np.int64)
        _orthogonal(times(C, w[None, :, None]), Cbar.transpose(1, 0, 2), M,
                    [cd.n * den2] * t, "row")
        if columns:
            # columns: sum_a chi_a(j) chi_a(k^-1) = |C_G(j)| delta_jk
            _orthogonal(C.transpose(1, 0, 2), Cbar, M,
                        [cd.n // int(c) * den2 for c in cd.sizes], "column")
        return True

    # -- serialization ------------------------------------------------------------

    def to_csv(self):
        texts = [render(v) for v in self.values]
        rows = [",".join(map(texts.__getitem__, row)) for row in self.index.tolist()]
        cd = self.class_data
        header = ["rep," + ",".join(map(str, cd.reps.tolist())),
                  "size," + ",".join(map(str, cd.sizes.tolist()))]
        return "\n".join(header + rows) + "\n"


def _orthogonal(X, Y, M, diag, what):
    """sum_j X[i, j] Y[j, k] over Q(zeta_M) must be diag[i] delta_ik."""
    Z = contract(X, Y, M)
    target = np.zeros(Z.shape, dtype=object)
    target[np.arange(len(diag)), np.arange(len(diag)), 0] = diag
    if not (Z == target).all():
        bad = np.argwhere(Z != target)
        raise AssertionError("%s orthogonality fails at %s" % (what, bad[0]))

