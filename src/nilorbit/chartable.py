"""Class functions with exact cyclotomic values, and character tables.

Tables verify their own invariants exactly: row orthonormality under
<f1, f2> = |G|^-1 sum f1(g) f2(g^-1), column orthogonality, and
sum deg^2 = |G|.  Inner products, convolutions and both orthogonality
checks are contractions in the integer coefficient form of `cyclo`, so
each sums products without rounding or canonicalizing partial sums.
"""

import math
from collections import Counter

import numpy as np

from .cyclo import (
    ONE,
    ZERO,
    Cyclotomic,
    contract,
    from_ints,
    lincomb,
    parse,
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


def row_order(rows):
    """The permutation that puts class functions in table order.

    Rows sort by degree, then by their values, each value keyed by its
    order and then its numerators over one denominator shared by the whole
    table; on values of equal order that is the order of the rational
    coefficients.  The key is deterministic, not a numeric order.  Each
    distinct value is keyed once, through its (order, num, den) fields.
    """
    cells = [[(v.order, v.num, v.den) for v in r.values] for r in rows]
    keys = dict.fromkeys(c for row in cells for c in row)
    den = math.lcm(1, *(d for _, _, d in keys))
    for c in keys:
        keys[c] = c[0], tuple(a * (den // c[2]) for a in c[1])
    sort_keys = [
        (keys[r.degree.order, r.degree.num, r.degree.den], tuple(map(keys.__getitem__, row)))
        for r, row in zip(rows, cells)
    ]
    return sorted(range(len(rows)), key=sort_keys.__getitem__)


class CharacterTable:
    """A complete set of irreducible characters over shared class data."""

    def __init__(self, class_data, rows):
        rows = [
            r if isinstance(r, ClassFunction) else ClassFunction(class_data, r)
            for r in rows
        ]
        self.class_data = class_data
        self.rows = [rows[i] for i in row_order(rows)]

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
        return Counter(r.values for r in self.rows)

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
        C, M, den = to_ints([v for r in self.rows for v in r.values])
        C = C.reshape(t, t, -1)
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


def _orthogonal(X, Y, M, diag, what):
    """sum_j X[i, j] Y[j, k] over Q(zeta_M) must be diag[i] delta_ik."""
    Z = contract(X, Y, M)
    target = np.zeros(Z.shape, dtype=object)
    target[np.arange(len(diag)), np.arange(len(diag)), 0] = diag
    if not (Z == target).all():
        bad = np.argwhere(Z != target)
        raise AssertionError("%s orthogonality fails at %s" % (what, bad[0]))


def table_fingerprint(table, group):
    """A cross-group canonical form: rows as multisets of
    (class size, element order of the rep, value).  Two isomorphic groups
    with equal tables fingerprint equally regardless of element indexing.
    """
    cd = table.class_data
    orders = group.element_orders(cd.reps).tolist()
    rows = []
    for r in table.rows:
        rows.append(
            tuple(
                sorted(
                    (int(cd.sizes[j]), orders[j], (v.order, v.den, v.num))
                    for j, v in enumerate(r.values)
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
