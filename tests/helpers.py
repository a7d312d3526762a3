"""Helpers and scalar references that only the tests use.

The engine under `src/` keeps what a run reaches (tests/test_hygiene.py
checks it); these build test inputs, name test expectations, or restate an
engine routine one element at a time so the bulk version can be compared
against it.
"""

from fractions import Fraction

import numpy as np

from nilorbit import families, freelie, linalg
from nilorbit.chartable import ClassFunction
from nilorbit.cyclo import Cyclotomic


def ul_group(n, q):
    """UL_n(F_q) as an algebra group (q = p^s)."""
    p, s = linalg.prime_power(q)
    return families.algebra_group(families.strict_upper_algebra(n, p, s))


def element_from_index(ring, idx):
    """The vector of the ring element with index idx."""
    if not (0 <= idx < ring.order):
        raise IndexError("element index out of range")
    return linalg.decode_indices(np.int64(idx), ring.dim, ring.p)


def regular_character(class_data):
    vals = [Cyclotomic.rational(0)] * class_data.num_classes
    vals[class_data.identity_class] = Cyclotomic.rational(class_data.n)
    return ClassFunction(class_data, tuple(vals))


def trivial_character(class_data):
    return ClassFunction(class_data, tuple([Cyclotomic.rational(1)] * class_data.num_classes))


def table_fingerprint(table, group):
    """A cross-group canonical form: rows as multisets of
    (class size, element order of the rep, value).  Two isomorphic groups
    with equal tables fingerprint equally regardless of element indexing.
    """
    cd = table.class_data
    classes = list(zip(cd.sizes.tolist(), group.element_orders(cd.reps).tolist()))
    keys = [(v.order, v.den, v.num) for v in table.values]
    return sorted(
        tuple(sorted((size, order, keys[i]) for (size, order), i in zip(classes, row)))
        for row in table.index.tolist()
    )


def usp4_mult_quads(U, x, y):
    """The USp4 law on one pair of (a, b, c, d) quads of field elements:
    the scalar reference for `USp4.mult_indices`."""
    F = U.field
    a, b, c, d = x
    a2, b2, c2, d2 = y
    a3 = F.add(a, a2)
    b3 = F.add(F.add(b, b2), F.mul(a, d2))
    inner = F.sub(F.mul(a2, d2), b2)
    c3 = F.add(F.add(c, c2), F.add(F.mul(a, inner), F.mul(b, a2)))
    d3 = F.add(d, d2)
    return (a3, b3, c3, d3)


def is_hall(w):
    """Whether w is a Hall word: the definition `freelie.hall_basis` builds to."""
    if isinstance(w, int):
        return w in (freelie.X, freelie.Y)
    u, v = w
    if not (is_hall(u) and is_hall(v)):
        return False
    if freelie.word_key(u) <= freelie.word_key(v):
        return False
    if isinstance(u, tuple) and freelie.word_key(u[1]) > freelie.word_key(v):
        return False
    return True


def parse_cyclotomic(text):
    """The value that `cyclo.render` wrote as "a0+a1*z+a2*z^2@m": the sum of
    each rational coefficient times its power of zeta_m."""
    body, at, m = text.rpartition("@")
    if not at:
        raise ValueError("missing @order in %r" % text)
    total = Cyclotomic.rational(0)
    for term in body.split("+"):  # '-' signs belong to the coefficients
        if "*z" in term:
            c, _, rest = term.partition("*z")
            k = int(rest[1:]) if rest.startswith("^") else 1
        else:
            c, k = term, 0
        total = total + Cyclotomic.zeta(int(m), k) * Fraction(c)
    return total
