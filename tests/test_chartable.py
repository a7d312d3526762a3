import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import families as fam, linalg, orbits as ob
from nilorbit.battery import appendix_h2_ring
from nilorbit.chartable import CharacterTable, ClassFunction, _intern, _orthogonal
from nilorbit.cyclo import Cyclotomic, distinct, render, times, to_ints
from nilorbit.dixon import dixon_table
from nilorbit.groups import ClassData, twisted_classes
from nilorbit.liering import heisenberg_ring

from helpers import parse_cyclotomic


def test_csv_roundtrip_bit_exact():
    # every cell reads back as the exact value of its row and class
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    lines = table.to_csv().strip().split("\n")
    cd = table.class_data
    assert lines[:2] == ["rep," + ",".join(map(str, cd.reps.tolist())),
                         "size," + ",".join(map(str, cd.sizes.tolist()))]
    back = [tuple(parse_cyclotomic(c) for c in line.split(",")) for line in lines[2:]]
    assert back == [row.values for row in table.rows]


def test_verify_catches_corruption():
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    rows = list(table.rows)
    bad_vals = list(rows[0].values)
    bad_vals[2] = bad_vals[2] + 1
    rows[0] = ClassFunction(table.class_data, tuple(bad_vals))
    bad = CharacterTable(table.class_data, rows)
    with pytest.raises(AssertionError):
        bad.verify()


@pytest.mark.parametrize("factor", [10**3, 10**9])
def test_verify_is_exact_at_any_magnitude(factor):
    # a scaled value makes the orthogonality sums exceed int64 at 10^9: the
    # check must still run exactly and report the failing relation
    table, _ = ob.orbit_method_table(heisenberg_ring(3))
    cd = table.class_data
    rows = list(table.rows)
    vals = list(rows[-1].values)
    j = next(j for j, v in enumerate(vals) if j != cd.identity_class and not v.is_zero())
    vals[j] = vals[j] * factor
    rows[-1] = ClassFunction(cd, tuple(vals))
    with pytest.raises(AssertionError, match="row orthogonality fails"):
        CharacterTable(cd, rows).verify()


def test_verify_catches_wrong_row_count():
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    bad = CharacterTable(table.class_data, list(table.rows[:-1]))
    with pytest.raises(AssertionError):
        bad.verify()


def test_verify_large_table_with_cyclotomics():
    h2 = appendix_h2_ring(5)
    table, _ = ob.orbit_method_table(h2)
    assert table.verify(columns=True)


def test_equality_as_sets_detects_difference():
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    rows = list(table.rows)
    rows[0], rows[1] = rows[1], rows[0]
    shuffled = CharacterTable(table.class_data, rows)
    assert table.equals_as_set(shuffled)
    tweaked_vals = list(rows[0].values)
    tweaked_vals[0] = tweaked_vals[0] * Cyclotomic.zeta(3)
    rows[0] = ClassFunction(table.class_data, tuple(tweaked_vals))
    assert not table.equals_as_set(CharacterTable(table.class_data, rows))


# -- the table form against the object-row reference ------------------------------
#
# _RefTable is the object-row table the integer-index form replaced: rows of
# Cyclotomic tuples in table order, equality by a Counter of rows, verify over
# one to_ints of every cell, to_csv rendering every cell.


def _ref_row_order(rows, identity):
    cells = [[(v.order, v.num, v.den) for v in r] for r in rows]
    keys = dict.fromkeys(c for row in cells for c in row)
    den = math.lcm(1, *(d for _, _, d in keys))
    for c in keys:
        keys[c] = c[0], tuple(a * (den // c[2]) for a in c[1])
    sort_keys = [(keys[row[identity]], tuple(map(keys.__getitem__, row))) for row in cells]
    return sorted(range(len(rows)), key=sort_keys.__getitem__)


def _row_order(rows):
    """The permutation that puts class functions in table order."""
    keys, index = _intern((r.values for r in rows), len(rows[0].values))
    return CharacterTable.from_index(rows[0].class_data, keys, index)[1].tolist()


class _RefTable:
    def __init__(self, cd, rows):
        rows = [tuple(r) for r in rows]
        order = _ref_row_order(rows, cd.identity_class)
        self.class_data = cd
        self.rows = [rows[i] for i in order]

    def equals_as_set(self, other):
        same = self.class_data.same_as(other.class_data)
        return same and Counter(self.rows) == Counter(other.rows)

    def degrees(self):
        out = []
        for r in self.rows:
            d = r[self.class_data.identity_class]
            if d.order != 1 or d.rational_value().denominator != 1:
                raise ValueError("non-integer degree in table")
            out.append(int(d.rational_value()))
        return out

    def verify(self):
        cd = self.class_data
        t = cd.num_classes
        if len(self.rows) != t:
            raise AssertionError("table has %d rows for %d classes" % (len(self.rows), t))
        if sum(d * d for d in self.degrees()) != cd.n:
            raise AssertionError("sum of squared degrees != group order")
        C, M, den = to_ints([v for r in self.rows for v in r])
        C = C.reshape(t, t, -1)
        Cbar = C[:, cd.inv_class]
        w = cd.sizes.astype(np.int64)
        _orthogonal(times(C, w[None, :, None]), Cbar.transpose(1, 0, 2), M,
                    [cd.n * den**2] * t, "row")
        _orthogonal(C.transpose(1, 0, 2), Cbar, M,
                    [cd.n // int(c) * den**2 for c in cd.sizes], "column")
        return True

    def to_csv(self):
        cd = self.class_data
        lines = ["rep," + ",".join(str(int(r)) for r in cd.reps),
                 "size," + ",".join(str(int(s)) for s in cd.sizes)]
        lines += [",".join(render(v) for v in r) for r in self.rows]
        return "\n".join(lines) + "\n"


def _permuted_classes(cd, sigma):
    """The class data with class k the old class sigma[k]."""
    sigma = np.asarray(sigma)
    rank = np.argsort(sigma)
    return ClassData(cd.n, rank[cd.class_of], cd.reps[sigma], cd.sizes[sigma],
                     rank[cd.inv_class[sigma]], int(rank[cd.identity_class]))


_H3_TABLE = ob.orbit_method_table(heisenberg_ring(3))[0]


@st.composite
def _values(draw):
    """Values of orders 1, 3, 4, 5 and 25 over mixed denominators, some
    beyond int64."""
    m = draw(st.sampled_from([1, 3, 4, 5, 25]))
    big = draw(st.booleans())
    coeff = st.integers(-2**70, 2**70) if big else st.integers(-3, 3)
    counts = draw(st.lists(coeff, min_size=m, max_size=m))
    den = draw(st.sampled_from([1, 2, 3, 9, 2**67 + 1] if big else [1, 2, 3, 9]))
    return Cyclotomic.from_root_counts(m, counts, Fraction(1, den))


@st.composite
def _tables(draw):
    """(class data, rows): the H3 table on permuted classes with shuffled
    rows, some rows duplicated and some cells replaced by drawn values."""
    cd0 = _H3_TABLE.class_data
    t = cd0.num_classes
    sigma = draw(st.permutations(range(t)))
    cd = _permuted_classes(cd0, sigma)
    rows = [[r.values[j] for j in sigma] for r in draw(st.permutations(_H3_TABLE.rows))]
    for _ in range(draw(st.integers(0, 2))):
        i, k = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        rows[i] = list(rows[k])
    for _ in range(draw(st.integers(0, 5))):
        i, j = draw(st.integers(0, t - 1)), draw(st.integers(0, t - 1))
        rows[i][j] = draw(_values())
    return cd, [tuple(r) for r in rows]


def _outcome(check):
    try:
        return check()
    except (AssertionError, ValueError) as e:
        return type(e), str(e)


@given(_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_table_form_matches_object_row_reference(drawn, data):
    cd, rows = drawn
    ref = _RefTable(cd, rows)
    table = CharacterTable(cd, rows)
    C, M, den = to_ints([v for r in rows for v in r])
    from_ints, perm = CharacterTable.from_index(cd, *distinct(C, M, den))
    assert table.to_csv() == from_ints.to_csv() == ref.to_csv()
    assert [rows[i] for i in perm] == [r.values for r in from_ints.rows] == ref.rows
    assert _row_order([ClassFunction(cd, r) for r in rows]) == perm.tolist()
    assert len(table.values) == len(set(v for r in rows for v in r))
    assert _outcome(table.verify) == _outcome(ref.verify)
    assert _outcome(lambda: table.degrees) == _outcome(ref.degrees)
    # against a reshuffle of the same rows, with one row or one cell changed
    other = list(data.draw(st.permutations(rows)))
    i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, len(rows) - 1))
    change = data.draw(st.sampled_from(["none", "row", "cell"]))
    if change == "row":
        other[i] = other[j]
    elif change == "cell":
        other[i] = other[i][:j] + (data.draw(_values()),) + other[i][j + 1:]
    assert table.equals_as_set(CharacterTable(cd, other)) == ref.equals_as_set(_RefTable(cd, other))
    assert CharacterTable(cd, other).equals_as_set(table) == _RefTable(cd, other).equals_as_set(ref)


def test_value_order_reads_numerators_over_the_table_denominator():
    # 1/2 and 1/3 have equal numerators; over the table's denominator 6 they
    # are 3 and 2, so a row holding 1/3 precedes an otherwise equal one with 1/2
    cd = _H3_TABLE.class_data
    base = list(_H3_TABLE.rows[-1].values)
    j = next(j for j in range(cd.num_classes) if j != cd.identity_class)
    rows = [tuple(base[:j] + [Cyclotomic.rational(Fraction(1, k))] + base[j + 1:]) for k in (2, 3)]
    table = CharacterTable(cd, rows)
    assert table.to_csv() == _RefTable(cd, rows).to_csv()
    assert [r.values for r in table.rows] == rows[::-1]


def _count_cyclotomics(monkeypatch):
    calls = [0]
    init = Cyclotomic.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cyclotomic, "__init__", counted)
    return calls


def test_tables_build_each_distinct_value_once(monkeypatch):
    G = fam.algebra_group(fam.strict_upper_algebra(3, 5), spot_check=False)
    G.conjugacy_classes()
    calls = _count_cyclotomics(monkeypatch)
    golden = fam.usp4_lusztig_table(8)
    assert calls[0] <= 2 * len(golden.values) + 4 < golden.index.size // 100
    calls[0] = 0
    oracle = dixon_table(G)
    assert calls[0] <= 2 * len(oracle.values) + 4 < oracle.index.size // 10


def test_twisted_fixed_rows_match_the_row_loop():
    ring = fam.fake_heisenberg(3, 2)
    G = ob.lazard_group(ring)
    table, _ = ob.orbit_method_table(ring)
    perm = linalg.encode_vectors((ring.all_elements() @ ring.fq.frobenius_matrix.T) % 3, 3)
    cd = table.class_data
    expect = [
        i for i, row in enumerate(table.rows)
        if all(row.values[cd.class_of[perm[r]]] == row.values[j] for j, r in enumerate(cd.reps))
    ]
    assert 0 < len(expect) < len(table.rows)
    assert twisted_classes(G, perm, table=table)["fixed_rows"] == expect
