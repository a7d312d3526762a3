import pytest

from nilorbit import orbits as ob
from nilorbit.battery import appendix_h2_ring
from nilorbit.chartable import CharacterTable, ClassFunction
from nilorbit.cyclo import Cyclotomic
from nilorbit.liering import heisenberg_ring


def test_csv_roundtrip_bit_exact():
    h3 = heisenberg_ring(3)
    table, _ = ob.orbit_method_table(h3)
    text = table.to_csv()
    back = CharacterTable.from_csv(text, table.class_data)
    assert back.equals_as_set(table)
    assert back.to_csv() == text


def test_csv_rejects_mismatched_class_data():
    h3 = heisenberg_ring(3)
    h5 = heisenberg_ring(5)
    t3, _ = ob.orbit_method_table(h3)
    t5, _ = ob.orbit_method_table(h5)
    with pytest.raises(ValueError):
        CharacterTable.from_csv(t3.to_csv(), t5.class_data)


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
