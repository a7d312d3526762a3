from fractions import Fraction

import numpy as np
import pytest

from nilorbit import freelie as fl
from nilorbit import linalg
from nilorbit.liering import abelian_ring, from_bracket_table, heisenberg_ring


def test_bch_low_degrees():
    s1 = fl.bch_series(1)
    assert s1.terms == {fl.X: Fraction(1), fl.Y: Fraction(1)}
    s2 = fl.bch_series(2)
    # CH_2 = [X, Y] / 2 = -(1/2) [Y, X] on the Hall word (Y, X)
    assert s2.terms[(fl.Y, fl.X)] == Fraction(-1, 2)
    s3 = fl.bch_series(3)
    # coefficient 1/12 on [X,[X,Y]] = [[Y,X],X]
    assert s3.terms[((fl.Y, fl.X), fl.X)] == Fraction(1, 12)
    assert s3.terms[((fl.Y, fl.X), fl.Y)] == Fraction(-1, 12)


def test_bch_truncation_consistency():
    s6 = fl.bch_series(6)
    for c in range(1, 6):
        assert s6.truncate(c) == fl.bch_series(c)


def test_bch_denominators_in_z_inv_cfact():
    for c in range(1, 7):
        assert fl.denominators_invertible(fl.bch_series(c), c)


def test_dynkin_oracle_agreement():
    for c in range(1, 7):
        assert fl.dynkin_bch(c) == fl.bch_series(c)


def test_phi_psi():
    phi, psi = fl.phi_psi_series(1)
    assert phi.is_zero() and psi.is_zero()
    phi2, psi2 = fl.phi_psi_series(2)
    assert phi2.terms == {fl.Y: Fraction(-1, 2)}
    assert psi2.is_zero()
    for c in (3, 4, 5):
        phi, psi = fl.phi_psi_series(c)  # identity re-verified internally
        gx = fl.LieSeries.generator(fl.X, c)
        gy = fl.LieSeries.generator(fl.Y, c)
        diff = fl.exp_ad(phi, gx) + fl.exp_ad(psi, gy) - fl.bch_series(c)
        assert diff.truncate(c).is_zero()
        assert fl.denominators_invertible(phi, c)
        assert fl.denominators_invertible(psi, c)


def test_evaluate_examples():
    h5 = heisenberg_ring(5)
    bch = fl.bch_series(2)
    out = fl.evaluate(bch, h5, {fl.X: np.array([1, 0, 0]), fl.Y: np.array([0, 1, 0])})
    assert out.tolist() == [1, 1, 3]  # 1/2 = 3 mod 5
    x = np.array([2, 4, 1])
    out2 = fl.evaluate(bch, h5, {fl.X: x, fl.Y: np.zeros(3, dtype=np.int64)})
    assert (out2 == x).all()
    ab = abelian_ring(5, 3)
    out3 = fl.evaluate(
        fl.bch_series(1), ab, {fl.X: np.array([1, 2, 3]), fl.Y: np.array([4, 4, 4])}
    )
    assert out3.tolist() == [0, 1, 2]


def test_evaluate_rejects_bad_characteristic():
    h3 = heisenberg_ring(3)
    with pytest.raises(ValueError):
        # degree-3 coefficients have denominator 12, not invertible mod 3
        fl.evaluate(
            fl.bch_series(3),
            h3,
            {fl.X: np.array([1, 0, 0]), fl.Y: np.array([0, 1, 0])},
        )


def test_evaluate_batches_match_scalar():
    h5 = heisenberg_ring(5)
    rng = np.random.default_rng(0)
    XS = rng.integers(0, 5, (40, 3))
    YS = rng.integers(0, 5, (40, 3))
    bulk = fl.evaluate(h5.bch(), h5, {fl.X: XS, fl.Y: YS})
    # a single vector broadcasts against a batch
    against_one = fl.evaluate(h5.bch(), h5, {fl.X: XS, fl.Y: YS[0]})
    for k in range(40):
        single = fl.evaluate(h5.bch(), h5, {fl.X: XS[k], fl.Y: YS[k]})
        assert (bulk[k] == single).all()
        single = fl.evaluate(h5.bch(), h5, {fl.X: XS[k], fl.Y: YS[0]})
        assert (against_one[k] == single).all()


def test_evaluate_sums_exactly_wherever_the_bracket_is_exact():
    # on the class-3 filiform ring at this p the bracket is exact in int64
    # (d (p-1)^2 < 2^63), but the five terms below are each (p-1)^2 in
    # the last coordinate of the first row, so their sum is not
    p, d = 1518500213, 4
    assert d * (p - 1) ** 2 < 2**63 <= 5 * (p - 1) ** 2
    ring = from_bracket_table(p, d, {(0, 1): {2: 1}, (0, 2): {3: 1}})
    XY = (fl.X, fl.Y)
    series = fl.LieSeries(3, {w: -1 for w in (fl.X, fl.Y, XY, (XY, fl.X), (XY, fl.Y))})
    rng = np.random.default_rng(5)
    X, Y = rng.integers(0, p, (2, 20, d))
    X[0], Y[0] = [1, 0, 1, -1], [1, 1, 0, -1]
    values = {fl.X: X % p, fl.Y: Y % p}
    terms = [
        linalg.rational_mod(c, p) * fl._word_value(w, values, ring).astype(object)
        for w, c in series.terms.items()
    ]
    assert [t[0, 3] for t in terms] == [(p - 1) ** 2] * 5
    assert (fl.evaluate(series, ring, {fl.X: X, fl.Y: Y}) == sum(terms) % p).all()


def test_substitution_bijection_small_rings():
    from nilorbit.battery import appendix_h2_ring

    for ring in (heisenberg_ring(3), heisenberg_ring(5), appendix_h2_ring(5)):
        assert fl.substitution_bijection(ring)


def test_hall_words_are_hall():
    words = fl.hall_words(6)
    assert all(fl.is_hall(w) for w in words)
    by_deg = {}
    for w in words:
        by_deg[fl.degree(w)] = by_deg.get(fl.degree(w), 0) + 1
    # necklace dimensions of the free Lie algebra on 2 generators
    assert [by_deg[d] for d in range(1, 7)] == [2, 1, 2, 3, 6, 9]
