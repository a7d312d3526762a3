"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  All comparisons are exact; the stated time
budgets are asserted.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from nilorbit import battery, families as fam, orbits as ob, packets as pk, polar
from nilorbit import freelie as fl
from nilorbit import linalg
from nilorbit.chartable import convolve
from nilorbit.cyclo import Cyclotomic
from nilorbit.dixon import dixon_table
from nilorbit.groups import twisted_classes
from nilorbit.liering import heisenberg_ring
from nilorbit.twisted import twisted_trace_basis


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        took = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print("[%s] %s (%.1f s / budget %g s)" % (self.label, status, took, self.budget))
        if exc_type is None and took > self.budget:
            raise AssertionError(
                "%s exceeded its time budget: %.1f s > %g s"
                % (self.label, took, self.budget)
            )
        return False


def _criterion2_rings():
    return [
        ("heisenberg F3", heisenberg_ring(3)),
        ("heisenberg F5", heisenberg_ring(5)),
        ("fake heisenberg q=9", fam.fake_heisenberg(3, 2)),
        ("UL3(F5)", fam.ul_lie_scheme(3, 5).at_level(1)),
        ("appendix H.2", battery.appendix_h2_ring(5)),
        ("class-3 witness", battery.witness_ring(5, 3)),
        ("class-4 witness", battery.witness_ring(5, 4)),
    ]


def test_criterion_1_usp4_golden_table():
    with _Timer("criterion 1a: USp4(F4) golden", 60):
        t4 = fam.usp4_lusztig_table(4)
        assert t4.degree_multiset() == {1: 16, 4: 6, 2: 36}
        assert sum(d * d for d in t4.degrees) == 256
        oracle = dixon_table(fam.usp4(4, spot_check=False))
        assert t4.equals_as_set(oracle)
    with _Timer("criterion 1b: USp4(F8) count law", 300):
        t8 = fam.usp4_lusztig_table(8)
        assert t8.degree_multiset() == {1: 64, 8: 14, 4: 196}
        assert t8.degree_multiset()[4] == 196
        assert sum(d * d for d in t8.degrees) == 8**4
        assert t8.verify()


def test_criterion_2_orbit_method_vs_oracle():
    with _Timer("criterion 2: orbit method == Dixon oracle", 600):
        for name, ring in _criterion2_rings():
            assert ring.order <= 5**5
            table, _ = ob.orbit_method_table(ring)
            oracle = dixon_table(ob.lazard_group(ring))
            assert table.equals_as_set(oracle), name


def test_criterion_3_dimension_law():
    with _Timer("criterion 3: dimension law", 120):
        for name, ring in _criterion2_rings():
            cd = ob.conjugacy_class_data(ring)
            oset = ob.coadjoint_orbits(ring)
            assert len(oset) == cd.num_classes, name
            table, orbits = ob.orbit_method_table(ring)
            for row, orb in zip(table.rows, orbits):
                m2 = orb.dimension_even
                assert ring.p**m2 == orb.size  # perfect square
                assert row.degree == Cyclotomic.rational(ring.p ** orb.half_log)


def test_criterion_4_power_of_q_dimensions():
    with _Timer("criterion 4: power-of-q dimensions", 300):
        ul4 = fam.ul_lie_scheme(4, 5).at_level(1)
        table, _ = ob.orbit_method_table(ul4)
        assert set(table.degrees) <= {1, 5, 25}
        G3 = fam.usp4_via_sp(3)
        t3 = dixon_table(G3)
        assert set(t3.degrees) <= {1, 3, 9, 27}


def test_criterion_5_polarization_suite():
    with _Timer("criterion 5: 500 polarization instances", 300):
        rng = np.random.default_rng(2024)
        rings = battery.random_class_le3_rings(5, 25, seed=77, max_dim=5)
        tables = {}
        count = 0
        while count < 500:
            ring = rings[count % len(rings)]
            key = id(ring)
            if key not in tables:
                tables[key] = ob.orbit_method_table(ring)
            table, orbits = tables[key]
            flag = polar.random_ideal_flag(ring, rng)
            f = rng.integers(0, 5, ring.dim)
            pol_d = polar.vergne_polarization(ring, flag, f, "direct")
            pol_r = polar.vergne_polarization(ring, flag, f, "recursive")
            assert pol_d.space == pol_r.space
            pol_d.verify()  # Lagrangian and subring
            # Kirillov induction equals the orbit character
            chi = polar.induced_character(ring, pol_d, table.class_data)
            oset = ob.coadjoint_orbits(ring)
            label = int(oset.labels[ring.element_index(f % 5)])
            target = None
            for row, orb in zip(table.rows, orbits):
                if int(oset.labels[orb.base_index]) == label:
                    target = row
                    break
            assert chi == target
            # good-basis sigma equals rank-statistics sigma (asserted inside)
            B = ring.bf_matrix(f)
            polar.good_basis_and_involution(B, 5, flag_rows=flag.basis_rows())
            count += 1


def test_criterion_6_bch_phipsi_substitution():
    with _Timer("criterion 6: BCH / phi-psi / substitution", 120):
        for c in range(1, 7):
            assert fl.bch_series(c) == fl.dynkin_bch(c)
        for c in range(1, 6):
            phi, psi = fl.phi_psi_series(c)
            gx = fl.LieSeries.generator(fl.X, c)
            gy = fl.LieSeries.generator(fl.Y, c)
            assert (fl.exp_ad(phi, gx) + fl.exp_ad(psi, gy) - fl.bch_series(c)).truncate(c).is_zero()
        for name, ring in _criterion2_rings():
            if ring.order <= 5**4:
                assert fl.substitution_bijection(ring), name


def test_criterion_7_counterexample_battery():
    with _Timer("criterion 7: Appendix-style battery", 600):
        assert battery.statement1_report()["refuted"]
        assert battery.statement2_report()["refuted"]
        assert battery.statement36_report()["refuted"]
        pair = battery.statement3_explicit_pair()
        assert pair == {"refuted": True, "gamma_index": 1, "lambda_index": 125}
        assert battery.statement7_class4_report()["refuted"]
        samples = battery.statement7_class3_samples()
        assert samples["count"] == 20 and samples["all_hold"]
        assert battery.class2_module_property_samples()["all_hold"]
        assert battery.veronese_report()["refuted"]
        assert battery.parabola_report()["equal"]


def test_criterion_8_packets():
    with _Timer("criterion 8: L-packets", 600):
        for p in (3, 5):
            _, rep = pk.base_change_and_packets(fam.fake_heisenberg_scheme(p, 1), 1)
            assert rep.max_packet_size() >= 2
            om = rep.orbit_set
            # the nontrivial packets sit among orbits with v != 0
            for pack in rep.packets:
                if len(pack) >= 2:
                    assert all(int(om.orbits[i].base_point[-1]) != 0 for i in pack)
            assert rep.certified_at is not None and rep.confirmed_at is not None
        _, rep_ul = pk.base_change_and_packets(fam.ul_lie_scheme(3, 3), 1)
        assert rep_ul.max_packet_size() == 1
        _, rep_ab = pk.base_change_and_packets(fam.abelian_scheme(3, 1, 1), 1)
        assert rep_ab.max_packet_size() == 1
        # composition and Fr-equivariance exhaustively at dense levels
        fh = fam.fake_heisenberg_scheme(3, 1)
        m12, _, _ = pk.base_change_map(fh, 1, 2)
        m24, _, _ = pk.base_change_map(fh, 2, 4)
        m14, _, _ = pk.base_change_map(fh, 1, 4)
        assert (m24[m12] == m14).all()


def test_criterion_9_function_theory():
    # Phi(e_Omega) = 1_Omega and chi * chi = (|G|/deg) chi are exhaustive for
    # |Gamma| <= 5^4 and sampled (6 rows) at 5^5; chi_reg = Sigma o Phi runs
    # on random mu for |Gamma| <= 5^3; orthogonality is exhaustive everywhere.
    with _Timer("criterion 9: function-theory identities", 900):
        for name, ring in _criterion2_rings():
            table, orbits = ob.orbit_method_table(ring)
            assert table.verify(columns=True), name
            if ring.order <= 5**4:
                assert ob.verify_phi_idempotents(ring, table, orbits), name
            else:
                sample = list(zip(table.rows, orbits))[::
                    max(1, len(table.rows) // 6)]
                rows_s = [r for r, _ in sample]
                orbs_s = [o for _, o in sample]
                assert ob.verify_phi_idempotents(ring, _Sub(table, rows_s), orbs_s), name
            G = ob.lazard_group(ring)
            rows = (
                table.rows
                if ring.order <= 5**4
                else table.rows[:: max(1, len(table.rows) // 6)]
            )
            for chi in rows:
                conv = convolve(chi, chi, G)
                scale = Fraction(G.n) / chi.degree.rational_value()
                assert conv == chi.scale(scale), name
            if ring.order <= 5**3:
                rng = np.random.default_rng(5)
                mu = [Cyclotomic.rational(int(v)) for v in rng.integers(-3, 4, G.n)]
                F = ob.phi_transform(ring, mu)
                assert sum(F[1:], F[0]) == mu[0] * G.n


class _Sub:
    """A row-subset view with the same class data (for sampled checks)."""

    def __init__(self, table, rows):
        self.class_data = table.class_data
        self.rows = rows


def test_criterion_10_twisted_conjugacy():
    with _Timer("criterion 10: twisted conjugacy", 120):
        ring = fam.fake_heisenberg(3, 2)
        G = ob.lazard_group(ring)
        table, orbits = ob.orbit_method_table(ring)
        F = ring.fq.frobenius_matrix
        perm = linalg.encode_vectors((ring.all_elements() @ F.T) % 3, 3)
        counts = twisted_classes(G, perm, table=table)
        assert counts["counts_match"]
        flag = polar.flag_from_weights(ring)
        fixed_reps = []
        for i in counts["fixed_rows"]:
            pol = polar.vergne_polarization(ring, flag, orbits[i].base_point)
            fixed_reps.append((i, polar.MonomialRep(ring, pol)))
        rep = twisted_trace_basis(ring, G, F, table, fixed_reps)
        assert rep["basis_is_basis"]
