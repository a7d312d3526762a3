import numpy as np
import pytest

from nilorbit import linalg, packets as pk
from nilorbit.families import abelian_scheme, fake_heisenberg_scheme, ul_lie_scheme
from nilorbit.packets import TowerInstance


def test_dual_frobenius_is_inverse_frobenius_in_u_coords():
    # for g = G_a over F_3 at level 2: pullback Frobenius is u -> u^(1/3)
    ga = abelian_scheme(3, 1, 1)
    t2 = TowerInstance(ga, 2)
    K = t2.field
    for idx in range(K.order):
        u = K.from_index(idx)
        lam = t2.u_to_dual(np.array(u, dtype=np.int64))
        moved = (t2.dual_frobenius @ lam) % 3
        assert tuple(int(v) for v in t2.dual_to_u(moved)) == K.frobenius_inv(u)


def test_dual_frobenius_adjoint_identity():
    # <F x, lam> = <x, D lam> for all points and functionals
    fh = fake_heisenberg_scheme(3, 2)
    tw = TowerInstance(fh, 1)
    F = tw.frobenius
    D = tw.dual_frobenius
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.integers(0, 3, tw.ring.dim)
        lam = rng.integers(0, 3, tw.ring.dim)
        assert int(((F @ x) % 3) @ lam) % 3 == int(x @ ((D @ lam) % 3)) % 3


def test_level_orders():
    fh = fake_heisenberg_scheme(3, 1)
    assert fh.at_level(2).order == 81  # (q^2)^2 points
    assert fh.at_level(1).order == 9


def test_tower_embedding_consistency():
    fh = fake_heisenberg_scheme(3, 1)
    E12 = fh.embedding_matrix(1, 2)
    E24 = fh.embedding_matrix(2, 4)
    fh.pin_tower([1, 2, 4])
    E14 = fh.embedding_matrix(1, 4)
    pts = np.eye(fh.at_level(1).dim, dtype=np.int64)
    assert ((E24 @ E12) % 3 == E14 % 3).all()
    # embeddings commute with the bracket on embedded points
    r1, r2 = fh.at_level(1), fh.at_level(2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.integers(0, 3, (2, r1.dim))
        lhs = (E12 @ r1.bracket(x, y)) % 3
        rhs = r2.bracket((E12 @ x) % 3, (E12 @ y) % 3)
        assert (lhs == rhs).all()


def test_abelian_trace_checks():
    ga = abelian_scheme(3, 1, 1)
    rep = pk.abelian_trace_check(ga, 1, 2)
    assert rep["trace_surjective"] and rep["kernel_is_lang_image"]
    assert rep["duality_fixed_part"] and rep["kernel_size"] == 3
    ga2 = abelian_scheme(3, 1, 2)
    assert pk.abelian_trace_check(ga2, 1, 2)["kernel_size"] == 9
    assert pk.abelian_trace_check(ga, 2, 2)["kernel_size"] == 1
    with pytest.raises(ValueError):
        pk.abelian_trace_check(fake_heisenberg_scheme(3, 1), 1, 2)


def test_base_change_map_composes_and_equivariant():
    fh = fake_heisenberg_scheme(3, 1)
    m12, o1, o2 = pk.base_change_map(fh, 1, 2)
    m24, _, o4 = pk.base_change_map(fh, 2, 4)
    m14, _, _ = pk.base_change_map(fh, 1, 4)
    assert (m24[m12] == m14).all()


def test_abelian_packets_trivial_and_bijective_onto_stable():
    _, rep = pk.base_change_and_packets(abelian_scheme(3, 1, 1), 1)
    assert rep.max_packet_size() == 1
    assert rep.fixed_orbit_coverage["onto_stable"]


def test_exponential_type_packets_trivial():
    _, rep = pk.base_change_and_packets(ul_lie_scheme(3, 3), 1)
    assert rep.max_packet_size() == 1


def test_fake_heisenberg_packets_nontrivial():
    _, rep = pk.base_change_and_packets(fake_heisenberg_scheme(3, 1), 1)
    assert rep.packet_sizes() == [1, 1, 1, 3, 3]
    # trivial packets are exactly the v = 0 orbits
    om = rep.orbit_set
    for pack in rep.packets:
        base_points = [om.orbits[i].base_point for i in pack]
        vs = {int(bp[1]) for bp in base_points}
        assert len(vs) == 1
        if 0 in vs:
            assert len(pack) == 1
        else:
            assert len(pack) == 3
    # packet sizes sum to the orbit count
    assert sum(rep.packet_sizes()) == len(om.orbits)


def test_fdim_estimates_fake_heisenberg():
    from fractions import Fraction

    _, rep = pk.base_change_and_packets(fake_heisenberg_scheme(3, 1), 1)
    om = rep.orbit_set
    fdims = rep.fdim_estimates()
    for i, orb in enumerate(om.orbits):
        v = int(orb.base_point[1])
        assert fdims[i] == (Fraction(1, 2) if v else Fraction(0))


def test_fdim_estimates_reuse_the_ladder_maps(monkeypatch):
    # every dense round holds T_m^n from level m, so the estimates build no
    # base-change map; fresh maps from level m give the same estimates
    from fractions import Fraction

    _, rep = pk.base_change_and_packets(fake_heisenberg_scheme(3, 1), 1)
    original = pk.base_change_map
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(pk, "base_change_map", counted)
    fdims = rep.fdim_estimates()
    assert calls == []
    (n1, _, _, on1), (n2, _, _, on2) = rep.dense_rounds[-2:]
    base1 = original(rep.scheme, 1, n1, check_equivariance=False)[0]
    base2 = original(rep.scheme, 1, n2, check_equivariance=False)[0]
    s = rep.scheme.field.s
    assert fdims == [
        Fraction(on2.orbits[int(b2)].half_log - on1.orbits[int(b1)].half_log, s * (n2 - n1))
        for b1, b2 in zip(base1, base2)
    ]


def test_packet_csv_shape():
    _, rep = pk.base_change_and_packets(abelian_scheme(3, 1, 1), 1)
    lines = rep.to_csv().strip().split("\n")
    assert lines[0].split(",") == [
        "orbit_id",
        "base_point",
        "orbit_size",
        "fdim_estimate",
        "packet_id",
        "packet_size",
        "certified_level",
    ]
    assert len(lines) == 1 + len(rep.orbit_set.orbits)


def test_packets_reuse_orbits_across_psi(monkeypatch):
    # orbits do not depend on psi_k: any psi_k gives the same report from
    # the same number of kernel calls, and the report keeps the ladder's
    # level-m orbit set
    from nilorbit import kernels

    calls = []
    partition = kernels.orbit_partition

    def counted(mats, p):
        calls.append(p)
        return partition(mats, p)

    monkeypatch.setattr(kernels, "orbit_partition", counted)
    reports = {}
    for psi_k in (1, 2):
        del calls[:]
        _, rep = pk.base_change_and_packets(fake_heisenberg_scheme(3, 1), 1, psi_k=psi_k)
        reports[psi_k] = (rep, len(calls))
    (rep1, calls1), (rep2, calls2) = reports[1], reports[2]
    assert rep2.to_csv() == rep1.to_csv()
    assert calls2 == calls1
    assert rep2.orbit_set is rep2.rounds[0][2][2]
    assert all(orb.psi_k == 2 for orb in rep2.orbit_set.orbits)


def _per_orbit_reference(scheme, m, n, mapping):
    """The base-change map, the Galois and Frobenius checks and the fixed
    orbits by one loop over orbits, as the per-orbit code computed them."""
    tm, tn = TowerInstance(scheme, m), TowerInstance(scheme, n)
    p, s = tm.ring.p, scheme.field.s
    om, on = tm.orbits(), tn.orbits()
    DE = pk.dual_embedding_matrix(scheme, m, n)
    Dq_m = linalg.matpow(tm.dual_frobenius, s, p)
    Dq_n = linalg.matpow(tn.dual_frobenius, s, p)
    Dqm_n = linalg.matpow(tn.dual_frobenius, s * m, p)

    def label(oset, v):
        return int(oset.labels[int(linalg.encode_vectors(v % p, p))])

    ref_map = [label(on, DE @ orb.base_point) for orb in om.orbits]
    verdict = None
    for i, orb in enumerate(om.orbits):
        img = (DE @ orb.base_point) % p
        if label(on, Dqm_n @ img) != mapping[i]:
            verdict = "image orbit is not Galois-fixed"
            break
        if mapping[label(om, Dq_m @ orb.base_point)] != label(on, Dq_n @ img):
            verdict = "base change is not Fr-equivariant"
            break
    fixed = {j for j, orb in enumerate(on.orbits) if label(on, Dqm_n @ orb.base_point) == j}
    return ref_map, verdict, fixed


def _check_outcome(scheme, m, n, mapping):
    om, on = pk.tower_instance(scheme, m).orbits(), pk.tower_instance(scheme, n).orbits()
    try:
        pk._check_fr_equivariance(scheme, m, n, pk.dual_embedding_matrix(scheme, m, n), om, on, mapping)
    except AssertionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("scheme,m,n", [
    (fake_heisenberg_scheme(3, 1), 1, 2),
    (fake_heisenberg_scheme(3, 1), 2, 4),
    (fake_heisenberg_scheme(3, 1), 1, 4),
    (fake_heisenberg_scheme(3, 2), 1, 2),
    (ul_lie_scheme(3, 3), 1, 2),
    (abelian_scheme(3, 1, 2), 1, 3),
])
def test_base_change_arrays_match_per_orbit_loops(scheme, m, n):
    mapping, om, on = pk.base_change_map(scheme, m, n)
    ref_map, verdict, fixed = _per_orbit_reference(scheme, m, n, mapping)
    assert mapping.tolist() == ref_map and verdict is None
    cov = pk._fixed_orbit_coverage(scheme, m, n, mapping, on)
    hit = set(ref_map)
    assert cov == {
        "level": n,
        "stable_orbits": len(fixed),
        "hit": len(hit),
        "missed_stable": len(fixed - hit),
        "onto_stable": fixed == hit,
    }
    # a wrong map fails the whole-array checks exactly when it fails the
    # loop (the message may differ: the loop tests both laws orbit by orbit)
    rng = np.random.default_rng(n)
    for _ in range(8):
        bad = mapping.copy()
        i = int(rng.integers(len(bad)))
        bad[i] = int(rng.integers(len(on)))
        got = _check_outcome(scheme, m, n, bad)
        assert (got is None) == (_per_orbit_reference(scheme, m, n, bad)[1] is None)


@pytest.mark.parametrize(
    "scheme, n, classes",
    [
        (fake_heisenberg_scheme(3, 1), 2, 9),
        (fake_heisenberg_scheme(3, 1), 4, 9),
        (fake_heisenberg_scheme(3, 1), 6, 5),
        (fake_heisenberg_scheme(5, 1), 2, 25),
        (ul_lie_scheme(3, 3), 2, 11),
        (ul_lie_scheme(3, 3), 3, 11),
        (abelian_scheme(3, 1, 1), 2, 3),
        (abelian_scheme(3, 1, 1), 3, 3),
    ],
    ids=["fakeheis3-2", "fakeheis3-4", "fakeheis3-6", "fakeheis5-2", "ul3-2", "ul3-3",
         "abelian-2", "abelian-3"],
)
def test_affine_fusion_matches_dense_fibers(scheme, n, classes):
    # the class <= 2 engine, one W(lam) per fused class, against the fibers
    # of the densely enumerated base-change map at the same level
    part, _ = pk._affine_fusion_partition(scheme, 1, n)
    mapping, _, _ = pk.base_change_map(scheme, 1, n)
    assert part == pk._fiber_partition(mapping)
    assert len(part) == classes


def test_affine_engine_rejects_class_3_scheme():
    # UL4(F5) has class 3; level 2 (5^12 points) is beyond the dense budget
    with pytest.raises(ValueError, match="class <= 2"):
        pk.base_change_and_packets(ul_lie_scheme(4, 5), 1)
    with pytest.raises(ValueError, match="class <= 2"):
        pk._affine_fusion_partition(ul_lie_scheme(4, 5), 1, 2)


def test_one_tower_instance_per_level(monkeypatch):
    built = []
    init = TowerInstance.__init__

    def counted(self, scheme, n):
        built.append(n)
        init(self, scheme, n)

    monkeypatch.setattr(TowerInstance, "__init__", counted)
    scheme = fake_heisenberg_scheme(3, 1)
    _, rep = pk.base_change_and_packets(scheme, 1)
    assert sorted(built) == sorted(set(built))
    assert set(built) == {1} | {n for n, _, _ in rep.rounds}
    assert pk.tower_instance(scheme, 2) is pk.tower_instance(scheme, 2)
