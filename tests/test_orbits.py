from collections import Counter
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import families as fam, kernels, linalg, orbits as ob
from nilorbit.battery import appendix_h2_ring, witness_ring
from nilorbit.chartable import ClassFunction
from nilorbit.cyclo import Cyclotomic, lincomb, product_table
from nilorbit.liering import abelian_ring, heisenberg_ring


def test_kernel_budget_guard():
    mats = np.eye(30, dtype=np.int64).reshape(1, 30, 30)
    with pytest.raises(ValueError):
        kernels.orbit_partition(mats, 5)


def test_orbit_dimension_law():
    # dim O = dim g - dim g^f for every orbit; the stabilizer is computed on
    # first access and must equal the radical of B_f at the base point
    for ring in (heisenberg_ring(3), heisenberg_ring(5), appendix_h2_ring(5), witness_ring(5, 3)):
        for orb in ob.coadjoint_orbits(ring).orbits:
            stab = orb.stabilizer
            assert stab.rows.tolist() == ring.stabilizer_subspace(orb.base_point).rows.tolist()
            assert ring.dim - stab.dim == orb.dimension_even


def test_orbit_examples():
    # abelian: all singletons
    ab = abelian_ring(3, 2)
    oset = ob.coadjoint_orbits(ab)
    assert all(o.size == 1 for o in oset.orbits) and len(oset) == 9
    # Heisenberg F_3: 9 singletons + 2 orbits of size 9
    h3 = heisenberg_ring(3)
    sizes = Counter(o.size for o in ob.coadjoint_orbits(h3).orbits)
    assert sizes == {1: 9, 9: 2}
    # H.2 over F_5: orbit of t* has size 25 / stabilizer span(y, t)
    h2 = appendix_h2_ring(5)
    o5 = ob.coadjoint_orbits(h2)
    orb = o5.orbit_of_index(h2.element_index(np.array([0, 0, 0, 1])))
    assert orb.size == 25
    assert orb.stabilizer.rows.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]


def test_orbit_sizes_are_even_p_powers():
    for ring in (heisenberg_ring(3), appendix_h2_ring(5), witness_ring(5, 4)):
        for orb in ob.coadjoint_orbits(ring).orbits:
            m2 = round(math.log(orb.size, ring.p))
            assert ring.p**m2 == orb.size and m2 % 2 == 0


def test_orbit_character_examples():
    h3 = heisenberg_ring(3)
    cd = ob.conjugacy_class_data(h3)
    table, orbits = ob.orbit_method_table(h3)
    # trivial orbit -> trivial character
    for row, orb in zip(table.rows, orbits):
        if orb.size == 1 and orb.base_index == 0:
            assert all(v == 1 for v in row.values)
    # central orbit of size 9 -> degree 3, vanishing off the center
    center_idx = {h3.element_index(v) for v in h3.center().points()}
    for row, orb in zip(table.rows, orbits):
        if orb.size == 9:
            assert row.degree == Cyclotomic.rational(3)
            for j, rep in enumerate(cd.reps):
                if int(rep) not in center_idx:
                    assert row.values[j].is_zero()
    # sum over orbits of deg^2 = |Gamma|
    assert sum(d * d for d in table.degrees) == h3.order


def test_orbit_count_equals_class_count():
    for ring in (heisenberg_ring(3), heisenberg_ring(5), appendix_h2_ring(5)):
        cd = ob.conjugacy_class_data(ring)
        assert len(ob.coadjoint_orbits(ring)) == cd.num_classes


def test_table_invariants_and_row_orthonormality():
    for ring in (heisenberg_ring(3), appendix_h2_ring(5)):
        table, _ = ob.orbit_method_table(ring)
        assert table.verify()
        # spot pairwise inner products with the exact definition
        r0, r1 = table.rows[0], table.rows[-1]
        assert r0.inner(r0) == 1
        assert r1.inner(r1) == 1
        assert r0.inner(r1) == 0


def test_phi_transform_identities():
    h3 = heisenberg_ring(3)
    cd = ob.conjugacy_class_data(h3)
    table, orbits = ob.orbit_method_table(h3)
    n = h3.order
    # Phi(delta_identity) = constant 1
    mu = [Cyclotomic.rational(0)] * n
    mu[0] = Cyclotomic.rational(1)
    assert all(v == 1 for v in ob.phi_transform(h3, mu))
    # Phi(e_Omega) = 1_Omega for every orbit
    for row, orb in zip(table.rows, orbits):
        F = ob.phi_transform(h3, ob.central_idempotent(h3, row, cd))
        ind = np.zeros(n, dtype=bool)
        ind[orb.indices] = True
        for i in range(n):
            assert F[i] == (1 if ind[i] else 0)
    # chi_reg = Sigma o Phi on a random mu, and Phi is invertible
    rng = np.random.default_rng(2)
    mu = [Cyclotomic.rational(int(v)) for v in rng.integers(-4, 5, n)]
    F = ob.phi_transform(h3, mu)
    assert sum(F[1:], F[0]) == mu[0] * n
    back = ob.phi_inverse(h3, F)
    assert all(a == b for a, b in zip(back, mu))


def test_phi_multiplicative_on_invariants():
    h3 = heisenberg_ring(3)
    cd = ob.conjugacy_class_data(h3)
    table, _ = ob.orbit_method_table(h3)
    G = ob.lazard_group(h3)
    n = h3.order
    # convolution of two central idempotent-ish class functions maps to product
    e0 = ob.central_idempotent(h3, table.rows[0], cd)
    e1 = ob.central_idempotent(h3, table.rows[5], cd)
    conv = [Cyclotomic.rational(0)] * n
    for x in range(n):
        if e0[x].is_zero():
            continue
        for y in range(n):
            conv[G.mult(x, y)] = conv[G.mult(x, y)] + e0[x] * e1[y]
    lhs = ob.phi_transform(h3, conv)
    f0 = ob.phi_transform(h3, e0)
    f1 = ob.phi_transform(h3, e1)
    for i in range(n):
        assert lhs[i] == f0[i] * f1[i]


def test_perm_vs_tensor_examples():
    ab = abelian_ring(5, 2)
    orb = ob.coadjoint_orbits(ab).orbits[3]
    _, equal = ob.perm_vs_tensor(ab, orb)
    assert equal
    h3 = heisenberg_ring(3)
    for orb in ob.coadjoint_orbits(h3).orbits:
        _, equal = ob.perm_vs_tensor(h3, orb)
        assert equal  # class 2: property (7) holds
    # class 4 witness: fails on the generic orbit
    w4 = witness_ring(5, 4)
    lam = np.zeros(5, dtype=np.int64)
    lam[4] = 1
    orb = ob.coadjoint_orbits(w4).orbit_of_index(w4.element_index(lam))
    _, equal = ob.perm_vs_tensor(w4, orb)
    assert not equal


def test_module_property_examples(monkeypatch):
    h5 = heisenberg_ring(5)
    for orb in ob.coadjoint_orbits(h5).orbits:
        assert ob.module_property_check(h5, orb)
    ab = abelian_ring(5, 2)
    assert ob.module_property_check(ab, ob.coadjoint_orbits(ab).orbits[1])
    w3 = witness_ring(5, 3)
    lam = np.zeros(4, dtype=np.int64)
    lam[3] = 1
    orb = ob.coadjoint_orbits(w3).orbit_of_index(w3.element_index(lam))
    assert not ob.module_property_check(w3, orb)
    monkeypatch.setattr(ob, "MODULE_CHECK_BUDGET", 5)
    with pytest.raises(ValueError, match="exceeds the exhaustive-check budget"):
        ob.module_property_check(w3, orb)


def test_psi_choice_does_not_change_the_table_as_a_set():
    for ring in (heisenberg_ring(5), appendix_h2_ring(5)):
        t1, _ = ob.orbit_method_table(ring, psi_k=1)
        t2, _ = ob.orbit_method_table(ring, psi_k=2)
        assert t1.equals_as_set(t2)
        assert t2.verify()


def test_class_ge_p_rejected():
    w4 = witness_ring(3, 4)  # class 4 >= p = 3
    with pytest.raises(ValueError):
        ob.coadjoint_orbits(w4)


def _verify_phi_per_row(ring, table, orbits, psi_k=1):
    """Phi(e_Omega) = 1_Omega checked one row at a time: a product table of
    the row against zeta_p^r and one contraction with the residue counts."""
    p, n = ring.p, ring.order
    cd = table.class_data
    t = cd.num_classes
    X = ring.all_elements()
    R = (psi_k * (X @ X.T)) % p
    neg_class = cd.class_of[linalg.encode_vectors((-X) % p, p)]
    flat = neg_class[None, :] * p + R + np.arange(n)[:, None] * t * p
    counts = np.bincount(flat.ravel(), minlength=n * t * p).reshape(n, t * p)
    zetas = [Cyclotomic.zeta(p, r) for r in range(p)]
    for row, orb in zip(table.rows, orbits):
        P, M, den = product_table(row.values, zetas)
        got = lincomb(counts * int(row.degree.rational_value()), P.reshape(t * p, -1))
        target = np.zeros(got.shape, dtype=object)
        target[orb.indices, 0] = n * den
        if not (got == target).all():
            return False
    return True


def _rows(table, rows):
    return SimpleNamespace(class_data=table.class_data, rows=rows)


def test_phi_idempotents_count_in_bounded_blocks():
    # the residue counts are made in blocks of dual points, so on the
    # class-4 witness (n = 5^5) the check of the sampled rows peaks far
    # below the two n x n int64 arrays (74.5 MiB each) of a whole-space count
    import tracemalloc

    ring = witness_ring(5, 4)
    table, orbits = ob.orbit_method_table(ring)
    step = max(1, len(table.rows) // 6)
    tracemalloc.start()
    try:
        assert ob.verify_phi_idempotents(ring, _rows(table, table.rows[::step]), orbits[::step])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_phi_transform_counts_in_bounded_blocks():
    # Phi keys each x of the support by its position in blocks of dual
    # points, so on the class-4 witness (n = 5^5) it holds no n x n array
    import tracemalloc

    ring = witness_ring(5, 4)
    n = ring.order
    mu = [int(v) for v in np.random.default_rng(4).integers(-3, 4, n)]
    tracemalloc.start()
    try:
        F = ob.phi_transform(ring, mu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert sum(F[1:], F[0]) == mu[0] * n


@pytest.mark.parametrize("per_block", [None, 7])
def test_phi_idempotents_fail_on_one_late_block(monkeypatch, per_block):
    # the check compares one block of dual points at a time, so a fault
    # confined to the last block must fail it: the row whose orbit holds
    # the last dual point, an orbit in late blocks only, gets its orbit
    # without that point, for the whole table and for a sample of rows
    ring = appendix_h2_ring(5)
    n = ring.order
    if per_block:
        monkeypatch.setattr(ob, "PHI_BLOCK", per_block * n)
    block = max(1, ob.PHI_BLOCK // n)
    table, orbits = ob.orbit_method_table(ring)
    r = next(i for i, orb in enumerate(orbits) if n - 1 in orb.indices)
    pts = np.sort(orbits[r].indices)
    assert pts[0] >= 4 * block
    bad = list(orbits)
    bad[r] = SimpleNamespace(indices=pts[:-1])
    for rows in (range(len(orbits)), sorted({0, len(orbits) // 2, r})):
        tab = _rows(table, [table.rows[i] for i in rows])
        assert ob.verify_phi_idempotents(ring, tab, [orbits[i] for i in rows])
        assert not ob.verify_phi_idempotents(ring, tab, [bad[i] for i in rows])


@pytest.mark.parametrize("ring", [
    heisenberg_ring(3), heisenberg_ring(5), fam.fake_heisenberg(3, 2),
    fam.ul_lie_scheme(3, 5).at_level(1), appendix_h2_ring(5), witness_ring(5, 3),
], ids=["heisenberg F3", "heisenberg F5", "fake heisenberg q=9", "UL3(F5)",
        "appendix H.2", "class-3 witness"])
def test_phi_idempotents_match_per_row_check(ring):
    psi_ks = (1, 2) if ring.order == 125 else (1,)
    for psi_k in psi_ks:
        table, orbits = ob.orbit_method_table(ring, psi_k=psi_k)
        rows = table.rows
        sample = slice(1, None, max(1, len(rows) // 6))
        swapped = orbits[:1] + orbits[-1:] + orbits[2:-1] + orbits[1:2]
        k = len(rows) // 2
        perturbed = list(rows)
        bumped = list(rows[k].values)
        bumped[-1] = bumped[-1] + 1
        perturbed[k] = ClassFunction(table.class_data, tuple(bumped))
        cases = [
            (table, orbits, True),
            (_rows(table, rows[sample]), orbits[sample], True),
            (_rows(table, rows), swapped, False),
            (_rows(table, perturbed), orbits, False),
        ]
        for tab, orbs, holds in cases:
            assert _verify_phi_per_row(ring, tab, orbs, psi_k) is holds
            assert ob.verify_phi_idempotents(ring, tab, orbs, psi_k) is holds


def _orbit_reference(ring, indices):
    """An orbit's attributes as the per-orbit constructor computed them."""
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    m2 = round(math.log(len(idx), ring.p))
    assert ring.p**m2 == len(idx) and m2 % 2 == 0
    return idx, int(idx[0]), len(idx), m2 // 2, ring.element_from_index(int(idx[0]))


def test_orbit_set_arrays_match_per_orbit_reference():
    rings = [heisenberg_ring(3), appendix_h2_ring(5), witness_ring(5, 4), abelian_ring(3, 2)]
    rings += [fam.fake_heisenberg_scheme(3, 1).at_level(3), fam.ul_lie_scheme(4, 5).at_level(1)]
    for ring in rings:
        oset = ob.coadjoint_orbits(ring)
        labels = oset.labels
        assert len(oset) == len(oset.orbits) == labels.max() + 1
        for t, orb in enumerate(oset.orbits):
            idx, base, size, half, point = _orbit_reference(ring, np.flatnonzero(labels == t))
            assert (orb.indices == idx).all() and orb.base_index == base == oset.base_indices[t]
            assert orb.size == size == oset.sizes[t]
            assert orb.half_log == half == oset.half_logs[t]
            assert (orb.base_point == point).all() and (oset.base_points[t] == point).all()
            assert (orb.points() == linalg.decode_indices(idx, ring.dim, ring.p)).all()


def test_orbit_size_not_an_even_power_rejected():
    # sizes 1, 3, 9, 3 ... in id order: the first bad size is reported
    labels = np.array([0, 1, 1, 1] + [2] * 9 + [3] * 14)
    with pytest.raises(ValueError, match="orbit size 3 is not an even power of 3"):
        ob.OrbitSet(heisenberg_ring(3), labels)


def _class_reps_reference(labels):
    """The first index of each label, by a scan in index order."""
    reps = np.full(int(labels.max()) + 1, -1, dtype=np.int64)
    for idx, lab in enumerate(labels.tolist()):
        if reps[lab] < 0:
            reps[lab] = idx
    return reps


def test_class_reps_match_the_index_scan():
    rings = [heisenberg_ring(3), heisenberg_ring(5), appendix_h2_ring(5), witness_ring(5, 4)]
    rings += [fam.ul_lie_scheme(3, 5).at_level(1), fam.ul_lie_scheme(4, 5).at_level(1)]
    rings += [fam.fake_heisenberg_scheme(3, 2).at_level(1), fam.fake_heisenberg_scheme(5, 1).at_level(3)]
    for ring in rings:
        cd = ob.conjugacy_class_data(ring)
        assert cd.reps.tolist() == _class_reps_reference(cd.class_of).tolist()


@settings(max_examples=25)
@given(p=st.sampled_from([5, 7]), seed=st.integers(0, 2**16))
def test_stabilizer_dim_from_orbit_size(p, seed):
    # orbit-stabilizer under Lazard: dim g^f = dim g - 2 half_log, which the
    # orbits CLI prints in place of a kernel per orbit
    from nilorbit.battery import random_class_le3_rings

    (ring,) = random_class_le3_rings(p, 1, seed=seed, max_dim=5)
    oset = ob.coadjoint_orbits(ring)
    assert [o.stabilizer.dim for o in oset.orbits] == (ring.dim - 2 * oset.half_logs).tolist()
