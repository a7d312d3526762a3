import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nilorbit import kernels, linalg
from nilorbit.battery import witness_ring
from nilorbit.liering import heisenberg_ring


def test_heisenberg_f3_orbit_count():
    h3 = heisenberg_ring(3)
    labels = kernels.orbit_partition(h3.coadjoint_generators(), 3)
    assert labels.shape == (27,)
    assert labels.max() == 10  # 11 orbits


def test_labels_are_seed_ordered():
    w = witness_ring(5, 3)
    labels = kernels.orbit_partition(w.coadjoint_generators(), 5)
    # orbit ids appear in increasing order of their first (= minimal) point
    firsts = []
    seen = set()
    for idx, lab in enumerate(labels.tolist()):
        if lab not in seen:
            seen.add(lab)
            firsts.append(lab)
    assert firsts == sorted(firsts)


def _reference_partition(mats, p):
    """Orbit labels by a plain BFS over Python ints, seeds in index order."""
    d = len(mats[0])
    n = p**d

    def image(M, i):
        x = [(i // p**j) % p for j in range(d)]
        return sum((sum(M[r][c] * x[c] for c in range(d)) % p) * p**r for r in range(d))

    labels = [-1] * n
    next_id = 0
    for seed in range(n):
        if labels[seed] >= 0:
            continue
        labels[seed] = next_id
        stack = [seed]
        while stack:
            cur = stack.pop()
            for M in mats:
                img = image(M, cur)
                if labels[img] < 0:
                    labels[img] = next_id
                    stack.append(img)
        next_id += 1
    return labels


# dimensions up to a few hundred points, so the reference stays quick
_MAX_DIM = {2: 8, 3: 6, 5: 4, 7: 3}


@st.composite
def generator_sets(draw):
    """(mats, p): 1-5 unitriangular or random invertible matrices mod p.

    An invertible matrix is drawn as P L D U: a permutation, unit lower and
    unit upper triangular factors, and a diagonal of units.
    """
    p = draw(st.sampled_from(sorted(_MAX_DIM)))
    d = draw(st.integers(1, _MAX_DIM[p]))
    unitriangular = draw(st.booleans())
    entries = st.integers(0, p - 1)
    units = st.integers(1, p - 1)

    def triangular():
        T = np.eye(d, dtype=np.int64)
        for i in range(d):
            for j in range(i + 1, d):
                T[i, j] = draw(entries)
        return T

    mats = []
    for _ in range(draw(st.integers(1, 5))):
        U = triangular()
        if not unitriangular:
            perm = draw(st.permutations(range(d)))
            D = np.diag([draw(units) for _ in range(d)])
            U = np.eye(d, dtype=np.int64)[list(perm)] @ triangular().T @ D @ U
        mats.append(U % p)
    return np.array(mats, dtype=np.int64), p


@settings(max_examples=80)
@given(generator_sets())
def test_kernel_matches_reference_bfs(case):
    mats, p = case
    labels = kernels.orbit_partition(mats, p)
    assert labels.tolist() == _reference_partition(mats.tolist(), p)


def test_one_dimensional_large_prime():
    # 3 generates F_65537^*, so the orbits are {0} and the nonzero residues
    labels = kernels.orbit_partition(np.array([[[3]]]), 65537)
    assert labels[0] == 0 and (labels[1:] == 1).all()


def test_singular_generator_rejected():
    mats = np.array([np.eye(3, dtype=np.int64), np.diag([1, 1, 0])])
    with pytest.raises(ValueError, match="invertible"):
        kernels.orbit_partition(mats, 3)


def test_budget_guard():
    mats = np.eye(26, dtype=np.int64).reshape(1, 26, 26)
    with pytest.raises(ValueError):
        kernels.orbit_partition(mats, 3)


def test_hashset_budget_guard(monkeypatch):
    # the orbit of (0, 0, 1) in the Heisenberg dual over F_5 has 25 points
    gens = heisenberg_ring(5).coadjoint_generators()
    seed = np.array([0, 0, 1])
    assert len(kernels.single_orbit(gens, 5, seed)) == 25
    monkeypatch.setattr(kernels, "HASHSET_BUDGET", 24)
    with pytest.raises(ValueError, match="orbit exceeds the hash-set budget 24"):
        kernels.single_orbit(gens, 5, seed)
    # coadjoint_orbit_of takes the hash-set path beyond the dense budget
    from nilorbit import orbits as ob

    monkeypatch.setattr(kernels, "DENSE_BUDGET", 5**3 - 1)
    with pytest.raises(ValueError, match="hash-set budget"):
        ob.coadjoint_orbit_of(heisenberg_ring(5), seed)
    monkeypatch.setattr(kernels, "HASHSET_BUDGET", 25)
    assert len(ob.coadjoint_orbit_of(heisenberg_ring(5), seed)) == 25


def test_dense_budget_is_inclusive(monkeypatch):
    mats = np.eye(3, dtype=np.int64).reshape(1, 3, 3)
    monkeypatch.setattr(kernels, "DENSE_BUDGET", 27)
    assert len(kernels.orbit_partition(mats, 3)) == 27
    monkeypatch.setattr(kernels, "DENSE_BUDGET", 26)
    with pytest.raises(ValueError, match="over 3\\^3 points exceeds the dense budget"):
        kernels.orbit_partition(mats, 3)


def test_image_tables_are_freed_before_the_ids():
    # two generators on 5^8 points: propagation holds 2 int32 tables and
    # one int32 label array (12 bytes a point), the renumbering int32
    # labels, bool roots and two int64 id arrays (21 bytes a point); a
    # table still alive there would add 4 bytes a point
    import tracemalloc

    p, d = 5, 8
    rng = np.random.default_rng(1)
    mats = np.eye(d, dtype=np.int64) + np.triu(rng.integers(0, p, (2, d, d)), 1)
    tracemalloc.start()
    try:
        labels = kernels.orbit_partition(mats, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23 * p**d
    assert labels[0] == 0 and labels.max() > 0


def test_orbit_partition_peak_is_the_tables_and_one_label_array():
    # the k = 6 coadjoint generators of the 3^12 packets level: propagation
    # holds k int32 tables and the int32 labels (4k + 4 bytes a point) plus
    # cache-sized block buffers; a full-size temporary would add 4 or more
    import tracemalloc

    from nilorbit.families import fake_heisenberg_scheme

    mats = fake_heisenberg_scheme(3, 1).at_level(6).coadjoint_generators()
    k, n = len(mats), 3**12
    assert k == 6
    tracemalloc.start()
    try:
        labels = kernels.orbit_partition(mats, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * k + 8) * n
    assert labels.shape == (n,) and labels[0] == 0


@pytest.mark.parametrize("bad", [-1, 4])
def test_table_entry_out_of_range_is_refused(bad):
    with pytest.raises(ValueError, match="table 0"):
        kernels.orbit_labels([np.array([1, 0, bad, 2])], 4)


def test_malformed_tables_are_refused():
    ok = np.array([1, 0, 3, 2])
    for bad in (ok[:3], ok.reshape(2, 2), ok.astype(np.float64)):
        with pytest.raises(ValueError, match="table 1"):
            kernels.orbit_labels([ok, bad], 4)


# -- block edges ----------------------------------------------------------------


def _reference_labels(images, n):
    """Unblocked min-label propagation: each step gathers the whole label
    array, and a pass is repeated until it changes nothing."""
    lab = np.arange(n, dtype=np.int32)
    while True:
        prev = lab
        lab = lab.copy()
        for img in images:
            np.minimum(lab, lab[img], out=lab)
        lab = lab[lab]
        if np.array_equal(lab, prev):
            break
    roots = lab == np.arange(n, dtype=np.int32)
    ids = np.cumsum(roots, dtype=np.int64) - 1
    return ids[lab]


_B = kernels.BLOCK


@settings(max_examples=8, deadline=None)
@given(
    n=st.sampled_from([_B - 1, _B, _B + 1, 3 * _B + 17]),
    tables=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 7, 1000])),
        min_size=1,
        max_size=3,
    ),
)
def test_labels_match_unblocked_propagation_at_block_edges(n, tables):
    # each table is a permutation of n points whose cycles have one drawn
    # length (the last one shorter), on a drawn shuffle of the points
    images = []
    for seed, cycle in tables:
        order = np.random.default_rng(seed).permutation(n)
        nxt = np.arange(1, n + 1)
        nxt[cycle - 1 :: cycle] -= cycle
        nxt[-1] = n - 1 - (n - 1) % cycle
        img = np.empty(n, dtype=np.int32)
        img[order] = order[nxt]
        images.append(img)
    assert (kernels.orbit_labels(images, n) == _reference_labels(images, n)).all()


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_partition_over_several_blocks_matches_unblocked_propagation(data):
    p, d = 3, 11  # 177,147 points, three table blocks and propagation blocks
    entries = st.integers(0, p - 1)
    mats = []
    for _ in range(data.draw(st.integers(1, 3))):
        T = np.eye(d, dtype=np.int64)
        for i, j in zip(*np.triu_indices(d, 1)):
            T[i, j] = data.draw(entries)
        mats.append(T)
    mats = np.array(mats)
    tables = kernels._image_tables(mats, p)
    points = linalg.all_vectors(d, p)  # row i is point(i)
    radix = p ** np.arange(d, dtype=np.int64)
    for M, img in zip(mats, tables):
        assert (img == (points @ M.T) % p @ radix).all()
    labels = kernels.orbit_partition(mats, p)
    assert (labels == _reference_labels(tables, p**d)).all()


def test_single_orbit_hashset_matches_dense():
    from nilorbit import orbits as ob
    from nilorbit.battery import appendix_h2_ring

    h2 = appendix_h2_ring(5)
    lam = np.array([0, 0, 0, 1], dtype=np.int64)
    dense = ob.coadjoint_orbit_of(h2, lam)
    hashed = kernels.single_orbit(h2.coadjoint_generators(), 5, lam)
    assert (dense == hashed).all()
    # beyond the dense budget: a level-8 fake Heisenberg orbit (5^16 dual)
    from nilorbit.families import fake_heisenberg_scheme

    big = fake_heisenberg_scheme(5, 1).at_level(8)
    seed = np.zeros(big.dim, dtype=np.int64)
    seed[big.dim // 2] = 1  # a (0, v) functional with v != 0
    orbit = ob.coadjoint_orbit_of(big, seed)
    assert len(orbit) > 1 and len(orbit) % 5 == 0
    # closed under every generator
    for i in range(big.dim):
        M = big.coadjoint_matrix(big.basis_vector(i))
        imgs = (orbit @ M.T) % 5
        keys = {row.tobytes() for row in orbit}
        assert all(row.tobytes() in keys for row in imgs)


# -- the generating set of Exp(g) ---------------------------------------------


def _all_basis_generators(ring):
    """The adjoint and coadjoint matrices of every basis vector: the
    generators before the kernel acted with a complement of [g,g] only."""
    basis = [ring.basis_vector(i) for i in range(ring.dim)]
    return (
        np.array([ring.adjoint_matrix(x) for x in basis]),
        np.array([ring.coadjoint_matrix(x) for x in basis]),
    )


def _assert_generating_set_matches_all_basis(ring):
    k = ring.lower_central_series()[1].dim
    adj, coadj = ring.adjoint_generators(), ring.coadjoint_generators()
    assert len(adj) == len(coadj) == ring.dim - k
    ref_adj, ref_coadj = _all_basis_generators(ring)
    p = ring.p
    assert (kernels.orbit_partition(adj, p) == kernels.orbit_partition(ref_adj, p)).all()
    assert (kernels.orbit_partition(coadj, p) == kernels.orbit_partition(ref_coadj, p)).all()


@settings(max_examples=25)
@given(p=st.sampled_from([5, 7]), seed=st.integers(0, 2**16))
def test_generating_set_partitions_like_all_basis_on_generated_rings(p, seed):
    from nilorbit.battery import random_class_le3_rings

    (ring,) = random_class_le3_rings(p, 1, seed=seed, max_dim=5)
    _assert_generating_set_matches_all_basis(ring)


def test_generating_set_partitions_like_all_basis_on_families():
    from nilorbit.families import abelian_scheme, fake_heisenberg_scheme, ul_lie_scheme

    rings = [heisenberg_ring(3), witness_ring(5, 3), witness_ring(7, 4)]
    rings += [ul_lie_scheme(3, p).at_level(n) for p, n in [(3, 1), (3, 2), (3, 3), (5, 1), (7, 1)]]
    rings += [ul_lie_scheme(4, p).at_level(1) for p in (5, 7)]
    rings += [fake_heisenberg_scheme(p, 1).at_level(n) for p in (3, 5) for n in (1, 2, 3, 4)]
    rings += [fake_heisenberg_scheme(3, 2).at_level(n) for n in (1, 2)]
    rings += [abelian_scheme(3, 1, 2).at_level(n) for n in (1, 2, 3, 4)]
    rings += [abelian_scheme(5, 2, 1).at_level(1)]
    for ring in rings:
        _assert_generating_set_matches_all_basis(ring)
    # fake Heisenberg level 6 (the packets tower): half the basis lies in [g,g]
    big = fake_heisenberg_scheme(3, 1).at_level(6)
    assert big.dim == 12 and len(big.coadjoint_generators()) == 6
