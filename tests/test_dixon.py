import ast
import collections
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nilorbit

from nilorbit import dixon, linalg, orbits as ob
from nilorbit.battery import appendix_h2_ring, random_class_le3_rings
from nilorbit.chartable import CharacterTable, ClassFunction
from nilorbit.cyclo import Cyclotomic
from nilorbit.dixon import (
    _charpoly_mod,
    _eigen_split,
    _eigenvalues,
    _mulmod,
    _primitive_root,
    _roots_mod,
    _split_by,
    _sqrt_mod,
    class_matrix,
    dixon_prime,
    dixon_table,
)
from nilorbit.families import fake_heisenberg, usp4, usp4_via_sp
from nilorbit.groups import FiniteGroup, build_group
from nilorbit.liering import heisenberg_ring

from helpers import ul_group


def test_dixon_prime():
    assert dixon_prime(27, 3) % 3 == 1
    assert dixon_prime(27, 3) > 27
    assert dixon_prime(256, 4) % 4 == 1


def test_charpoly_against_eigen_structure():
    rng = np.random.default_rng(7)
    l = 97
    for n in (2, 4, 7):
        A = rng.integers(0, l, (n, n)).astype(np.int64)
        cp = _charpoly_mod(A, l)
        assert len(cp) == n + 1 and cp[-1] == 1
        # p(x) vanishes where det(xI - A) vanishes: probe via matrix rank
        for x in range(0, l, 11):
            val = 0
            for i, c in enumerate(cp):
                val = (val + int(c) * pow(x, i, l)) % l
            M = (x * np.eye(n, dtype=np.int64) - A) % l
            singular = linalg.rank(M, l) < n
            assert (val == 0) == singular


def test_c3_table():
    G3 = build_group(lambda i, j: (i + j) % 3, 3, gens=[1], inv=lambda i: (-i) % 3)
    t = dixon_table(G3)
    z = Cyclotomic.zeta(3)
    expected = {
        (Cyclotomic.rational(1),) * 3,
        (Cyclotomic.rational(1), z, z * z),
        (Cyclotomic.rational(1), z * z, z),
    }
    got = {r.values for r in t.rows}
    assert got == expected
    assert t.verify()


def test_ul3_f3_degrees():
    t = dixon_table(ul_group(3, 3))
    assert t.degree_multiset() == {1: 9, 3: 2}
    assert t.verify()


def test_oracle_matches_orbit_method():
    for ring in (heisenberg_ring(3), heisenberg_ring(5), fake_heisenberg(3, 2)):
        G = ob.lazard_group(ring)
        orbit_table, _ = ob.orbit_method_table(ring)
        oracle = dixon_table(G)
        assert orbit_table.equals_as_set(oracle)


def test_budget_guard():
    G = ob.lazard_group(appendix_h2_ring(5))
    with pytest.raises(ValueError):
        dixon_table(G, max_order=100)


def test_budget_is_checked_before_the_law_is_called():
    # an over-budget group is refused on its order alone: no class is computed
    def law(I, J):
        raise AssertionError("the group law was called")

    G = FiniteGroup(dixon.DEFAULT_MAX_ORDER + 1, law, inv_bulk=law)
    with pytest.raises(ValueError, match="group order 20001 exceeds the oracle budget 20000"):
        dixon_table(G)
    with pytest.raises(ValueError, match="group order 81 exceeds the oracle budget 80"):
        dixon.check_order(81, 80)
    dixon.check_order(80, 80)


def _package_imports(module):
    """nilorbit modules that `module` imports anywhere in its source,
    function-local imports included."""
    tree = ast.parse((Path(nilorbit.__file__).parent / (module + ".py")).read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nilorbit"):
            out |= {node.module.partition(".")[2] or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            out |= {a.name.partition(".")[2] for a in node.names if a.name.startswith("nilorbit.")}
    return out


def test_oracle_does_not_import_the_orbit_method():
    # the oracle is an independent judge: nothing it imports, directly or
    # through other modules, may reach the orbit-method path
    seen, todo = set(), ["dixon"]
    while todo:
        mod = todo.pop()
        if mod not in seen:
            seen.add(mod)
            todo.extend(_package_imports(mod))
    assert not seen & {"orbits", "polar", "heisenberg"}


# -- references: one group-law call per class rep, one row at a time -----------


def _reference_class_matrix(G, cd, j):
    t = cd.num_classes
    members = np.nonzero(cd.class_of == j)[0].astype(np.int64)
    inv_members = G.inv_bulk(members)
    M = np.zeros((t, t), dtype=np.int64)
    for k, z in enumerate(cd.reps):
        ys = G.mult_bulk(inv_members, np.full(len(members), int(z), dtype=np.int64))
        M[:, k] = np.bincount(cd.class_of[ys], minlength=t)
    return M


def _reference_eigen_split(S, N, l):
    """Eigen-row-spaces of v -> v N on S through the characteristic
    polynomial, whatever the action, each re-reduced to RREF."""
    k = S.shape[0]
    pivots = [int(np.nonzero(row)[0][0]) for row in S]
    A = ((S @ N) % l)[:, pivots]
    out = []
    for lam in _roots_mod(_charpoly_mod(A, l), l):
        K = linalg.kernel((A.T - lam * np.eye(k, dtype=np.int64)) % l, l)
        if K.shape[0]:
            out.append(linalg.rref((K @ S) % l, l)[0])
    return out


def _reference_dixon_table(G):
    """Every class matrix in full, every space split through its
    characteristic polynomial, then per row a scalar normalization and an
    O(t e^2) loop for the multiplicities."""
    cd = G.conjugacy_classes()
    n, t, e = cd.n, cd.num_classes, G.exponent()
    l = dixon_prime(n, e)
    pm = G.power_classes(e)
    spaces = [np.eye(t, dtype=np.int64)]
    for j in sorted(range(t), key=lambda j: (int(cd.sizes[j]), int(cd.reps[j]))):
        if all(S.shape[0] == 1 for S in spaces):
            break
        if j == cd.identity_class:
            continue
        N = _reference_class_matrix(G, cd, j) % l
        new_spaces = []
        for S in spaces:
            if S.shape[0] == 1:
                new_spaces.append(S)
            else:
                new_spaces.extend(_reference_eigen_split(S, N, l))
        spaces = new_spaces
    theta = pow(_primitive_root(l), (l - 1) // e, l)
    theta_pows = [pow(theta, s, l) for s in range(e)]
    inv_e = pow(e, -1, l)
    rows = []
    for S in spaces:
        v = S[0] % l
        v = (v * pow(int(v[cd.identity_class]), -1, l)) % l
        s_norm = 0
        for k in range(t):
            s_norm = (s_norm + int(cd.sizes[k]) * int(v[k]) * int(v[cd.inv_class[k]])) % l
        deg_sq = (n * pow(s_norm, -1, l)) % l
        deg = _sqrt_mod(deg_sq, l)
        if deg > math.isqrt(n):
            deg = l - deg
        chi_mod = [(deg * int(v[k])) % l for k in range(t)]
        counts = []
        for k in range(t):
            row = []
            for s in range(e):
                acc = 0
                for u in range(e):
                    acc = (acc + chi_mod[pm[k, u]] * theta_pows[(-s * u) % e]) % l
                row.append((acc * inv_e) % l)
            assert sum(row) == deg
            counts.append(row)
        rows.append(ClassFunction(cd, tuple(Cyclotomic.from_root_counts(e, counts))))
    return CharacterTable(cd, rows)


def _differential_groups():
    yield ul_group(3, 3)
    yield ob.lazard_group(heisenberg_ring(5))
    yield usp4_via_sp(3)
    for ring in random_class_le3_rings(5, 3, seed=1, max_dim=4):  # classes 1, 2, 3
        yield ob.lazard_group(ring)


def test_class_matrix_matches_per_rep_reference():
    rng = np.random.default_rng(3)
    for G in _differential_groups():
        cd = G.conjugacy_classes()
        t = cd.num_classes
        for j in range(t):
            want = _reference_class_matrix(G, cd, j)
            assert (class_matrix(G, cd, j) == want).all()
            cols = rng.choice(t, int(rng.integers(1, t + 1)), replace=False)
            assert (class_matrix(G, cd, j, cols) == want[:, cols]).all()


def test_class_matrix_is_the_weighted_sum_of_its_classes():
    # a batch action is sum_j c_j N_j mod l; one class with coefficient 1
    # is N_j itself, unreduced
    rng = np.random.default_rng(4)
    for G in _differential_groups():
        cd = G.conjugacy_classes()
        t = cd.num_classes
        l = dixon_prime(cd.n, G.exponent())
        ref = [_reference_class_matrix(G, cd, j) for j in range(t)]
        for _ in range(4):
            js = rng.choice(t, int(rng.integers(1, min(t, dixon.BATCH) + 1)), replace=False)
            c = rng.integers(1, l, len(js))
            cols = rng.choice(t, int(rng.integers(1, t + 1)), replace=False)
            want = sum(int(cj) * ref[j][:, cols] for j, cj in zip(js, c)) % l
            assert (class_matrix(G, cd, js.tolist(), cols, c) % l == want).all()
            j = int(js[0])
            assert (class_matrix(G, cd, [j], cols, np.array([1])) == ref[j][:, cols]).all()


def test_dixon_table_matches_reference():
    for G in _differential_groups():
        assert dixon_table(G).to_csv() == _reference_dixon_table(G).to_csv()


def test_dixon_table_matches_reference_on_usp4_f8():
    # a non-Lazard black-box group, at p = 2
    G = usp4(8, spot_check=False)
    assert dixon_table(G).to_csv() == _reference_dixon_table(G).to_csv()


def _cyclic(n):
    return build_group(lambda i, j: (i + j) % n, n, inv=lambda i: (-i) % n)


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return build_group(lambda i, j: index[tuple(perms[i][x] for x in perms[j])], 6)


def test_dixon_table_does_not_depend_on_the_draws():
    # on tiny groups l <= 13, so a batch combination often misses a split;
    # with zero class coefficients every batch action is scalar and the
    # one-class loop does all the work
    real = dixon._draws

    def no_class_coefficients(l, shape, key):
        return np.zeros(shape, dtype=np.int64) if key.startswith("classes") else real(l, shape, key)

    groups = [_cyclic(n) for n in range(1, 10)] + [_s3(), *_differential_groups()]
    for G in groups:
        want = _reference_dixon_table(G).to_csv()
        assert dixon_table(G).to_csv() == want
        with mock.patch.object(dixon, "DRAW_SEED", 2):
            assert dixon_table(G).to_csv() == want
        with mock.patch.object(dixon, "_draws", no_class_coefficients):
            assert dixon_table(G).to_csv() == want


def test_the_oracle_never_imports_numpy_random():
    # the draws come from the standard library: importing numpy.random
    # would cost every run its import time and memory
    code = (
        "import sys, nilorbit.cli\n"
        "from nilorbit import dixon, groups\n"
        "assert 'numpy.random' not in sys.modules\n"
        "G = groups.build_group(lambda i, j: (i + j) % 6, 6, spot_check=False)\n"
        "dixon.dixon_table(G)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nilorbit.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def _reference_multiplicity(poly, lam, l):
    """How many times x - lam divides poly, by synthetic division."""
    poly, d = [int(c) for c in poly], 0
    while True:
        quot, acc = [], 0
        for c in reversed(poly):
            acc = (acc * lam + c) % l
            quot.append(acc)
        if quot[-1]:
            return d
        poly, d = quot[-2::-1], d + 1


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_eigenvalues_match_the_scan_and_the_multiplicities(data):
    # roots and multiplicities from the squarefree factorization against the
    # l-point scan of the Hessenberg characteristic polynomial, on
    # diagonalizable actions with repeated roots (at l = 5 up to
    # multiplicity 9, so some are divisible by l) and on any action when
    # the degree is below l
    l = data.draw(st.sampled_from([5, 101, 1000003]))
    k = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if l > k and data.draw(st.booleans()):
        A = rng.integers(0, l, (k, k))
        diag = None
    else:
        values = data.draw(
            st.lists(st.integers(0, l - 1), min_size=1, max_size=min(k, l), unique=True)
        )
        more = k - len(values)
        diag = values + data.draw(st.lists(st.sampled_from(values), min_size=more, max_size=more))
        A = _conjugated(rng, [[[v]] for v in diag], l)[1]
    chi = _charpoly_mod(A, l)
    roots, mults = _eigenvalues(chi, l)
    want = _roots_mod(chi, l)
    assert roots.tolist() == want
    assert mults.tolist() == [_reference_multiplicity(chi, r, l) for r in want]
    if diag is not None:
        assert mults.tolist() == [diag.count(r) for r in want]


@pytest.mark.parametrize("diag", [[3] * 5, [1] * 5 + [2] * 2, [2] * 10, [0] * 6 + [4] * 3 + [1]])
def test_eigenvalues_at_multiplicities_of_l_and_above(diag):
    # at l = 5: chi' = 0 for (x - 3)^5, and a multiplicity that l divides
    # leaves its root out of the squarefree part
    l = 5
    A = _conjugated(np.random.default_rng(len(diag)), [[[v]] for v in diag], l)[1]
    roots, mults = _eigenvalues(_charpoly_mod(A, l), l)
    assert roots.tolist() == sorted(set(diag))
    assert mults.tolist() == [diag.count(r) for r in sorted(set(diag))]


def test_eigen_split_gives_up_after_a_bounded_number_of_draws():
    # draws that never project onto an eigenspace end in ArithmeticError
    # after _ATTEMPTS draws, not in an endless retry
    rng = np.random.default_rng(6)
    l = 101
    _, A = _conjugated(rng, [[[4]], [[4]], [[9]]], l)
    draws = []

    def zeros(l, shape, key):
        draws.append(key)
        return np.zeros(shape, dtype=np.int64)

    with mock.patch.object(dixon, "_draws", zeros):
        with pytest.raises(ArithmeticError, match="no full eigenspace"):
            _eigen_split(np.eye(3, dtype=np.int64), A, l)
    assert len(draws) == dixon._ATTEMPTS


def _pivots(S):
    return (S != 0).argmax(axis=1)


def test_eigen_split_keeps_scalar_action_spaces():
    # the batched test hands back every space with a scalar action as the
    # same object and splits only the others, in order
    l = 31
    S = np.array([[1, 0, 4, 0], [0, 1, 7, 0]], dtype=np.int64)
    T = np.array([[1, 0, 0, 2], [0, 0, 1, 5]], dtype=np.int64)
    U = np.array([[0, 1, 0, 0]], dtype=np.int64)
    N = np.diag([5, 5, 9, 5]).astype(np.int64)  # scalar on S only
    out = _split_by([S, T, U], N, [_pivots(X) for X in (S, T, U)], l)
    assert out[0] is S and out[-1] is U
    assert [x.tolist() for x in out[1:-1]] == [[[1, 0, 0, 2]], [[0, 0, 1, 5]]]
    # on each eigenspace of N the action of N itself is scalar
    G = ul_group(3, 3)
    cd = G.conjugacy_classes()
    l = dixon_prime(cd.n, G.exponent())
    full = np.eye(cd.num_classes, dtype=np.int64)
    for j in range(cd.num_classes):
        N = class_matrix(G, cd, j) % l
        parts = _split_by([full], N, [np.arange(cd.num_classes)], l)
        assert sum(T.shape[0] for T in parts) == cd.num_classes
        again = _split_by(parts, N, [_pivots(T) for T in parts], l)
        assert len(again) == len(parts)
        assert all(a is T for a, T in zip(again, parts))


def _reference_charpoly_mod(A, l):
    """The characteristic polynomial through a Hessenberg form reached one
    row operation at a time, and the determinant recurrence."""
    H = A.copy() % l
    n = H.shape[0]
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if H[r, c] % l:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[[c + 1, piv]] = H[[piv, c + 1]]
            H[:, [c + 1, piv]] = H[:, [piv, c + 1]]
        inv = pow(int(H[c + 1, c]), -1, l)
        for r in range(c + 2, n):
            f = (int(H[r, c]) * inv) % l
            if f:
                H[r] = (H[r] - f * H[c + 1]) % l
                H[:, c + 1] = (H[:, c + 1] + f * H[:, r]) % l
    polys = [[1]]
    for k in range(1, n + 1):
        term = [0] + polys[k - 1]
        for i, c in enumerate(polys[k - 1]):
            term[i] -= int(H[k - 1, k - 1]) * c
        beta = 1
        for i in range(1, k):
            beta = beta * int(H[k - i, k - i - 1]) % l
            coef = int(H[k - 1 - i, k - 1]) * beta
            for a, c in enumerate(polys[k - 1 - i]):
                term[a] -= coef * c
        polys.append([c % l for c in term])
    return polys[n]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_charpoly_matches_row_at_a_time_hessenberg(data):
    l = data.draw(st.sampled_from([2, 3, 31, 65537, 1000000007]))
    k = data.draw(st.integers(1, 9))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # sparse entries reach the pivot swaps and the skipped columns
    A = rng.integers(0, l, (k, k)) * (rng.random((k, k)) < data.draw(st.floats(0.1, 1.0)))
    assert _charpoly_mod(A, l).tolist() == _reference_charpoly_mod(A, l)


def _conjugated(rng, blocks, l):
    """(P, A): A = P J P^-1 mod l for the block diagonal J of the blocks and
    a random invertible P."""
    k = sum(len(b) for b in blocks)
    J = np.zeros((k, k), dtype=np.int64)
    at = 0
    for b in blocks:
        J[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    while True:
        P = rng.integers(0, l, (k, k))
        if linalg.rank(P, l) == k:
            break
    return P, linalg.matmul(linalg.matmul(P, J, l), linalg.inverse(P, l), l)


def _rref_space(rng, k, t, l):
    """A random k-dimensional RREF row space of F_l^t."""
    while True:
        S = linalg.rref(rng.integers(0, l, (k, t)), l)[0]
        if len(S) == k:
            return S


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_eigen_split_matches_reference_on_diagonalizable_actions(data):
    # A = P D P^-1 with repeated eigenvalues on a random RREF space S; the
    # lambda-eigenrows of A are the rows of P^-1 at lambda.  Moduli on both
    # sides of the float64 bound k l^2 <= 2^53, with BLAS forced whenever the
    # bound allows it and with int64 forced throughout.
    l = data.draw(st.sampled_from([5, 101, 1000003, 1000000007]))
    blas_min = data.draw(st.sampled_from([0, 1 << 62]))
    k = data.draw(st.integers(2, 7))
    values = data.draw(st.lists(st.integers(0, l - 1), min_size=2, max_size=min(k, l), unique=True))
    repeats = k - len(values)
    diag = values + data.draw(st.lists(st.sampled_from(values), min_size=repeats, max_size=repeats))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    P, A = _conjugated(rng, [[[v]] for v in diag], l)
    S = _rref_space(rng, k, k + data.draw(st.integers(0, 4)), l)
    roots = sorted(values)
    want = [linalg.rref(linalg.inverse(P, l)[np.array(diag) == lam] @ S, l)[0] for lam in roots]
    with mock.patch.object(dixon, "_BLAS_MIN", blas_min):
        if l > 10**4:  # scanning F_l for the roots is out of reach
            with mock.patch.object(dixon, "_roots_mod", lambda poly, l: roots):
                got = _eigen_split(S, A, l)
        else:
            got = _eigen_split(S, A, l)
            E = np.zeros((S.shape[1], k), dtype=np.int64)
            E[_pivots(S), np.arange(k)] = 1  # S @ E = I, so S @ (E A S) = A S
            ref = _reference_eigen_split(S, linalg.matmul(E @ A, S, l), l)
            assert [x.tolist() for x in ref] == [x.tolist() for x in want]
    assert [x.tolist() for x in got] == [x.tolist() for x in want]


def test_eigen_split_refuses_a_jordan_block():
    rng = np.random.default_rng(5)
    l = 101
    S = np.eye(3, dtype=np.int64)
    for blocks in ([[[4, 1], [0, 4]], [[9]]], [[[4, 1, 0], [0, 4, 1], [0, 0, 4]]]):
        _, A = _conjugated(rng, blocks, l)
        with pytest.raises(ArithmeticError, match="non-diagonalizable"):
            _eigen_split(S, A, l)


@pytest.mark.parametrize("shape", [(), (7,)])
@pytest.mark.parametrize("inner", [1, 2, 3, 4])
def test_mulmod_is_exact_on_both_sides_of_the_float_bound(inner, shape):
    # at l = 67108859 < 2^26, inner * l^2 is under 2^53 for inner <= 2 only;
    # BLAS is forced wherever the bound allows it, over one block, over
    # blocks of a few whole matrices and over blocks of a few rows, with
    # short last blocks
    l = 67108859
    rng = np.random.default_rng(inner)
    A = rng.integers(l // 2, l, shape + (30, inner))
    B = rng.integers(l // 2, l, shape + (inner, 3))
    want = (A.astype(object) @ B.astype(object)) % l
    for block in (dixon.BLOCK, 100, 8):
        with mock.patch.object(dixon, "_BLAS_MIN", 0), mock.patch.object(dixon, "BLOCK", block):
            got = _mulmod(A, B, l)
        assert got.dtype == np.int64 and (got == want).all()


@settings(max_examples=25)
@given(seed=st.integers(0, 2**16))
def test_orbit_method_equals_oracle_on_generated_rings(seed):
    # class <= 3 < p, so the Lazard correspondence applies; order <= 5^4
    (ring,) = random_class_le3_rings(5, 1, seed=seed, max_dim=4)
    table, orbits = ob.orbit_method_table(ring)
    oracle = dixon_table(ob.lazard_group(ring))
    assert table.equals_as_set(oracle)
    assert sum(d * d for d in oracle.degrees) == ring.order
    for row, orbit in zip(table.rows, orbits):
        assert row.degree == Cyclotomic.rational(math.isqrt(orbit.size))
        assert math.isqrt(orbit.size) ** 2 == orbit.size
