import ast
from pathlib import Path

import numpy as np
import pytest

import nilorbit

from nilorbit import orbits as ob
from nilorbit.battery import appendix_h2_ring
from nilorbit.cyclo import Cyclotomic, root_of_unity
from nilorbit.dixon import _charpoly_mod, dixon_prime, dixon_table
from nilorbit.families import fake_heisenberg, ul_group
from nilorbit.groups import build_group
from nilorbit.liering import heisenberg_ring


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
        from nilorbit import linalg

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
    z = root_of_unity(3)
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
