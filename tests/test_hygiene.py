"""Source hygiene: no function parameter that its body never reads, one
module that turns indices into digits and back, every function of src/
reached by a run, and a README budget table that matches the code."""

import ast
import importlib
import pathlib
import re

import nilorbit

SRC = pathlib.Path(nilorbit.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _unread_parameters(tree, module):
    """'module:qualname.param' for each parameter (other than self/cls) that
    its function's body, nested functions included, never loads."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
                read = {
                    n.id
                    for stmt in child.body
                    for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                out.extend(
                    "%s:%s.%s" % (module, name, prm)
                    for prm in params
                    if prm not in ("self", "cls") and prm not in read
                )
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text()), path.stem)
    assert unread == []


def test_the_walk_finds_an_unread_parameter():
    tree = ast.parse(
        "def f(a, b, *rest, c=1):\n"
        "    def g(self, d):\n"
        "        return a\n"
        "    b = c\n"
        "class K:\n"
        "    def m(self, e):\n"
        "        pass\n"
    )
    assert _unread_parameters(tree, "t") == ["t:f.b", "t:f.rest", "t:f.g.d", "t:K.m.e"]


# place values of a mixed-radix index: p ** np.arange(d), or a cumulative
# product of moduli
PLACE_VALUES = re.compile(r"\*\*\s*np\.arange|cumprod")


def test_only_linalg_builds_place_values():
    offenders = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if path.name != "linalg.py" and PLACE_VALUES.search(path.read_text())
    ]
    assert offenders == []
    assert PLACE_VALUES.search((SRC / "linalg.py").read_text())
    for old in ("p ** np.arange(d, dtype=np.int64)", "np.cumprod((1,) + self.moduli[:-1])"):
        assert PLACE_VALUES.search(old)


# -- every function of src/ is reached by a run ------------------------------

# A run is the CLI, a perfbench workload (its tracer targets included), a
# bench.py measurement or an acceptance criterion.
RUNS = [
    SRC / "__main__.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "benchmarks" / "bench.py",
    ROOT / "tests" / "test_acceptance.py",
]

# What no run reaches but stays, with the reason; a whole module or one
# "module:qualname".  The list is closed: an entry that a run reaches fails.
ALLOWED = {
    "heisenberg": "paper content: the Heisenberg classification and reduction, "
    "checked against the Dixon oracle in test_heisenberg",
    "families:gutkin_witness": "paper content: a subalgebra character inducing chi, "
    "checked against Dixon in test_families",
    "packets:abelian_trace_check": "paper content: the trace/Lang exact sequence and its duality "
    "on abelian towers",
    "polar:associative_vergne": "paper content: Vergne's construction on an associative algebra",
    "orbits:coadjoint_orbit_of": "paper content: one orbit by hash-set BFS beyond the dense budget",
    "families:AssocAlgebra.lie_ring": "ROADMAP item 7 takes the orbit method to algebra input with it",
    "ringio:emit_liering": "writes the ring format that --file reads",
    "ringio:emit_algebra": "writes the algebra format that --file reads",
    "ringio:emit_matrix": "writes the matrix format that --sigma reads",
    "polar:MonomialRep.check_homomorphism": "verification: the complete homomorphism check of a "
    "monomial representation",
    "groups:build_group": "spec entry point: a FiniteGroup from a scalar law",
}

_FUNC = (ast.FunctionDef, ast.AsyncFunctionDef)
# a string naming a function: "name", "module.name" or "module:Class.name"
_NAMING = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*\Z")


def _definitions(modules):
    """(module, qualname, class or None, node) for each top-level function,
    class and method."""
    out = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, _FUNC + (ast.ClassDef,)):
                out.append((module, node.name, None, node))
            if isinstance(node, ast.ClassDef):
                out += [(module, "%s.%s" % (node.name, s.name), node.name, s)
                        for s in node.body if isinstance(s, _FUNC)]
    return out


def _covered(item, allowed):
    """Whether an allowed entry names item ('module:qualname'), its class or
    its module."""
    module, _, qualname = item.partition(":")
    return bool({item, module, "%s:%s" % (module, qualname.partition(".")[0])} & set(allowed))


def _unreached(modules, runs, allowed=()):
    """'module:qualname' of each definition in modules ({name: tree}) that no
    tree in runs, nor an allowed entry, reaches.

    A heuristic walk by name: a definition is reached when its module is
    imported or named, its class (for a method) is reached, and its name is
    read (a name, an attribute, or a part of a string such as
    "kernels:single_orbit") by code already reached.  Dunder methods come
    with their class, module-level code with its module.
    """
    names, imported = set(), set()

    def scan(nodes):
        for top in nodes:
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    names.add(n.id)
                elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                    names.add(n.attr)
                elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _NAMING.match(n.value):
                    names.update(re.split(r"[.:]", n.value))
                elif isinstance(n, ast.Import):
                    imported.update(part for a in n.names for part in a.name.split("."))
                elif isinstance(n, ast.ImportFrom):
                    imported.update((n.module or "").split("."))
                    imported.update(a.name for a in n.names)
                    names.update(a.name for a in n.names if a.asname)

    defs = _definitions(modules)
    live, done = set(), set()

    def reach(module, qualname, node):
        done.add((module, qualname))
        if isinstance(node, ast.ClassDef):
            scan(node.bases + node.keywords + node.decorator_list
                 + [s for s in node.body if not isinstance(s, _FUNC)])
        else:
            scan([node])

    scan(runs)
    for module, qualname, _, node in defs:
        if _covered("%s:%s" % (module, qualname), allowed):
            imported.add(module)
            reach(module, qualname, node)
    while True:
        before = len(live), len(done)
        for module, tree in modules.items():
            if module not in live and (module in imported or module in names):
                live.add(module)
                scan([s for s in tree.body if not isinstance(s, _FUNC + (ast.ClassDef,))])
        for module, qualname, cls, node in defs:
            if (module, qualname) in done or module not in live:
                continue
            if cls is not None and (module, cls) not in done:
                continue
            name = qualname.rpartition(".")[2]
            if name in names or (cls is not None and name.startswith("__") and name.endswith("__")):
                reach(module, qualname, node)
        if (len(live), len(done)) == before:
            return sorted("%s:%s" % (m, q) for m, q, _, _ in defs if (m, q) not in done)


def _sources():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_function_is_reached_by_a_run():
    modules = _sources()
    runs = [ast.parse(path.read_text()) for path in RUNS]
    assert _unreached(modules, runs, ALLOWED) == []
    # closed: each entry names something that exists and that no run reaches
    unreached = _unreached(modules, runs)
    for entry in ALLOWED:
        assert any(_covered(u, [entry]) for u in unreached), entry


def test_the_walk_finds_a_function_only_tests_call():
    modules = {
        "m": ast.parse(
            "import os\n"
            "LIMIT = helper_for_limit()\n"
            "def helper_for_limit():\n"
            "    return 3\n"
            "def used():\n"
            "    return _inner()\n"
            "def _inner():\n"
            "    return K().go()\n"
            "def tested_only():\n"
            "    return 1\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        pass\n"
            "    def go(self):\n"
            "        return 2\n"
            "    def stop(self):\n"
            "        return 3\n"
        ),
        "n": ast.parse("def traced():\n    pass\ndef never():\n    pass\n"),
    }
    run = ast.parse("from nilorbit.m import used\nused()\nTARGETS = ['n:traced']\n")
    test = ast.parse("from nilorbit import m, n\nm.tested_only()\nm.K().stop()\nn.never()\n")
    assert _unreached(modules, [run]) == ["m:K.stop", "m:tested_only", "n:never"]
    # what a test calls does not count; an allowed entry and what it calls do
    assert _unreached(modules, [run, test]) == []
    assert _unreached(modules, [run], {"m:tested_only": "", "n": ""}) == ["m:K.stop"]


# -- the README budget table -------------------------------------------------

# a row of the README table: | `module.NAME` | value | ...
_BUDGET_ROW = re.compile(r"^\| `(\w+)\.([A-Z_]+)` \| ([\d,^]+) \|", re.M)


def _value(text):
    """'2^24' or '20,000' as an integer."""
    base, _, exp = text.replace(",", "").partition("^")
    return int(base) ** int(exp or 1)


def test_readme_budget_table_matches_the_code():
    rows = _BUDGET_ROW.findall((ROOT / "README.md").read_text())
    defined = {
        (module, target.id)
        for module, tree in _sources().items()
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert all((module, name) in defined for module, name, _ in rows), rows
    budgets = {(m, n) for m, n in defined if n.endswith("_BUDGET")}
    assert budgets <= {(m, n) for m, n, _ in rows}
    for module, name, value in rows:
        assert getattr(importlib.import_module("nilorbit." + module), name) == _value(value), name
