"""Source hygiene: no function parameter that its body never reads, and
one module that turns indices into digits and back."""

import ast
import pathlib
import re

import nilorbit

SRC = pathlib.Path(nilorbit.__file__).parent


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
