"""One arithmetic: no module but scalars.py tells floats apart, and no module has tolerance constants."""

import ast
from pathlib import Path

import pytest

import opgb

MODULES = sorted(Path(opgb.__file__).parent.glob("*.py"))


def float_isinstance_lines(tree):
    """Lines of isinstance(..., float) calls, float alone or in a tuple."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(node.args[1]))
    ]


def tolerance_constants(tree):
    """Module-level names ending in _TOL or _EPS."""
    names = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.endswith(("_TOL", "_EPS"))]
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scalar_policy(path):
    tree = ast.parse(path.read_text())
    if path.name != "scalars.py":
        assert float_isinstance_lines(tree) == []
    assert tolerance_constants(tree) == []


def test_guard_sees_the_patterns():
    tree = ast.parse("X_TOL = 1e-9\nY_EPS: float = 1e-10\nisinstance(v, (int, float))\n")
    assert float_isinstance_lines(tree) == [3]
    assert tolerance_constants(tree) == ["X_TOL", "Y_EPS"]
