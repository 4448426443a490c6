"""The benchmark's names still resolve in opgb, and its calls still bind.

perfbench/tracing.py wraps the functions its LAYERS table lists, and
perfbench/session.py calls opgb directly and through Session.op(kind, fn,
*args). A change that deletes or renames one of these names, or changes a
signature so that a call no longer binds, breaks the benchmark, so these
tests name the break where the change is made.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from opgb import transforms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYER_NAMES = [(layer, modname, fname)
               for layer, (modname, fnames) in load_layers().items() for fname in fnames]


@pytest.mark.parametrize("layer, modname, fname", LAYER_NAMES,
                         ids=[f"{modname}.{fname}" for _, modname, fname in LAYER_NAMES])
def test_layer_name_resolves(layer, modname, fname):
    assert callable(getattr(importlib.import_module(modname), fname, None)), layer


def test_linear_spectral_takes_a_family():
    assert list(inspect.signature(transforms.linear_spectral).parameters) == [
        "f", "w_c", "w_g", "free", "n"]


def session_calls():
    """(line, dotted callee, positional count, keyword names) of each call session.py makes into opgb.

    A call s.op(kind, fn, *args, ctx=...) counts as the call fn(*args); a
    starred argument, whose length the source does not show, counts as none.
    """
    tree = ast.parse((PERFBENCH / "session.py").read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "opgb":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args, keywords = node.func, node.args, [k.arg for k in node.keywords]
        if isinstance(func, ast.Attribute) and func.attr == "op" and len(args) >= 2:
            func, args, keywords = args[1], args[2:], []
        dotted = ast.unparse(func)
        head, _, rest = dotted.partition(".")
        if head in bound:
            count = sum(not isinstance(a, ast.Starred) for a in args)
            calls.append((node.lineno, ".".join(filter(None, [bound[head], rest])), count, keywords))
    return sorted(calls)


def resolve(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(dotted)


SESSION_CALLS = session_calls()


def test_session_calls_found():
    assert len(SESSION_CALLS) >= 30


@pytest.mark.parametrize("line, dotted, count, keywords", SESSION_CALLS,
                         ids=[f"{line}:{dotted}" for line, dotted, _, _ in SESSION_CALLS])
def test_session_call_binds(line, dotted, count, keywords):
    inspect.signature(resolve(dotted)).bind(*[None] * count, **dict.fromkeys(keywords))
