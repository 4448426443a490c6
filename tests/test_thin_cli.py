"""The CLI is a thin layer: it reaches no test oracle and does no mathematics itself.

An ast walk over src/opgb builds the call graph: a function reaches every
opgb function or class its body names, through its own module's names,
its imports and module attributes (biorth.cd_kernel). An attribute of any
other object (fam.poly1) reaches every opgb method of that name, which
over-approximates. From each COMMANDS entry of cli.py no oracle may be
reached; identities runs abc_kernel and faddeev_leverrier on purpose.
"""

import ast
from pathlib import Path

import pytest

import opgb

SRC = Path(opgb.__file__).resolve().parent

ORACLES = {
    "numlin.ldu_factorize", "numlin.unit_lower_inverse", "numlin.det", "numlin.schur_complement",
    "numlin.char_poly", "biorth.second_kind_from_cauchy", "biorth.heine_oracle",
    "transforms.geronimus_gram", "transforms.geronimus_first_column",
    "transforms.christoffel_connector", "transforms.christoffel_connector_alt",
    "transforms.geronimus_connector", "transforms.multiply_measure_by_linear",
    "transforms.multiply_measure", "transforms.divide_measure_by_linear",
    "transforms.geronimus_measure", "transforms.markov_transform_check",
}
IDENTITY_ORACLES = {"biorth.abc_kernel", "numlin.faddeev_leverrier"}


def parse(module):
    return ast.parse((SRC / f"{module}.py").read_text())


def call_graph():
    """(edges, commands): the names each opgb function or class reaches, and the COMMANDS entries."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    bodies, methods, scopes = {}, {}, {}
    for mod, tree in trees.items():
        scope = scopes[mod] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = alias.name if node.module is None else f"{node.module}.{alias.name}"
                    scope[alias.asname or alias.name] = target
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope[node.name] = f"{mod}.{node.name}"
                bodies[f"{mod}.{node.name}"] = node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            methods.setdefault(item.name, set()).add(f"{mod}.{node.name}.{item.name}")
                            bodies[f"{mod}.{node.name}.{item.name}"] = item
    edges = {}
    for name, node in bodies.items():
        scope, out = scopes[name.split(".")[0]], set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in scope:
                out.add(scope[sub.id])
            elif isinstance(sub, ast.Attribute):
                head, *rest = ast.unparse(sub).split(".")
                target = scope.get(head)
                if target in trees:  # a module attribute: biorth.cd_kernel
                    out.add(".".join([target] + rest))
                else:
                    out |= methods.get(sub.attr, set())
        # Naming a class reaches its methods: constructing it runs __post_init__.
        if isinstance(node, ast.ClassDef):
            out |= {f"{name}.{item.name}" for item in node.body if isinstance(item, ast.FunctionDef)}
        edges[name] = out
    commands = next(node.value for node in trees["cli"].body
                    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "COMMANDS")
    return edges, {ast.literal_eval(k): f"cli.{v.id}" for k, v in zip(commands.keys, commands.values)}


EDGES, COMMANDS = call_graph()


def reached(start):
    seen, todo = set(), [start]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(EDGES.get(name, ()))
    return seen


def test_every_command_found():
    assert set(COMMANDS) == {"polys", "quadrature", "transform", "classical-check", "identities",
                             "plot-data"}
    assert all(name in EDGES for name in ORACLES | IDENTITY_ORACLES)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_reaches_no_oracle(command):
    allowed = IDENTITY_ORACLES if command == "identities" else set()
    assert reached(COMMANDS[command]) & (ORACLES | IDENTITY_ORACLES) <= allowed


def test_identities_reaches_its_oracles():
    # The walk follows the library: the identities suite is biorth.identity_checks.
    assert IDENTITY_ORACLES <= reached(COMMANDS["identities"])


def test_cli_imports_no_arithmetic():
    # cli.py parses, dispatches and formats: no numlin or poly import, no matrix product.
    tree = parse("cli")
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {f"{node.module or ''}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert not {m for m in imported for banned in ("numlin", "poly") if banned in m.split(".")}
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))
