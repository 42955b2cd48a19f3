"""Package layering: every module imports only public names from strictly
lower layers, and every public name has a caller outside the tests.

Parses each module under permsplit with `ast`, including imports inside
functions, so a lazily imported cycle fails here too.
"""
from __future__ import annotations

import ast
from pathlib import Path

import permsplit

LAYERS = ("errors", "perms", "matchings", "envelope", "splitters", "constructions", "oracle", "cli")
PACKAGE = Path(permsplit.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# The public names that only tests call, each with what keeps it: the ROADMAP
# item that can give it a caller, or its use as the tests' reference.
TESTS_ONLY = {
    "unavoidable_witness": "item 2",
    "amalgamation_search": "item 2",
    "ama_coloring": "item 2",
    "skew_sum": "item 3",
    "inflate_lr_minima": "item 3",
    "crosses": "the reference crossing predicate of conftest.brute_components and CI",
}


def _imports(tree: ast.AST) -> list[tuple[str, list[str]]]:
    """(package module, names imported from it) for every package import."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        names = [alias.name for alias in node.names]
        if node.level == 1 and node.module:
            out.append((node.module.split(".")[0], names))
        elif node.level == 1:
            out.extend((module, []) for module in names)
        elif (node.module or "").startswith("permsplit."):
            out.append((node.module.split(".")[1], names))
    return out


def test_modules_import_only_lower_layers():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(LAYERS) == modules
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for target, names in _imports(tree):
            assert LAYERS.index(target) < LAYERS.index(name), f"{name} imports {target}"
            private = [n for n in names if n.startswith("_")]
            assert not private, f"{name} imports private {private} from {target}"


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [target.id for target in stmt.targets if isinstance(target, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_every_public_name_has_a_caller_outside_the_tests():
    # a reference in the package (not __init__) or in bench/*.py, outside the
    # name's own definition, counts; re-exports in __init__ do not
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    public = {
        name
        for tree in trees.values()
        for stmt in tree.body
        for name in _defined(stmt)
        if not name.startswith("_")
    }
    assert BENCH.is_dir()
    for path in sorted(BENCH.glob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = _defined(stmt)
            used.update(name for node in ast.walk(stmt) if (name := _referenced(node)) not in own)
    assert public - used == set(TESTS_ONLY)
