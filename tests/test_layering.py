"""Package layering: every module imports only from strictly lower layers.

Parses each module under permsplit with `ast`, including imports inside
functions, so a lazily imported cycle fails here too.
"""
from __future__ import annotations

import ast
from pathlib import Path

import permsplit

LAYERS = ("errors", "perms", "matchings", "envelope", "splitters", "constructions", "oracle", "cli")
PACKAGE = Path(permsplit.__file__).parent


def _imported_modules(tree: ast.AST) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 and node.module:
            out.append(node.module.split(".")[0])
        elif node.level == 1:
            out.extend(alias.name for alias in node.names)
        elif (node.module or "").startswith("permsplit."):
            out.append(node.module.split(".")[1])
    return out


def test_modules_import_only_lower_layers():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    assert sorted(LAYERS) == modules
    for name in modules:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for target in _imported_modules(tree):
            assert LAYERS.index(target) < LAYERS.index(name), f"{name} imports {target}"
