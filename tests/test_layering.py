"""Package layering: every module imports only public names from strictly
lower layers.

Parses each module under permsplit with `ast`, including imports inside
functions, so a lazily imported cycle fails here too.
"""
from __future__ import annotations

import ast
from pathlib import Path

import permsplit

LAYERS = ("errors", "perms", "matchings", "envelope", "splitters", "constructions", "oracle", "cli")
PACKAGE = Path(permsplit.__file__).parent


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
