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


# function, lambda and comprehension nodes: each binds names in a scope of its own
SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _own_scope(node: ast.AST):
    """The nodes under node outside any nested scope (each nested scope's
    own node included, since its name binds in node's scope)."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, SCOPES):
            yield from _own_scope(child)


def _binds(scope: ast.AST) -> set[str]:
    """The names a function, lambda or comprehension binds in its own scope:
    parameters, assignment and loop targets, imports, nested definitions."""
    names = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        names.update(arg.arg for arg in params if arg is not None)
    for node in _own_scope(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _free_loads(node: ast.AST, bound: frozenset[str] = frozenset()):
    """The names loaded under node that no enclosing function, lambda or
    comprehension binds: the module-level names node reads."""
    if isinstance(node, SCOPES):
        bound = bound | _binds(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_loads(child, bound)


def _imported(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every `from .module import name` and `from
    permsplit.module import name`, and for every attribute `module.name` on
    a package module bound by `from . import module`, `from permsplit import
    module` or `import permsplit.module as module`."""
    out, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif (node.module or "").partition(".")[0] == "permsplit":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if module:
                    out.add((module, alias.name))
                elif alias.name in LAYERS:
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "permsplit" and module in LAYERS and alias.asname:
                    modules[alias.asname] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                out.add((modules[node.value.id], node.attr))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    # a caller is an import of the name from its defining module or an
    # attribute on that module, in the package (not __init__) or in
    # bench/*.py, or a load in the defining module, outside the name's own
    # definition, that no enclosing function binds to something else; a
    # local variable or attribute of the same name is no caller, and
    # re-exports in __init__ do not count
    modules = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }
    public = {
        (module, name)
        for module, tree in modules.items()
        for stmt in tree.body
        for name in _defined(stmt)
        if not name.startswith("_")
    }
    used = set()
    for module, tree in modules.items():
        for stmt in tree.body:
            own = _defined(stmt)
            used.update((module, name) for name in _free_loads(stmt) if name not in own)
        used.update(_imported(tree))
    assert BENCH.is_dir()
    for path in sorted(BENCH.glob("*.py")):
        used.update(_imported(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(name for _, name in public - used) == sorted(TESTS_ONLY)
