"""Source hygiene checks that need no linter: only the standard library's ``ast``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "auditscore"

# (module, name) pairs a module imports only so that callers can import them from it.
RE_EXPORTS = {("scoring", "classify_severity")}


def _imported_and_read(path: Path) -> tuple[list[str], set[str]]:
    """The names ``path`` binds by import, anywhere in it, and the names it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported, read


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in SRC.glob("*.py") if path.name != "__init__.py")
)
def test_module_has_no_unused_imports(module):
    imported, read = _imported_and_read(SRC / f"{module}.py")
    unused = [name for name in imported if name not in read and (module, name) not in RE_EXPORTS]
    assert unused == []


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_functions_read_every_parameter(module):
    """A parameter the body never reads makes every caller pass a value for nothing.

    Dunder methods keep the signatures Python calls them with, and lambdas
    (the per-tool adapter tables) may ignore arguments on purpose.
    """
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        parameters = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            name.id
            for statement in node.body
            for name in ast.walk(statement)
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
        }
        unused += [
            f"{node.name}({parameter.arg})"
            for parameter in parameters
            if parameter is not None and parameter.arg not in read
        ]
    assert unused == []


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_module_does_not_import_dataclasses(module):
    """The value types are plain classes: ``import dataclasses`` alone loads
    ``inspect``, ``ast`` and ``dis`` into every process. An import inside a
    function is found here too, where the import-time test cannot see it."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    assert [name for name in modules if name.split(".")[0] == "dataclasses"] == []


def test_declared_re_exports_are_imported_and_not_read():
    """A stale ``RE_EXPORTS`` entry would let a real unused import through."""
    for module, name in RE_EXPORTS:
        imported, read = _imported_and_read(SRC / f"{module}.py")
        assert name in imported and name not in read


def test_fields_are_set_only_by_frozen():
    """``object.__setattr__`` gets past a read-only value's guard; only
    ``model.Frozen`` may name it, so every frozen field is set one way."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.stem == "model":
            frozen = next(
                node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Frozen"
            )
            allowed = {id(node) for node in ast.walk(frozen)}
        found += [
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
            and id(node) not in allowed
        ]
    assert found == []
