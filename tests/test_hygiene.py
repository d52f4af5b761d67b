"""Source hygiene checks that need no linter: only the standard library."""

import ast
import re
from pathlib import Path

import pytest

from .conftest import ROOT

SRC = ROOT / "src" / "auditscore"


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
    assert [name for name in imported if name not in read] == []


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


def _imported_modules(path: Path) -> list[str]:
    """The absolute module names ``path`` imports, anywhere in it."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    return modules


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")))
def test_module_does_not_import_dataclasses(module):
    """The value types are plain classes: ``import dataclasses`` alone loads
    ``inspect``, ``ast`` and ``dis`` into every process. An import inside a
    function is found here too, where the import-time test cannot see it."""
    modules = _imported_modules(SRC / f"{module}.py")
    assert [name for name in modules if name.split(".")[0] == "dataclasses"] == []


def test_only_the_cli_imports_gc():
    """The CLI owns its process and sets the collector's policy there; a
    library module that changed it would change it for every caller."""
    importers = [path.stem for path in sorted(SRC.glob("*.py")) if "gc" in _imported_modules(path)]
    assert importers == ["cli"]


def _defined_names(tree: ast.Module) -> list[str]:
    """The public names a module binds at its top level, other than by import."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names += [name.id for name in ast.walk(target) if isinstance(name, ast.Name)]
    return [name for name in names if not name.startswith("_")]


def _referenced_names(tree: ast.Module) -> set[str]:
    """The names Python code reads or imports: not those it defines, nor its docstrings."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_public_name_is_used_outside_the_tests():
    """A public name that only tests call is a second way to do a job the
    program does another way: it is used by the package, its scripts, the
    benchmark, or the documentation, or it goes."""
    referenced = set()
    for directory in (SRC, ROOT / "scripts", ROOT / "perfbench"):
        for path in directory.glob("*.py"):
            referenced |= _referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    prose = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [ROOT / "README.md", *(ROOT / "docs").iterdir()]
    )
    unused = [
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _defined_names(ast.parse(path.read_text(encoding="utf-8")))
        if name not in referenced and not re.search(rf"\b{name}\b", prose)
    ]
    assert unused == []


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


def test_parsers_have_one_line_rule_and_one_digit_rule():
    """Report text is split only at ``\\n`` and a digit is ``[0-9]``:
    ``splitlines`` also breaks at ``\\x0c``, ``\\x85`` and ``\\u2028``, and
    ``\\d`` matches every script's decimal digits, so either would read a
    line or a count that the other parsers do not."""
    source = (SRC / "parsers.py").read_text(encoding="utf-8")
    assert "splitlines" not in source
    assert "\\d" not in source


def test_only_the_stream_writer_prints():
    """Each line of output goes through ``cli._out`` or ``cli._err``, and so
    through ``cli._write``, which applies the text line rule to it: a
    ``print`` or a write to ``sys.stdout`` or ``sys.stderr`` anywhere else
    could split a line at a line break in a name, a path or a report field."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) == ("cli", "_write"):
                allowed = {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            function = node.func
            prints = isinstance(function, ast.Name) and function.id == "print"
            writes = (
                isinstance(function, ast.Attribute)
                and function.attr in ("write", "writelines")
                and isinstance(function.value, ast.Attribute)
                and function.value.attr in ("stdout", "stderr")
                and isinstance(function.value.value, ast.Name)
                and function.value.value.id == "sys"
            )
            if prints or writes:
                found.append(f"{path.stem}:{node.lineno}")
    assert found == []
