"""Every module of the package uses what it imports, and every name it
exports is used by the package or the benchmark."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wica_lab"


def _exported(tree: ast.Module) -> list[str]:
    """The names a module lists in __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in __all__."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_exported(tree))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import json\nimport os\nfrom math import pi, tau\n__all__ = ['tau']\nos.sep\n"
    assert _unused_imports(source) == ["line 1: json", "line 3: pi"]


def _names_read(source: str) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def _unread_exports(source: str, readers: list[str]) -> list[str]:
    """Names a module exports that none of the reader sources reads."""
    read = set().union(*map(_names_read, readers))
    return [name for name in _exported(ast.parse(source)) if name not in read]


# production code: the package's modules, without the re-exports of
# __init__.py, and the benchmark that times them
_READERS = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
_READERS += sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_read_by_production_code(path):
    """A public name that only tests call is not shipped: the tests call the
    code production runs instead."""
    assert _unread_exports(path.read_text(), [p.read_text() for p in _READERS]) == []


def test_an_unread_export_is_found():
    source = "__all__ = ['f', 'g', 'h', 'k']\ndef f(): pass\n"
    readers = ["f()\n", "import m\nm.g\nh = 1\n"]
    assert _unread_exports(source, readers) == ["h", "k"]
