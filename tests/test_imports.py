"""Every module of the package and of its tests uses what it imports,
every name the package exports is used by the package or the benchmark,
and no handler in the package re-raises an input error by hand."""

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


# the package, its tests and the fixture generator
_CHECKED = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
_CHECKED.append(ROOT / "tests" / "data" / "regenerate.py")


@pytest.mark.parametrize("path", _CHECKED, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "import json\nimport os\nfrom math import pi, tau\n__all__ = ['tau']\nos.sep\n"
    assert _unused_imports(source) == ["line 1: json", "line 3: pi"]


def _bindings(tree: ast.Module, module: str) -> dict[str, str]:
    """Each name a module binds by an import, mapped to the dotted name it
    stands for: import a.b binds a to a, from .m import x binds x to pkg.m.x."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound[alias.asname or top] = alias.name if alias.asname else top
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level:
                base = module.split(".")[:-node.level] + base
            for alias in node.names:
                bound[alias.asname or alias.name] = ".".join(base + [alias.name])
    return bound


def _names_read(source: str, module: str) -> set[str]:
    """The dotted names a module reads: its own names read bare, each name it
    imports, and m.x where m is bound to a module by an import.  An
    attribute of anything else, such as obj.h, reads no module's h."""
    tree = ast.parse(source)
    bound = _bindings(tree, module)
    read = set(bound.values())

    def dotted(node) -> str | None:
        if isinstance(node, ast.Name):
            return bound.get(node.id, f"{module}.{node.id}")
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(dotted(node))
    return read


def _unread_exports(module: str, source: str, readers: dict[str, str]) -> list[str]:
    """Names the module exports that none of the reader sources, keyed by
    module name, reads; a re-exported name counts as the one it imports."""
    tree = ast.parse(source)
    bound = _bindings(tree, module)
    read = set().union(*(_names_read(text, name) for name, text in readers.items()))
    return [name for name in _exported(tree) if bound.get(name, f"{module}.{name}") not in read]


def _module_name(path: Path) -> str:
    """The dotted name under which a package or benchmark file is imported."""
    return f"wica_lab.{path.stem}" if path.parent == SRC else path.stem


# production code: the package's modules and the benchmark that times them
_READERS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_exported_name_is_read_by_production_code(path):
    """A public name that only tests call is not shipped: the tests call the
    code production runs instead."""
    readers = {_module_name(p): p.read_text() for p in _READERS}
    assert _unread_exports(_module_name(path), path.read_text(), readers) == []


def test_an_unread_export_is_found():
    source = "__all__ = ['f', 'g', 'h', 'j', 'k']\ndef f(): pass\n"
    readers = {
        "pkg.m": source + "f()\n",
        "pkg.a": "from . import m as mm\nmm.g\nh = 1\n",
        "pkg.b": "from pkg.m import j\nk = obj.k\n",
        "pkg.c": "obj.h\n",
    }
    assert _unread_exports("pkg.m", source, readers) == ["h", "k"]
    # a re-export is read when the name it imports is
    reexport = "from .m import g, h\n__all__ = ['g', 'h']\n"
    assert _unread_exports("pkg.__init__", reexport, readers) == ["h"]


_INPUT_ERRORS = {"FileFormatError", "DimensionError"}


def _reraising_handlers(source: str) -> list[str]:
    """Lines of except clauses that name FileFormatError or DimensionError
    and raise: the one place that puts a location in front of such an
    error is core._where."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        named = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
        if named & _INPUT_ERRORS and any(
            isinstance(n, ast.Raise) for stmt in node.body for n in ast.walk(stmt)
        ):
            found.append(node.lineno)
    return [f"line {line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_handler_reraises_an_input_error(path):
    assert _reraising_handlers(path.read_text()) == []


def test_a_reraising_handler_is_found():
    source = (
        "try:\n    f()\n"
        "except (errors.DimensionError, KeyError) as exc:\n    raise X(exc) from None\n"
        "except FileFormatError:\n    print('no')\n"
        "except ValueError:\n    raise\n"
    )
    assert _reraising_handlers(source) == ["line 3"]
