"""The library imports nothing but itself and the standard library, exports
only names it has, and no source, test or demo imports a name it never
uses."""

import ast
import sys
from pathlib import Path

import socle

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "socle").glob("*.py"))


def imported_top_levels(path):
    """Top-level names of every absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_import_is_socle_or_the_standard_library():
    assert SOURCES
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in imported_top_levels(path)
        if name != "socle" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_every_export_exists():
    assert [name for name in socle.__all__ if not hasattr(socle, name)] == []


def unused_imports(path):
    """The names the imports of one file bind and the file never reads; a
    name listed in ``__all__`` counts as read."""
    bound, read = set(), set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_no_unused_imports():
    paths = [*SOURCES, *sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    assert len(paths) > len(SOURCES)
    unused = {path.relative_to(ROOT).as_posix(): names for path in paths if (names := unused_imports(path))}
    assert unused == {}
