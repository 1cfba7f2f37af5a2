"""The library imports nothing but itself and the standard library, and
exports only names it has."""

import ast
import sys
from pathlib import Path

import socle

SOURCES = sorted((Path(__file__).parent.parent / "src" / "socle").glob("*.py"))


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
