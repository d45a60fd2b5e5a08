"""The runtime is pure Python on the standard library alone."""

import ast
import sys
from pathlib import Path

import wgrindex

SOURCES = sorted(Path(wgrindex.__file__).parent.glob("*.py"))


def absolute_imports(path: Path) -> list[str]:
    """The top-level module of every absolute import in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


def test_sources_import_only_the_standard_library():
    # numpy is installed in some environments, so an accidental import of
    # it would pass every other test
    assert SOURCES
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert foreign == set()


def test_the_import_scan_sees_a_foreign_module(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import json\nimport numpy.linalg as la\nfrom . import graph\nfrom scipy import sparse\n")
    assert absolute_imports(probe) == ["json", "numpy", "scipy"]
