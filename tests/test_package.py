"""The runtime is pure Python on the standard library alone, and the package
exports the API the README lists and the benchmark reads."""

import ast
import inspect
import re
import sys
from pathlib import Path

import wgrindex

SOURCES = sorted(Path(wgrindex.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]


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


def test_exports_are_the_names_the_readme_lists():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    listing = text.partition("The package exports these 25 names")[2].partition("\n\n")[2].partition("\n\n")[0]
    listed = re.findall(r"`(\w+)`", listing)
    exported = {
        name for name, value in vars(wgrindex).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(listed) == len(set(listed)) == 25
    assert exported == set(listed)


def test_the_benchmark_reads_only_exported_names():
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    read = {
        node.attr for node in ast.walk(run)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "lib"
    }
    workloads = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    imported = {
        alias.name for node in ast.walk(workloads)
        if isinstance(node, ast.ImportFrom) and node.module == "wgrindex"
        for alias in node.names
    }
    assert {"build", "query", "naive_match"} <= read  # the scan sees the reads
    assert {"WheelerGraph", "to_wgf"} <= imported
    missing = {name for name in read | imported if not hasattr(wgrindex, name)}
    assert missing == set()
