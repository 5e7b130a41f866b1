"""The package has no runtime dependencies: its modules import only the
standard library and each other, and pyproject.toml declares none."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "chainlines").glob("*.py"))


def imported_names(path):
    """The top-level module of every absolute import in a file, and the
    number of relative imports."""
    names, relative = set(), 0
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                relative += 1
            else:
                names.add(node.module.partition(".")[0])
    return names, relative


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_modules_import_only_the_standard_library(path):
    names, _ = imported_names(path)
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names


def test_the_walk_sees_every_import():
    # the package's modules import each other relatively, and the CLI
    # imports argparse
    assert len(MODULES) >= 6
    relative = sum(imported_names(path)[1] for path in MODULES)
    assert relative > 0
    assert "argparse" in imported_names(ROOT / "src" / "chainlines" / "cli.py")[0]


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
