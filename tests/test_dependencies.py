"""The package has no runtime dependencies: its modules import only the
standard library and each other, and pyproject.toml declares none.  The
CLI's import, and a check and a lines call that its fast path reads, load no
module that only some commands need.  That holds for the package's own
layers too: importing the package or the CLI loads none of them, and each
command loads only the layers it runs."""

import ast
import subprocess
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


# slow to import, and not needed to start the CLI: records are namedtuples,
# decimal and fractions are imported where they are used, and argparse (with
# the gettext and shutil it loads) only where the fast path defers to it
LAZY = ("dataclasses", "inspect", "typing", "decimal", "fractions", "pathlib",
        "argparse", "gettext", "shutil")


LAYERS = ("chow", "criteria", "chains", "finite_geometry")
# the layers loaded, as one comma-separated line on stderr
REPORT = f"""
def report():
    print(",".join(name for name in {LAYERS!r} if "chainlines." + name in sys.modules),
          file=sys.stderr)
"""

GUARD_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
""" + REPORT + """
import chainlines
report()
import chainlines.cli
report()
code = chainlines.cli.main(["check", "--degrees", "3", "--ambient", "4", "--length", "3",
                            "--machine"])
report()
lines = chainlines.cli.main(["lines", "--variety", sys.argv[2], "--point", "1:0:0:0",
                             "--machine"])
report()
print(code, lines, ",".join(name for name in sys.argv[3:] if name in sys.modules))
from chainlines.chow import int_text
from chainlines.finite_geometry import connectivity_report, split_quadric
print(int_text(10**5000) == "1" + "0" * 5000)
print(sorted(connectivity_report(split_quadric(5), 2).fractions.items()))
"""

QUADRIC5 = "field 5\nambient 3\npoly 2 : 1 1 0 0 1 ; 4 0 1 1 0\n"


def test_cli_import_loads_no_lazy_module(tmp_path):
    # a clean interpreter (-I: no environment or user site, -S: no site
    # module), so nothing was imported before the package; one check call
    # and one lines call on a variety file, through the fast path, load
    # none of them either
    variety = tmp_path / "quadric5.variety"
    variety.write_text(QUADRIC5)
    child = subprocess.run([sys.executable, "-I", "-S", "-c", GUARD_CHILD,
                            str(ROOT / "src"), str(variety), *LAZY],
                           capture_output=True, text=True, check=True)
    *answer, loaded, digits, fractions = child.stdout.splitlines()
    assert answer == ["command=check", "degrees=3", "ambient=4", "length=3",
                      "lhs=9", "rhs=9", "holds=true",
                      "command=lines", f"variety={variety}", "point=1:0:0:0", "count=2",
                      "line_1=1:0:0:0;0:0:1:0", "line_2=1:0:0:0;0:1:0:0"]
    assert loaded == "0 0 "
    # of the package's layers, importing the package and the CLI loads
    # none, check loads criteria, and lines then finite_geometry alone
    assert child.stderr.splitlines() == ["", "", "criteria", "criteria,finite_geometry"]
    # the same process still answers where those modules are needed
    assert digits == "True"
    assert fractions == "[(1, Fraction(11, 36)), (2, Fraction(1, 1))]"


ROUTE_CHILD = """
import io, sys
sys.path.insert(0, sys.argv[1])
""" + REPORT + """
import chainlines, chainlines.cli
report()
sys.stdout = io.StringIO()
code = chainlines.cli.main(sys.argv[2:])
report()
sys.exit(code)
"""

CRITERIA, CHAINS, FIELD = "criteria", "chow,criteria,chains", "finite_geometry"
ROUTES = [
    (CRITERIA, ["check", "--degrees", "3", "--ambient", "4", "--length", "3"]),
    (CRITERIA, ["minlength", "--degrees", "3", "--ambient", "4"]),
    (CRITERIA, ["cilength", "--degrees", "3", "--ambient", "4"]),
    (CRITERIA, ["sharpness", "--length", "3"]),
    (CHAINS, ["count", "--degrees", "3", "--ambient", "4", "--length", "3"]),
    (CHAINS, ["class", "--degrees", "3", "--ambient", "4", "--length", "3",
              "--mode", "counting"]),
    (CHAINS, ["witness", "--degrees", "3", "--ambient", "4", "--length", "3"]),
    (FIELD, ["lines", "--variety", "@", "--point", "1:0:0:0"]),
    (FIELD, ["chain", "--variety", "@", "--from", "1:0:0:0", "--to", "0:0:1:0",
             "--max-length", "2"]),
    (FIELD, ["locus", "--variety", "@", "--point", "1:0:0:0", "--length", "1"]),
    (FIELD, ["explore", "--variety", "@", "--max-length", "2"]),
]


@pytest.mark.parametrize("layers, argv", ROUTES, ids=[argv[0] for _, argv in ROUTES])
def test_each_command_loads_only_its_layers(tmp_path, layers, argv):
    # in a clean interpreter, as above: the package and the CLI load no
    # layer, and one command, answered with exit code 0, loads only the
    # layers it runs (chains imports chow and criteria)
    variety = tmp_path / "quadric5.variety"
    variety.write_text(QUADRIC5)
    argv = [str(variety) if arg == "@" else arg for arg in argv]
    child = subprocess.run([sys.executable, "-I", "-S", "-c", ROUTE_CHILD,
                            str(ROOT / "src"), *argv],
                           capture_output=True, text=True, check=True)
    assert child.stderr.splitlines() == ["", layers]
