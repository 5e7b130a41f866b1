"""Every narrative script in demos/ runs to completion and prints what it must."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
# a line some demos must print, by file name
PRINTS = {"counting_chains.py": "chains through two general points: 180\n"}


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert PRINTS.get(path.name, "") in out

