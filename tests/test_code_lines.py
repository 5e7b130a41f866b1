import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return math.pi, text
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, def, the two lines of the string, return
    assert code_lines.code_lines(SAMPLE) == 6
    assert code_lines.code_lines("") == 0


def test_code_lines_counts_each_src_module(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][2] == "total"
    assert any(row[2].endswith("chains.py") for row in rows)
    assert sum(int(row[1]) for row in rows[:-1]) == int(rows[-1][1])
