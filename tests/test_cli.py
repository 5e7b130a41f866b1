import contextlib
import io
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import chainlines
from chainlines.chains import ChainProblem, chain_count, counting_class
from chainlines import cli
from chainlines.cli import build_parser, main
from chainlines.criteria import DefiningData
from chainlines.finite_geometry import format_variety, split_quadric, fermat_cubic


@pytest.fixture
def quadric_file(tmp_path):
    path = tmp_path / "quadric5.variety"
    path.write_text(format_variety(split_quadric(5)))
    return str(path)


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "cubic5.variety"
    path.write_text(format_variety(fermat_cubic(5)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def as_dict(output):
    pairs = [line.split("=", 1) for line in output.strip().splitlines()]
    return {k: v for k, v in pairs}


def test_count_golden(capsys):
    code, out = run(
        capsys, "count", "--degrees", "3", "--ambient", "4", "--length", "3",
        "--machine",
    )
    assert code == 0
    values = as_dict(out)
    assert values["count"] == "180"
    assert values["expected_dimension"] == "0"


def test_check_golden(capsys):
    code, out = run(
        capsys, "check", "--degrees", "3", "--ambient", "4", "--length", "3",
        "--machine",
    )
    assert code == 0
    values = as_dict(out)
    assert values["holds"] == "true"
    assert values["lhs"] == "9" and values["rhs"] == "9"


def test_check_negative_exit_code(capsys):
    code, out = run(
        capsys, "check", "--degrees", "4", "--ambient", "5", "--length", "3",
        "--machine",
    )
    assert code == 1
    assert as_dict(out)["holds"] == "false"


def test_minlength(capsys):
    code, out = run(capsys, "minlength", "--degrees", "4", "--ambient", "5", "--machine")
    assert code == 0
    assert as_dict(out)["minlength"] == "4"
    code, out = run(capsys, "minlength", "--degrees", "3", "--ambient", "3", "--machine")
    assert code == 1
    assert as_dict(out)["minlength"] == "none"


def test_cilength(capsys):
    code, out = run(capsys, "cilength", "--degrees", "3", "--ambient", "4", "--machine")
    assert code == 0
    values = as_dict(out)
    assert values["cilength"] == "3"
    assert values["fanoindex"] == "2"
    assert values["lxdim"] == "0"


def test_cilength_rejects_large_degree(capsys):
    code = main(["cilength", "--degrees", "3", "--ambient", "3", "--machine"])
    capsys.readouterr()
    assert code == 2


def test_class_rendering(capsys):
    code, out = run(
        capsys, "class", "--degrees", "3", "--ambient", "4", "--length", "3",
        "--mode", "counting", "--machine",
    )
    assert code == 0
    assert as_dict(out)["class"] == "180*h1^4*h2^4"
    code, out = run(
        capsys, "class", "--degrees", "4", "--ambient", "5", "--length", "3",
        "--mode", "existence", "--machine",
    )
    assert as_dict(out)["class"] == "0"


def test_class_is_written_in_chunks(monkeypatch):
    # 729 terms in 81 chunks, one per choice of a_2, a_3: never joined whole
    writes = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["class", "--degrees", "5,5", "--ambient", "40", "--length", "5",
                 "--mode", "counting", "--machine"]) == 0
    expected = str(counting_class(ChainProblem(DefiningData((5, 5), 40), 5)))
    assert expected.count(" + ") == 728
    assert out.getvalue().endswith(f"\nclass={expected}\n")
    assert max(map(len, writes)) < len(expected) / 50


def test_count_past_the_str_digit_limit(capsys):
    # 18,869 digits: int -> str alone refuses more than 4,300
    code, out = run(capsys, "count", "--degrees", "100", "--ambient", "101",
                    "--length", "100", "--machine")
    assert code == 0
    count = as_dict(out)["count"]
    assert len(count) > 4300
    assert Decimal(count) == chain_count(ChainProblem(DefiningData((100,), 101), 100))


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_count_dimension_error(capsys):
    code = main(["count", "--degrees", "2", "--ambient", "4", "--length", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "expected dimension" in captured.err


def test_witness(capsys):
    code, out = run(
        capsys, "witness", "--degrees", "3", "--ambient", "4", "--length", "3",
        "--machine",
    )
    assert code == 0
    values = as_dict(out)
    assert values["witness_exponents"] == "1"
    assert values["monomial"] == "4,4"
    assert values["verdict"] == "affirmative"
    code, out = run(
        capsys, "witness", "--degrees", "4", "--ambient", "5", "--length", "3",
        "--machine",
    )
    assert code == 1
    assert as_dict(out)["verdict"] == "negative"


def test_sharpness(capsys):
    code, out = run(capsys, "sharpness", "--length", "2", "--machine")
    assert code == 0
    values = as_dict(out)
    assert values["criterion_at_length"] == "false"
    assert values["criterion_at_next"] == "true"
    assert values["locus_bound"] == "2"
    assert values["variety_dim"] == "3"
    assert values["connected"] == "false"


def test_lines(capsys, quadric_file):
    code, out = run(
        capsys, "lines", "--variety", quadric_file, "--point", "1:0:0:0", "--machine"
    )
    assert code == 0
    values = as_dict(out)
    assert values["count"] == "2"
    assert values["line_1"] == "1:0:0:0;0:0:1:0"
    assert values["line_2"] == "1:0:0:0;0:1:0:0"


def test_lines_zero_exit(capsys, cubic_file):
    # (1, 1, 2, 0) is on the Fermat cubic over F_5 but on none of its lines
    code, out = run(
        capsys, "lines", "--variety", cubic_file, "--point", "1:1:2:0", "--machine"
    )
    assert code == 1
    assert as_dict(out)["count"] == "0"


def test_lines_charged_where_each_c_k_runs(capsys, tmp_path):
    # sum x_i^4001 over F_10007 at 1:-1:1:-1: dim W = 2, 10,008 directions
    # and c_2..c_4001 with three terms each once v_0 = 0; c_2 leaves two
    # directions, so the later c_k run on those two only, and the solve is
    # charged 54,018, far below the 10,008 * 12,000 of every c_k at every
    # direction
    terms = " ; ".join("1 " + " ".join("4001" if j == i else "0" for j in range(4)) for i in range(4))
    path = tmp_path / "fermat4001.variety"
    path.write_text(f"field 10007\nambient 3\npoly 4001 : {terms}\n")
    code, out = run(capsys, "lines", "--variety", str(path), "--point", "1:10006:1:10006", "--machine")
    assert code == 0
    values = as_dict(out)
    assert values["count"] == "2"
    assert values["line_1"] == "1:0:0:10006;0:1:10006:0"
    assert values["line_2"] == "1:10006:0:0;0:0:1:10006"


def test_chain(capsys, quadric_file):
    code, out = run(
        capsys, "chain", "--variety", quadric_file, "--from", "1:0:0:0",
        "--to", "0:0:0:1", "--max-length", "3", "--machine",
    )
    assert code == 0
    values = as_dict(out)
    assert values["found"] == "true"
    assert values["length"] == "2"
    assert values["point_0"] == "1:0:0:0"
    assert values["point_2"] == "0:0:0:1"


def test_chain_absent(capsys, quadric_file):
    code, out = run(
        capsys, "chain", "--variety", quadric_file, "--from", "1:0:0:0",
        "--to", "0:0:0:1", "--max-length", "1", "--machine",
    )
    assert code == 1
    assert as_dict(out)["found"] == "false"


def test_locus(capsys, quadric_file):
    code, out = run(
        capsys, "locus", "--variety", quadric_file, "--point", "1:0:0:0",
        "--length", "1", "--machine",
    )
    assert code == 0
    values = as_dict(out)
    assert values["count"] == "11"
    assert values["point_1"] == "0:0:1:0"


def test_locus_length_past_sys_maxsize(capsys, quadric_file):
    # the search ends at its first empty level, so a length past
    # sys.maxsize answers like any length beyond the last level
    outputs = []
    for length in (sys.maxsize - 1, 10**20):
        code, out = run(capsys, "locus", "--variety", quadric_file, "--point", "0:0:0:1",
                        "--length", str(length), "--machine")
        assert code == 0
        assert f"\nlength={length}\n" in out
        outputs.append(out.replace(f"\nlength={length}\n", "\n"))
    assert outputs[0] == outputs[1]
    assert as_dict(outputs[0])["count"] == "36"


def test_explore(capsys, quadric_file):
    code, out = run(
        capsys, "explore", "--variety", quadric_file, "--max-length", "2", "--machine"
    )
    assert code == 0
    values = as_dict(out)
    assert values["points"] == "36"
    assert values["fraction_1"] == "11/36"
    assert values["fraction_2"] == "1/1"
    assert values["lines_hist_2"] == "36"


def test_malformed_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.variety"
    path.write_text("field 5\nambient 3\npoly 2 : 1 1 0 0\n")
    code = main(["lines", "--variety", str(path), "--point", "1:0:0:0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 3" in captured.err


def test_unreadable_variety_file_is_input_error(capsys, tmp_path):
    # the OSError of open() is the message, after "error: "
    missing = tmp_path / "missing.variety"
    for path, message in [(missing, f"error: [Errno 2] No such file or directory: '{missing}'\n"),
                          (tmp_path, f"error: [Errno 21] Is a directory: '{tmp_path}'\n")]:
        code = main(["lines", "--variety", str(path), "--point", "1:0:0:0"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", message)


def test_point_not_on_variety_is_input_error(capsys, quadric_file):
    code, out = run(capsys, "lines", "--variety", quadric_file, "--point", "1:0:0:1")
    assert code == 2
    assert out == ""


def test_machine_output_stable(capsys):
    golden = [
        ("count", "--degrees", "3", "--ambient", "4", "--length", "3"),
        ("check", "--degrees", "3", "--ambient", "4", "--length", "3"),
        ("minlength", "--degrees", "4", "--ambient", "5"),
        ("class", "--degrees", "3", "--ambient", "4", "--length", "3",
         "--mode", "counting"),
    ]
    for argv in golden:
        _, first = run(capsys, *argv, "--machine")
        _, second = run(capsys, *argv, "--machine")
        assert first == second


PLAIN_GOLDEN = [
    ("check --degrees 3 --ambient 4 --length 3", 0, """\
command  check
degrees  3
ambient  4
length   3
lhs      9
rhs      9
holds    true
"""),
    ("minlength --degrees 4 --ambient 5", 0, """\
command    minlength
degrees    4
ambient    5
minlength  4
"""),
    ("cilength --degrees 3 --ambient 4", 0, """\
command    cilength
degrees    3
ambient    4
cilength   3
fanoindex  2
lxdim      0
note: formulas assume a smooth complete intersection; not verified
"""),
    ("class --degrees 3 --ambient 4 --length 3 --mode counting", 0, """\
command  class
degrees  3
ambient  4
length   3
mode     counting
space    P^4 x P^4
class    180*h1^4*h2^4
"""),
    ("count --degrees 3 --ambient 4 --length 3", 0, """\
command             count
degrees             3
ambient             4
length              3
expected_dimension  0
count               180
note: intersection-number count: chains are counted with multiplicity and \
assume generic defining polynomials
"""),
    ("witness --degrees 3 --ambient 4 --length 3", 0, """\
command            witness
degrees            3
ambient            4
length             3
witness_exponents  1
monomial           4,4
verdict            affirmative
"""),
    ("sharpness --length 2", 0, """\
command              sharpness
length               2
degree               3
ambient              4
criterion_at_length  false
criterion_at_next    true
minlength            3
lxdim                0
locus_bound          2
variety_dim          3
connected            false
"""),
    ("lines --variety quadric5.variety --point 1:0:0:0", 0, """\
command  lines
variety  quadric5.variety
point    1:0:0:0
count    2
line_1   1:0:0:0;0:0:1:0
line_2   1:0:0:0;0:1:0:0
"""),
    ("chain --variety quadric5.variety --from 1:0:0:0 --to 0:0:0:1 --max-length 3", 0, """\
command     chain
variety     quadric5.variety
from        1:0:0:0
to          0:0:0:1
max_length  3
found       true
length      2
point_0     1:0:0:0
point_1     0:0:1:0
point_2     0:0:0:1
line_1      1:0:0:0;0:0:1:0
line_2      0:0:1:0;0:0:0:1
"""),
    ("chain --variety quadric5.variety --from 1:0:0:0 --to 0:0:0:1 --max-length 1", 1, """\
command     chain
variety     quadric5.variety
from        1:0:0:0
to          0:0:0:1
max_length  1
found       false
chain       absent
note: finite-field evidence only: absence over F_p does not refute existence \
in characteristic zero
"""),
    ("locus --variety quadric5.variety --point 1:0:0:0 --length 1", 0, """\
command   locus
variety   quadric5.variety
point     1:0:0:0
length    1
count     11
point_1   0:0:1:0
point_2   0:1:0:0
point_3   1:0:0:0
point_4   1:0:1:0
point_5   1:0:2:0
point_6   1:0:3:0
point_7   1:0:4:0
point_8   1:1:0:0
point_9   1:2:0:0
point_10  1:3:0:0
point_11  1:4:0:0
note: F_p reachability set; may differ from the characteristic-zero locus
"""),
    ("explore --variety quadric5.variety --max-length 2", 0, """\
command       explore
variety       quadric5.variety
max_length    2
points        36
fraction_1    11/36
fraction_2    1/1
lines_hist_2  36
note: finite-field evidence only: absence over F_p does not refute existence \
in characteristic zero
"""),
]


@pytest.mark.parametrize("argv, code, expected", PLAIN_GOLDEN,
                         ids=[argv for argv, _, _ in PLAIN_GOLDEN])
def test_plain_output_golden(capsys, monkeypatch, quadric_file, argv, code, expected):
    # plain mode pads every key to the longest one and prints notes last
    monkeypatch.chdir(Path(quadric_file).parent)
    assert run(capsys, *argv.split()) == (code, expected)


def test_module_exit_codes():
    # runs ``python -m chainlines.cli``, so ``sys.exit(main())`` carries the code
    src = str(Path(chainlines.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def cli(*argv):
        return subprocess.run([sys.executable, "-m", "chainlines.cli", *argv],
                              capture_output=True, text=True, env=env)

    bad = cli("check", "--degrees", "3,x", "--ambient", "4", "--length", "3")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "usage:" in bad.stderr
    assert cli("check", "--degrees", "4", "--ambient", "5", "--length", "3").returncode == 1
    assert cli("count", "--degrees", "3", "--ambient", "4", "--length", "3").returncode == 0


# -- the fast path and argparse ----------------------------------------------------

# a value for each flag that argparse accepts
GOOD = {"--degrees": "2,2", "--ambient": "4", "--length": "3", "--mode": "counting",
        "--variety": "q.var", "--point": "1:0:0:0", "--from": "1:0:0:0", "--to": "0:0:0:1",
        "--max-length": "2"}
CHECK = ["check", "--degrees", "3", "--ambient", "4", "--length", "3"]


def argparse_vars(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("name", [name for name, *_ in cli.COMMANDS])
def test_fast_path_reads_every_command(name):
    # each flag once, in table order and reversed, with and without --machine
    [arguments] = [arguments for command, *_, arguments in cli.COMMANDS if command == name]
    pairs = [[flag, GOOD[flag]] for flag, _, _ in arguments]
    for argv in ([name, *sum(pairs, [])], [name, "--machine", *sum(pairs[::-1], [])]):
        fast = cli._fast(argv)
        assert fast is not None and vars(fast) == argparse_vars(argv)
        assert fast.machine == ("--machine" in argv)


def test_fast_path_gives_argparse_namespace_or_defers():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # bad values, negative ones, and odd ones that int still reads
    other = ("", ",", "3,x", "four", "-4", "-1,2", "both", "--machine", "-h", " 5", "1_0", "0")
    noise = ("-h", "--help", "--machine", "--mach", "--bogus", "extra", "-5", "--", "chek")

    @st.composite
    def argvs(draw):
        # each flag 0-2 times, spelled out, abbreviated or as --flag=value,
        # with a good value or another, in any order, and noise
        name, *_, arguments = draw(st.sampled_from(cli.COMMANDS))
        pairs = [["--machine"]] * draw(st.sampled_from((0, 0, 1, 1, 1, 2)))
        for flag, _, _ in arguments:
            for _ in range(draw(st.sampled_from((1,) * 8 + (0, 2)))):
                value = draw(st.sampled_from((GOOD[flag],) * 12 + other))
                spelling = draw(st.sampled_from((flag,) * 12 + (flag[:5], flag + "=")))
                pairs.append([spelling + value] if spelling[-1] == "=" else [spelling, value])
        argv = [name, *sum(draw(st.permutations(pairs)), [])]
        for _ in range(draw(st.sampled_from((0,) * 7 + (1,)))):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(noise)))
        return argv

    answered = []

    @settings(max_examples=600, derandomize=True, database=None, deadline=None)
    @given(argvs())
    def agrees(argv):
        fast = cli._fast(argv)
        if fast is not None:
            assert vars(fast) == argparse_vars(argv)
            answered.append(argv)

    agrees()
    assert len(answered) > 50  # the property is not met by deferring always


# argv the fast path leaves to argparse, and what argparse answers: the
# exit code and the exact stderr, whether argparse or main rejects it
USAGE = ("usage: chainlines [-h]\n                  {check,minlength,cilength,class,count,"
         "witness,sharpness,lines,chain,locus,explore}\n                  ...\n")
CHECK_USAGE = ("usage: chainlines check [-h] [--machine] --degrees DEGREES --ambient N\n"
               "                        --length L\n")
DEFERRED_ERRORS = {
    "no command": ([], USAGE + "chainlines: error: the following arguments are required: command\n"),
    "unknown command": (["chek", *CHECK[1:]], USAGE + (
        "chainlines: error: argument command: invalid choice: 'chek' (choose from 'check', "
        "'minlength', 'cilength', 'class', 'count', 'witness', 'sharpness', 'lines', "
        "'chain', 'locus', 'explore')\n")),
    "machine before the command": (["--machine", *CHECK],
                                   USAGE + "chainlines: error: unrecognized arguments: --machine\n"),
    "missing flag": (CHECK[:5], CHECK_USAGE + (
        "chainlines check: error: the following arguments are required: --length\n")),
    "missing value": (CHECK[:6], CHECK_USAGE + (
        "chainlines check: error: argument --length: expected one argument\n")),
    "unknown flag": ([*CHECK, "--bogus"], USAGE + "chainlines: error: unrecognized arguments: --bogus\n"),
    "unknown token": ([*CHECK, "extra"], USAGE + "chainlines: error: unrecognized arguments: extra\n"),
    "malformed degrees": (["check", "--degrees", "3,x", *CHECK[3:]], CHECK_USAGE + (
        "chainlines check: error: argument --degrees: malformed degree list '3,x'\n")),
    "no degrees": (["check", "--degrees", ",", *CHECK[3:]], CHECK_USAGE + (
        "chainlines check: error: argument --degrees: at least one degree is required\n")),
    "bad int": (["check", "--degrees", "3", "--ambient", "four", *CHECK[5:]], CHECK_USAGE + (
        "chainlines check: error: argument --ambient: invalid int value: 'four'\n")),
    "mode out of range": (["class", *CHECK[1:], "--mode", "both"], (
        "usage: chainlines class [-h] [--machine] --degrees DEGREES --ambient N\n"
        "                        --length L --mode {existence,counting}\n"
        "chainlines class: error: argument --mode: invalid choice: 'both' "
        "(choose from 'existence', 'counting')\n")),
    # argparse takes a negative number as a value; the command rejects it
    "negative number": (["count", "--degrees", "3", "--ambient", "-4", "--length", "3"],
                        "error: ambient dimension must be >= 1: -4\n"),
}


@pytest.mark.parametrize("argv, err", DEFERRED_ERRORS.values(), ids=DEFERRED_ERRORS.keys())
def test_deferred_error_is_argparse_own(capsys, argv, err):
    assert cli._fast(argv) is None
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", err)


# argv the fast path leaves to argparse, which answers them as CHECK
DEFERRED_ANSWERS = {
    "abbreviated flag": ["check", "--deg", "3", "--ambient", "4", "--le", "3"],
    "equals form": ["check", "--degrees=3", "--ambient", "4", "--length=3"],
    "repeated flag": [*CHECK[:5], "--length", "2", "--length", "3"],
    "repeated machine": ["check", "--machine", *CHECK[1:], "--machine"],
}


@pytest.mark.parametrize("argv", DEFERRED_ANSWERS.values(), ids=DEFERRED_ANSWERS.keys())
def test_deferred_answer_is_argparse_own(capsys, argv):
    assert cli._fast(argv) is None
    machine = ["--machine"] if "--machine" in argv else []
    expected = run(capsys, *CHECK, *machine)
    assert expected[0] == 0 and run(capsys, *argv) == expected


def test_help_is_argparse_own(capsys):
    assert cli._fast([*CHECK, "-h"]) is None
    with pytest.raises(SystemExit) as exc:
        main([*CHECK, "-h"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith(CHECK_USAGE + "\noptions:\n  -h, --help ")


def test_main_reads_sys_argv(capsys, monkeypatch):
    # on both routes, as argparse itself does
    expected = run(capsys, *CHECK, "--machine")
    for argv in (CHECK, ["check", "--deg", "3", "--ambient", "4", "--length", "3"]):
        monkeypatch.setattr(sys, "argv", ["chainlines", *argv, "--machine"])
        assert main() == expected[0]
        assert capsys.readouterr().out == expected[1]
