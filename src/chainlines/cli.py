"""Batch command-line frontend.

Each command is a function from the parsed arguments to ``(pairs, notes,
exit code)`` and prints nothing; ``main`` prints.  Output order:
``command``; the shared inputs (``degrees``, ``ambient`` and, where taken,
``length`` for the degree commands, ``variety`` for the variety commands);
the command's own pairs; its notes.  Plain output pads every key to the
longest one and prints each note as ``note: <text>``; ``--machine`` prints
one ``key=value`` pair per line with stable keys and each note as
``caveat_<i>=<text>``.  A value may be an iterator of text chunks (the
``class`` value), written as it is rendered.  Exit status: 0 for a
positive/neutral result, 1 for a definite negative answer (criterion fails,
no chain, nothing found, count zero), 2 for an input error, with nothing on
stdout.

Arguments are read first by ``_fast``, straight from the ``COMMANDS``
table: it takes only a command name followed by each of that command's
flags once, spelled out, each with a value that does not start with
``-``, and ``--machine`` at most once, and converts the values with the
table's own callables.  Any other ``argv``, and any value that fails to
convert or is not among its choices, goes unchanged to argparse
(``build_parser``), which is imported only then.  So ``-h``, abbreviated
flags, ``--flag=value``, repeated flags, negative numbers and every error
get argparse's own ``usage:`` text, message and exit status 2, and both
routes give the same namespace wherever the fast one answers.

The module imports no layer of the package.  Each row of ``COMMANDS``
names the layers its function reads: ``criteria`` for the numeric
commands, ``criteria`` and ``chains`` for the class commands,
``finite_geometry`` for the variety commands.  ``main`` imports a
command's layers on the first call that needs them and binds each as a
global of this module under its own name, so a one-shot call loads only
what it runs, and a later call finds them bound and imports nothing.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator
from types import SimpleNamespace

COUNT_CAVEAT = (
    "intersection-number count: chains are counted with multiplicity and "
    "assume generic defining polynomials"
)
FIELD_CAVEAT = (
    "finite-field evidence only: absence over F_p does not refute existence "
    "in characteristic zero"
)


def _degrees(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
        if values:
            return values
        message = "at least one degree is required"
    except ValueError:
        message = f"malformed degree list {text!r}"
    import argparse  # only to report the error, as argparse's type check expects

    raise argparse.ArgumentTypeError(message)


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _joined(values) -> str:
    return ",".join(str(v) for v in values)


def _format_line(line: finite_geometry.Line) -> str:
    a, b = line.basis
    return f"{finite_geometry.format_point(a)};{finite_geometry.format_point(b)}"


def _problem(args) -> chains.ChainProblem:
    return chains.ChainProblem(criteria.DefiningData(args.degrees, args.ambient), args.length)


# -- symbolic commands ----------------------------------------------------------

def _cmd_check(args):
    data = criteria.DefiningData(args.degrees, args.ambient)
    holds = criteria.rc_criterion(data, args.length)
    pairs = [("lhs", args.length * data.total_degree),
             ("rhs", data.ambient * (args.length - 1) + data.m),
             ("holds", _bool(holds))]
    return pairs, (), 0 if holds else 1


def _cmd_minlength(args):
    result = criteria.min_chain_length(criteria.DefiningData(args.degrees, args.ambient))
    return [("minlength", "none" if result is None else result)], (), 1 if result is None else 0


def _cmd_cilength(args):
    data = criteria.DefiningData(args.degrees, args.ambient)
    pairs = [("cilength", criteria.ci_length(data)),
             ("fanoindex", criteria.fano_index_ci(data)),
             ("lxdim", criteria.lx_dim_ci(data))]
    return pairs, ["formulas assume a smooth complete intersection; not verified"], 0


def _cmd_class(args):
    problem = _problem(args)
    # checks the budget now; the terms are rendered while main writes them
    text = chains.class_text(problem, counting=args.mode == "counting")
    return [("mode", args.mode), ("space", problem.space), ("class", text)], (), 0


def _cmd_count(args):
    count = chains.chain_count(_problem(args))
    return [("expected_dimension", 0), ("count", count)], [COUNT_CAVEAT], 0 if count > 0 else 1


def _cmd_witness(args):
    problem = _problem(args)
    exponents = chains.witness_exponents(problem)
    witness = chains.witness_monomial(problem)
    pairs = [("witness_exponents", _joined(exponents)),
             ("monomial", _joined(witness.exponents)),
             ("verdict", "affirmative" if witness.fits else "negative")]
    return pairs, (), 0 if witness.fits else 1


def _cmd_sharpness(args):
    report = criteria.sharpness_report(args.length)
    pairs = [("length", report.length),
             ("degree", report.degree),
             ("ambient", report.ambient),
             ("criterion_at_length", _bool(report.criterion_at_length)),
             ("criterion_at_next", _bool(report.criterion_at_next)),
             ("minlength", report.min_length),
             ("lxdim", report.lines_dim),
             ("locus_bound", report.locus_bound),
             ("variety_dim", report.variety_dim),
             ("connected", _bool(report.connected))]
    return pairs, (), 0


# -- finite-field commands --------------------------------------------------------

def _cmd_lines(args):
    spec = finite_geometry.load_variety(args.variety)
    point = finite_geometry.parse_point(args.point, spec.field)
    found = sorted(finite_geometry.lines_through(spec, point), key=lambda ln: ln.basis)
    pairs = [("point", finite_geometry.format_point(point)), ("count", len(found))]
    pairs += [(f"line_{i}", _format_line(line)) for i, line in enumerate(found, start=1)]
    return pairs, (), 0 if found else 1


def _cmd_chain(args):
    spec = finite_geometry.load_variety(args.variety)
    start = finite_geometry.parse_point(args.from_point, spec.field)
    goal = finite_geometry.parse_point(args.to_point, spec.field)
    chain = finite_geometry.chain_search(spec, start, goal, args.max_length)
    pairs = [("from", finite_geometry.format_point(start)),
             ("to", finite_geometry.format_point(goal)),
             ("max_length", args.max_length), ("found", _bool(chain is not None))]
    if chain is None:
        return pairs + [("chain", "absent")], [FIELD_CAVEAT], 1
    pairs.append(("length", chain.length))
    pairs += [(f"point_{i}", finite_geometry.format_point(pt))
              for i, pt in enumerate(chain.points)]
    pairs += [(f"line_{i}", _format_line(ln)) for i, ln in enumerate(chain.lines, start=1)]
    return pairs, (), 0


def _cmd_locus(args):
    spec = finite_geometry.load_variety(args.variety)
    point = finite_geometry.parse_point(args.point, spec.field)
    reached = sorted(finite_geometry.locus(spec, point, args.length))
    pairs = [("point", finite_geometry.format_point(point)), ("length", args.length),
             ("count", len(reached))]
    pairs += [(f"point_{i}", finite_geometry.format_point(pt))
              for i, pt in enumerate(reached, start=1)]
    return pairs, ["F_p reachability set; may differ from the characteristic-zero locus"], 0


def _cmd_explore(args):
    spec = finite_geometry.load_variety(args.variety)
    report = finite_geometry.connectivity_report(spec, args.max_length)
    pairs = [("max_length", args.max_length), ("points", report.points)]
    pairs += [(f"fraction_{l}", f"{f.numerator}/{f.denominator}")
              for l, f in sorted(report.fractions.items())]
    pairs += [(f"lines_hist_{k}", n) for k, n in sorted(report.line_counts.items())]
    return pairs, [FIELD_CAVEAT], 0


# -- command table and parser -------------------------------------------------------

# An argument is (flag, add_argument keywords, echo); main echoes the value of
# every argument with an echo function, in table order, right after ``command``.
DEGREES = ("--degrees", {"type": _degrees, "required": True,
                         "help": "comma-separated defining degrees, e.g. 3 or 2,2"}, _joined)
AMBIENT = ("--ambient", {"type": int, "required": True, "metavar": "N",
                         "help": "ambient projective dimension"}, str)
LENGTH = ("--length", {"type": int, "required": True, "metavar": "L",
                       "help": "chain length (>= 2)"}, str)
VARIETY = ("--variety", {"required": True, "metavar": "FILE",
                         "help": "variety file (see README for the format)"}, str)
POINT = ("--point", {"required": True, "help": "point as a0:a1:...:aN"}, None)
MAX_LENGTH = ("--max-length", {"dest": "max_length", "type": int, "required": True}, None)

# The layers a command's function reads, bound by main as globals of this
# module under their own names.
CRITERIA = ("criteria",)
CHAINS = ("criteria", "chains")
FIELD = ("finite_geometry",)

COMMANDS = (
    ("check", _cmd_check, CRITERIA, "test the chain-connectedness inequality l*D <= N*(l-1)+m",
     (DEGREES, AMBIENT, LENGTH)),
    ("minlength", _cmd_minlength, CRITERIA, "least chain length satisfying the criterion",
     (DEGREES, AMBIENT)),
    ("cilength", _cmd_cilength, CRITERIA,
     "length, Fano index and line-family dimension of a complete intersection",
     (DEGREES, AMBIENT)),
    ("class", _cmd_class, CHAINS, "print the intersection class",
     (DEGREES, AMBIENT, LENGTH,
      ("--mode", {"choices": ("existence", "counting"), "required": True}, None))),
    ("count", _cmd_count, CHAINS,
     "number of chains between two general points (with multiplicity)",
     (DEGREES, AMBIENT, LENGTH)),
    ("witness", _cmd_witness, CHAINS, "witness exponents and monomial certifying nonvanishing",
     (DEGREES, AMBIENT, LENGTH)),
    ("sharpness", _cmd_sharpness, CRITERIA, "boundary family showing the criterion is sharp",
     (("--length", {"type": int, "required": True, "metavar": "L"}, None),)),
    ("lines", _cmd_lines, FIELD, "lines through a point lying on the variety",
     (VARIETY, POINT)),
    ("chain", _cmd_chain, FIELD, "search for a chain of lines between two points",
     (VARIETY, ("--from", {"dest": "from_point", "required": True, "metavar": "P"}, None),
      ("--to", {"dest": "to_point", "required": True, "metavar": "Q"}, None), MAX_LENGTH)),
    ("locus", _cmd_locus, FIELD, "points reachable by at most l line-steps",
     (VARIETY, POINT, ("--length", {"type": int, "required": True}, None))),
    ("explore", _cmd_explore, FIELD, "connectivity statistics of the chain graph",
     (VARIETY, MAX_LENGTH)),
)


def _fast_entry(func, layers, arguments):
    """A command's function and layers, its flags (flag -> dest, type,
    choices) and its echo list, as build_parser gives them to argparse."""
    flags, echo = {}, []
    for flag, kwargs, show in arguments:
        dest = kwargs.get("dest", flag[2:].replace("-", "_"))
        flags[flag] = dest, kwargs.get("type"), kwargs.get("choices")
        echo.append((dest, show))
    return func, layers, flags, echo


_FAST = {name: _fast_entry(func, layers, arguments)
         for name, func, layers, _, arguments in COMMANDS}


def _fast(argv):
    """The namespace build_parser().parse_args(argv) would give, read
    without argparse; None unless argv is a command name followed by each
    of its flags once, spelled out, each with a value that does not start
    with "-" and converts, and by --machine at most once."""
    if not argv or argv[0] not in _FAST:
        return None
    func, layers, flags, echo = _FAST[argv[0]]
    args = {"command": argv[0], "func": func, "layers": layers, "echo": echo, "machine": False}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--machine" and not args["machine"]:
            args["machine"] = True
            continue
        if token not in flags:
            return None
        dest, convert, choices = flags[token]
        value = next(tokens, "-")
        if dest in args or value.startswith("-"):
            return None
        if convert is not None:
            try:
                value = convert(value)
            except Exception:  # ValueError or ArgumentTypeError: argparse reports it
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    # every flag in COMMANDS is required, so a flag left out defers
    return SimpleNamespace(**args) if len(args) == 5 + len(flags) else None


@functools.cache
def build_parser():
    """The argparse parser, built once per process; callers must not change it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="chainlines",
        description=(
            "Decide and count chains of lines connecting general points of a "
            "projective variety given by degree data, and cross-check "
            "explicit varieties by exhaustive search over a prime field."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, layers, help_text, arguments in COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--machine", action="store_true",
                        help="emit one key=value pair per line")
        echo = [(sp.add_argument(flag, **kwargs).dest, show) for flag, kwargs, show in arguments]
        sp.set_defaults(func=func, layers=layers, echo=echo)
    return parser


_bound = set()  # the layer tuples of COMMANDS that _bind has bound


def _bind(layers) -> None:
    """Import a command's layers and bind each as a global of this module,
    under its own name; main calls this once per tuple of layers."""
    for layer in layers:
        name = f"{__package__}.{layer}"
        __import__(name)
        globals()[layer] = sys.modules[name]
    _bound.add(layers)


def _text(value):
    """A value as text; an iterator of chunks is left to be written lazily.
    Text and integers are tested first: the Iterator test goes through
    abc.__instancecheck__, a cost per value on queries with many pairs.
    chow.int_text is imported only for an integer past str's digit limit
    (sys.get_int_max_str_digits()), so the variety commands never load chow."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:
            from .chow import int_text

            return int_text(value)
    return value if isinstance(value, Iterator) else str(value)


def _render(pairs, notes, machine: bool):
    """The output as pieces of text, each line ending in a newline."""
    width = 0 if machine else max(len(key) for key, _ in pairs)
    for key, value in pairs:
        head = f"{key}=" if machine else f"{key:<{width}}  "
        if isinstance(value, str):
            yield f"{head}{value}\n"
        else:
            yield head
            yield from value
            yield "\n"
    for i, text in enumerate(notes, start=1):
        yield f"caveat_{i}={text}\n" if machine else f"note: {text}\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _fast(argv) or build_parser().parse_args(argv)
    if args.layers not in _bound:
        _bind(args.layers)
    try:
        pairs, notes, code = args.func(args)
        pairs = [("command", args.command)] + [
            (dest, show(getattr(args, dest))) for dest, show in args.echo if show
        ] + [(key, _text(value)) for key, value in pairs]
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.writelines(_render(pairs, notes, args.machine))
    return code


if __name__ == "__main__":
    sys.exit(main())
