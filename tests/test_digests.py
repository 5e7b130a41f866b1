"""Replay of the benchmark's reference answers.

Every query any seed of the four ``perfbench`` workloads can send goes
through ``cli.main`` here, and its exit code and the SHA-256 of its
``--machine`` stdout must equal the ones ``perfbench/digests.json`` records,
both through the fast path and through argparse alone.
The benchmark's own modules build the queries and the variety files; the
files are written under the test's temporary directory, and nothing under
``perfbench/`` is changed.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from chainlines import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _bench_module(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


def _replay(tmp_path, monkeypatch):
    """The answers to every pool query, checked against digests.json."""
    workloads = _bench_module(monkeypatch, "workloads")
    oracle = _bench_module(monkeypatch, "oracle")
    reference = oracle.load_digests()
    answers = {}
    for name in workloads.WORKLOADS:
        varieties = workloads.varieties_for(name)
        paths = {}
        for v in varieties:
            path = tmp_path / f"{v.name}.var"
            path.write_text(v.text())
            paths["@" + v.name] = str(path)
        for q in workloads.pool(workloads.slots_for(name, varieties)):
            code, out = _run([paths.get(a, a) for a in q.argv])
            # stdout echoes the variety file's path: write it back as @name,
            # as the benchmark's Workload.normalize does
            for a in q.argv:
                if a in paths:
                    out = out.replace(paths[a], a)
            answers[q.key] = [code, oracle.digest(out)]
    assert answers.keys() == reference.keys()
    wrong = [key for key, answer in answers.items() if answer != reference[key]]
    assert not wrong, f"{len(wrong)} of {len(answers)} answers differ, first {wrong[:5]}"


def test_every_pool_query_gives_its_recorded_digest(tmp_path, monkeypatch):
    _replay(tmp_path, monkeypatch)


def test_argparse_gives_every_recorded_digest(tmp_path, monkeypatch):
    # argparse, the fallback, stays the oracle of the fast path: with the
    # fast path off, every query still gets its exit code and digest
    monkeypatch.setattr(cli, "_fast", lambda argv: None)
    _replay(tmp_path, monkeypatch)
