#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``chainlines`` command line.

    python3 perfbench/run.py --workload sym_count --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  One process sends a seeded query list
through ``chainlines.cli.main(argv)`` with ``--machine`` on and stdout
captured: a closed loop with one client, each query sent when the previous
one has returned.  The list is run again and again (a *pass*) while the
next pass is expected to end within ``--seconds``.  Every answer is checked
(see ``oracle.py``).

Every reported time is scaled to a reference machine speed by calibration
samples taken around it (see ``calibration.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracle
import tracing
import workloads
from calibration import REFERENCE_S, Calibration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

QUERY_CAP_S = 30.0  # a query running longer counts as failed
RUN_LIMIT_S = 150.0  # queries not started by then count as failed
SETUP_RUNS = 5  # set-ups timed before each plain pass
TAIL_BEYOND = 10  # samples above the reported tail latency

SETUP_CHILD = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[3])
from calibration import calibrate
calibrate()  # the first call in a fresh interpreter is slower
samples = [calibrate() for _ in range(3)]
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import chainlines.cli
with contextlib.redirect_stdout(io.StringIO()):
    chainlines.cli.main(json.loads(sys.argv[2]))
took = time.perf_counter() - start
samples += [calibrate() for _ in range(3)]
print(json.dumps([took, samples]))
"""

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms",
                    "query_tail_ms": "ms", "peak_rss_mb": "MB"}


class QueryTimeout(BaseException):
    """Raised by the alarm in a query that outruns its cap.

    A BaseException, so the CLI's own ``except ValueError`` cannot absorb it.
    """


class Runner:
    """Runs one query at a time in this process, under a wall-clock cap."""

    def __init__(self, cli, hard_deadline: float):
        self.cli = cli
        self.hard_deadline = hard_deadline
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self.armed:
            self.armed = False
            raise QueryTimeout

    def __call__(self, argv):
        """Exit code (or why there is none), seconds taken, stdout."""
        cap = min(QUERY_CAP_S, self.hard_deadline - perf_counter())
        if cap <= 0:
            return "not started before the run limit", 0.0, ""
        out, err = io.StringIO(), io.StringIO()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, cap)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
        except QueryTimeout:
            code = f"exceeded the {cap:g} s cap"
        except Exception as exc:  # a crash fails the query, not the run
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            self.armed = False
            took = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, took, out.getvalue()


class Workload:
    """The seeded pass list with its variety files, and the reference answers."""

    def __init__(self, name: str, seed: int):
        self.name = name
        varieties = workloads.varieties_for(name)
        vdir = OUT / "varieties"
        vdir.mkdir(parents=True, exist_ok=True)
        self.varieties = {v.name: v for v in varieties}
        self.paths = {}
        for v in varieties:
            path = vdir / f"{v.name}.var"
            path.write_text(v.text())
            self.paths[v.name] = str(path)
        self.slots = workloads.slots_for(name, varieties)
        self.queries = workloads.select(self.slots, seed)
        if len(self.queries) <= TAIL_BEYOND:
            raise ValueError(f"{name}: a pass needs more than {TAIL_BEYOND} queries")
        self.reference: dict[str, list] = {}

    def argv(self, query) -> list[str]:
        return [self.paths[a[1:]] if a.startswith("@") else a for a in query.argv]

    def normalize(self, query, out):
        """The query's variety, and stdout with its file path written as ``@name``."""
        variety = None
        for a in query.argv:
            if a.startswith("@"):
                variety = self.varieties[a[1:]]
                out = out.replace(self.paths[a[1:]], a)
        return variety, out

    def verdict(self, query, code, out) -> str | None:
        variety, out = self.normalize(query, out)
        return oracle.check(query, variety, code, out, self.reference)


def run_pass(wl: Workload, runner: Runner, calibration: Calibration, tracer=None) -> dict:
    """One pass of the query list, with a calibration sample before each query.

    Each answer is checked, and its stdout dropped, before the next query is
    sent; the pass's wall time is the sum of its query latencies, so neither
    the checking nor the calibration is in it.
    """
    gc.collect()
    starts, latencies, failures = [], [], []
    output_bytes = 0
    for i, q in enumerate(wl.queries):
        calibration.sample()
        if tracer is not None:
            tracer.qid = i
        starts.append(perf_counter())
        code, took, out = runner(wl.argv(q))
        latencies.append(took)
        output_bytes += len(out.encode())
        if why := wl.verdict(q, code, out):
            failures.append(f"{q.key}: {why}")
    return {"starts": starts, "latencies": latencies, "failures": failures,
            "output_bytes": output_bytes}


def run_passes(wl, runner, deadline, calibration, setup=None, tracer=None):
    """Whole passes while the next one is expected to end before the deadline;
    at least one.  Returns (plain passes, traced passes).

    Each plain pass comes after SETUP_RUNS set-ups, appended to ``setup`` if
    given, so that set-up is sampled all through the run.  With a tracer, a
    traced pass follows each plain one, so both see the same machine.
    """
    plain, traced = [], []
    while True:
        start = perf_counter()
        if setup is not None:
            setup += measure_setup(wl)
        plain.append(run_pass(wl, runner, calibration))
        if tracer is not None:
            tracer.start_pass()
            undo = tracing.install(tracer)
            try:
                done = run_pass(wl, runner, calibration, tracer)
            finally:
                tracing.uninstall(undo)
            done["layers"] = tracer.layer_metrics()
            traced.append(done)
        now = perf_counter()
        if now + (now - start) > deadline:
            return plain, traced


def scale(passes, calibration: Calibration) -> None:
    """Each pass's query latencies at the reference speed, as ``scaled``."""
    for p in passes:
        p["scaled"] = [calibration.scaled(t, lat) for t, lat in zip(p["starts"], p["latencies"])]


def per_query(passes) -> list[float]:
    """Each query's median scaled latency over the passes."""
    return [statistics.median(lat) for lat in zip(*(p["scaled"] for p in passes))]


def tail(latencies: list[float]) -> float:
    """Latency with exactly TAIL_BEYOND samples above it."""
    return sorted(latencies)[len(latencies) - TAIL_BEYOND - 1]


def measure_setup(wl: Workload) -> list[float]:
    """SETUP_RUNS fresh interpreters, each timing import plus the first call,
    scaled by calibration samples of its own taken before and after."""
    argv = json.dumps(wl.argv(workloads.Query(workloads.WARMUP[wl.name])))
    times = []
    for _ in range(SETUP_RUNS):
        child = [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), argv, str(HERE)]
        done = subprocess.run(child, capture_output=True, text=True, timeout=60, check=True)
        took, samples = json.loads(done.stdout.splitlines()[-1])
        times.append(took * REFERENCE_S * len(samples) / sum(samples))
    return times


def end_to_end(wl, plain, setup) -> tuple[dict, list[str]]:
    n, k = len(wl.queries), len(plain)
    latencies = per_query(plain)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(p["scaled"]) for p in plain),
        "query_p50_ms": 1000 * statistics.median(latencies),
        "query_tail_ms": 1000 * tail(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    level = 100 * (n - TAIL_BEYOND) / n
    each = f"each one's median over {k} passes"
    notes = {
        "setup_s": f"median of {len(setup)} set-ups (import + first call)",
        "wall_s": f"median over {k} passes of the sum of {n} query latencies",
        "query_p50_ms": f"median over {n} queries of {each}",
        "query_tail_ms": f"p{level:.1f} over {n} queries of {each}",
        "peak_rss_mb": "peak resident set of this process",
    }
    lines = [f"{k:<16}{v:>14.6f} {END_TO_END_UNITS[k]:<3} {notes[k]}" for k, v in values.items()]
    return values, lines


def per_layer(wl, plain, traced, factor) -> tuple[dict, list[str]]:
    """Counts and layer times (scaled by the run's ``factor``) are medians
    over the traced passes; rungs sum their queries' median scaled latencies."""
    layers = {}
    for key in traced[0]["layers"]:
        value = statistics.median(p["layers"][key] for p in traced)
        layers[key] = value * factor if key.endswith("_s") else value
    layers["cli.output_bytes"] = statistics.median(p["output_bytes"] for p in traced)
    latencies = per_query(traced)
    for rung in workloads.RUNGS:
        layers[rung + "_s"] = sum(t for q, t in zip(wl.queries, latencies) if q.rung == rung)
    layers["trace_overhead_ratio"] = sum(latencies) / sum(per_query(plain))
    lines = [f"{k:<48}{v:>16.6f}" for k, v in layers.items()]
    lines.append(f"(medians over {len(traced)} traced passes; rungs: sums of each query's "
                 f"median latency; 0 where the layer or rung does no work in {wl.name})")
    return layers, lines


def load_cli():
    """``chainlines.cli`` from this checkout's ``src``, never an installed copy."""
    if not (SRC / "chainlines" / "cli.py").is_file():
        sys.exit(f"error: no chainlines sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainlines.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "chainlines":
        sys.exit(f"error: imported chainlines from {cli.__file__}, not {SRC}")
    return cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    cli = load_cli()
    wl = Workload(args.workload, args.seed)
    wl.reference = oracle.load_digests()
    gc.freeze()  # keep the harness's own objects out of the program's collections
    runner = Runner(cli, started + RUN_LIMIT_S)
    with contextlib.redirect_stdout(io.StringIO()):  # first call, outside the timing
        cli.main(wl.argv(workloads.Query(workloads.WARMUP[wl.name])))
    deadline = perf_counter() + args.seconds

    calibration = Calibration()
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = run_passes(wl, runner, deadline, calibration, tracer=tracer)
        scale(plain + traced, calibration)
        metrics, lines = per_layer(wl, plain, traced, calibration.factor())
        units = dict.fromkeys(metrics, "count")
        units.update({k: "s" for k in metrics if k.endswith("_s")})
        units.update({k: "ratio" for k in metrics if k.endswith("_ratio")})
        units["cli.output_bytes"] = "bytes"
        tracer.write(OUT / f"trace-{wl.name}-{args.seed}.jsonl")
    else:
        setup = []
        plain, traced = run_passes(wl, runner, deadline, calibration, setup=setup)
        scale(plain, calibration)
        metrics, lines = end_to_end(wl, plain, setup)
        units = END_TO_END_UNITS

    passes = plain + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = len(wl.queries) * len(passes)
    print(f"workload={wl.name} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"queries_per_pass={len(wl.queries)} python={platform.python_version()} "
          f"nproc={len(os.sched_getaffinity(0))}")
    took = calibration.took
    print(f"times at reference speed: mean calibration {1000 * sum(took) / len(took):.4f} ms "
          f"over {len(took)} samples, reference {1000 * REFERENCE_S:g} ms")
    print("\n".join(lines))
    print(f"failed_frac={len(failures)}/{attempted}={len(failures) / attempted:.6f}")
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
