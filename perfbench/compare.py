#!/usr/bin/env python3
"""Collect benchmark runs of one or two checkouts and compare them against the bounds.

    python3 perfbench/compare.py collect runs.jsonl PARENT [CHANGE] [--seeds 1-10] [--trace 1]
    python3 perfbench/compare.py report runs.jsonl

``collect`` runs ``run.py`` at the root of each checkout once per workload
and seed, for ``run_seconds`` as ``BENCHMARK.json`` gives it, and appends
each JSON result to the file.  Given two checkouts it alternates them,
A B for one seed and B A for the next, so that the machine's drift falls on
both alike.

``report`` prints, for every metric and workload, the median and quartiles
of each checkout's runs and the spread (interquartile range over median).
Given two checkouts it also takes, seed by seed, the second's value over the
first's, and judges the median of these paired ratios against the metric's
bound.  It exits 1 if a spread exceeds its bound or the second checkout is
worse by more than it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(args) -> int:
    sides = list(enumerate(args.checkouts))
    with open(args.out, "a") as fh:
        for w in BENCHMARK["workloads"]:
            for i, seed in enumerate(seeds(args.seeds)):
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    cmd = BENCHMARK["command"] + [
                        "--workload", w["name"], "--seed", str(seed),
                        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(args.trace)]
                    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                                          timeout=900)
                    if done.returncode:
                        print(done.stderr, file=sys.stderr)
                        return done.returncode
                    result = json.loads(done.stdout.splitlines()[-1])
                    record = {"workload": w["name"], "seed": seed, "side": side,
                              "trace": args.trace, "result": result}
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    print(f"{w['name']} seed {seed} side {side}: "
                          f"failed {result['failed']}/{result['attempted']}")
    return 0


def load(path) -> tuple[dict, dict]:
    """(side, workload, metric) -> {seed: value}, and (side, workload) -> [failed, attempted]."""
    values, tally = defaultdict(dict), defaultdict(lambda: [0, 0])
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        key, result = (record["side"], record["workload"]), record["result"]
        for metric, entry in result["metrics"].items():
            values[key + (metric,)][record["seed"]] = entry["value"]
        tally[key][0] += result["failed"]
        tally[key][1] += result["attempted"]
    return values, tally


def summary(vals) -> tuple[float, str]:
    median = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
    spread = (q3 - q1) / median if median else 0.0
    return spread, f"{median:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f} n={len(vals)}"


def report(args) -> int:
    values, tally = load(args.runs)
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    sides = sorted({side for side, _ in tally})
    ok = True
    for w in (w["name"] for w in BENCHMARK["workloads"]):
        if not any((side, w) in tally for side in sides):
            continue
        for side in sides:
            failed, attempted = tally[side, w]
            print(f"{w}: side {side}: failed {failed} of {attempted} queries")
        for name, meta in metrics.items():
            runs = [values.get((side, w, name), {}) for side in sides]
            if not any(runs):
                continue
            bound = meta.get("bound")
            cells = []
            for by_seed in runs:
                if not by_seed:
                    cells.append("-")
                    continue
                spread, cell = summary(list(by_seed.values()))
                if bound is not None and spread > bound:
                    ok = False
                    cell += " SPREAD>BOUND"
                cells.append(cell)
            verdict = ""
            if len(runs) == 2 and (paired := sorted(set(runs[0]) & set(runs[1]))):
                ratio = statistics.median(runs[1][s] / runs[0][s] for s in paired)
                worse = ratio - 1 if meta["better"] == "lower" else 1 - ratio
                verdict = f" | paired ratio {ratio:.3f} over {len(paired)} seeds"
                if bound is not None:
                    ok &= worse <= bound
                    verdict += f", second worse by {worse:+.3f} (bound {bound}) " + (
                        "agree" if abs(worse) <= bound else "WORSE" if worse > 0 else "BETTER")
            print(f"  {name:<44} {meta['unit']:<6} " + " | ".join(cells) + verdict)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("checkouts", nargs="+", help="one or two checkout roots; the first is side 0")
    c.add_argument("--seeds", default="1-10", help="first-last, e.g. 1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    c.set_defaults(func=collect)
    r = sub.add_parser("report")
    r.add_argument("runs", help="a file written by collect")
    r.set_defaults(func=report)
    args = parser.parse_args(argv)
    if args.command == "collect" and len(args.checkouts) > 2:
        parser.error("collect takes one or two checkouts")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
