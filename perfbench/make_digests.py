#!/usr/bin/env python3
"""Record the reference answers that ``oracle.check`` compares against.

    python3 perfbench/make_digests.py

Runs every query any seed can send (the pool of each workload) through the
checked-out ``chainlines`` and writes its exit code and the SHA-256 of its
``--machine`` stdout to ``digests.json``.  Run it only at a commit whose
output is the reference; a later change that alters an answer must show up
as a failed query, not as new digests.  Before writing, every answer is held
to the independent closed forms in ``oracle.py``; any disagreement is
printed and nothing is written.
"""

from __future__ import annotations

import json
import sys
import time

import oracle
import run
import workloads


def main() -> int:
    cli = run.load_cli()
    runner = run.Runner(cli, time.perf_counter() + 3600)
    reference, problems = {}, []
    for name in workloads.WORKLOADS:
        wl = run.Workload(name, 0)
        queries = workloads.pool(wl.slots)
        start = time.perf_counter()
        for q in queries:
            code, _, out = runner(wl.argv(q))
            variety, out = wl.normalize(q, out)
            if code not in (0, 1, 2):
                problems.append(f"{q.key}: {code}")
            elif why := oracle.independent_check(q.argv, variety, code, out):
                problems.append(f"{q.key}: {why}")
            reference[q.key] = [code, oracle.digest(out)]
        print(f"{name}: {len(queries)} queries in {time.perf_counter() - start:.1f} s")
    if problems:
        print("\n".join(["the closed forms disagree with the program:"] + problems))
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items())]
    oracle.DIGESTS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(reference)} digests to {oracle.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
