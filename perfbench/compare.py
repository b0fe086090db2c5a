#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE CHANGE

BASE and CHANGE are each a directory of records written by run.py
(`.bench_out/*.json`), a single record file, or a captured stdout log
holding `record: {...}` lines. For every workload and end-to-end metric
the script prints each side's median and quartiles and the change of
the medians against the metric's bound (BENCHMARK.json for the gated
metrics, run.py for the workload-specific ones).

It refuses (exit 2) to compare runs of a workload whose host
fingerprints differ: numbers from different machines, toolchains or
scales say nothing about the change. `sim_digest` is compared seed by
seed. Exit 1 when a metric worsened past its bound.
"""

import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import EXTRA_METRICS  # noqa: E402


def load(path):
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".json")
                 and not f.endswith(".spans.json")]
    else:
        files = [path]
    records = []
    for f in files:
        with open(f) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            records.append(json.loads(text))
        else:
            records += [json.loads(line[len("record: "):]) for line in text.splitlines()
                        if line.startswith("record: ")]
    return [r for r in records if not r.get("trace")]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, change = load(sys.argv[1]), load(sys.argv[2])
    if not base or not change:
        sys.exit("no untraced records found on one side")
    for workload in sorted({r["workload"] for r in base + change}):
        prints = {json.dumps(r["fingerprint"], sort_keys=True)
                  for r in base + change if r["workload"] == workload}
        if len(prints) != 1:
            print(f"refusing to compare: the {workload} runs' host fingerprints differ:",
                  file=sys.stderr)
            for p in sorted(prints):
                print("  " + p, file=sys.stderr)
            sys.exit(2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics.update(EXTRA_METRICS)
    worse = False
    for workload in sorted({r["workload"] for r in base + change}):
        sides = [[r for r in rs if r["workload"] == workload] for rs in (base, change)]
        if not all(sides):
            print(f"{workload}: runs on one side only")
            continue
        digests = [{r["seed"]: r.get("sim_digest") for r in rs} for rs in sides]
        common = sorted(set(digests[0]) & set(digests[1]))
        moved = [s for s in common if digests[0][s] != digests[1][s]]
        print(f"{workload}: {len(sides[0])} vs {len(sides[1])} runs; sim_digest "
              + (f"DIFFERS on seeds {moved}" if moved else
                 f"identical on {len(common)} common seed(s)"))
        for name, (unit, better, bound) in metrics.items():
            vals = [[dict(r["end_to_end"], **r["extra"]).get(name) for r in rs] for rs in sides]
            if any(v is None for v in vals[0] + vals[1]):
                continue
            (b1, bm, b3), (c1, cm, c3) = quartiles(vals[0]), quartiles(vals[1])
            delta = (cm - bm) / bm if bm else 0.0
            regress = bound is not None and (delta > bound if better == "lower" else -delta > bound)
            worse |= regress
            print(f"  {name:<18} {bm:>12.4f} [{b1:.4f}, {b3:.4f}]  ->  {cm:>12.4f} "
                  f"[{c1:.4f}, {c3:.4f}] {unit:<5} {delta:+.1%}"
                  + (f"  WORSE than bound {bound:.0%}" if regress else ""))
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
