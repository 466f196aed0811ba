#!/usr/bin/env python3
"""Compare two sets of saved benchmark results.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR [--across-backends]

Each directory holds the records that `run.py --save DIR` writes.  For
every workload in both, prints the median of each metric on each side and
the change (all but the indicative `trace.*` rows), marks end-to-end
metrics that got worse by more than their bound in BENCHMARK.json, and says
for how many seeds the report digests (reports outside `timings`) are
unchanged.  Refuses, with exit code 2, to
compare results whose kernel backends differ unless --across-backends is
given, and then says so in its output.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from records import load_records, metric_median

ROOT = Path(__file__).resolve().parent.parent


def backends(records):
    return sorted({r["context"]["kernel_backend"] for r in records})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--across-backends", action="store_true")
    args = parser.parse_args(argv)
    base, new = load_records(args.base), load_records(args.new)

    if backends(base) != backends(new):
        message = f"kernel backends differ: base {backends(base)}, new {backends(new)}"
        if not args.across_backends:
            print(f"refusing to compare: {message} (pass --across-backends to override)")
            return 2
        print(f"WARNING: {message}; differences include the backend change")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for trace in (0, 1):
            b = [r for r in base if r["workload"] == workload and r["trace"] == trace]
            n = [r for r in new if r["workload"] == workload and r["trace"] == trace]
            if not (b and n):
                continue
            print(f"{workload} trace={trace}: {len(b)} base runs, {len(n)} new runs")
            for name in b[0]["metrics"]:
                if name.startswith("trace."):
                    continue  # the tracer's overhead is below the noise of one pass
                mb, mn = metric_median(b, name), metric_median(n, name)
                line = f"  {name:48s} {mb:12.6g} -> {mn:12.6g}"
                if mb:
                    line += f"  ({(mn - mb) / mb:+.1%})"
                rule = rules.get(name)
                if trace == 0 and rule and mb:
                    loss = (mn - mb) / mb if rule["better"] == "lower" else (mb - mn) / mb
                    if loss > rule["bound"]:
                        worse += 1
                        line += f"  WORSE than bound {rule['bound']:.0%}"
                print(line)
            digests = {r["seed"]: r["gate"]["report_digest"] for r in b}
            pairs = [(digests[r["seed"]], r["gate"]["report_digest"])
                     for r in n if r["seed"] in digests]
            same = sum(x == y for x, y in pairs)
            print(f"  reports unchanged outside timings on {same} of {len(pairs)} shared seeds")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
