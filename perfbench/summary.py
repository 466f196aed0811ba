#!/usr/bin/env python3
"""Summarize saved benchmark records as one JSON entry.

Usage: python3 perfbench/summary.py DIR [--label TEXT] > entry.json

DIR holds the records that `run.py --save DIR` writes.  For each workload
the entry gives, per metric, the median and quartiles over the runs; the
false-NO and error counts, with the instance kinds (without copy suffix)
that got the false NOs; the report digest of every seed; and, from the
traced runs, the layer with the most self time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import Counter

from records import load_records, metric_median


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else None}


def summarize(records):
    out = {}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        plain = sorted((r for r in runs if r["trace"] == 0), key=lambda r: r["seed"])
        traced = [r for r in runs if r["trace"] == 1]
        entry = {
            "runs": len(plain),
            "seeds": [r["seed"] for r in plain],
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {name: quartiles([r["metrics"][name] for r in plain])
                        for name in (plain[0]["metrics"] if plain else ())},
            "false_no": f"{sum(r['false_no'] for r in plain)} of "
                        f"{sum(r['attempted_yes'] for r in plain)} known-YES decisions",
            "false_no_share": sum(r["false_no"] for r in plain)
                              / max(1, sum(r["attempted_yes"] for r in plain)),
            "false_no_by_family": dict(sorted(Counter(
                i["name"].rsplit("/", 1)[0] for r in plain for i in r["instances"]
                if i["yes"] and i["exit_code"] == 1).items())),
            "errors": f"{sum(r['errors'] for r in plain)} of "
                      f"{sum(r['attempted'] for r in plain)} decisions",
            "report_digests": {str(r["seed"]): r["gate"]["report_digest"] for r in plain},
        }
        if traced:
            entry["dominant_layer"] = sorted({r["dominant_layer"] for r in traced})
            entry["layer_self_s"] = {
                name: metric_median(traced, name)
                for name in traced[0]["metrics"] if name.startswith("layer.")
            }
            entry["trace_overhead_share"] = metric_median(traced, "trace.overhead_share")
        out[workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir")
    parser.add_argument("--label", default="")
    args = parser.parse_args(argv)
    records = load_records(args.dir)
    contexts = {json.dumps({k: v for k, v in r["context"].items()}, sort_keys=True)
                for r in records}
    print(json.dumps({
        "label": args.label,
        "contexts": [json.loads(c) for c in sorted(contexts)],
        "workloads": summarize(records),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
