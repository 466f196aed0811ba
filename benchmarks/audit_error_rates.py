#!/usr/bin/env python3
"""Audit the NO error bound of is_sn on polynomials whose answer is YES.

x^n - x - 1 has Galois group S_n for every n (Osada), so every NO that
is_sn returns on it is false.  For each degree n = 5..30 and each eps in
{1/10, 1/100} the audit runs is_sn over seeds 0..S-1 and records the
false-NO count, its one-sided 95% Clopper-Pearson upper bound, and whether
the count is consistent with a rate <= eps (the binomial tail at eps,
P(X >= count), is at least 5%).  It asserts nothing: rows that break the
bound are the open budget work.

Usage: python benchmarks/audit_error_rates.py [--seeds S] [--json PATH]

--json (default benchmarks/BENCH_audit.json) is overwritten with the run.
"""

import argparse
import json
import math
import platform
from fractions import Fraction
from pathlib import Path
from random import Random

from zdense.galois import is_sn
from zdense.polynomials import IntPoly

DEGREES = range(5, 31)
EPSILONS = ("1/10", "1/100")
LEVEL = 0.05


def binomial_tail(k: int, runs: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(runs, p)."""
    return sum(math.comb(runs, i) * p**i * (1 - p) ** (runs - i) for i in range(k, runs + 1))


def upper_bound(k: int, runs: int) -> float:
    """One-sided 95% Clopper-Pearson upper bound: the p with P(X <= k) = 5%."""
    if k == runs:
        return 1.0
    lo, hi = k / runs, 1.0
    for _ in range(60):
        mid = (lo + hi) / 2
        if 1 - binomial_tail(k + 1, runs, mid) > LEVEL:
            lo = mid
        else:
            hi = mid
    return hi


def audit_row(n: int, eps: str, seeds: int) -> dict:
    f = IntPoly([-1, -1] + [0] * (n - 2) + [1])
    verdicts = [is_sn(f, eps, Random(seed)) for seed in range(seeds)]
    false_no = sum(not v.confirmed for v in verdicts)
    return {
        "n": n,
        "eps": eps,
        "runs": seeds,
        "false_no": false_no,
        "upper95": round(upper_bound(false_no, seeds), 4),
        "consistent_with_eps": binomial_tail(false_no, seeds, float(Fraction(eps))) >= LEVEL,
        "trials": sum(v.trials_used for v in verdicts),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument(
        "--json", type=Path, default=Path(__file__).with_name("BENCH_audit.json")
    )
    args = parser.parse_args(argv)
    rows = []
    for eps in EPSILONS:
        for n in DEGREES:
            row = audit_row(n, eps, args.seeds)
            rows.append(row)
            print(
                f"eps {eps:>5}  n {n:2d}  false NO {row['false_no']:3d}/{row['runs']}"
                f"  upper95 {row['upper95']:.3f}"
                f"  {'ok' if row['consistent_with_eps'] else 'ABOVE EPS'}",
                flush=True,
            )
    doc = {
        "polynomial": "x^n - x - 1",
        "python": platform.python_version(),
        "seeds": args.seeds,
        "rows": rows,
    }
    args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
