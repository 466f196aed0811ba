#!/usr/bin/env python3
"""Audit the NO error bound of the Galois certifiers on YES polynomials.

x^n - x - 1 has Galois group S_n for every n (Osada), so every NO that
is_sn returns on it is false.  Its reciprocal lift x^n F(x + 1/x), with
F = x^n - x - 1, has degree 2n and Galois group C_2 wr S_n (the runs that
answer YES certify this), so every NO that is_hyperoctahedral returns on it
is false.  For each eps in {1/10, 1/100}, each trinomial degree n = 5..30
and each reciprocal lift n = 3..12, the audit runs the certifier over seeds
0..S-1 and records the false-NO count, how many of them ended in the
transitivity stage (the sumset intersection over the witnesses never
emptied; for is_hyperoctahedral, in the trace polynomial's is_sn), the
count's one-sided 95% Clopper-Pearson upper bound, and whether the count
is consistent with a rate <= eps (the binomial tail at eps, P(X >= count),
is at least 5%).  It asserts nothing: rows that break the bound are the
open budget work.

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

from zdense.galois import is_hyperoctahedral, is_sn, sumset
from zdense.polynomials import IntPoly, trace_polynomial
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


def trinomial(n: int) -> IntPoly:
    return IntPoly([-1, -1] + [0] * (n - 2) + [1])


def reciprocal_trinomial(n: int) -> IntPoly:
    """x^n F(x + 1/x) = sum_k c_k x^(n-k) (x^2 + 1)^k for F = x^n - x - 1."""
    f = IntPoly()
    for k, c in enumerate(trinomial(n).coeffs):
        term = IntPoly.monomial(n - k, c)
        for _ in range(k):
            term = term * IntPoly([1, 0, 1])
        f = f + term
    return f


FAMILIES = {
    # name: (certifier, polynomial of degree parameter n, degrees n)
    "x^n - x - 1": (is_sn, trinomial, range(5, 31)),
    "x^n F(x + 1/x), F = x^n - x - 1": (is_hyperoctahedral, reciprocal_trinomial, range(3, 13)),
}


def ended_in_transitivity(certifier, f: IntPoly, eps: str, seed: int, verdict) -> bool:
    """True iff the NO verdict ran out in the sumset-intersection stage.

    A hyperoctahedral NO without witnesses on f was decided by the trace
    polynomial's is_sn, which drew the first primes from the same seed, so
    rerunning it reproduces that verdict and its witnesses."""
    if certifier is is_hyperoctahedral:
        if verdict.witnesses:
            return False
        f = trace_polynomial(f)
        verdict = is_sn(f, Fraction(eps) / 2, Random(seed))
    survivors = set(range(1, f.degree))
    for _, degrees in verdict.witnesses:
        survivors &= sumset(degrees)
    return bool(survivors)


def audit_row(family: str, n: int, eps: str, seeds: int) -> dict:
    certifier, polynomial, _ = FAMILIES[family]
    f = polynomial(n)
    verdicts = [certifier(f, eps, Random(seed)) for seed in range(seeds)]
    false_nos = [(seed, v) for seed, v in enumerate(verdicts) if not v.confirmed]
    false_no = len(false_nos)
    return {
        "family": family,
        "n": n,
        "eps": eps,
        "runs": seeds,
        "false_no": false_no,
        "false_no_transitivity": sum(
            ended_in_transitivity(certifier, f, eps, seed, v) for seed, v in false_nos
        ),
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
    for family, (_, _, degrees) in FAMILIES.items():
        for eps in EPSILONS:
            for n in degrees:
                row = audit_row(family, n, eps, args.seeds)
                rows.append(row)
                print(
                    f"{family:>32}  eps {eps:>5}  n {n:2d}"
                    f"  false NO {row['false_no']:3d}/{row['runs']}"
                    f" ({row['false_no_transitivity']} transitivity)"
                    f"  upper95 {row['upper95']:.3f}"
                    f"  {'ok' if row['consistent_with_eps'] else 'ABOVE EPS'}",
                    flush=True,
                )
    doc = {
        "python": platform.python_version(),
        "seeds": args.seeds,
        "rows": rows,
    }
    args.json.write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
