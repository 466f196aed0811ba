#!/usr/bin/env python3
"""Benchmark the hot kernels (zdense._kernel_py).

Two workloads, both straight from the deciders' inner loops:
  * ddf: factorization degree patterns of random monic polynomials of
    degree 8, 17 and 30 modulo 21-bit primes (one call per sampling trial
    of every certifier);
  * rank: row rank of dense integer matrices modulo the 31-bit prime
    2^31 - 1, one pass of the rows through a RowEchelon (the Burnside
    irreducibility loop feeds one such echelon per prime, drawn from
    [2^30, 2^31), reducing each product once).

Usage: python benchmarks/bench_kernels.py [--repeat N] [--json PATH [--label TEXT]]

--json appends this run (its label, interpreter, core count and one row per
workload with the best time) to the JSON list in PATH.
"""

import argparse
import json
import os
import platform
import time
from pathlib import Path
from random import Random

from zdense import _kernel_py
from zdense.modular import is_prime

DDF_SIZES = ((8, 400), (17, 100), (30, 40))  # (degree, polynomials)


def make_ddf_workload(rng, count, degree):
    primes = []
    while len(primes) < 40:
        candidate = rng.randrange(1 << 20, 1 << 21)
        if is_prime(candidate):
            primes.append(candidate)
    jobs = []
    while len(jobs) < count:
        coeffs = [rng.randrange(-(10**6), 10**6) for _ in range(degree)] + [1]
        q = primes[len(jobs) % len(primes)]
        try:
            _kernel_py.ddf_degrees(coeffs, q)
        except ValueError:
            continue
        jobs.append((coeffs, q))
    return jobs


def make_rank_workload(rng, count=30, size=100):
    p = (1 << 31) - 1
    jobs = []
    for _ in range(count):
        rows = [
            [rng.randrange(-(10**18), 10**18) for _ in range(size)]
            for _ in range(size)
        ]
        jobs.append((rows, p))
    return jobs


def measure(kernel, workload, jobs, repeat):
    fn = getattr(_kernel_py, kernel)
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in jobs:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    print(f"{kernel}: {workload}\n  python   {best * 1000:10.1f} ms")
    return {"kernel": kernel, "workload": workload, "python_ms": best * 1000}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", type=Path, default=None, metavar="PATH")
    parser.add_argument("--label", default="", help="names the --json entry")
    args = parser.parse_args()

    rng = Random(12345)
    ddf_jobs = [
        (degree, make_ddf_workload(rng, count, degree)) for degree, count in DDF_SIZES
    ]
    rank_jobs = make_rank_workload(rng)

    rows = [
        measure(
            "ddf_degrees",
            f"{len(jobs)} degree-{degree} polynomials, 21-bit primes",
            jobs,
            args.repeat,
        )
        for degree, jobs in ddf_jobs
    ]
    rows.append(
        measure(
            "rank_mod",
            f"{len(rank_jobs)} matrices 100x100, 31-bit prime",
            rank_jobs,
            args.repeat,
        )
    )

    if args.json is not None:
        entries = json.loads(args.json.read_text()) if args.json.exists() else []
        entries.append(
            {
                "label": args.label,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "repeat": args.repeat,
                "rows": rows,
            }
        )
        args.json.write_text(json.dumps(entries, indent=2) + "\n")


if __name__ == "__main__":
    main()
