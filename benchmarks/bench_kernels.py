#!/usr/bin/env python3
"""Benchmark the hot kernels (zdense._kernel_py) and the word product.

Three workloads, all straight from the deciders' inner loops:
  * ddf: factorization degree patterns of random monic polynomials of
    degree 8, 17 and 30 modulo 21-bit primes (one call per sampling trial
    of every certifier);
  * rank: row rank of dense integer matrices modulo the 31-bit prime
    2^31 - 1, one pass of the rows through a RowEchelon (the Burnside
    irreducibility loop feeds one such echelon per prime, drawn from
    [2^30, 2^31), reducing each product once);
  * word: 139-letter random words (the length at the default epsilon)
    over conjugated dense generators of SL(4), SL(12) and SL(24), formed
    by zdense.matrices.word_from_letters as the Weyl route forms its two.

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
from zdense.matrices import (
    GroupKind,
    Matrix,
    adjugate_inverse,
    multiply,
    random_word_letters,
    validate,
    word_from_letters,
)
from zdense.modular import is_prime

DDF_SIZES = ((8, 400), (17, 100), (30, 40))  # (degree, polynomials)
WORD_SIZES = ((4, 40), (12, 12), (24, 6))  # (dimension, words)
WORD_LENGTH = 139


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


def _unit(n, cells):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i, j, v in cells:
        rows[i][j] += v
    return Matrix(rows)


def make_word_workload(rng, count, n):
    """SL(n) generated by I + e_12 and a signed n-cycle (a dense pair),
    conjugated by a product of n random transvections, and `count` seeded
    letter sequences over its symmetric alphabet."""
    cycle = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    if n % 2 == 0:
        cycle[0][n - 1] = -1
    g = Matrix.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        g = multiply(g, _unit(n, [(i, j, rng.choice((-2, -1, 1, 2)))]))
    g_inv = adjugate_inverse(g)
    gens = [multiply(multiply(g, x), g_inv) for x in (_unit(n, [(0, 1, 1)]), Matrix(cycle))]
    gs = validate(GroupKind.SPECIAL_LINEAR, n, gens)
    return [(gs, random_word_letters(gs, WORD_LENGTH, rng)) for _ in range(count)]


def measure(kernel, workload, jobs, repeat, fn=None):
    fn = fn or getattr(_kernel_py, kernel)
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
    word_jobs = [(n, make_word_workload(rng, count, n)) for n, count in WORD_SIZES]

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
    rows.extend(
        measure(
            "word_from_letters",
            f"{len(jobs)} words of {WORD_LENGTH} letters, SL({n})",
            jobs,
            args.repeat,
            word_from_letters,
        )
        for n, jobs in word_jobs
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
