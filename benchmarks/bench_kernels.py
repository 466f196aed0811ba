#!/usr/bin/env python3
"""Benchmark the hot kernels (zdense._kernel_py), the word product and the
Burnside gate.

Four workloads, all straight from the deciders' inner loops:
  * ddf: factorization degree patterns of random monic polynomials of
    degree 8, 17 and 30 modulo 21-bit primes (one call per sampling trial
    of every certifier);
  * rank: row rank of dense integer matrices modulo the 31-bit prime
    2^31 - 1, one pass of the rows through a RowEchelon (the Burnside
    irreducibility loop feeds one such echelon per prime, drawn from
    [2^30, 2^31), reducing each product once);
  * word: 139-letter random words (the length at the default epsilon)
    over conjugated dense generators of SL(4), SL(12) and SL(24), formed
    by zdense.matrices.word_from_letters as the Weyl route forms its two;
  * irreducibility: zdense.zariski.is_irreducible_algebra, the Burnside
    gate, on the adjoint matrices of SL(3), SL(4), SL(5), Sp(4) and Sp(6)
    (the adjoint route) and on the standard matrices of Sp(4), Sp(10),
    Sp(16) and Sp(24) (the Weyl route's symplectic gate), each for dense
    generators and for block-triangular (parabolic) ones, conjugated by a
    word in the dense group; the dense rows time a YES, the parabolic rows
    a NO.

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
    random_word,
    random_word_letters,
    validate,
    word_from_letters,
)
from zdense.modular import is_prime
from zdense.zariski import adjoint_matrices, is_irreducible_algebra

DDF_SIZES = ((8, 400), (17, 100), (30, 40))  # (degree, polynomials)
WORD_SIZES = ((4, 40), (12, 12), (24, 6))  # (dimension, words)
WORD_LENGTH = 139
# (group, dimension, action); each is timed on dense and parabolic generators
IRREDUCIBILITY_SIZES = (
    ("SL", 3, "adjoint"), ("SL", 4, "adjoint"), ("SL", 5, "adjoint"),
    ("Sp", 4, "adjoint"), ("Sp", 6, "adjoint"),
    ("Sp", 4, "standard"), ("Sp", 10, "standard"), ("Sp", 16, "standard"),
    ("Sp", 24, "standard"),
)
IRREDUCIBILITY_COPIES = 2


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


def _signed_cycle(n):
    cycle = [[int(i == (j + 1) % n) for j in range(n)] for i in range(n)]
    if n % 2 == 0:
        cycle[0][n - 1] = -1
    return Matrix(cycle)


def _block_diag(a, b):
    n, k = a.dim, b.dim
    return Matrix([list(r) + [0] * k for r in a.rows] + [[0] * n + list(r) for r in b.rows])


def _sl_gens(n, dense):
    """I + e_12 and a signed n-cycle (dense), or both blocks' dense pairs
    and I + e_(k,k+1), which keep span(e_1..e_k) for k = n // 2."""
    if dense:
        return [_unit(n, [(0, 1, 1)]), _signed_cycle(n)]
    k = n // 2
    gens = [_block_diag(x, Matrix.identity(n - k)) for x in _sl_gens(k, True)] if k > 1 else []
    gens += [_block_diag(Matrix.identity(k), y) for y in _sl_gens(n - k, True)]
    return gens + [_unit(n, [(k - 1, k, 1)])]


def _sp_gens(m, dense):
    """A long-root and a short-root element and a signed cycle on the Levi,
    plus J when dense; without J they keep the Lagrangian span(e_1..e_m)."""
    n = 2 * m
    gens = [_unit(n, [(0, m, 1)])]
    if m > 1:
        gens.append(_block_diag(_unit(m, [(0, 1, 1)]), _unit(m, [(1, 0, -1)])))
        cycle = _signed_cycle(m)
        gens.append(_block_diag(cycle, cycle))
    if dense:
        gens.append(Matrix([[(c == r + m) - (r == c + m) for c in range(n)] for r in range(n)]))
    return gens


def make_word_workload(rng, count, n):
    """SL(n) generated by I + e_12 and a signed n-cycle (a dense pair),
    conjugated by a product of n random transvections, and `count` seeded
    letter sequences over its symmetric alphabet."""
    g = Matrix.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        g = multiply(g, _unit(n, [(i, j, rng.choice((-2, -1, 1, 2)))]))
    g_inv = adjugate_inverse(g)
    gens = [multiply(multiply(g, x), g_inv) for x in _sl_gens(n, True)]
    gs = validate(GroupKind.SPECIAL_LINEAR, n, gens)
    return [(gs, random_word_letters(gs, WORD_LENGTH, rng)) for _ in range(count)]


def make_irreducibility_job(rng, group, n, action, dense):
    """The gate's input for `group`(n) under `action`, conjugated by a word
    of length n in the dense group, and a decider seed."""
    kind = GroupKind.SPECIAL_LINEAR if group == "SL" else GroupKind.SYMPLECTIC
    make = _sl_gens if group == "SL" else (lambda n, dense: _sp_gens(n // 2, dense))
    g = random_word(validate(kind, n, make(n, True)), n, rng)
    g_inv = adjugate_inverse(g)
    gs = validate(kind, n, [multiply(multiply(g, x), g_inv) for x in make(n, dense)])
    mats = adjoint_matrices(gs) if action == "adjoint" else list(gs.generators)
    return mats, mats[0].dim, rng.randrange(1 << 63)


def irreducibility(mats, dim, seed):
    return is_irreducible_algebra(mats, dim, Random(seed))


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
    irreducibility_jobs = [
        (group, n, action, dense,
         [make_irreducibility_job(rng, group, n, action, dense)
          for _ in range(IRREDUCIBILITY_COPIES)])
        for group, n, action in IRREDUCIBILITY_SIZES
        for dense in (True, False)
    ]

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
    rows.extend(
        measure(
            "is_irreducible_algebra",
            f"{len(jobs)} {'dense' if dense else 'parabolic'} {group}({n}), {action}"
            f" (dim {jobs[0][1]})",
            jobs,
            args.repeat,
            irreducibility,
        )
        for group, n, action, dense, jobs in irreducibility_jobs
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
