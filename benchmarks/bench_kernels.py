#!/usr/bin/env python3
"""Benchmark the hot kernels (zdense._kernel_py), the word product, the
Burnside gate, the S_n certifier and the Weyl route.

Eleven workloads, all straight from the deciders' inner loops:
  * ddf: factorization degree patterns of random monic polynomials of
    degree 8, 17 and 30 modulo 21-bit primes (one call per sampling trial
    of every certifier);
  * rank: row rank of dense integer matrices modulo the 31-bit prime
    2^31 - 1, one pass of the rows through a RowEchelon (the Burnside
    irreducibility loop feeds one such echelon per prime, drawn from
    [2^30, 2^31), reducing each product once);
  * word: 139-letter random words (the length at the default epsilon)
    over conjugated dense generators of SL(4), SL(12) and SL(24), formed
    by zdense.matrices.word_from_letters as the Weyl route forms each word;
  * charpoly: zdense.matrices.characteristic_polynomial, the Berkowitz
    iteration the Weyl route runs on each word it tries to certify, on the
    words the word rows form (these rows draw no rng, so adding them moved
    no other row's input);
  * irreducibility: zdense.zariski.is_irreducible_algebra, the Burnside
    algebra dimension, on the adjoint matrices of SL(3), SL(4), SL(5),
    Sp(4) and Sp(6) (the adjoint route) and on the standard matrices of
    Sp(4), Sp(10), Sp(16) and Sp(24), each for dense generators and for
    block-triangular (parabolic) ones, conjugated by a word in the dense
    group; the dense rows time a YES, the
    parabolic rows a NO.  Its NO is the walk plus its lifted check: the
    reduced echelon basis of the walk's span mod p is rationally
    reconstructed, and each kept element and each product the walk did not
    keep is checked in its span by one exact packed check (rows before
    that rebuilt each product from its own coefficients on the kept ones,
    and rows before those timed a fraction-free rank of every product).
    Each parabolic row is followed by a `gate` row: the adjoint
    route's gate, zdense.zariski._irreducible, on the same inputs and
    seeds, whose NO is Norton's short spin, its subspace lifted and checked
    exactly, and the walk only when no attempt answers.  Three more `gate` rows time
    the gate alone on the adjoint matrices of NO inputs whose every theta
    has a wide eigenspace or a finite order: Heisenberg (upper
    unitriangular) SL(4) and SL(6), where Norton's spin starts from the
    first vector of a kernel wider than a line, and a signed-permutation
    SL(4);
  * factor: the Galois transitivity stage's factor attempt,
    zdense.galois._lifted_factor, at 20 seeded 21-bit primes each, on the
    galois band polynomial (x^8 - 2)(x^9 - 3) and on x^22 - x - 1, both
    Taylor-shifted by a 32-bit a.  It is handed the distinct-degree parts
    that each prime's factor_degrees_mod call left and f's bounds, as the
    stage hands them, so the rows time the lifts and the exact divisions
    alone (rows recorded before the attempt took the parts from its trial
    also include a second distinct-degree factorization per prime).  Every
    degree counts as a survivor, so every union of degree classes with
    2 deg <= n is tried: on the band the lift finds x^8 - 2 or x^9 - 3
    wherever the classes separate them, and on x^22 - x - 1 (Galois group
    S_22) every lift fails;
  * kernel: zdense.zariski._kernel_mod, the kernel mod p that Norton's
    test takes of theta - lambda and of its transpose, on seeded d x d
    matrices of nullity 1 (theta - lambda's shape) mod the 31-bit prime
    2^31 - 1, at d = 8 and 10 (adjoint SL(3), Sp(4)) up to 143 (SL(12));
  * block-triangular walk: is_irreducible_algebra on three 10 x 10
    matrices with entries in [-3, 3] that keep span(e_1, e_2), conjugated
    by a product of ten random transvections: its NO (algebra dimension
    84) is the walk, whose span has tall entries (rows before the walk
    lifted its span's reduced form needed over 100 primes to lift each
    product's coefficients; the reduced form lifts at the walk's prime);
  * certify: zdense.galois.is_sn on x^n - x - 1 (Galois group S_n) at
    n = 6, 7, 13 and 22 and eps 1e-6, once for each of 50 seeded rngs: the
    whole certifier, whose cost is its trials.  Each row also records the
    mean trials per YES, which depends on the seeds only.  One more row
    runs is_sn on the galois band, (x^8 - 2)(x^9 - 3) Taylor-shifted by a
    seeded 32-bit a for each of 50 seeds, and records the mean trials per
    NO: each is a certain NO that carries a factor;
  * weyl: zdense.zariski.zariski_dense, the whole Weyl route, at eps 1e-6
    for each of 10 seeded rngs, on the word rows' conjugated dense SL(4),
    SL(12) and SL(24) sets and on dense Sp(4) and Sp(10) conjugated by a
    word in the dense group.  Each row also records the mean words formed
    per decision: a second word is formed only when the first fails to
    certify;
  * pack: the one packed-integer format's helpers, zdense._kernel_py.pack
    and unpack (mod the 31-bit prime 2^31 - 1) on values below 2^31, and
    pack_signed and unpack_signed on values below 2^(w - 2) in absolute
    value, at each caller's sizes: the ddf ring (6 and 30 slots of 48
    bits), RowEchelon (8 to 1225 slots of 72 bits), the word fold (24
    slots of 64 to 4096 bits) and the span check (8 to 255 slots of 64
    bits).  Each row times the helper as it runs and, beside it, with the
    shifts-or-bytes constant forced to either side (shifts_ms, bytes_ms);
    the slot counts straddle both constants, so the rows re-measure the
    crossover;
  * lift: zdense.zariski._rref_mod on the small bases Norton's lifts
    reduce, 1 to 3 random rows mod 2^31 - 1 at d = 8 and 10 (adjoint SL(3),
    Sp(4)), and zdense.zariski._closed_over_q, the walk's exact check, on
    a system whose 6 kept rows of length 12 have 40-bit entries, so that
    their reduced form needs several 31-bit primes, with 12 integer
    combinations of them as the dependent rows.

The kernel, block-triangular, certify, band, weyl, pack and lift jobs are
drawn after all the others, in that order, so adding them moved no earlier
row's input.

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

from zdense import _kernel_py, galois, zariski
from zdense.matrices import (
    GroupKind,
    Matrix,
    adjugate_inverse,
    characteristic_polynomial,
    multiply,
    random_word,
    random_word_letters,
    validate,
    word_from_letters,
)
from zdense.modular import factor_degrees_mod, is_prime, random_prime_avoiding
from zdense.polynomials import IntPoly, discriminant
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
# (family, n); the gate alone, on the adjoint matrices of a NO input in SL(n)
GATE_SIZES = (("Heisenberg", 4), ("Heisenberg", 6), ("signed-permutation", 4))
FACTOR_PRIMES = 20
KERNEL_SIZES = ((8, 200), (10, 200), (35, 10), (63, 4), (143, 2))  # (d, matrices)
KERNEL_PRIME = (1 << 31) - 1
CERTIFY_DEGREES = (6, 7, 13, 22)
CERTIFY_SEEDS = 50
CERTIFY_EPS = "1e-6"
WEYL_SP_SIZES = (4, 10)  # dense Sp(n), beside the word rows' SL(n) sets
WEYL_SEEDS = 10
WEYL_EPS = "1e-6"
# (call site, signed, ((slots, slot bits), ...))
PACK_SIZES = (
    ("ddf ring", False, ((6, 48), (30, 48))),
    ("RowEchelon", False, tuple((n, 72) for n in (8, 21, 40, 56, 64, 128, 192, 225, 1225))),
    ("word fold", True, ((24, 64), (24, 512), (24, 4096))),
    ("span check", True, tuple((n, 64) for n in (8, 40, 56, 128, 192, 255))),
)
PACK_SLOTS = 20000  # slots per row: 20000 // slots values lists
PACK_PRIME = (1 << 31) - 1
RREF_SIZES = ((8, 600), (10, 600))  # (d, bases of 1 to 3 rows)
# (kept rows, columns, entry bits, dependent rows) of the _closed_over_q row
CLOSED_SYSTEM = (6, 12, 40, 12)


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


def _heisenberg_gens(n):
    return [_unit(n, [(i, i + 1, 1)]) for i in range(n - 1)]


def _signed_perm_gens(n):
    """A signed n-cycle and a signed swap: they generate a finite group."""
    return [_signed_cycle(n), _block_diag(Matrix([[0, 1], [-1, 0]]), Matrix.identity(n - 2))]


GATE_FAMILIES = {"Heisenberg": _heisenberg_gens, "signed-permutation": _signed_perm_gens}


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


def make_irreducibility_job(rng, group, n, action, dense, gens=None):
    """The gate's input for `group`(n) under `action`, conjugated by a word
    of length n in the dense group, and a decider seed.  The generators are
    `gens`, or else the dense or parabolic ones."""
    kind = GroupKind.SPECIAL_LINEAR if group == "SL" else GroupKind.SYMPLECTIC
    make = _sl_gens if group == "SL" else (lambda n, dense: _sp_gens(n // 2, dense))
    g = random_word(validate(kind, n, make(n, True)), n, rng)
    g_inv = adjugate_inverse(g)
    gens = make(n, dense) if gens is None else gens
    gs = validate(kind, n, [multiply(multiply(g, x), g_inv) for x in gens])
    mats = adjoint_matrices(gs) if action == "adjoint" else list(gs.generators)
    return mats, mats[0].dim, rng.randrange(1 << 63)


def irreducibility(mats, dim, seed):
    return is_irreducible_algebra(mats, dim, Random(seed))


def gate(mats, dim, seed):
    return zariski._irreducible(mats, dim, Random(seed), [])


def _taylor_shift(coeffs, a):
    out = IntPoly()
    for c in reversed(coeffs):
        out = out * IntPoly([a, 1]) + IntPoly([c])
    return out


def make_factor_workload(rng, coeffs):
    """_lifted_factor's arguments at FACTOR_PRIMES primes for coeffs shifted
    by a seeded 32-bit a, with every degree 1..n-1 a survivor."""
    f = _taylor_shift(coeffs, rng.randrange(1 << 31, 1 << 32))
    disc = discriminant(f)
    bounds = galois._factor_bounds(f)
    jobs = []
    for _ in range(FACTOR_PRIMES):
        q = random_prime_avoiding(disc, 1 << 20, 1 << 21, rng)
        parts = {}
        degrees = factor_degrees_mod(f, q, parts)
        jobs.append((f, q, degrees, parts, set(range(1, f.degree)), bounds))
    return jobs


def make_kernel_workload(rng, count, d):
    """`count` d x d matrices mod KERNEL_PRIME whose last column is a
    random combination of the others: nullity 1, as theta - lambda."""
    p = KERNEL_PRIME
    jobs = []
    for _ in range(count):
        rows = [[rng.randrange(p) for _ in range(d - 1)] for _ in range(d)]
        c = [rng.randrange(p) for _ in range(d - 1)]
        jobs.append(([row + [sum(x * y for x, y in zip(row, c)) % p] for row in rows], p))
    return jobs


def make_block_triangular_job(rng, n=10, k=2, count=3):
    """`count` n x n matrices with entries in [-3, 3] that keep span(e_1..e_k),
    conjugated by a product of n random transvections, and a decider seed."""
    g = Matrix.identity(n)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        g = multiply(g, _unit(n, [(i, j, rng.choice((-1, 1)))]))
    g_inv = adjugate_inverse(g)
    mats = [Matrix([[rng.randrange(-3, 4) if i < k or j >= k else 0 for j in range(n)]
                    for i in range(n)]) for _ in range(count)]
    return [multiply(multiply(g, x), g_inv) for x in mats], n, rng.randrange(1 << 63)


def make_rref_workload(rng, count, d):
    """`count` bases of 1 to 3 random rows mod KERNEL_PRIME, in turn."""
    p = KERNEL_PRIME
    return [([[rng.randrange(p) for _ in range(d)] for _ in range(1 + i % 3)], p)
            for i in range(count)]


def make_closed_job(rng):
    """_closed_over_q's arguments on CLOSED_SYSTEM: kept rows with entries
    of the given bits, independent mod the walk prime 2^31 - 1, the echelon
    that holds them, and dependent rows that are integer combinations of
    them with coefficients in [-3, 3]."""
    nkept, ncols, bits, ndependent = CLOSED_SYSTEM
    kept = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(ncols)] for _ in range(nkept)]
    dependent = []
    for _ in range(ndependent):
        row = [0] * ncols
        for k in kept:
            c = rng.randrange(-3, 4)
            row = [a + c * b for a, b in zip(row, k)]
        dependent.append(row)
    echelon = _kernel_py.RowEchelon(KERNEL_PRIME, ncols)
    assert all(echelon.add(k) for k in kept)
    return kept, dependent, echelon


def certify(f, seed):
    return galois.is_sn(f, CERTIFY_EPS, Random(seed))


def certify_row(name, jobs, repeat, answer="yes"):
    """The certify row for the (f, seed) jobs, with the mean trials per
    verdict of the given answer ("yes" or "no")."""
    row = measure("certify", f"is_sn on {name}, {len(jobs)} seeds, eps {CERTIFY_EPS}",
                  jobs, repeat, certify)
    trials = [v.trials_used for v in (certify(*job) for job in jobs)
              if v.confirmed == (answer == "yes")]
    key = f"trials_per_{answer}"
    row[key] = sum(trials) / len(trials)
    print(f"  trials per {answer.upper()} {row[key]:.2f}")
    return row


def weyl(gs, seed):
    return zariski.zariski_dense(gs, WEYL_EPS, Random(seed))


def weyl_row(name, gs, seeds, repeat):
    """The weyl row for gs over the seeds, with the mean words formed per
    decision."""
    jobs = [(gs, seed) for seed in seeds]
    row = measure("zariski_dense", f"dense {name}, {len(jobs)} seeds, eps {WEYL_EPS}",
                  jobs, repeat, weyl)
    words = [sum(step["step"] == "sample_word" for step in weyl(*job).trail) for job in jobs]
    row["words_per_decision"] = sum(words) / len(words)
    print(f"  words per decision {row['words_per_decision']:.2f}")
    return row


def make_pack_workload(rng, signed, n, w):
    """The values lists of one pack row, and the packed ints they give."""
    bound = 1 << (w - 2 if signed else 31)
    low = -bound + 1 if signed else 0
    lists = [[rng.randrange(low, bound) for _ in range(n)] for _ in range(PACK_SLOTS // n)]
    pack = _kernel_py.pack_signed if signed else _kernel_py.pack
    return lists, [pack(values, w) for values in lists]


def pack_rows(site, signed, n, w, lists, packed, repeat):
    """A pack and an unpack row for one size, each also timed with the
    shifts-or-bytes constant forced to shifts and to bytes."""
    if signed:
        ops = (("pack_signed", _kernel_py.pack_signed, [(v, w) for v in lists], "_PACK_BYTES_FROM"),
               ("unpack_signed", _kernel_py.unpack_signed, [(v, n, w) for v in packed],
                "_UNPACK_BYTES_FROM"))
    else:
        ops = (("pack", _kernel_py.pack, [(v, w) for v in lists], "_PACK_BYTES_FROM"),
               ("unpack", _kernel_py.unpack, [(v, n, w, PACK_PRIME) for v in packed],
                "_UNPACK_BYTES_FROM"))
    rows = []
    for name, fn, jobs, constant in ops:
        row = measure(name, f"{site}: {len(jobs)} of {n} slots x {w} bits", jobs, repeat, fn)
        saved = getattr(_kernel_py, constant)
        try:
            for path, value in (("shifts", n + 1), ("bytes", 0)):
                setattr(_kernel_py, constant, value)
                row[f"{path}_ms"] = best_ms(fn, jobs, repeat)
                print(f"  {path:8} {row[f'{path}_ms']:10.2f} ms")
        finally:
            setattr(_kernel_py, constant, saved)
        rows.append(row)
    return rows


def best_ms(fn, jobs, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        for args in jobs:
            fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def measure(kernel, workload, jobs, repeat, fn=None):
    ms = best_ms(fn or getattr(_kernel_py, kernel), jobs, repeat)
    print(f"{kernel}: {workload}\n  python   {ms:10.1f} ms")
    return {"kernel": kernel, "workload": workload, "python_ms": ms}


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
    band = IntPoly([-2] + [0] * 7 + [1]) * IntPoly([-3] + [0] * 8 + [1])
    factor_jobs = [
        ("(x^8 - 2)(x^9 - 3)", make_factor_workload(rng, band.coeffs)),
        ("x^22 - x - 1", make_factor_workload(rng, [-1, -1] + [0] * 20 + [1])),
    ]
    gate_jobs = [
        (family, n, [make_irreducibility_job(rng, "SL", n, "adjoint", False,
                                             GATE_FAMILIES[family](n))
                     for _ in range(IRREDUCIBILITY_COPIES)])
        for family, n in GATE_SIZES
    ]
    kernel_jobs = [(d, make_kernel_workload(rng, count, d)) for d, count in KERNEL_SIZES]
    block_triangular_job = make_block_triangular_job(rng)
    certify_jobs = [(n, [rng.randrange(1 << 63) for _ in range(CERTIFY_SEEDS)])
                    for n in CERTIFY_DEGREES]
    band_jobs = [(_taylor_shift(band.coeffs, rng.randrange(1 << 31, 1 << 32)),
                  rng.randrange(1 << 63)) for _ in range(CERTIFY_SEEDS)]
    weyl_sets = [(f"SL({n})", jobs[0][0]) for n, jobs in word_jobs] + [
        (f"Sp({n})", validate(GroupKind.SYMPLECTIC, n,
                              make_irreducibility_job(rng, "Sp", n, "standard", True)[0]))
        for n in WEYL_SP_SIZES]
    weyl_jobs = [(name, gs, [rng.randrange(1 << 63) for _ in range(WEYL_SEEDS)])
                 for name, gs in weyl_sets]
    pack_jobs = [(site, signed, n, w, *make_pack_workload(rng, signed, n, w))
                 for site, signed, sizes in PACK_SIZES for n, w in sizes]
    rref_jobs = [(d, make_rref_workload(rng, count, d)) for d, count in RREF_SIZES]
    closed_job = make_closed_job(rng)

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
            "characteristic_polynomial",
            f"the {len(jobs)} words of {WORD_LENGTH} letters, SL({n})",
            [(word_from_letters(*job),) for job in jobs],
            args.repeat,
            characteristic_polynomial,
        )
        for n, jobs in word_jobs
    )
    for group, n, action, dense, jobs in irreducibility_jobs:
        workload = (f"{len(jobs)} {'dense' if dense else 'parabolic'} {group}({n}), {action}"
                    f" (dim {jobs[0][1]})")
        rows.append(measure("is_irreducible_algebra", workload, jobs, args.repeat, irreducibility))
        if not dense:
            rows.append(measure("gate", workload, jobs, args.repeat, gate))
    rows.extend(
        measure("factor", f"{len(jobs)} primes, {name} shifted by a 32-bit a", jobs,
                args.repeat, galois._lifted_factor)
        for name, jobs in factor_jobs
    )
    rows.extend(
        measure("gate", f"{len(jobs)} {family} SL({n}), adjoint (dim {jobs[0][1]})", jobs,
                args.repeat, gate)
        for family, n, jobs in gate_jobs
    )
    rows.extend(
        measure("_kernel_mod", f"{len(jobs)} matrices {d}x{d} of nullity 1, 31-bit prime",
                jobs, args.repeat, zariski._kernel_mod)
        for d, jobs in kernel_jobs
    )
    rows.append(measure("is_irreducible_algebra",
                        "3 block-triangular 10x10, entries in [-3, 3] (algebra dim 84)",
                        [block_triangular_job], args.repeat, irreducibility))
    rows.extend(
        measure("_rref_mod", f"{len(jobs)} bases of 1 to 3 rows, d = {d}, 31-bit prime",
                jobs, args.repeat, zariski._rref_mod)
        for d, jobs in rref_jobs
    )
    nkept, ncols, bits, ndependent = CLOSED_SYSTEM
    rows.append(measure("_closed_over_q", f"{nkept} kept rows of {ncols} with {bits}-bit"
                        f" entries, {ndependent} dependent", [closed_job], args.repeat,
                        zariski._closed_over_q))
    rows.extend(
        certify_row(f"x^{n} - x - 1", [(IntPoly([-1, -1] + [0] * (n - 2) + [1]), seed)
                                       for seed in seeds], args.repeat)
        for n, seeds in certify_jobs
    )
    rows.append(certify_row("(x^8 - 2)(x^9 - 3) shifted by a 32-bit a", band_jobs,
                            args.repeat, "no"))
    rows.extend(weyl_row(name, gs, seeds, args.repeat) for name, gs, seeds in weyl_jobs)
    for job in pack_jobs:
        rows.extend(pack_rows(*job, args.repeat))

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
