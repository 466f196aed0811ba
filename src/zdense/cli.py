"""Batch front end.

Reads a JSON input file (a generator set or a polynomial), runs the chosen
decider with a seeded generator, and emits a machine-readable report: JSON
on stdout, a human summary on stderr, exit code 0 for dense/confirmed,
1 for not dense/not generic, 2 for input errors and a report that cannot
be written, 3 for an internal error (a bug, never a verdict).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from . import kernels
from .galois import (
    DEFAULT_PRIME_RANGE, Certainty, GaloisVerdict, as_epsilon, is_hyperoctahedral, is_sn,
)
from .matrices import GeneratorSet, GroupKind, Matrix, validate
from .modular import PrimeSearchExhausted, check_prime_range
from .polynomials import IntPoly, is_reciprocal
from .zariski import (
    DEFAULT_WORD_CONSTANT, DensityVerdict, general_zariski_dense, word_length, zariski_dense,
)

MODES = ("weyl", "adjoint", "galois")
_SAFE_INT = 1 << 53
# str -> int is quadratic in the digit count, so longer input integers are
# rejected before conversion.
MAX_INT_DIGITS = 20_000
# int(s, 10) also takes "1_000", " 7 " and non-ASCII digits such as "٣"
_DECIMAL = re.compile(r"[+-]?[0-9]+")


class InputError(ValueError):
    """Malformed or invalid input file; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    mode: str
    epsilon: Fraction
    seed: int
    word_constant: Fraction
    prime_bits: tuple[int, int]
    trials: int
    report_path: str | None
    quiet: bool


def _as_int(value, where: str) -> int:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if len(value.lstrip("+-")) > MAX_INT_DIGITS:
            raise InputError(f"{where}: integer longer than {MAX_INT_DIGITS} digits")
        if not _DECIMAL.fullmatch(value):
            raise InputError(f"{where}: {value!r} is not an integer")
        return int(value)
    raise InputError(f"{where}: expected an integer or string, got {type(value).__name__}")


def parse_input(path: str) -> GeneratorSet | IntPoly:
    """Load and validate a generator-set or polynomial file.

    Matrix form: {"group": "SL"|"Sp", "dim": n, "generators": [[row, ...], ...]}
    Polynomial form: {"poly": [c0, c1, ...]} (constant term first).
    Entries beyond the 53-bit safe range may be strings.  No integer may
    be longer than MAX_INT_DIGITS digits.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        # an overlong bare number stays a string for _as_int to reject
        doc = json.loads(text, parse_int=lambda t: t if len(t) > MAX_INT_DIGITS else int(t))
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise InputError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")

    if "poly" in doc:
        coeffs = doc["poly"]
        if not isinstance(coeffs, list) or not coeffs:
            raise InputError(f"{path}: \"poly\" must be a nonempty list")
        return IntPoly(
            [_as_int(c, f"poly[{i}]") for i, c in enumerate(coeffs)]
        )

    for key in ("group", "dim", "generators"):
        if key not in doc:
            raise InputError(f"{path}: missing field {key!r}")
    kind_name = doc["group"]
    try:
        kind = GroupKind(kind_name)
    except ValueError:
        raise InputError(f"{path}: group must be \"SL\" or \"Sp\", got {kind_name!r}") from None
    dim = _as_int(doc["dim"], "dim")
    raw_gens = doc["generators"]
    if not isinstance(raw_gens, list) or not raw_gens:
        raise InputError(f"{path}: \"generators\" must be a nonempty list")
    mats = []
    for gi, rows in enumerate(raw_gens):
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError(f"{path}: generator {gi} must be a list of rows")
        entries = [
            [_as_int(v, f"generator {gi}, row {ri}") for v in row]
            for ri, row in enumerate(rows)
        ]
        try:
            mats.append(Matrix(entries))
        except ValueError as exc:
            raise InputError(f"{path}: generator {gi}: {exc}") from None
    try:
        return validate(kind, dim, mats)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _jsonable(value):
    """Stringify integers beyond the 53-bit range so every JSON consumer
    round-trips the report losslessly."""
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return value if -_SAFE_INT < value < _SAFE_INT else str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _derived_seed(seed: int, trial: int) -> int:
    digest = hashlib.sha256(f"{seed}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _galois_mode_verdict(
    f: IntPoly, eps: Fraction, rng: Random, prime_range
) -> GaloisVerdict:
    if f.degree >= 2 and f.degree % 2 == 0 and is_reciprocal(f):
        return is_hyperoctahedral(f, eps, rng, prime_range)
    return is_sn(f, eps, rng, prime_range)


def run(config: RunConfig) -> tuple[int, dict]:
    """Execute the configured decider; returns (exit_code, report).  Inputs
    (up to MAX_INT_DIGITS digits) and reports carry exact integers beyond
    Python's cap on int <-> str conversions (4300 digits by default), so the
    cap is lifted while it runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.perf_counter()
        parsed = parse_input(config.input_path)
        parse_seconds = time.perf_counter() - t0

        prime_range = (1 << config.prime_bits[0], 1 << config.prime_bits[1])
        poly_mode = isinstance(parsed, IntPoly)
        mode = config.mode
        if mode == "auto":
            mode = "galois" if poly_mode else "weyl"
        if poly_mode != (mode == "galois"):
            raise InputError(
                f"mode {mode!r} does not match the input "
                f"({'polynomial' if poly_mode else 'generator set'})"
            )
        if poly_mode and (parsed.degree < 1 or not parsed.is_monic()):
            raise InputError("polynomial input must be monic of positive degree")

        description: dict
        if poly_mode:
            description = {"poly_degree": parsed.degree, "poly": list(parsed.coeffs)}
        else:
            description = {
                "group": parsed.kind.value,
                "dim": parsed.dim,
                "generator_count": len(parsed.generators),
                "norm_bound": parsed.norm_bound,
            }

        trial_records = []
        trial_seconds = []
        for trial in range(config.trials):
            seed = _derived_seed(config.seed, trial)
            rng = Random(seed)
            t1 = time.perf_counter()
            verdict: GaloisVerdict | DensityVerdict
            if mode == "galois":
                verdict = _galois_mode_verdict(parsed, config.epsilon, rng, prime_range)
            elif mode == "weyl":
                verdict = zariski_dense(
                    parsed, config.epsilon, rng, config.word_constant, prime_range
                )
            else:
                verdict = general_zariski_dense(parsed, config.epsilon, rng)
            positive = verdict.confirmed if mode == "galois" else verdict.dense
            certain = verdict.certainty is Certainty.CERTAIN
            trial_seconds.append(time.perf_counter() - t1)
            trial_records.append(
                {"trial": trial, "seed": seed, "verdict": verdict.to_json()}
            )
            if certain:
                break  # a YES, or a NO with an exact proof, is final

        if positive:
            answer = "dense" if mode != "galois" else "confirmed"
            exit_code = 0
        else:
            answer = "not_dense" if mode != "galois" else "not_generic"
            exit_code = 1
        # k independent Monte Carlo NO runs tighten the bound to eps^k
        effective_eps = config.epsilon if certain else config.epsilon ** len(trial_records)
        certainty = "certain" if certain else "monte_carlo"

        report = {
            "mode": mode,
            "input": config.input_path,
            "parsed": description,
            "epsilon": str(config.epsilon),
            "seed": config.seed,
            "word_constant": str(config.word_constant),
            "prime_interval": [1 << config.prime_bits[0], 1 << config.prime_bits[1]],
            "kernel_backend": kernels.BACKEND,
            "trials_requested": config.trials,
            "trials_run": len(trial_records),
            "trials": trial_records,
            "overall": {
                "answer": answer,
                "certainty": certainty,
                "epsilon": str(effective_eps),
                "exit_code": exit_code,
            },
            "timings": {
                "parse_s": parse_seconds,
                "trial_s": trial_seconds,
                "total_s": time.perf_counter() - t0,
            },
        }
        return exit_code, _jsonable(report)
    finally:
        sys.set_int_max_str_digits(limit)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zdense",
        description=(
            "Decide Zariski density of a finitely generated subgroup of "
            "SL(n,Z) or Sp(2n,Z), or certify a large Galois group of a "
            "polynomial.  YES answers, adjoint-mode answers and weyl-mode "
            "NO answers after a certified word are certain; other NO "
            "answers are meant to be wrong with probability at most "
            "epsilon, but the Galois transitivity stage does not meet that "
            "bound everywhere (see the README)."
        ),
    )
    parser.add_argument("input", help="JSON input file (generator set or polynomial)")
    parser.add_argument(
        "--mode",
        choices=MODES + ("auto",),
        default="auto",
        help="weyl = Weyl-group decider: a word certified to carry the Weyl "
        "group, then an exact normalizer test against every generator; YES "
        "certain, and NO too after a certified word.  adjoint = "
        "irreducibility of Ad(G) on the Lie algebra; every answer certain.  "
        "galois = Galois certification of a polynomial.  Default: inferred "
        "from the input.",
    )
    parser.add_argument("--epsilon", default="1e-6", help="error bound in (0,1)")
    parser.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    parser.add_argument(
        "--word-constant",
        default=str(DEFAULT_WORD_CONSTANT),
        help="weyl mode only: multiplier c in the word length "
        "max(16, ceil(c ln(1/eps)))",
    )
    parser.add_argument(
        "--prime-bits",
        nargs=2,
        type=int,
        default=tuple(b.bit_length() - 1 for b in DEFAULT_PRIME_RANGE),
        metavar=("LO", "HI"),
        help="weyl and galois modes: sample primes from [2^LO, 2^HI), 0 < LO < HI <= 64",
    )
    parser.add_argument("--trials", type=int, default=1, help="independent repetitions")
    parser.add_argument("--report", default=None, help="also write the JSON report here")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout/stderr output")
    return parser


def _config_from_args(args) -> RunConfig:
    try:
        epsilon = as_epsilon(args.epsilon)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--epsilon: {exc}") from None
    try:
        word_constant = Fraction(args.word_constant)
        word_length(epsilon, word_constant)  # rejects c <= 0 and a c that overflows
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"--word-constant: {exc}") from None
    lo, hi = args.prime_bits
    try:
        # Shifts clamped to [0, 65] stay bounded and keep the verdict: 2^0
        # and 2^65 lie outside every admissible range.
        check_prime_range(*(1 << min(max(b, 0), 65) for b in (lo, hi)))
    except ValueError as exc:
        raise InputError(f"--prime-bits: {exc}") from None
    if args.trials < 1:
        raise InputError("--trials: must be positive")
    if not 0 <= args.seed < 1 << 64:
        raise InputError("--seed: must fit in 64 bits")
    return RunConfig(
        input_path=args.input,
        mode=args.mode,
        epsilon=epsilon,
        seed=args.seed,
        word_constant=word_constant,
        prime_bits=(lo, hi),
        trials=args.trials,
        report_path=args.report,
        quiet=args.quiet,
    )


def _summary(report: dict) -> str:
    overall = report["overall"]
    return (
        f"{report['mode']}: {overall['answer']} "
        f"({overall['certainty']}, eps <= {overall['epsilon']}, "
        f"{report['trials_run']} trial(s), "
        f"{report['timings']['total_s']:.2f}s)"
    )


def _error(message: str, quiet: bool, code: int = 2) -> int:
    if not quiet:
        print(json.dumps({"error": message}, indent=2))
        print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        exit_code, report = run(config)
    except (InputError, PrimeSearchExhausted) as exc:
        return _error(str(exc), args.quiet)
    except Exception as exc:  # a crash must not read as exit 1, "not dense"
        if not args.quiet:
            traceback.print_exc()
        return _error(f"internal error: {type(exc).__name__}: {exc}", args.quiet, 3)
    text = json.dumps(report, indent=2)
    if config.report_path:
        try:
            Path(config.report_path).write_text(text + "\n")
        except OSError as exc:
            return _error(f"cannot write report {config.report_path}: {exc}", args.quiet)
    if not config.quiet:
        print(text)
        print(_summary(report), file=sys.stderr)
    return exit_code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
