#!/usr/bin/env python3
"""zdense benchmark: seeded batches with known answers, run through the CLI
front end, with a correctness gate and an optional per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload weyl|adjoint|galois --seed N \
        --seconds S --trace 0|1 [--save DIR]

Set-up builds the package from this checkout's setup.py into a fresh
temporary directory under .bench_build/, imports it, and generates the
batch from the seed; it is repeated SETUP_REPS times and `setup_s` is the
median.  Every pass runs in a fresh worker process (worker.py) with no
threads, one instance at a time, at CLI defaults.

--trace 0: two untraced passes over the same inputs, each deciding every
instance once; prints the end-to-end metrics.
--trace 1: an untraced, a traced and another untraced pass; prints the
per-layer rows and the tracing overhead (traced over untraced decide time
per instance, not counting the kernel replays that the traced pass makes
inline).

The batch is fixed by the workload and the seed; S is the time its passes
are sized to take on the reference machine (2 vCPUs, pure-Python kernels).
The run prints the time the passes really took.

Either way the run fails the correctness gate on a YES for a known-NO
instance, on a certificate witness (prime, degrees) that the pure-Python
kernel does not reproduce, or on two same-seed passes whose reports differ
outside `timings`.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import families  # noqa: E402
from spans import TRACED  # noqa: E402

SETUP_REPS = 3
DEADLINE_S = 170  # the whole run, set-up included
TAIL_BEYOND = 10  # instances that must lie beyond the tail percentile

END_TO_END = (
    ("decide_s.p50", "s"),
    ("decide_s.tail", "s"),
    ("yes_s.p50", "s"),
    ("no_s.p50", "s"),
    ("verdicts_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# span key -> (field, unit) rows reported by the traced pass
LAYER_FIELDS = {
    "cli.parse_input": (("self_s", "s"),),
    "cli.run": (("self_s", "s"),),
    "matrices.validate": (("self_s", "s"),),
    "matrices.adjugate_inverse": (("calls", "count"), ("self_s", "s")),
    "matrices.commutes": (("self_s", "s"),),
    "matrices.multiply": (("calls", "count"), ("self_s", "s"), ("out_bits_max", "bits")),
    "matrices.characteristic_polynomial": (
        ("calls", "count"), ("self_s", "s"), ("coeff_bits_max", "bits")),
    "polynomials.discriminant": (("calls", "count"), ("self_s", "s"), ("bits_max", "bits")),
    "polynomials.is_cyclotomic_product": (("self_s", "s"),),
    "polynomials.trace_polynomial": (("self_s", "s"),),
    "modular.random_prime_avoiding": (
        ("calls", "count"), ("self_s", "s"), ("draws", "count"), ("accept_ratio", "ratio")),
    "modular.is_prime": (("calls", "count"), ("self_s", "s")),
    "kernels.ddf_degrees": (
        ("calls", "count"), ("self_s", "s"), ("degree_sum", "count"),
        ("replay_python_s", "s")),
    "kernels.rank_mod": (
        ("calls", "count"), ("self_s", "s"), ("cells", "count"), ("replay_python_s", "s")),
    **{
        f"galois.{name}": (
            ("calls", "count"), ("self_s", "s"), ("trials", "count"), ("confirm_ratio", "ratio"))
        for name in ("is_transitive", "is_sn", "is_hyperoctahedral")
    },
    "zariski.is_irreducible_algebra": (("calls", "count"), ("self_s", "s"), ("rounds", "count")),
    "zariski.adjoint_matrices": (("self_s", "s"),),
    "zariski.zariski_dense": (("self_s", "s"),),
    "zariski.general_zariski_dense": (("self_s", "s"),),
}


def per_layer_spec():
    """(name, unit) of every per-layer metric, in output order."""
    spec = [(f"{key}.{field}", unit) for key, fields in LAYER_FIELDS.items()
            for field, unit in fields]
    spec += [(f"layer.{layer}.self_s", "s") for layer in TRACED]
    spec += [("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
    return spec


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------------ set-up


def clean_env(lib=None):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    if lib is not None:
        env["PYTHONPATH"] = str(lib)
    return env


def build(tmp: Path) -> Path:
    """Build the package with this checkout's setup.py; return the lib dir."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp / "build")],
        cwd=ROOT, env=clean_env(), capture_output=True, text=True, timeout=600,
    )
    libs = sorted((tmp / "build").glob("lib*/zdense/__init__.py"))
    if proc.returncode != 0 or not libs:
        raise BenchError(f"build failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return libs[0].parent.parent


def import_backend(lib: Path, cwd: Path) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", "import zdense; print(zdense.KERNEL_BACKEND)"],
        cwd=cwd, env=clean_env(lib), capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout.strip()


def write_inputs(tmp: Path, lib: Path, workload: str, seed: int) -> dict:
    batch = families.BATCHES[workload](Random(seed))
    (tmp / "inputs").mkdir()
    instances = []
    for i, inst in enumerate(batch):
        path = tmp / "inputs" / f"{i:03d}.json"
        path.write_text(json.dumps(inst["doc"]))
        instances.append({k: inst[k] for k in ("name", "mode", "seed", "yes")} | {"path": str(path)})
    manifest = {"lib": str(lib), "instances": instances}
    (tmp / "manifest.json").write_text(json.dumps(manifest))
    return manifest


def set_up(work: Path, workload: str, seed: int):
    """Build, import and generate SETUP_REPS times; keep the last tree."""
    seconds, tmp = [], None
    for _ in range(SETUP_REPS):
        if tmp is not None:
            shutil.rmtree(tmp)
        t0 = time.perf_counter()
        tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
        try:
            lib = build(tmp)
            backend = import_backend(lib, tmp)
            manifest = write_inputs(tmp, lib, workload, seed)
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), tmp, lib, backend, manifest


# ------------------------------------------------------------------ passes


def run_pass(tmp: Path, lib: Path, index: int, order: int, trace: bool, deadline: float):
    """Pass `index` runs the batch in the order shuffled with seed `order`."""
    out = tmp / f"pass-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), str(tmp / "manifest.json"), str(out),
           "--order-seed", str(order)]
    if trace:
        cmd.append("--trace")
    label = f"{index} ({'traced' if trace else 'untraced'})"
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError(f"no time left for pass {label}")
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=clean_env(lib), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {label} did not finish within the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {label} failed: {proc.stderr.strip()[-800:]}")
    return json.loads(out.read_text())


# -------------------------------------------------------- correctness gate


def load_python_kernel(lib: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_kernel_py", lib / "zdense" / "_kernel_py.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gate(manifest, passes, kernel_py):
    """Wrong YES answers, witnesses that do not re-check, and digest
    disagreements between the passes."""
    known = manifest["instances"]
    first = passes[0]["instances"]
    wrong_yes = [k["name"] for k, r in zip(known, first)
                 if not k["yes"] and r["exit_code"] == 0]
    witnesses, bad = 0, []
    for r in first:
        for check in r["checks"]:
            coeffs = [int(c) for c in check["poly"]]
            for q, degrees in check["witnesses"]:
                witnesses += 1
                try:
                    ok = sorted(kernel_py.ddf_degrees(coeffs, int(q))) == list(degrees)
                except ValueError:
                    ok = False
                if not ok:
                    bad.append(f"{r['name']}: prime {q}")
    unstable = [
        k["name"] for i, k in enumerate(known)
        if len({p["instances"][i]["digest"] for p in passes}) != 1
    ]
    digest = hashlib.sha256("".join(r["digest"] for r in first).encode()).hexdigest()
    return {
        "wrong_yes": wrong_yes,
        "witnesses_checked": witnesses,
        "bad_witnesses": bad,
        "unstable_reports": unstable,
        "report_digest": digest,
    }


# ----------------------------------------------------------------- metrics


def tail(values):
    """(p, value): the highest whole percentile with at least TAIL_BEYOND
    values above its nearest-rank position."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} instances are too few for a tail percentile")
    s = sorted(values)
    p = max(q for q in range(1, 100) if n - math.ceil(q * n / 100) >= TAIL_BEYOND)
    return p, s[math.ceil(p * n / 100) - 1]


def end_to_end(manifest, passes, setup_s):
    known = manifest["instances"]
    # The slower of each instance's two runs, which was the steadier figure
    # across seeds on the machine this benchmark was tuned on (README.md).
    per_instance = [
        max(p["instances"][i]["seconds"] for p in passes) for i in range(len(known))
    ]
    yes = [t for k, t in zip(known, per_instance) if k["yes"]]
    no = [t for k, t in zip(known, per_instance) if not k["yes"]]
    p, tail_value = tail(per_instance)
    metrics = {
        "decide_s.p50": statistics.median(per_instance),
        "decide_s.tail": tail_value,
        "yes_s.p50": statistics.median(yes),
        "no_s.p50": statistics.median(no),
        "verdicts_per_s": len(per_instance) / sum(per_instance),
        "peak_rss_mb": max(p["peak_rss_kb"] for p in passes) / 1024,
        "setup_s": setup_s,
    }
    return metrics, p


def shares(manifest, passes):
    """(false NO among known YES, errors among attempted) over all passes."""
    known = manifest["instances"]
    false_no = attempted_yes = errors = attempted = 0
    for p in passes:
        for k, r in zip(known, p["instances"]):
            attempted += 1
            errors += bool(r["error"])
            if k["yes"]:
                attempted_yes += 1
                false_no += r["exit_code"] == 1
    return false_no, attempted_yes, errors, attempted


def per_layer(traced, before, after):
    rows = traced["trace"]["rows"]
    out = {}
    for key, fields in LAYER_FIELDS.items():
        row = rows.get(key, {})
        for field, _ in fields:
            if field == "accept_ratio":
                value = row.get("calls", 0) / row["draws"] if row.get("draws") else 0.0
            elif field == "confirm_ratio":
                value = row.get("certificates", 0) / row["trials"] if row.get("trials") else 0.0
            else:
                value = row.get(field, 0)
            out[f"{key}.{field}"] = value
    for layer in TRACED:
        out[f"layer.{layer}.self_s"] = sum(
            row["self_s"] for key, row in rows.items() if key.split(".")[0] == layer)
    # Each traced time against the mean of the untraced passes before and
    # after it, so that a machine slowing down or speeding up over the run
    # does not count as overhead; the median over instances, so that a slow
    # spell during a few instances does not either.  The inline kernel
    # replays run inside the traced decisions; take them out.
    plain = [(b["seconds"] + a["seconds"]) / 2
             for b, a in zip(before["instances"], after["instances"])]
    share = statistics.median(
        (t["seconds"] - t["replay_s"]) / u for t, u in zip(traced["instances"], plain)) - 1
    out["trace.overhead_share"] = share
    out["trace.overhead_s"] = share * sum(plain)
    return out


# ------------------------------------------------------------------ output


def commit_id():
    if not (ROOT / ".git").exists():
        return os.environ.get("BENCH_COMMIT", "unknown")
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(families.BATCHES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full result record into this directory")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    work = ROOT / ".bench_build"
    work.mkdir(exist_ok=True)
    tmp = None
    try:
        setup_s, tmp, lib, backend, manifest = set_up(work, args.workload, args.seed)
        if args.trace:
            # untraced, traced, untraced, all in one order, because the order
            # alone moves a pass's time by several percent
            passes = [run_pass(tmp, lib, i, 1, i == 2, deadline) for i in (1, 2, 3)]
        else:
            passes = [run_pass(tmp, lib, i, i, False, deadline) for i in (1, 2)]
        verdict = gate(manifest, passes, load_python_kernel(lib))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)

    context = {
        "kernel_backend": backend,
        "pass_backends": sorted({p["backend"] for p in passes}),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
    }
    false_no, attempted_yes, errors, attempted = shares(manifest, passes)
    known = manifest["instances"]
    n_yes = sum(k["yes"] for k in known)
    print(f"zdense benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={fmt(args.seconds)} trace={args.trace}")
    print("context  " + "  ".join(f"{k}={v}" for k, v in context.items()))
    measured = [sum(r["seconds"] for r in p["instances"]) for p in passes]
    print(f"batch    {len(known)} instances ({n_yes} known YES, {len(known) - n_yes} "
          f"known NO); the passes took {' + '.join(f'{t:.1f}' for t in measured)} s")

    if args.trace:
        traced = passes[1]["trace"]
        metrics = per_layer(passes[1], passes[0], passes[2])
        spec = per_layer_spec()
        if traced["replay_mismatches"]:
            verdict["bad_witnesses"].append(
                f"{traced['replay_mismatches']} kernel replays disagree with the live backend")
        layers = {name: metrics[f"layer.{name}.self_s"] for name in TRACED}
        dominant = max(layers, key=layers.get)
        print(f"trace    dominant layer {dominant} "
              f"({layers[dominant] / sum(layers.values()):.0%} of traced self time); "
              f"replayed on {traced['replay_backends']}; "
              f"not found: {traced['missing'] or 'none'}")
        compiled = {f"{k}.replay_compiled_s": v.get("replay_compiled_s")
                    for k, v in traced["rows"].items() if "replay_compiled_s" in v}
        for name, value in compiled.items():
            print(f"  {name:48s} {fmt(value):>12s} s")
    else:
        metrics, tail_p = end_to_end(manifest, passes, setup_s)
        spec = list(END_TO_END)
        dominant = None
        print(f"tail     decide_s.tail is p{tail_p} of {len(known)} per-instance times")
    for name, unit in spec:
        print(f"  {name:48s} {fmt(metrics[name]):>12s} {unit}")
    print(f"  {'false_no_share':48s} {fmt(false_no / attempted_yes if attempted_yes else 0.0):>12s} "
          f"share ({false_no} of {attempted_yes} known-YES decisions answered NO)")
    print(f"  {'error_share':48s} {fmt(errors / attempted):>12s} share "
          f"({errors} of {attempted} decisions raised or exit 2)")
    correct = not (verdict["wrong_yes"] or verdict["bad_witnesses"] or verdict["unstable_reports"])
    print(f"gate     {'PASS' if correct else 'FAIL'}  wrong_yes={verdict['wrong_yes']}  "
          f"witnesses {verdict['witnesses_checked']} checked, bad={verdict['bad_witnesses'][:5]}  "
          f"unstable_reports={verdict['unstable_reports'][:5]}")
    print(f"digest   {verdict['report_digest']}")

    if args.save:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "context": context, "correct": correct,
            "metrics": metrics, "false_no": false_no, "attempted_yes": attempted_yes,
            "errors": errors, "attempted": attempted, "gate": verdict,
            "dominant_layer": dominant,
            "instances": [
                {"name": k["name"], "yes": k["yes"], "exit_code": r["exit_code"],
                 "times": [p["instances"][i]["seconds"] for p in passes]}
                for i, (k, r) in enumerate(zip(known, passes[0]["instances"]))
            ],
        }
        save = Path(args.save)
        save.mkdir(parents=True, exist_ok=True)
        (save / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps(record, indent=1))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": errors,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
