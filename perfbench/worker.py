"""One measured pass over a workload batch, in a fresh process.

Usage: python3 worker.py MANIFEST OUT [--trace] [--order-seed N]

Imports zdense from the build directory named in the manifest, turns each
instance into a config with the CLI's own parser (so every option is at
its CLI default), and calls `zdense.cli.run` once per instance, in a
shuffled order.
Writes per-instance times, report digests (outside `timings`), the YES
witnesses to re-check, peak memory and, when traced, the layer rows to OUT.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from random import Random

sys.dont_write_bytecode = True

CONFIRMED = ("confirmed_sn", "confirmed_hyperoctahedral", "irreducible")


def report_digest(name, report):
    """sha256 of the report outside `timings`, with the temporary input path
    replaced by the instance name and the build context left out."""
    body = {k: v for k, v in report.items() if k not in ("timings", "kernel_backend")}
    body["input"] = name
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def certificate_witnesses(report):
    """[{poly, witnesses}] for every Galois verdict in the report that
    confirmed a large group: each (prime, degrees) must reproduce."""
    out = []
    for trial in report["trials"]:
        verdict = trial["verdict"]
        if report["mode"] == "galois":
            stages = [(report["parsed"]["poly"], verdict)]
        else:
            stages = [
                (step["charpoly"], step["verdict"])
                for step in verdict["trail"]
                if step["step"] == "galois_certificate"
            ]
        for poly, stage in stages:
            if stage["answer"] in CONFIRMED:
                out.append({
                    "poly": poly,
                    "witnesses": [[w["prime"], w["degrees"]] for w in stage["witnesses"]],
                })
    return out


def run_batch(cli, jobs, order, tracer):
    """Decide every job once, in the given order; rows come back in job
    order.  A traced row also says how long the kernel replays made inline
    during its decision took."""
    rows = [None] * len(jobs)
    for i in order:
        name, config = jobs[i]
        gc.collect()
        replayed = tracer.replay_s if tracer else 0.0
        t0 = time.perf_counter()
        try:
            exit_code, report = cli.run(config)
            error = None
        except Exception as exc:  # any raise is an error outcome, counted by the caller
            exit_code, report, error = 2, None, f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - t0
        rows[i] = {
            "name": name,
            "seconds": seconds,
            "replay_s": (tracer.replay_s - replayed) if tracer else 0.0,
            "exit_code": exit_code,
            "error": error,
            "digest": report_digest(name, report) if report else "error",
            "checks": certificate_witnesses(report) if report else [],
        }
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--order-seed", type=int, default=0,
                        help="shuffle the batch with this seed")
    args = parser.parse_args(argv)
    manifest = json.loads(Path(args.manifest).read_text())

    import zdense
    from zdense import cli, kernels

    lib = Path(manifest["lib"]).resolve()
    if lib not in Path(zdense.__file__).resolve().parents:
        raise SystemExit(f"zdense imported from {zdense.__file__}, not from {lib}")

    parse = cli.build_parser().parse_args
    jobs = [
        (inst["name"], cli._config_from_args(parse(
            [inst["path"], "--mode", inst["mode"], "--seed", str(inst["seed"]), "--quiet"]
        )))
        for inst in manifest["instances"]
    ]

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    # Objects alive now are never garbage; freezing them keeps the per-instance
    # collection in run_batch short.
    gc.freeze()
    # A shuffled order spreads a slow spell of the machine over all families
    # and gives each instance's runs in different passes different moments.
    order = list(range(len(jobs)))
    Random(args.order_seed).shuffle(order)
    instances = run_batch(cli, jobs, order, tracer)
    result = {
        "backend": kernels.BACKEND,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "instances": instances,
    }
    if tracer:
        result["trace"] = {
            "rows": tracer.rows(),
            "missing": tracer.missing,
            "replay_backends": sorted(tracer.replay_backends),
            "replay_mismatches": tracer.replay_mismatches,
        }
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
