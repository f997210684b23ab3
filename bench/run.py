"""The supergram benchmark.

    python3 bench/run.py --workload sweep|certify|monotone-apply \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every process it starts is a fresh
interpreter with OpenBLAS, OpenMP and MKL pinned to one thread.  With
``--trace 0`` it times SETUP_REPEATS fresh set-ups and one measuring
process and prints the end-to-end metrics, with times at reference host
speed (see bench/hostspeed.py); with ``--trace 1`` it prints
the per-layer metrics of a traced run and the tracer's own overhead.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when any op fails other than the ones that hit a
known defect (the circulant settings of ``sweep``), or when traced and
untraced ops disagree.  Those known failures still count in ``failed``.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
WORKLOADS = ("sweep", "certify", "monotone-apply")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}


def child(*args: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env={**os.environ, **PINNED},
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark worker did not finish within {timeout} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report_end_to_end(run: dict, setups: list[dict]) -> dict:
    """Print every end-to-end metric by name with its unit; return them."""
    m = run["metrics"]
    n = run["attempted"]
    setup_s = statistics.median(x["setup_s"] for x in setups)
    metrics = {"setup_s": setup_s, **{k: m[k] for k in END_TO_END_UNITS if k in m}}
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters: "
        + ", ".join(f"{x['setup_s']:.4f}" for x in setups),
        "ops_per_s": f"median over {run['blocks']} blocks of the fixed op mix",
        "op_p50_ms": f"n={n}",
        "op_p90_ms": f"n={n}, {m['op_p90_beyond']} beyond",
        "peak_rss_mb": "workload process",
        "pass_share": f"{n - run['failed']} passed / {n} attempted",
    }
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<12} {metrics[name]:>12.6g} {unit:<6} {notes[name]}")
    print(f"  {'fail_share':<12} {run['failed'] / n:>12.6g} {'share':<6} "
          f"{run['failed']} failed / {n} attempted")
    wall = run["wall"]
    print(f"  times above are at reference host speed ({run['gauge_samples']} speed samples); "
          f"by the wall clock: setup_s {statistics.median(x['setup_wall_s'] for x in setups):.6g}, "
          + ", ".join(f"{k} {wall[k]:.6g}" for k in ("ops_per_s", "op_p50_ms", "op_p90_ms")))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="supergram benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "supergram" / "__init__.py").is_file():
        print(f"error: no supergram sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if args.trace == 0:
        setups = [
            child("setup", *common, timeout=SETUP_TIMEOUT_S) for _ in range(SETUP_REPEATS)
        ]
    # a traced run measures every block twice, and both loops finish the
    # block in progress, so a slow program overruns --seconds; give it room
    # to be reported as slow rather than cut off
    run = child(
        "run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
        timeout=(1 + args.trace) * args.seconds * 3 + 60,
    )
    print("host " + json.dumps(run["host"]))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {run['attempted']} ops, "
          f"{run['failed']} failed {json.dumps(run['failed_by_kind'])}")
    for err in run["errors"]:
        print(f"  error: {err}")
    if args.trace == 0:
        metrics = report_end_to_end(run, setups)
        units = END_TO_END_UNITS
    else:
        units = dict(PER_LAYER)
        metrics = {name: run["metrics"][name] for name in units}
        print(f"  {run['spans']} spans; traced and untraced verdicts "
              f"{'agree' if run['same_verdicts'] else 'DISAGREE'}")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    correct = run["unexpected_failures"] == 0 and run["same_verdicts"]
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
