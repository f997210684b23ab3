"""One fresh benchmark process; ``run.py`` starts it with BLAS pinned to one
thread.

    python3 bench/worker.py setup --workload NAME --seed N
    python3 bench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``setup`` imports supergram, makes the workload's inputs and prepares it,
then prints its set-up time.  ``run`` does the same and then measures for
S seconds: with ``--trace 0`` closed-loop ops, one at a time; with
``--trace 1`` each block of ops twice, untraced and traced, and then the
workload's probe ops once, traced.  Both print one JSON object as their
last line.  Set-up time and untraced op times are reported at reference
host speed (:mod:`hostspeed`), and as the wall clock read them.

Only this module's imports may come before the timed ``import supergram``,
so they are all from the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# host speed samples taken after set-up
SETUP_SAMPLES = 5


def import_library() -> float:
    """Import supergram from this checkout's ``src``; return the seconds."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    t0 = time.perf_counter()
    import supergram

    elapsed = time.perf_counter() - t0
    if Path(supergram.__file__).resolve().parent != ROOT / "src" / "supergram":
        raise SystemExit(f"supergram was imported from {supergram.__file__}, not from this checkout")
    return elapsed


def set_up(workload: str, seed: int):
    """Import, make inputs (untimed) and prepare; return (workload, wall
    seconds, seconds at reference host speed)."""
    import_s = import_library()
    from hostspeed import Gauge
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    t0 = time.perf_counter()
    wl.prepare()
    t1 = time.perf_counter()
    wall = import_s + t1 - t0
    # the host's speed right after set-up stands in for its speed during it
    gauge = Gauge()
    for _ in range(SETUP_SAMPLES):
        gauge.sample()
    return wl, wall, gauge.scale(wall, t1, t1)


@dataclass(frozen=True)
class Record:
    kind: str
    start: float
    end: float
    passed: bool
    known_defect: bool
    error: str | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_block(wl, ops, tracer=None, gauge=None) -> list[Record]:
    """Run ops one at a time.  Only ``wl.run`` is timed; an op fails when
    it raises or when ``wl.check`` rejects its result.  ``gauge`` samples
    the host's speed between ops."""
    records = []
    for op in ops:
        if gauge is not None:
            gauge.tick()
        error = None
        t0 = time.perf_counter()
        try:
            with tracer.op(op.kind) if tracer else nullcontext():
                result = wl.run(op)
        except Exception as exc:  # a raising op is a failed op, not a crash
            t1 = time.perf_counter()
            passed, error = False, f"{type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            passed = wl.check(op, result)
        records.append(Record(op.kind, t0, t1, passed, op.known_defect, error))
    return records


def measure(wl, seconds: float, gauge) -> list[Record]:
    """Closed loop over whole blocks until ``seconds`` have passed."""
    records = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        records += run_block(wl, wl.block(k), gauge=gauge)
        k += 1
    gauge.sample()
    return records


def measure_traced(wl, seconds: float, tracer, gauge) -> tuple[list[Record], list[Record]]:
    """Run every block twice, untraced and under ``tracer``, alternating
    which goes first so drift in the machine's speed cancels out.  The
    wrappers are installed only for the traced half."""
    plain, traced = [], []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        ops = wl.block(k)
        for phase in ((0, 1) if k % 2 == 0 else (1, 0)):
            if phase:
                with tracer:
                    traced += run_block(wl, ops, tracer, gauge)
            else:
                plain += run_block(wl, ops, gauge=gauge)
        k += 1
    gauge.sample()
    return plain, traced


def host() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def summary(records: list[Record]) -> dict:
    """Attempted and failed counts, and the failures by kind."""
    failed = [r for r in records if not r.passed]
    by_kind: dict[str, int] = {}
    for r in failed:
        by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
    return {
        "attempted": len(records),
        "failed": len(failed),
        "unexpected_failures": sum(not r.known_defect for r in failed),
        "failed_by_kind": by_kind,
        "errors": sorted({r.error for r in failed if r.error})[:5],
    }


def end_to_end(lat: list[float], passed: list[bool], block_size: int) -> dict:
    """Throughput and latency from per-op seconds, with memory and the
    pass share."""
    # throughput per block of the fixed op mix; the median over blocks keeps
    # one slow solve from swinging the run
    rates = [
        block_size / sum(lat[i:i + block_size])
        for i in range(0, len(lat) - block_size + 1, block_size)
    ]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "op_p90_beyond": sum(x > p90 for x in lat),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": sum(passed) / len(passed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    wl, setup_wall_s, setup_s = set_up(args.workload, args.seed)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    from hostspeed import Gauge

    out = {"host": host()}
    gauge = Gauge()
    if args.trace == 0:
        records = measure(wl, args.seconds, gauge)
        out.update(summary(records))
        passed = [r.passed for r in records]
        # the metrics at reference host speed, and as the wall clock read
        out["metrics"] = end_to_end(
            [gauge.scale(r.seconds, r.start, r.end) for r in records], passed, wl.block_size
        )
        out["wall"] = end_to_end([r.seconds for r in records], passed, wl.block_size)
        out["gauge_samples"] = len(gauge.samples)
        out["blocks"] = len(records) // wl.block_size
        out["same_verdicts"] = True
    else:
        from tracing import Tracer, layer_metrics, probe_metrics

        tracer = Tracer()
        plain, traced = measure_traced(wl, args.seconds, tracer, gauge)
        # the probe ops run once, traced, after the timed mix
        probe_tracer = Tracer()
        with probe_tracer:
            probed = run_block(wl, wl.probe(), probe_tracer)
        out.update(summary(traced + probed))
        out["same_verdicts"] = [(r.kind, r.passed) for r in plain] == [
            (r.kind, r.passed) for r in traced
        ]
        metrics = layer_metrics(tracer.spans)
        metrics.update(probe_metrics(probe_tracer.spans))
        # span times are wall-clock; the overhead compares op times at
        # reference host speed, so drift between the halves cancels
        plain_s, traced_s = (sum(gauge.scale(r.seconds, r.start, r.end) for r in half)
                             for half in (plain, traced))
        metrics["trace.overhead_share"] = traced_s / plain_s - 1.0
        out["metrics"] = metrics
        out["spans"] = len(tracer.spans) + len(probe_tracer.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
