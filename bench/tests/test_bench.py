"""Tests of the benchmark itself: seeded inputs, the reference predicate,
the tracer, and agreement between BENCHMARK.json and the code.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import ROOT
from hostspeed import REFERENCE_S, Gauge
from reference import golden_form
from supergram import freeops, golden, gram
from tracing import PER_LAYER, PROBE, SPAN_METRICS, Span, Tracer, layer_metrics, probe_metrics
from workloads import (
    CIRCULANTS, PROBE_STATES, SWEEP_FAMILIES, WORKLOADS, _circulant, _equal_real,
)
import run
import worker


def _fingerprint(value):
    """Comparable plain data for an op's inputs."""
    if isinstance(value, (tuple, list)):
        return [_fingerprint(v) for v in value]
    for attr in ("gram", "coeffs", "matrix"):
        if hasattr(value, attr):
            return [attr, np.asarray(getattr(value, attr)).tolist()]
    return value


def _ops(workload, seed, blocks=2):
    wl = WORKLOADS[workload](seed)
    return [(op.kind, _fingerprint(op.args)) for k in range(blocks) for op in wl.block(k)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_generates_identical_inputs(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_blocks_keep_a_fixed_mix(workload):
    wl = WORKLOADS[workload](3)
    blocks = [wl.block(k) for k in range(6)]
    assert all(len(b) == wl.block_size for b in blocks)
    if workload == "sweep":
        # every fifth op is degenerate: two points of each family per block
        want = sorted(2 * [f"{family} degenerate" for family in SWEEP_FAMILIES])
        assert all(sorted(op.kind for op in b[4::5]) == want for b in blocks)
    else:
        assert all(sorted(op.kind for op in b) == sorted(op.kind for op in blocks[0]) for b in blocks)


def test_reference_accepts_table1_rows():
    rows = 0
    for family, (_, (a, b), _, (lo, _)) in golden.TABLE1_FAMILIES.items():
        for mag in (0.1, 0.25, 0.4):
            s = mag if lo == 0.0 else -mag
            form = golden_form(golden.table1_setting(family, s).gram)
            assert form is not None, (family, s)
            assert form.lambda_min == pytest.approx(a + b * s, abs=1e-12)
            rows += 1
    assert rows == 27


def test_reference_accepts_degenerate_family_d3():
    rng = np.random.default_rng(11)
    for lam1 in (0.05, 0.3, 0.7, 0.95, 1.0):
        setting = golden.degenerate_family_d3(lam1, golden.random_frame_d3(rng))
        form = golden_form(setting.gram)
        assert form is not None, lam1
        assert form.lambda_min == pytest.approx(lam1, abs=1e-10)


def test_reference_matches_equal_real_closed_form():
    for d in (2, 3, 5, 8):
        s = 0.5 / (1 - d)
        form = golden_form(_equal_real(d, s).gram)
        assert form.l1_bound == pytest.approx((d - 1) / (1 + (d - 1) * s), rel=1e-12)


def test_reference_rejects_non_golden_settings():
    assert golden_form(_equal_real(3, 0.5).gram) is None
    for row in CIRCULANTS.values():
        assert golden_form(_circulant(row).gram) is None
    d3 = _circulant(CIRCULANTS["circulant-d3"])
    a = 0.2 * np.exp(1j * np.pi / 7)
    assert d3.overlap(1, 2) == d3.overlap(2, 3) == a and d3.overlap(1, 3) == np.conj(a)


def _small_block(workload):
    wl = WORKLOADS[workload](5)
    wl.prepare()
    ops = wl.block(0)
    if workload == "sweep":
        ops = ops[:5]  # four nondegenerate settings and one degenerate
    elif workload == "certify":
        ops = [op for op in ops if op.args[0] <= 6]
    return wl, ops


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_runs_agree(workload):
    wl, ops = _small_block(workload)
    originals = {name: getattr(freeops, name) for name in ("embedding", "build_kraus_set")}
    minimize = golden.minimize
    plain = worker.run_block(wl, ops)
    tracer = Tracer()
    with tracer:
        assert freeops.embedding is not originals["embedding"]
        traced = worker.run_block(wl, ops, tracer)
    assert [(r.kind, r.passed) for r in plain] == [(r.kind, r.passed) for r in traced]
    # no wrapper survives the traced run
    assert all(getattr(freeops, n) is fn for n, fn in originals.items())
    assert golden.minimize is minimize and golden.eigensystem is gram.eigensystem
    roots = [i for i, s in enumerate(tracer.spans) if s.parent < 0]
    assert len(roots) == len(ops)
    assert all(s.parent < i and s.op in roots for i, s in enumerate(tracer.spans) if s.parent >= 0)
    metrics = layer_metrics(tracer.spans)
    assert set(metrics) == {name for name, _ in SPAN_METRICS}
    if workload == "sweep":
        assert metrics["golden.detect.calls"] == len(ops)
        assert metrics["golden.minimize.nfev"] > 0 and metrics["gram.eigensystem.calls"] >= len(ops)
    elif workload == "certify":
        assert metrics["freeops.build_kraus_set.calls"] == len(ops)
        assert metrics["freeops.kraus_sum.s"] >= metrics["freeops.verify_trace_preserving.s"] > 0
    else:
        assert metrics["monotones.rel_entropy.calls"] == 2 * len(ops)
        assert metrics["freeops.apply_map.calls"] == len(ops)


def test_self_time_subtracts_direct_children():
    spans = [
        Span("op.x", 0.0, 10.0, -1, 0),
        Span("golden.detect", 1.0, 9.0, 0, 0, {"degenerate": True, "starts": 50}),
        Span("gram.eigensystem", 1.0, 2.0, 1, 0),
        Span("golden.minimize", 2.0, 8.0, 1, 0, {"nfev": 7}),
    ]
    m = layer_metrics(spans)
    assert m["golden.detect.self_s"] == pytest.approx(1.0)
    assert m["gram.eigensystem.self_s"] == pytest.approx(1.0)
    assert m["golden.minimize.s"] == pytest.approx(6.0)
    assert m["golden.search.starts"] == 50 and m["golden.minimize.nfev"] == 7
    assert m["golden.detect.degenerate_share"] == 1.0


def test_probe_ops_do_not_depend_on_the_seed():
    probes = [[_fingerprint(op.args) for op in WORKLOADS["monotone-apply"](seed).probe()]
              for seed in (1, 2)]
    assert probes[0] == probes[1] and len(probes[0]) == PROBE_STATES
    assert WORKLOADS["sweep"](1).probe() == [] and WORKLOADS["certify"](1).probe() == []


def test_probe_metrics_read_the_solver_spans():
    spans = [
        Span("op.monotone-probe", 0.0, 4.0, -1, 0),
        Span("monotones.rel_entropy", 0.0, 3.0, 0, 0, {"iterations": 20000, "converged": False}),
        Span("monotones.rel_entropy", 3.0, 4.0, 0, 0, {"iterations": 10, "converged": True}),
    ]
    m = probe_metrics(spans)
    assert set(m) == {name for name, _ in PROBE}
    assert m["monotones.rel_entropy.probe.iterations"] == 20010
    assert m["monotones.rel_entropy.probe.converged_share"] == 0.5
    assert m["monotones.rel_entropy.probe.self_s"] == pytest.approx(4.0)


def test_gauge_scales_by_the_samples_near_an_op():
    gauge = Gauge()
    gauge.samples = [(0.0, REFERENCE_S), (10.0, 2 * REFERENCE_S)]
    # a host at half the reference speed halves the time
    assert gauge.scale(1.0, 0.0, 0.1) == pytest.approx(1.0)
    assert gauge.scale(1.0, 10.0, 10.5) == pytest.approx(0.5)
    # with no sample in the window, the nearest one counts
    assert gauge.scale(1.0, 5.0, 5.4) == pytest.approx(0.5)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
