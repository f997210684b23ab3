"""Traced run: spans around the library's public functions, from outside.

``Tracer`` replaces, for as long as it is entered, every binding of each
public function of the layer modules (``gram``, ``states``, ``golden``,
``freeops``, ``monotones``, ``sampling``) with a wrapper that records a
span.  Bindings are patched where they are looked up, so
``golden.eigensystem``, ``freeops.embedding`` and ``golden.minimize``
(scipy's function, as ``golden`` calls it) are traced as well as the
defining module's own name.  On exit every original is put back.

Spans are recorded only inside an op (``Tracer.op``), so input generation
and reference checks leave no trace.  Each span keeps its name, start,
end, parent and the op it belongs to, plus a few counts read off the
return value; ``layer_metrics`` turns them into per-layer totals with
self time = span time minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("gram", "states", "golden", "freeops", "monotones", "sampling")
RENAMED = {"l1_superposition": "l1", "rel_entropy_superposition": "rel_entropy"}
DIMS = range(2, 9)


def _rel_entropy_info(args, result):
    if not isinstance(result, tuple):
        return None
    return {"iterations": result[1].iterations, "converged": result[1].converged}


# counts read off return values, by span name
ANNOTATE = {
    "golden.detect": lambda args, r: {"degenerate": r.multiplicity > 1, "starts": r.n_starts},
    "golden.minimize": lambda args, r: {"nfev": int(r.nfev)},
    "freeops.build_kraus_set": lambda args, r: {
        "d": r.setting.d,
        "kraus_ops": r.certificate.n_s1 + r.certificate.n_s2,
    },
    "freeops.apply_map": lambda args, r: {"d": args[0].setting.d},
    "monotones.rel_entropy": _rel_entropy_info,
}

# per-layer metrics with their units; every traced run reports all of them,
# these from the spans of the timed mix
SPAN_METRICS = [
    ("golden.detect.calls", "count"),
    ("golden.detect.self_s", "s"),
    ("golden.detect.degenerate_share", "share"),
    ("golden.search.starts", "count"),
    ("golden.minimize.calls", "count"),
    ("golden.minimize.nfev", "count"),
    ("golden.minimize.s", "s"),
    ("gram.eigensystem.calls", "count"),
    ("gram.eigensystem.self_s", "s"),
    ("gram.embedding.calls", "count"),
    ("gram.embedding.self_s", "s"),
    ("freeops.build_kraus_set.calls", "count"),
    ("freeops.build_kraus_set.self_s", "s"),
    ("freeops.build_s1.s", "s"),
    ("freeops.kraus_sum.s", "s"),
    ("freeops.residual.s", "s"),
    ("freeops.build_s2.s", "s"),
    ("freeops.verify_trace_preserving.s", "s"),
    ("freeops.apply_map.calls", "count"),
    ("freeops.apply_map.s", "s"),
    ("freeops.kraus_ops", "count"),
    ("freeops.kraus_bytes", "B"),
    *[(f"freeops.build_kraus_set.d{d}.s", "s") for d in DIMS],
    *[(f"freeops.apply_map.d{d}.s", "s") for d in DIMS],
    ("monotones.rel_entropy.calls", "count"),
    ("monotones.rel_entropy.self_s", "s"),
    ("monotones.rel_entropy.iterations", "count"),
    ("monotones.rel_entropy.converged_share", "share"),
    ("monotones.l1.s", "s"),
]
# the same solver totals over a workload's fixed probe ops, kept apart
# from the timed mix
PROBE = [
    ("monotones.rel_entropy.probe.iterations", "count"),
    ("monotones.rel_entropy.probe.converged_share", "share"),
    ("monotones.rel_entropy.probe.self_s", "s"),
]
PER_LAYER = [*SPAN_METRICS, *PROBE, ("trace.overhead_share", "share")]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    info: dict | None = None


def _targets():
    """(module, attribute, function, span name) for every binding of every
    public function of the layer modules, plus ``golden.minimize``."""
    modules = [importlib.import_module(f"supergram.{layer}") for layer in LAYERS]
    for layer, mod in zip(LAYERS, modules):
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                continue
            name = f"{layer}.{RENAMED.get(attr, attr)}"
            for other in modules:
                if getattr(other, attr, None) is fn:
                    yield other, attr, fn, name
    golden = modules[LAYERS.index("golden")]
    yield golden, "minimize", golden.minimize, "golden.minimize"


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def __enter__(self):
        for mod, attr, fn, name in _targets():
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)
        return False

    @contextmanager
    def op(self, kind: str):
        """Root span of one op; library spans nest under it."""
        idx = len(self.spans)
        span = Span(f"op.{kind}", time.perf_counter(), 0.0, -1, idx)
        self.spans.append(span)
        self._stack.append(idx)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name):
        spans, stack, annotate = self.spans, self._stack, ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1], stack[0])
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                span.info = annotate(args, result)
            return result

        return traced


def probe_metrics(spans: list[Span]) -> dict[str, float]:
    """The ``PROBE`` metrics from the spans of the probe ops."""
    totals = layer_metrics(spans)
    return {name: totals[name.replace(".probe", "")] for name, _ in PROBE}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The ``SPAN_METRICS`` totals from spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    infos = defaultdict(list)
    for s, c in zip(spans, child):
        dur = s.end - s.start
        calls[s.name] += 1
        total[s.name] += dur
        own[s.name] += dur - c
        if s.info is not None:
            infos[s.name].append(s.info)
            if "d" in s.info:
                total[f"{s.name}.d{s.info['d']}"] += dur

    def share(name, key):
        vals = infos[name]
        return sum(bool(v[key]) for v in vals) / len(vals) if vals else 0.0

    builds = infos["freeops.build_kraus_set"]
    out = {
        "golden.detect.degenerate_share": share("golden.detect", "degenerate"),
        "golden.search.starts": sum(v["starts"] for v in infos["golden.detect"]),
        "golden.minimize.nfev": sum(v["nfev"] for v in infos["golden.minimize"]),
        "freeops.kraus_ops": sum(v["kraus_ops"] for v in builds),
        "freeops.kraus_bytes": sum(math.factorial(v["d"]) * v["d"] ** 2 * 16 for v in builds),
        "monotones.rel_entropy.iterations": sum(
            v["iterations"] for v in infos["monotones.rel_entropy"]
        ),
        "monotones.rel_entropy.converged_share": share("monotones.rel_entropy", "converged"),
    }
    for metric, _ in SPAN_METRICS:
        if metric in out:
            continue
        base, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[base]
        elif stat == "self_s":
            out[metric] = own[base]
        else:
            out[metric] = total[base]
    return out
