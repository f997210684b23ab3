"""Command-line surface: validate settings, detect golden states, sweep
parameter families to CSV, reproduce the three-dimensional sign-pattern
table, and evaluate monotones.

Exit codes: 0 success, 1 domain-negative result (dependent basis, no
golden state, table mismatch), 2 input error, 3 inconclusive detection.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import gram, golden, monotones
from .freeops import build_kraus_set, apply_map
from .sampling import random_state
from .states import density_pure, state_from_json

__all__ = ["ScanSpec", "main", "entry"]

_FAMILIES = ("d2-real", "d2-complex", "d3-equal", "d3-mixed-sign", "d-equal-real")


@dataclass(frozen=True)
class ScanSpec:
    """One CSV sweep: a parameter family, a closed grid, an output path."""

    family: str
    start: float
    stop: float
    step: float
    out: str
    d: int = 4
    phase: float = np.pi / 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_validate(path: str) -> int:
    try:
        setting = gram.setting_from_json(_load_json(path))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = gram.validate(setting)
    _print_json(report.to_json())
    if not report.linearly_independent:
        print("dependent basis", file=sys.stderr)
        return 1
    return 0


def cmd_golden(path: str, verify: int = 0, seed: int = 0, tol: float = golden.ACCEPT_TOL) -> int:
    try:
        setting = gram.setting_from_json(_load_json(path))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = golden.detect(setting, n_starts=golden.N_STARTS, accept_tol=tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = golden.report_to_json(report)
    if report.outcome == "found" and verify > 0:
        rng = np.random.default_rng(seed)
        worst = {"frobenius_residual": 0.0, "psd_margin": 0.0, "annihilation": 0.0, "map_error": 0.0}
        psi = report.candidate.state
        rho = density_pure(psi)
        for k in range(verify):
            phi = random_state(setting, rng, full_rank=True)
            try:
                kset = build_kraus_set(psi, phi)
                out = apply_map(kset, rho)
            except ValueError as exc:
                # a candidate admitted under a loosened tolerance can still
                # fail channel construction; report instead of crashing
                payload["verify"] = {"n_targets": k, "failed": str(exc), **worst}
                _print_json(payload)
                return 3
            target = density_pure(phi)
            worst["frobenius_residual"] = max(
                worst["frobenius_residual"], kset.certificate.frobenius_residual
            )
            worst["psd_margin"] = min(worst["psd_margin"], kset.certificate.psd_margin)
            worst["annihilation"] = max(worst["annihilation"], kset.certificate.annihilation)
            worst["map_error"] = max(
                worst["map_error"], float(np.linalg.norm(out.matrix - target.matrix))
            )
        payload["verify"] = {"n_targets": verify, **worst}
    _print_json(payload)
    if report.outcome == "found":
        return 0
    return 3 if report.inconclusive else 1


def _scan_interval(spec: ScanSpec) -> tuple[float, float]:
    if spec.family in ("d2-real", "d2-complex"):
        return (-1.0, 1.0)
    if spec.family == "d3-equal":
        return (-0.5, 1.0)
    if spec.family == "d3-mixed-sign":
        return (-1.0, 0.5)
    return (1.0 / (1.0 - spec.d), 1.0)


def _scan_setting(spec: ScanSpec, s: float) -> gram.GramSetting:
    if spec.family == "d2-real":
        return gram.build_setting(2, [(1, 2, s)])
    if spec.family == "d2-complex":
        return gram.build_setting(2, [(1, 2, s * np.exp(1j * spec.phase))])
    if spec.family == "d3-equal":
        return gram.build_setting(3, [(1, 2, s), (1, 3, s), (2, 3, s)])
    if spec.family == "d3-mixed-sign":
        return gram.build_setting(3, [(1, 2, -s), (1, 3, s), (2, 3, s)])
    d = spec.d
    return gram.build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def _scan_closed_form(spec: ScanSpec, s: float) -> float | None:
    if spec.family in ("d2-real", "d2-complex"):
        return 1.0 / (1.0 - s) if s >= 0 else 1.0 / (1.0 + s)
    if spec.family == "d3-equal":
        return 2.0 / (1.0 + 2.0 * s) if s <= 0 else None
    if spec.family == "d3-mixed-sign":
        return 2.0 / (1.0 - 2.0 * s) if s >= 0 else None
    if s <= 0:
        return (spec.d - 1) / (1.0 + (spec.d - 1) * s)
    return None


def cmd_scan(spec: ScanSpec) -> int:
    if spec.family not in _FAMILIES:
        print(f"error: unknown family {spec.family!r}", file=sys.stderr)
        return 2
    if spec.step <= 0:
        print("error: step must be positive", file=sys.stderr)
        return 2
    lo, hi = _scan_interval(spec)
    values = []
    clipped = 0
    k = 0
    while True:
        s = round(spec.start + k * spec.step, 12)
        if s > spec.stop + gram.ZERO_TOL:
            break
        k += 1
        if s <= lo + gram.SCAN_EDGE_TOL or s >= hi - gram.SCAN_EDGE_TOL:
            clipped += 1
            continue
        values.append(s)
    if clipped:
        print(
            f"warning: {clipped} grid point(s) outside the admissible interval "
            f"({_fmt(lo)}, {_fmt(hi)}) were clipped",
            file=sys.stderr,
        )
    rows = []
    for s in values:
        setting = _scan_setting(spec, s)
        lam_min = gram.eigensystem(setting).lambda_min
        report = golden.detect(setting)
        if report.outcome == "found":
            l1_golden = _fmt(monotones.l1_superposition(report.candidate.state))
        else:
            l1_golden = ""
        cf = _scan_closed_form(spec, s)
        rows.append((_fmt(s), _fmt(lam_min), l1_golden, "" if cf is None else _fmt(cf)))
    try:
        with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("s,lambda_min,l1_golden,l1_closed_form\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        print(f"error: cannot write {spec.out!r}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_table1(out: str | None = None) -> int:
    # open the output first, so a run that cannot write it prints nothing
    try:
        sink = open(out, "w", encoding="utf-8", newline="\n") if out else nullcontext()
    except OSError as exc:
        print(f"error: cannot write {out!r}: {exc}", file=sys.stderr)
        return 2
    with sink as fh:
        sample = (0.1, 0.25, 0.4)
        entries = []
        failures = 0
        header = f"{'family':>10}  {'s':>6}  {'lambda_min':>11}  {'pattern':>14}  status"
        print(header)
        print("-" * len(header))
        for family, (_, (a, b), pattern, (rlo, _)) in golden.TABLE1_FAMILIES.items():
            sign = -1.0 if rlo < 0 else 1.0
            for mag in sample:
                s = sign * mag
                try:
                    cand = golden.table1_row(family, s)
                    status = "pass"
                except (RuntimeError, ValueError) as exc:
                    status = f"FAIL ({exc})"
                    failures += 1
                    cand = None
                pat = ",".join(str(p) for p in pattern)
                lam = f"{a + b * s:.6f}" if cand is None else f"{cand.lambda_min:.6f}"
                print(f"{family:>10}  {s:>6.2f}  {lam:>11}  {pat:>14}  {status}")
                entries.append(
                    {
                        "family": family,
                        "s": s,
                        "lambda_min": None if cand is None else cand.lambda_min,
                        "pattern": pat,
                        "pass": status == "pass",
                    }
                )
        payload = {"rows": entries, "pass": failures == 0}
        if fh is not None:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        else:
            _print_json(payload)
    return 0 if failures == 0 else 1


def cmd_monotones(setting_path: str, state_path: str) -> int:
    try:
        setting = gram.setting_from_json(_load_json(setting_path))
        psi = state_from_json(_load_json(state_path), setting)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = monotones.monotone_report(psi)
    _print_json(report.to_json())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supergram",
        description="Golden superposition states over nonorthogonal bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a setting JSON file")
    p_validate.add_argument("path")

    p_golden = sub.add_parser("golden", help="detect the golden state of a setting")
    p_golden.add_argument("path")
    p_golden.add_argument("--verify", type=int, default=0, metavar="N",
                          help="certify channels to N random full-rank targets")
    p_golden.add_argument("--seed", type=int, default=0)
    p_golden.add_argument("--tol", type=float, default=golden.ACCEPT_TOL)

    p_scan = sub.add_parser("scan", help="sweep a parameter family to CSV")
    p_scan.add_argument("--family", required=True, choices=_FAMILIES)
    p_scan.add_argument("--from", dest="start", type=float, required=True)
    p_scan.add_argument("--to", dest="stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--d", type=int, default=4, help="dimension for d-equal-real")
    p_scan.add_argument("--phase", type=float, default=float(np.pi / 3),
                        help="overlap phase for d2-complex")

    p_table = sub.add_parser("table1", help="reproduce the d=3 sign-pattern table")
    p_table.add_argument("--out", default=None)

    p_mono = sub.add_parser("monotones", help="evaluate monotones of a state")
    p_mono.add_argument("setting")
    p_mono.add_argument("state")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.path)
    if args.command == "golden":
        return cmd_golden(args.path, verify=args.verify, seed=args.seed, tol=args.tol)
    if args.command == "scan":
        spec = ScanSpec(
            family=args.family,
            start=args.start,
            stop=args.stop,
            step=args.step,
            out=args.out,
            d=args.d,
            phase=args.phase,
        )
        return cmd_scan(spec)
    if args.command == "table1":
        return cmd_table1(args.out)
    return cmd_monotones(args.setting, args.state)


def entry() -> None:
    sys.exit(main())
