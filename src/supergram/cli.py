"""Command-line surface: validate settings, detect golden states, sweep
parameter families to CSV, reproduce the three-dimensional sign-pattern
table, and evaluate monotones.

Exit codes: 0 success, 1 domain-negative result (dependent basis, no
golden state, table mismatch), 2 input error, 3 inconclusive detection.
Each command raises ``OSError`` or ``ValueError`` on bad input, and
``main`` alone turns that into exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from . import gram, golden, monotones
from .freeops import build_kraus_set, apply_map
from .sampling import random_state
from .states import density_pure, state_from_json

__all__ = ["main", "entry"]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_setting(path: str) -> gram.GramSetting:
    return gram.setting_from_json(_load_json(path))


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_validate(args) -> int:
    report = gram.validate(_load_setting(args.path))
    _print_json(report.to_json())
    if not report.linearly_independent:
        print("dependent basis", file=sys.stderr)
        return 1
    return 0


def cmd_golden(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError(f"--tol must be finite and non-negative, got {args.tol}")
    if args.verify < 0:
        raise ValueError(f"--verify must be non-negative, got {args.verify}")
    setting = _load_setting(args.path)
    report = golden.detect(setting, accept_tol=args.tol)
    payload = golden.report_to_json(report)
    if report.outcome == "found" and args.verify > 0:
        rng = np.random.default_rng(args.seed)
        worst = {"frobenius_residual": 0.0, "psd_margin": 0.0, "annihilation": 0.0, "map_error": 0.0}
        psi = report.candidate.state
        rho = density_pure(psi)
        for k in range(args.verify):
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
            cert = kset.certificate
            map_error = float(np.linalg.norm(out.matrix - density_pure(phi).matrix))
            worst["frobenius_residual"] = max(worst["frobenius_residual"], cert.frobenius_residual)
            worst["psd_margin"] = min(worst["psd_margin"], cert.psd_margin)
            worst["annihilation"] = max(worst["annihilation"], cert.annihilation)
            worst["map_error"] = max(worst["map_error"], map_error)
        payload["verify"] = {"n_targets": args.verify, **worst}
    _print_json(payload)
    if report.outcome == "found":
        return 0
    return 3 if report.inconclusive else 1


def _d2_family(phase: float):
    """Qubit overlap s e^{i phase}, golden at every s with l1 1/lambda_min."""
    return ((-1.0, 1.0), lambda s: gram.build_setting(2, [(1, 2, s * np.exp(1j * phase))]),
            lambda s: 1.0 / (1.0 - abs(s)))


def _equal_family(d: int):
    """Equal real overlaps s in dimension d, golden for s <= 0 with l1 (d-1)/lambda_min."""
    return (
        (1.0 / (1.0 - d), 1.0),
        lambda s: gram.build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)]),
        lambda s: (d - 1) / (1.0 + (d - 1) * s) if s <= 0 else None,
    )


# Each scan family, given the parsed arguments: the open interval of
# admissible s, the setting at s, and the closed-form golden l1 at s (None
# where the family has no golden state).
_FAMILIES = {
    "d2-real": lambda a: _d2_family(0.0),
    "d2-complex": lambda a: _d2_family(a.phase),
    "d3-equal": lambda a: _equal_family(3),
    "d3-mixed-sign": lambda a: (
        (-1.0, 0.5),
        lambda s: gram.build_setting(3, [(1, 2, -s), (1, 3, s), (2, 3, s)]),
        lambda s: 2.0 / (1.0 - 2.0 * s) if s >= 0 else None,
    ),
    "d-equal-real": lambda a: _equal_family(a.d),
}


def _first(holds) -> int:
    """Smallest k >= 0 with holds(k), once true always true: gallop, bisect."""
    lo, hi = -1, 0
    while not holds(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def cmd_scan(args) -> int:
    if not all(math.isfinite(x) for x in (args.start, args.stop, args.step)):
        raise ValueError("--from, --to and --step must be finite")
    if args.step <= 0:
        raise ValueError("step must be positive")
    # grid points are rounded to 12 decimals: a finer step repeats points or stalls
    if args.step < 1e-12:
        raise ValueError(f"step must be at least 1e-12, got {args.step}")
    if args.family == "d-equal-real" and not 2 <= args.d <= gram.MAX_JSON_DIM:
        raise ValueError(f"--d must be from 2 to {gram.MAX_JSON_DIM}, got {args.d}")
    (lo, hi), setting_at, l1_closed_form = _FAMILIES[args.family](args)

    def s_at(k: int) -> float:
        return round(args.start + k * args.step, 12)

    # s_at never falls as k grows, so the grid is the indices [0, n) and its
    # admissible points are [first, end): no clipped point is visited
    n = _first(lambda k: s_at(k) > args.stop + gram.ZERO_TOL)
    first = _first(lambda k: k >= n or s_at(k) > lo + gram.SCAN_EDGE_TOL)
    end = _first(lambda k: k >= n or s_at(k) >= hi - gram.SCAN_EDGE_TOL)
    lines = ["s,lambda_min,l1_golden,l1_closed_form\n"]
    for s in map(s_at, range(first, end)):
        report = golden.detect(setting_at(s))
        found = report.outcome == "found"
        l1_golden = monotones.l1_superposition(report.candidate.state) if found else None
        row = (s, report.lambda_min, l1_golden, l1_closed_form(s))
        lines.append(",".join("" if x is None else _fmt(x) for x in row) + "\n")
    clipped = n - (end - first)
    if clipped:
        print(
            f"warning: {clipped} grid point(s) outside the admissible interval "
            f"({_fmt(lo)}, {_fmt(hi)}) were clipped",
            file=sys.stderr,
        )
    _write(args.out, "".join(lines))
    return 0


def cmd_table1(args) -> int:
    header = f"{'family':>10}  {'s':>6}  {'lambda_min':>11}  {'pattern':>14}  status"
    lines = [header, "-" * len(header)]
    entries = []
    for family, (_, (a, b), pattern, (rlo, _)) in golden.TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        for mag in (0.1, 0.25, 0.4):
            s = sign * mag
            try:
                cand = golden.table1_row(family, s)
                status = "pass"
            except (RuntimeError, ValueError) as exc:
                status = f"FAIL ({exc})"
                cand = None
            pat = ",".join(str(p) for p in pattern)
            lam = f"{a + b * s:.6f}" if cand is None else f"{cand.lambda_min:.6f}"
            lines.append(f"{family:>10}  {s:>6.2f}  {lam:>11}  {pat:>14}  {status}")
            lam_min = None if cand is None else cand.lambda_min
            entries.append({"family": family, "s": s, "lambda_min": lam_min, "pattern": pat,
                            "pass": status == "pass"})
    passed = all(e["pass"] for e in entries)
    payload = json.dumps({"rows": entries, "pass": passed}, indent=2)
    # write before printing, so a run that cannot write prints nothing
    if args.out:
        _write(args.out, payload + "\n")
    else:
        lines.append(payload)
    print("\n".join(lines))
    return 0 if passed else 1


def cmd_monotones(args) -> int:
    setting = _load_setting(args.setting)
    psi = state_from_json(_load_json(args.state), setting)
    _print_json(monotones.monotone_report(psi).to_json())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="supergram",
        description="Golden superposition states over nonorthogonal bases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a setting JSON file")
    p_validate.add_argument("path")
    p_validate.set_defaults(run=cmd_validate)

    p_golden = sub.add_parser("golden", help="detect the golden state of a setting")
    p_golden.add_argument("path")
    p_golden.add_argument("--verify", type=int, default=0, metavar="N",
                          help="certify channels to N random full-rank targets")
    p_golden.add_argument("--seed", type=int, default=0)
    p_golden.add_argument("--tol", type=float, default=golden.ACCEPT_TOL)
    p_golden.set_defaults(run=cmd_golden)

    p_scan = sub.add_parser("scan", help="sweep a parameter family to CSV")
    p_scan.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    p_scan.add_argument("--from", dest="start", type=float, required=True)
    p_scan.add_argument("--to", dest="stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--d", type=int, default=4, help="dimension for d-equal-real")
    p_scan.add_argument("--phase", type=float, default=float(np.pi / 3),
                        help="overlap phase for d2-complex")
    p_scan.set_defaults(run=cmd_scan)

    p_table = sub.add_parser("table1", help="reproduce the d=3 sign-pattern table")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(run=cmd_table1)

    p_mono = sub.add_parser("monotones", help="evaluate monotones of a state")
    p_mono.add_argument("setting")
    p_mono.add_argument("state")
    p_mono.set_defaults(run=cmd_monotones)

    # argparse reads a separated negative value such as -1e-3 as an option
    # string; joined to its float option, as --from=-1e-3, it is a value
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--from", "--to", "--step", "--phase", "--tol") and re.match("-[^-]", argv[i + 1]):
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
