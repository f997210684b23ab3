import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import supergram
from supergram.cli import main

SRC = Path(supergram.__file__).resolve().parents[1]


def run_module(args, cwd, timeout):
    """``python -m supergram.cli ARGS`` in a child process that ``timeout``
    seconds stop, so an input that loops forever fails instead of hanging."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "supergram.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
    )


def write_setting(tmp_path, name, d, overlaps):
    payload = {
        "d": d,
        "overlaps": [
            {"i": i, "j": j, "re": float(np.real(s)), "im": float(np.imag(s))}
            for i, j, s in overlaps
        ],
    }
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_validate_exit_codes(tmp_path, capsys):
    ok = write_setting(tmp_path, "ok.json", 3, [(1, 2, 0.3), (1, 3, 0.3), (2, 3, 0.3)])
    assert main(["validate", ok]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["linearly_independent"] is True

    dep = write_setting(tmp_path, "dep.json", 3, [(1, 2, -0.5), (1, 3, -0.5), (2, 3, -0.5)])
    assert main(["validate", dep]) == 1
    captured = capsys.readouterr()
    assert "dependent basis" in captured.err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2


def test_golden_found_with_verification(tmp_path, capsys):
    path = write_setting(tmp_path, "d2.json", 2, [(1, 2, 0.6)])
    assert main(["golden", path, "--verify", "20", "--seed", "11"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "found"
    assert out["lambda_min"] == pytest.approx(0.4, abs=1e-12)
    v = out["verify"]
    assert v["n_targets"] == 20
    assert v["frobenius_residual"] <= 1e-9
    assert v["psd_margin"] >= -1e-10
    assert v["annihilation"] <= 1e-10
    assert v["map_error"] <= 1e-10


def test_golden_verify_beyond_enumeration_limit(tmp_path, capsys):
    # d = 12 is past the explicit d! export limit; the channels still certify
    d = 12
    s = -0.5 / (d - 1)
    overlaps = [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    path = write_setting(tmp_path, "d12.json", d, overlaps)
    assert main(["golden", path, "--verify", "5"]) == 0
    v = json.loads(capsys.readouterr().out)["verify"]
    assert "failed" not in v
    assert v["n_targets"] == 5
    assert v["frobenius_residual"] <= 1e-9
    assert v["map_error"] <= 1e-10


@pytest.fixture
def no_search(monkeypatch):
    """Make the opt-in eigenspace search fail if anything runs it."""
    def refuse(*args, **kwargs):
        raise AssertionError("the eigenspace search ran")

    monkeypatch.setattr(supergram.golden, "minimize", refuse)


def test_golden_none_exit_code(tmp_path, capsys, no_search):
    # the closed form decides and reports its fit distance: off-diagonal
    # 0.5 from the identity, the nearer golden form
    path = write_setting(tmp_path, "half.json", 3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    assert main(["golden", path]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "none"
    assert out["best_deviation"] == pytest.approx(0.5, abs=1e-12)
    assert out["n_starts"] == 0 and out["multiplicity"] == 2


def test_golden_file_errors(tmp_path):
    assert main(["golden", str(tmp_path / "missing.json")]) == 2


def test_golden_inconclusive_exit_code(tmp_path, capsys, no_search):
    # nearly orthonormal equal overlaps: the fit distance 1e-7 lies in the
    # gray zone between acceptance and confident rejection
    path = write_setting(tmp_path, "gray.json", 3,
                         [(1, 2, 1e-7), (1, 3, 1e-7), (2, 3, 1e-7)])
    assert main(["golden", path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "none"
    assert out["inconclusive"] is True


def test_golden_close_to_dependence_exits_inconclusive(tmp_path, capsys, no_search):
    path = write_setting(tmp_path, "near.json", 2, [(1, 2, -0.999999998)])
    assert main(["golden", path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "none"
    assert out["inconclusive"] is True


def test_golden_tol_flag_loosens_acceptance(tmp_path, capsys):
    path = write_setting(tmp_path, "gray.json", 3,
                         [(1, 2, 1e-7), (1, 3, 1e-7), (2, 3, 1e-7)])
    assert main(["golden", path, "--tol", "1e-6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "found"
    # channel verification of such a loosely accepted candidate fails
    # loudly instead of crashing
    assert main(["golden", path, "--tol", "1e-6", "--verify", "5"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert "failed" in out["verify"]


def test_scan_d2_real_matches_closed_form(tmp_path):
    out = tmp_path / "d2.csv"
    rc = main([
        "scan", "--family", "d2-real",
        "--from", "-0.3", "--to", "0.3", "--step", "0.1",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,lambda_min,l1_golden,l1_closed_form"
    assert len(lines) == 8
    for line in lines[1:]:
        s, lam, l1g, l1cf = line.split(",")
        s = float(s)
        expected = 1 / (1 - s) if s >= 0 else 1 / (1 + s)
        assert float(l1g) == pytest.approx(expected, abs=1e-9)
        assert float(l1cf) == pytest.approx(expected, abs=1e-12)
        assert float(lam) == pytest.approx(1 - abs(s), abs=1e-12)


def test_scan_is_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["scan", "--family", "d3-equal", "--from", "-0.2", "--to", "0.15",
            "--step", "0.05"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_d3_equal_empty_cells_for_positive_s(tmp_path):
    out = tmp_path / "d3.csv"
    assert main([
        "scan", "--family", "d3-equal",
        "--from", "-0.1", "--to", "0.1", "--step", "0.1",
        "--out", str(out),
    ]) == 0
    rows = {line.split(",")[0]: line.split(",") for line in out.read_text().splitlines()[1:]}
    assert rows["0.10000000000000001"][2] == ""
    assert rows["0.10000000000000001"][3] == ""
    assert float(rows["-0.10000000000000001"][2]) == pytest.approx(2 / 0.8, abs=1e-9)


def test_scan_clips_inadmissible_range(tmp_path, capsys):
    out = tmp_path / "clip.csv"
    assert main([
        "scan", "--family", "d3-equal",
        "--from", "-0.7", "--to", "-0.4", "--step", "0.1",
        "--out", str(out),
    ]) == 0
    captured = capsys.readouterr()
    assert "clipped" in captured.err
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header plus the single admissible point [-0.4]


def test_scan_close_to_dependence(tmp_path):
    # points with lambda_min near 1e-9 are inconclusive rows, not errors
    out = tmp_path / "near.csv"
    assert main([
        "scan", "--family", "d2-real",
        "--from=-1.0000000005", "--to=-0.999999995", "--step", "1e-10",
        "--out", str(out),
    ]) == 0
    assert len(out.read_text().splitlines()) == 41


def test_scan_d_equal_real_d5(tmp_path):
    out = tmp_path / "d5.csv"
    assert main([
        "scan", "--family", "d-equal-real", "--d", "5",
        "--from", "-0.2", "--to", "0.0", "--step", "0.05",
        "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        s, lam, l1g, l1cf = line.split(",")
        s = float(s)
        assert float(l1g) == pytest.approx(4 / (1 + 4 * s), abs=1e-9)


def test_scan_d2_complex_family(tmp_path):
    out = tmp_path / "d2c.csv"
    assert main([
        "scan", "--family", "d2-complex",
        "--from", "-0.4", "--to", "0.4", "--step", "0.2",
        "--out", str(out),
    ]) == 0
    for line in out.read_text().splitlines()[1:]:
        s, lam, l1g, l1cf = line.split(",")
        s = float(s)
        # the overlap phase does not shift the spectrum or the golden l1
        expected = 1 / (1 - s) if s >= 0 else 1 / (1 + s)
        assert float(l1g) == pytest.approx(expected, abs=1e-9)
        assert float(lam) == pytest.approx(1 - abs(s), abs=1e-12)


def test_golden_is_deterministic(tmp_path, capsys):
    path = write_setting(tmp_path, "d3.json", 3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    main(["golden", path, "--seed", "5"])
    first = capsys.readouterr().out
    main(["golden", path, "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


def test_scan_bad_args(tmp_path):
    assert main([
        "scan", "--family", "d2-real", "--from", "0", "--to", "1",
        "--step", "-0.1", "--out", str(tmp_path / "x.csv"),
    ]) == 2
    assert main([
        "scan", "--family", "d2-real", "--from", "0", "--to", "0.5",
        "--step", "0.1", "--out", str(tmp_path / "nodir" / "x.csv"),
    ]) == 2


@pytest.mark.parametrize("grid", [
    ["--from", "nan", "--to", "0.5", "--step", "0.1"],
    ["--from=-inf", "--to", "0.5", "--step", "0.1"],
    ["--from", "0", "--to", "inf", "--step", "0.1"],
    ["--from", "0", "--to", "0.5", "--step", "nan"],
    ["--from", "0", "--to", "0.5", "--step", "1e-300"],
])
def test_scan_rejects_grids_that_never_end(tmp_path, grid):
    out = tmp_path / "x.csv"
    proc = run_module(["scan", "--family", "d2-real", *grid, "--out", str(out)], tmp_path, 60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("start, stop", [("-1e9", "0"), ("-0.5", "1e9")])
def test_scan_counts_clipped_points_without_visiting_them(tmp_path, start, stop):
    # about 1e11 grid points, all but a few hundred outside (-1, 1)
    out = tmp_path / "x.csv"
    grid = [f"--from={start}", "--to", stop, "--step", "0.01"]
    proc = run_module(["scan", "--family", "d2-real", *grid, "--out", str(out)], tmp_path, 60)
    assert proc.returncode == 0, proc.stderr
    n_grid = round((float(stop) - float(start)) / 0.01) + 1
    n_rows = len(out.read_text().splitlines()) - 1
    assert 0 < n_rows < 200
    assert proc.stderr == (f"warning: {n_grid - n_rows} grid point(s) outside the admissible "
                           "interval (-1, 1) were clipped\n")


def test_negative_exponent_values_parse_when_separated(tmp_path):
    joined, separated = tmp_path / "joined.csv", tmp_path / "separated.csv"
    grid = ["--family", "d2-complex", "--to", "0", "--step", "0.01"]
    assert main(["scan", *grid, "--from=-5e-2", "--phase=-1e-1", "--out", str(joined)]) == 0
    assert main(["scan", *grid, "--from", "-5e-2", "--phase", "-1e-1", "--out", str(separated)]) == 0
    assert joined.read_bytes() == separated.read_bytes()
    assert len(joined.read_text().splitlines()) == 7


@pytest.mark.parametrize("flags", [
    ["--family", "d2-real", "--from", "0", "--to", "0.5", "--step", "inf"],
    ["--family", "d-equal-real", "--d", "1", "--from", "-0.1", "--to", "0", "--step", "0.1"],
    ["--family", "d-equal-real", "--d", "0", "--from", "-0.1", "--to", "0", "--step", "0.1"],
    ["--family", "d-equal-real", "--d", "1001", "--from", "-1e-3", "--to", "0", "--step", "1e-3"],
    ["--family", "d2-real", "--from", "0", "--to", "0.5", "--step", "1e-13"],
])
def test_scan_rejects_out_of_range_flags(tmp_path, capsys, monkeypatch, flags):
    # refused before any setting is built
    def refuse(*args, **kwargs):
        raise AssertionError("scan built a setting from refused flags")

    monkeypatch.setattr(supergram.gram, "build_setting", refuse)
    out = tmp_path / "x.csv"
    assert main(["scan", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--tol", "inf"], ["--tol", "nan"], ["--tol=-1e-9"],
                                   ["--verify", "-1"], ["--tol", "-1e-9"]])
def test_golden_rejects_out_of_range_flags(tmp_path, capsys, flags):
    # no golden state, yet an unbounded --tol would report one
    path = write_setting(tmp_path, "mixed.json", 3, [(1, 2, 0.1), (1, 3, 0.2), (2, 3, 0.3)])
    assert main(["golden", path, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_table1_passes(tmp_path, capsys):
    out = tmp_path / "table.json"
    assert main(["table1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert len(payload["rows"]) == 27
    text = capsys.readouterr().out
    assert "s,is,-is" in text


def test_table1_unwritable_out_is_input_error(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path / "nodir" / "table.json")]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write" in captured.err
    assert captured.out == ""
    # a device that accepts the open and fails the write
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this host")
    assert main(["table1", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert "error: cannot write" in captured.err
    assert captured.out == ""


def test_python_m_runs_the_cli(tmp_path):
    proc = run_module(["table1"], tmp_path, 120)
    assert proc.returncode == 0, proc.stderr
    assert "s,is,-is" in proc.stdout
    assert json.loads(proc.stdout[proc.stdout.index("{"):])["pass"] is True


# makes every later import of scipy fail as if it were not installed
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, NoScipy())
"""

# runs each argument list of argv[1] (JSON) through main and prints
# [[exit code, stdout], ...]
RUN_CLI = """
import contextlib, io, json, sys
from supergram.cli import main
runs = []
for args in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(args)
    runs.append([rc, out.getvalue()])
print(json.dumps(runs))
"""


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def test_every_command_runs_without_scipy(tmp_path):
    half = write_setting(tmp_path, "half.json", 3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    gray = write_setting(tmp_path, "gray.json", 3, [(1, 2, 1e-7), (1, 3, 1e-7), (2, 3, 1e-7)])
    gold = write_setting(tmp_path, "gold.json", 3, [(1, 2, -0.3), (1, 3, -0.3), (2, 3, -0.3)])
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coeffs": [{"re": 1.0}, {"re": 0.5, "im": 0.5}, {"re": -1.0}]}))

    def commands(csv):
        return [
            ["validate", half],
            ["golden", half],
            ["golden", gray],
            ["golden", gold, "--verify", "5"],
            ["scan", "--family", "d3-equal", "--from=-0.2", "--to", "0.15", "--step", "0.05",
             "--out", str(csv)],
            ["table1"],
            ["monotones", gold, str(state)],
        ]

    runs = {}
    for mode, prelude in (("block", BLOCK_SCIPY), ("scipy", "")):
        proc = run_python(prelude + RUN_CLI, json.dumps(commands(tmp_path / f"{mode}.csv")))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout)
    assert runs["block"] == runs["scipy"]
    assert [rc for rc, _ in runs["block"]] == [0, 1, 3, 0, 0, 0, 0]
    assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "scipy.csv").read_bytes()
    # only the opt-in search needs scipy
    proc = run_python(
        BLOCK_SCIPY +
        "from supergram import build_setting, detect\n"
        "from supergram.golden import N_STARTS\n"
        "try:\n"
        "    detect(build_setting(3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)]), n_starts=N_STARTS)\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, exc)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scipy ")


def test_monotones_golden_report(tmp_path, capsys):
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    state = tmp_path / "state.json"
    state.write_text(json.dumps({
        "coeffs": [{"re": 1.0, "im": 0.0}, {"re": -1.0, "im": 0.0}],
    }))
    assert main(["monotones", spath, str(state)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l1"] == pytest.approx(2.5, abs=1e-9)
    assert out["rel_entropy"] == pytest.approx(np.log(5.0), abs=1e-5)
    assert out["overlaps"] == pytest.approx([0.2, 0.2], abs=1e-12)
    assert out["attained"] is True


def test_monotones_basis_state_zero(tmp_path, capsys):
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    state = tmp_path / "basis.json"
    state.write_text(json.dumps({"coeffs": [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}))
    assert main(["monotones", spath, str(state)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["l1"] <= 1e-12
    assert out["rel_entropy"] <= 1e-6
    assert out["attained"] is False


def test_non_finite_input_is_input_error(tmp_path, capsys):
    nan_setting = write_setting(tmp_path, "nan.json", 3, [(1, 2, complex(np.nan, 0.0))])
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    nan_state = tmp_path / "state.json"
    nan_state.write_text(json.dumps({"coeffs": [{"re": np.nan}, {"re": 1.0}]}))
    out = str(tmp_path / "o.csv")
    for args in (
        ["golden", nan_setting],
        ["validate", nan_setting],
        ["scan", "--family", "d2-complex", "--from", "0", "--to", "0.5", "--step", "0.25",
         "--phase", "nan", "--out", out],
        ["monotones", spath, str(nan_state)],
    ):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
    assert not os.path.exists(out)


def test_monotones_input_errors(tmp_path):
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"coeffs": [{"re": 0.0, "im": 0.0}, {"re": 0.0, "im": 0.0}]}))
    assert main(["monotones", spath, str(zero)]) == 2


@pytest.mark.parametrize("text", [
    '{"d": null}', '{"d": [3]}', '{"d": 1e400}', '{"d": 2.5}',
    '{"d": 3, "overlaps": 5}', '{"d": 3, "overlaps": null}',
    '{"d": 3, "overlaps": [{"i": 1.5, "j": 2, "re": 0.1}]}',
])
def test_malformed_setting_json_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command in ("validate", "golden"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_monotones_refuses_dependent_setting(tmp_path, capsys):
    spath = write_setting(tmp_path, "dep.json", 2, [(1, 2, -0.9999999999999)])
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"coeffs": [{"re": 1.0}, {"re": 0.0}]}))
    assert main(["monotones", spath, str(state)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "dependent basis" in captured.err


def test_monotones_wrong_coefficient_count_is_input_error(tmp_path, capsys):
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    state = tmp_path / "short.json"
    state.write_text(json.dumps({"coeffs": [{"re": 1.0}]}))
    assert main(["monotones", spath, str(state)]) == 2
    assert capsys.readouterr().err == "error: expected 2 coefficients, got 1\n"


@pytest.mark.parametrize("d", [1001, 10**6])
def test_setting_dimension_above_the_bound_is_input_error(tmp_path, capsys, d):
    # refused before any d x d matrix is allocated
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"d": d}))
    for command in ("validate", "golden"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dimension must be at most 1000, got {d}\n"


@pytest.mark.parametrize("value", ['"0.5"', "true", "false", '"nan"', "1" + "0" * 400])
def test_json_values_must_be_numbers_in_float_range(tmp_path, capsys, value):
    # JSON values must be numbers, as JSON indices must be integers; an
    # integer beyond float range is refused too, not an OverflowError
    bad_setting = tmp_path / "bad.json"
    bad_setting.write_text('{"d": 2, "overlaps": [{"i": 1, "j": 2, "re": %s}]}' % value)
    spath = write_setting(tmp_path, "set.json", 2, [(1, 2, 0.6)])
    bad_state = tmp_path / "state.json"
    bad_state.write_text('{"coeffs": [{"re": 1.0, "im": %s}, {"re": 1}]}' % value)
    for args in (["validate", str(bad_setting)], ["monotones", spath, str(bad_state)]):
        assert main(args) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")
