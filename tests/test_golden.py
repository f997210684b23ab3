import os
import subprocess
import sys

import numpy as np
import pytest

import supergram
from supergram import golden
from supergram.freeops import build_kraus_set
from supergram.gram import build_setting, eigensystem
from supergram.golden import (
    ACCEPT_TOL,
    N_STARTS,
    TABLE1_FAMILIES,
    candidate_form,
    closed_form_d2,
    closed_form_equal_real,
    degenerate_family_d3,
    detect,
    random_frame_d3,
    report_to_json,
    table1_row,
    table1_setting,
)
from supergram.sampling import random_setting, random_state
from supergram.states import normalize, tilde

from oracles import spectral_golden_gram


def equal_setting(d, s):
    return build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def phase_distance(a, b):
    ov = np.vdot(a, b)
    phase = ov / abs(ov) if abs(ov) > 1e-15 else 1.0
    return float(np.linalg.norm(a * phase - b))


# ---------------------------------------------------------------- candidate_form

def test_candidate_form_orthonormal_uniform():
    st = build_setting(3, [])
    psi = candidate_form(st, 1.0, np.zeros(3))
    assert np.allclose(psi.coeffs, np.ones(3) / np.sqrt(3), atol=1e-14)


def test_candidate_form_d2_minus_branch():
    s = 0.6
    st = build_setting(2, [(1, 2, s)])
    psi = candidate_form(st, 1 - s, np.array([0.0, np.pi]))
    assert np.allclose(psi.coeffs, np.array([1.0, -1.0]) / np.sqrt(0.8), atol=1e-12)


def test_candidate_form_d3_plus():
    s = -0.3
    st = equal_setting(3, s)
    psi = candidate_form(st, 1 + 2 * s, np.zeros(3))
    assert np.allclose(psi.coeffs, np.ones(3) / np.sqrt(1.2), atol=1e-12)


def test_candidate_form_rejects_inconsistent_data():
    st = build_setting(2, [(1, 2, 0.6)])
    with pytest.raises(ValueError):
        candidate_form(st, 0.9, np.zeros(2))


@pytest.mark.parametrize("call, message", [
    (lambda st: candidate_form(st, 0.0, np.zeros(2)), "lambda_min must be positive"),
    (lambda st: candidate_form(st, -0.4, np.zeros(2)), "lambda_min must be positive"),
    (lambda st: candidate_form(st, 0.4, np.zeros(3)), "expected 2 phases"),
    (lambda st: closed_form_d2(1.0), r"\|s\| must be < 1"),
    (lambda st: closed_form_d2(-1.5), r"\|s\| must be < 1"),
], ids=["lambda-zero", "lambda-negative", "phase-count", "s-one", "s-below-minus-one"])
def test_closed_forms_refuse_invalid_input(call, message):
    st = build_setting(2, [(1, 2, 0.6)])
    with pytest.raises(ValueError, match=message):
        call(st)


# ------------------------------------------------------------------------ detect

def test_detect_d2_real_found():
    rep = detect(build_setting(2, [(1, 2, 0.6)]))
    assert rep.outcome == "found"
    cand = rep.candidate
    assert cand.lambda_min == pytest.approx(0.4, abs=1e-14)
    assert phase_distance(cand.state.coeffs, np.array([1, -1]) / np.sqrt(0.8)) <= 1e-10
    assert cand.tilde_deviation <= 1e-12
    assert cand.eigen_residual <= 1e-12


def test_detect_equal_half_counterexample():
    rep = detect(equal_setting(3, 0.5), n_starts=N_STARTS)
    assert rep.outcome == "none"
    assert rep.multiplicity == 2
    assert rep.n_starts >= 50
    assert rep.best_deviation > 1e-3
    assert not rep.inconclusive


def test_detect_mixed_sign_family():
    s = 0.3
    st = build_setting(3, [(1, 2, -s), (1, 3, s), (2, 3, s)])
    rep = detect(st)
    assert rep.outcome == "found"
    assert rep.candidate.lambda_min == pytest.approx(1 - 2 * s, abs=1e-12)
    expected = normalize(np.array([1.0, 1.0, -1.0]), st)
    assert phase_distance(rep.candidate.state.coeffs, expected.coeffs) <= 1e-9


def test_detect_identity_gives_uniform_coherent_state():
    for d in (2, 3, 4):
        rep = detect(build_setting(d, []))
        assert rep.outcome == "found"
        assert np.allclose(rep.candidate.state.coeffs, np.ones(d) / np.sqrt(d), atol=1e-12)


def test_detect_equal_positive_s_none_with_scaling_deviation():
    # the degenerate minimal eigenspace contains tilde-uniform vectors, but
    # none supports the free-channel construction; deviation grows with s
    for s in (0.2, 0.4):
        rep = detect(equal_setting(3, s), n_starts=N_STARTS)
        assert rep.outcome == "none"
        assert rep.best_deviation == pytest.approx(np.sqrt(3) / 2 * s, rel=1e-6)


def test_detect_rejects_dependent_setting():
    with pytest.raises(ValueError):
        detect(equal_setting(3, -0.5))


def test_report_json_shape():
    rep = detect(build_setting(2, [(1, 2, 0.6)]))
    js = report_to_json(rep)
    assert js["outcome"] == "found"
    assert js["lambda_min"] == pytest.approx(0.4)
    assert len(js["coefficients"]) == 2


# ------------------------------------------------------------------ closed forms

def test_closed_form_d2_examples():
    psi = closed_form_d2(0.6, 0.0)
    assert np.allclose(psi.coeffs, np.array([1, -1]) / np.sqrt(0.8), atol=1e-14)

    psi = closed_form_d2(0.5, np.pi / 2)
    assert np.allclose(psi.coeffs, np.array([1.0, 1j]), atol=1e-14)
    assert np.allclose(tilde(psi), [0.5, 0.5], atol=1e-12)

    zero = closed_form_d2(0.0, 0.0)
    negative = closed_form_d2(-0.4, 0.0)
    assert np.allclose(np.abs(zero.coeffs), np.ones(2) / np.sqrt(2))
    assert np.allclose(negative.coeffs, np.ones(2) / np.sqrt(1.2))


def test_closed_form_d2_detect_accepts():
    for s, theta in ((0.6, 0.0), (0.5, np.pi / 2), (-0.7, 1.1)):
        psi = closed_form_d2(s, theta)
        rep = detect(psi.setting)
        assert rep.outcome == "found"
        assert phase_distance(rep.candidate.state.coeffs, psi.coeffs) <= 1e-9


def test_closed_form_equal_real_values():
    psi = closed_form_equal_real(4, -0.2)
    assert np.allclose(psi.coeffs, np.ones(4) * 0.7905694150420949, atol=1e-12)

    psi = closed_form_equal_real(2, 0.0)
    assert np.allclose(psi.coeffs, np.ones(2) / np.sqrt(2), atol=1e-14)

    s = -0.3
    psi = closed_form_equal_real(3, s)
    es = eigensystem(psi.setting)
    assert es.lambda_min == pytest.approx(1 + 2 * s, abs=1e-14)
    assert np.allclose(psi.coeffs, np.ones(3) / np.sqrt(3 * (1 + 2 * s)), atol=1e-12)


def test_closed_form_equal_real_range():
    with pytest.raises(ValueError):
        closed_form_equal_real(3, 0.2)
    with pytest.raises(ValueError):
        closed_form_equal_real(3, -0.5)


def test_closed_form_equal_real_fixed_point_of_detect():
    rng = np.random.default_rng(17)
    for _ in range(40):
        d = int(rng.integers(2, 8))
        lo = 1.0 / (1.0 - d)
        s = float(rng.uniform(lo * 0.95, 0.0))
        psi = closed_form_equal_real(d, s)
        rep = detect(psi.setting)
        assert rep.outcome == "found"
        assert phase_distance(rep.candidate.state.coeffs, psi.coeffs) <= 1e-9


def test_equal_real_spectral_structure():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(2, 8))
        s = float(rng.uniform(1.0 / (1.0 - d) * 0.9, 0.9))
        if abs(s) < 1e-3:
            continue
        es = eigensystem(equal_setting(d, s))
        evals = np.sort(np.concatenate([[1 + (d - 1) * s], np.full(d - 1, 1 - s)]))
        assert np.allclose(es.eigenvalues, evals, atol=1e-10)


# ----------------------------------------------------------------------- table 1

def test_table1_examples():
    cand = table1_row("s,s,s", -0.3)
    assert cand.lambda_min == pytest.approx(0.4, abs=1e-12)
    assert phase_distance(
        cand.state.coeffs, normalize(np.ones(3), cand.state.setting).coeffs
    ) <= 1e-9

    cand = table1_row("-s,-s,-s", 0.3)
    assert cand.lambda_min == pytest.approx(0.4, abs=1e-12)

    cand = table1_row("s,is,-is", 0.25)
    assert cand.lambda_min == pytest.approx(0.5, abs=1e-12)
    expected = normalize(np.array([-1j, 1j, 1.0]), cand.state.setting)
    assert phase_distance(cand.state.coeffs, expected.coeffs) <= 1e-9


def test_table1_all_rows_all_samples():
    for family, (_, (a, b), _, (rlo, _)) in TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        for mag in (0.1, 0.25, 0.4):
            cand = table1_row(family, sign * mag)
            assert cand.lambda_min == pytest.approx(a + b * sign * mag, abs=1e-12)


def test_table1_range_errors():
    with pytest.raises(ValueError):
        table1_row("s,s,s", 0.3)
    with pytest.raises(ValueError):
        table1_row("-s,s,s", -0.1)
    with pytest.raises(ValueError):
        table1_row("nope", 0.1)


# ------------------------------------------------------------- degenerate family

def test_degenerate_family_eigenvalues():
    rng = np.random.default_rng(29)
    st = degenerate_family_d3(0.5, random_frame_d3(rng))
    es = eigensystem(st)
    assert np.allclose(es.eigenvalues, [0.5, 1.25, 1.25], atol=1e-12)


def test_degenerate_family_identity_limit():
    rng = np.random.default_rng(31)
    st = degenerate_family_d3(1.0, random_frame_d3(rng))
    assert np.allclose(st.gram, np.eye(3), atol=1e-12)


def test_degenerate_family_members_admit_golden():
    rng = np.random.default_rng(37)
    for _ in range(10):
        lam1 = float(rng.uniform(0.05, 0.95))
        st = degenerate_family_d3(lam1, random_frame_d3(rng))
        assert np.max(np.abs(np.diag(st.gram) - 1)) <= 1e-12
        rep = detect(st)
        assert rep.outcome == "found"
        assert rep.candidate.lambda_min == pytest.approx(lam1, abs=1e-10)


def test_degenerate_family_rejects_bad_input():
    rng = np.random.default_rng(41)
    frame = random_frame_d3(rng)
    with pytest.raises(ValueError):
        degenerate_family_d3(0.0, frame)
    with pytest.raises(ValueError):
        degenerate_family_d3(1.5, frame)
    with pytest.raises(ValueError):
        degenerate_family_d3(1.0 + 2e-12, frame)
    bad = np.eye(3, dtype=complex)  # first column (1,0,0): not equal-modulus
    with pytest.raises(ValueError):
        degenerate_family_d3(0.5, bad)
    notu = frame.copy()
    notu[:, 1] *= 2.0
    with pytest.raises(ValueError):
        degenerate_family_d3(0.5, notu)


def test_degenerate_family_accepts_frames_within_modulus_tolerance():
    # first-column moduli 1/sqrt(3) +- 5e-10, inside EQUAL_MODULUS_TOL
    rng = np.random.default_rng(47)
    mods = 1.0 / np.sqrt(3.0) + np.array([5e-10, -5e-10, 0.0])
    col0 = mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 3))
    frame, _ = np.linalg.qr(np.column_stack([col0, rng.standard_normal((3, 2))]))
    assert np.linalg.norm(frame.conj().T @ frame - np.eye(3)) <= 1e-15
    assert np.max(np.abs(np.abs(frame[:, 0]) - 1.0 / np.sqrt(3.0))) == pytest.approx(5e-10, rel=1e-3)
    st = degenerate_family_d3(0.1, frame)
    rep = detect(st)
    assert rep.outcome == "found"
    assert rep.candidate.lambda_min == pytest.approx(0.1, abs=1e-10)


def test_degeneracy_law_at_every_d():
    # a unit-diagonal G admits a golden state exactly when its top d - 1
    # eigenvalues coincide; at d = 3 that is the degenerate top pair
    rng = np.random.default_rng(43)
    for d in (*range(2, 9), 16, 32, 50):
        for lam1 in (1.0, *rng.uniform(0.02, 1.0, 3)):
            G = spectral_golden_gram(lam1, rng.uniform(0.0, 2.0 * np.pi, d))
            st = build_setting(d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)])
            mu = (d - lam1) / (d - 1)
            assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-10
            assert np.max(np.abs(np.linalg.eigvalsh(st.gram)[1:] - mu)) <= 1e-10
            assert detect(st).outcome == "found"
    for d in range(3, 9):
        for _ in range(20):
            st = random_setting(d, rng, min_eigenvalue=0.02, min_gap=1e-6)
            assert detect(st).outcome == "none"


# -------------------------------------------------------------------- invariants

def test_accepted_candidate_invariant_chain():
    cases = [
        build_setting(2, [(1, 2, 0.6)]),
        build_setting(2, [(1, 2, 0.6 * np.exp(1j * np.pi / 3))]),
        equal_setting(3, -0.3),
        equal_setting(4, -0.2),
        build_setting(3, [(1, 2, 0.3), (1, 3, 0.3j), (2, 3, -0.3j)]),
    ]
    for st in cases:
        rep = detect(st)
        assert rep.outcome == "found"
        cand = rep.candidate
        psi = cand.state.coeffs
        lam = cand.lambda_min
        d = st.d
        assert np.linalg.norm(st.gram @ psi - lam * psi) <= 1e-9
        assert np.max(np.abs(tilde(cand.state) - 1 / d)) <= 1e-9
        mods = np.abs(psi)
        assert mods.max() - mods.min() <= 1e-9
        assert np.max(np.abs(mods**2 - 1 / (d * lam))) <= 1e-9


def test_none_settings_have_clear_deviation():
    rng = np.random.default_rng(47)
    for _ in range(50):
        st = random_setting(3, rng, min_eigenvalue=0.05, min_gap=1e-4)
        rep = detect(st)
        assert rep.outcome == "none"
        assert rep.best_deviation > 1e-6


def test_detect_triple_degenerate_eigenspace():
    # d=4 equal positive overlaps: the minimal eigenvalue has multiplicity 3
    st = equal_setting(4, 0.3)
    rep = detect(st)
    assert rep.multiplicity == 3
    assert rep.outcome == "none"
    assert rep.best_deviation > 1e-2


def test_detect_near_dependent_setting():
    rep = detect(build_setting(2, [(1, 2, 0.999)]))
    assert rep.outcome == "found"
    assert rep.candidate.lambda_min == pytest.approx(1e-3, abs=1e-12)


def test_detect_close_to_dependence_is_inconclusive():
    # lambda_min = 2e-9 is far above MIN_EIG_TOL, but psi^dag G psi then
    # carries a rounding error of about eps / lambda_min, above NORM_TOL
    st = build_setting(2, [(1, 2, -0.999999998)])
    assert eigensystem(st).lambda_min == pytest.approx(2e-9, rel=1e-6)
    rep = detect(st)
    assert rep.outcome == "none"
    assert rep.candidate is None
    assert rep.inconclusive
    assert rep.best_deviation <= ACCEPT_TOL


def test_report_carries_lambda_min_on_every_outcome():
    # found, a plain none, a none after the eigenspace search, and the
    # inconclusive none close to dependence
    cases = [
        (build_setting(2, [(1, 2, 0.6)]), 0),
        (build_setting(3, [(1, 2, 0.25), (1, 3, -0.1), (2, 3, 0.2)]), 0),
        (equal_setting(3, 0.5), 4),
        (build_setting(2, [(1, 2, -0.999999998)]), 0),
    ]
    outcomes = []
    for st, n_starts in cases:
        rep = detect(st, n_starts=n_starts)
        assert rep.lambda_min == eigensystem(st).lambda_min
        outcomes.append((rep.outcome, rep.n_starts > 0, rep.inconclusive))
    assert outcomes == [("found", False, False), ("none", False, False),
                        ("none", True, False), ("none", False, True)]


def test_gray_zone_is_flagged_inconclusive():
    # an almost-orthonormal equal setting: the search lands between the
    # acceptance threshold and the confident-rejection threshold
    s = 1e-7
    rep = detect(equal_setting(3, s), n_starts=N_STARTS)
    assert rep.outcome == "none"
    assert 1e-9 < rep.best_deviation <= 1e-6
    assert rep.inconclusive
    assert rep.best_deviation == pytest.approx(np.sqrt(3) / 2 * s, rel=1e-4)


# ------------------------------------------------------- closed-form decision

def golden_form_setting(d, c, phases):
    """The setting G = (1 - c) I + c u u^dag with u = exp(i phases)."""
    u = np.exp(1j * np.asarray(phases))
    G = (1 - c) * np.eye(d) + c * np.outer(u, u.conj())
    return build_setting(d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)])


def test_hermitian_circulants_admit_no_golden_state():
    # the minimal eigenvectors are Fourier vectors, with equal moduli and a
    # uniform tilde vector, but the free-channel residual identity fails
    a = 0.2 * np.exp(1j * np.pi / 7)
    st3 = build_setting(3, [(1, 2, a), (2, 3, a), (1, 3, np.conj(a))])
    st4 = build_setting(4, [(1, 2, a), (1, 3, 0.1), (1, 4, np.conj(a)),
                            (2, 3, a), (2, 4, 0.1), (3, 4, a)])
    for st in (st3, st4):
        rep = detect(st)
        assert rep.outcome == "none"
        assert not rep.inconclusive
    # consistent with the degeneracy law: the top pair is split
    lam = np.linalg.eigvalsh(st3.gram)
    assert lam[2] - lam[1] > 1e-3


def test_found_implies_every_target_certifies():
    rng = np.random.default_rng(53)
    settings = []
    for d in range(2, 7):
        for _ in range(6):
            c = -float(rng.uniform(0.0, 1.0)) / (d - 1)
            settings.append(golden_form_setting(d, c, rng.uniform(0.0, 2 * np.pi, d)))
    for family, (_, _, _, (rlo, _)) in TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        settings += [table1_setting(family, sign * mag) for mag in (0.1, 0.25, 0.4)]
    for st in settings:
        rep = detect(st)
        assert rep.outcome == "found"
        for _ in range(3):
            phi = random_state(st, rng, full_rank=True)
            assert build_kraus_set(rep.candidate.state, phi).certificate.passed


def test_nudged_golden_form_is_rejected():
    rng = np.random.default_rng(59)
    for d in range(3, 7):
        st = golden_form_setting(d, -0.5 / (d - 1), rng.uniform(0.0, 2 * np.pi, d))
        assert detect(st).outcome == "found"
        pairs = [(i + 1, j + 1, st.gram[i, j]) for i in range(d) for j in range(i + 1, d)]
        k = int(rng.integers(len(pairs)))
        nudged = [(i, j, s + 1e-5 if n == k else s) for n, (i, j, s) in enumerate(pairs)]
        rep = detect(build_setting(d, nudged))
        assert rep.outcome == "none"
        assert not rep.inconclusive


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(supergram.__file__))
    code = "import sys, supergram; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_eigenspace_search_runs_only_on_request(monkeypatch):
    calls = []
    scipy_minimize = golden.minimize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return scipy_minimize(*args, **kwargs)

    monkeypatch.setattr(golden, "minimize", counting)
    rep = detect(equal_setting(3, 0.5))
    assert rep.outcome == "none" and rep.n_starts == 0 and not calls
    # the closed-form distance: off-diagonal 0.5 from the identity, the
    # nearer golden form
    assert rep.best_deviation == pytest.approx(0.5, abs=1e-12)
    rep = detect(equal_setting(3, 0.5), n_starts=N_STARTS)
    assert rep.outcome == "none"
    assert rep.n_starts >= 50
    assert calls
