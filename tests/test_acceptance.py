"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  Each test prints its line only after all assertions held.
"""

import time
from itertools import permutations

import numpy as np

from supergram.cli import main
from supergram.freeops import apply_map, build_kraus_set, is_free_kraus
from supergram.golden import (
    ACCEPT_TOL,
    N_STARTS,
    TABLE1_FAMILIES,
    closed_form_equal_real,
    degenerate_family_d3,
    detect,
    random_frame_d3,
    table1_setting,
)
from supergram.gram import build_setting, eigensystem, embedding
from supergram.monotones import (
    constant_trace_overlaps,
    l1_superposition,
    rel_entropy_superposition,
)
from supergram.sampling import random_setting, random_state
from supergram.states import density_mixed, density_pure, normalize

from oracles import (
    bargmann_golden,
    grid_min_deviation,
    lex_permutations,
    power_extreme_eigs,
    s1_operators,
    spectral_golden_gram,
)


def _phase_aligned_distance(a, b):
    ov = np.vdot(a, b)
    phase = ov / abs(ov) if abs(ov) > 1e-15 else 1.0
    return float(np.linalg.norm(a * phase - b))


def equal_setting(d, s):
    return build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def gram_setting(G):
    d = G.shape[0]
    return build_setting(d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)])


def certificate_settings():
    """The settings exercised by the channel-certificate criteria."""
    out = [
        ("d2 s=+0.6", build_setting(2, [(1, 2, 0.6)])),
        ("d2 s=-0.6", build_setting(2, [(1, 2, -0.6)])),
        ("d2 s=0.6 e^{i pi/3}", build_setting(2, [(1, 2, 0.6 * np.exp(1j * np.pi / 3))])),
    ]
    for family, (_, _, _, (rlo, _)) in TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        out.append((f"d3 {family} s={sign * 0.3:+.1f}", table1_setting(family, sign * 0.3)))
    out.append(("d4 equal s=-0.2", equal_setting(4, -0.2)))
    return out


def test_criterion_1_table_reproduction():
    t0 = time.monotonic()
    for family, (_, (a, b), pattern, (rlo, _)) in TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        for mag in (0.1, 0.25, 0.4):
            s = sign * mag
            setting = table1_setting(family, s)
            report = detect(setting)
            assert report.outcome == "found", (family, s)
            lam_expected = a + b * s
            assert abs(report.candidate.lambda_min - lam_expected) <= 1e-12, (family, s)
            expected = normalize(np.asarray(pattern, dtype=complex), setting)
            dist = _phase_aligned_distance(expected.coeffs, report.candidate.state.coeffs)
            assert dist <= 1e-9, (family, s, dist)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"table reproduction took {elapsed:.2f}s"
    print(f"\ncriterion 1: PASS - 9 families x 3 samples reproduced in {elapsed:.2f}s")


def test_criterion_2_d2_curve(tmp_path):
    out = tmp_path / "fig_d2.csv"
    rc = main([
        "scan", "--family", "d2-real",
        "--from", "-0.98", "--to", "0.98", "--step", "0.01",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()[1:]
    assert len(lines) == 197
    worst = 0.0
    for line in lines:
        s_str, _, l1g, _ = line.split(",")
        s = float(s_str)
        expected = 1.0 / (1.0 - s) if s >= 0 else 1.0 / (1.0 + s)
        assert l1g != "", s
        worst = max(worst, abs(float(l1g) - expected))
        if s == 0.0:
            assert abs(float(l1g) - 1.0) <= 1e-9
    assert worst <= 1e-9
    print(f"\ncriterion 2: PASS - 197-point qubit curve, worst error {worst:.2e}")


def test_criterion_3_d3_curves(tmp_path):
    worst = 0.0
    filled = 0
    for family, lam_sign in (("d3-equal", +2.0), ("d3-mixed-sign", -2.0)):
        out = tmp_path / f"fig_{family}.csv"
        rc = main([
            "scan", "--family", family,
            "--from", "-0.49", "--to", "0.49", "--step", "0.01",
            "--out", str(out),
        ])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            s_str, _, l1g, _ = line.split(",")
            s = float(s_str)
            on_branch = s <= 0 if family == "d3-equal" else s >= 0
            if not on_branch:
                continue
            expected = 2.0 / (1.0 + lam_sign * s)
            assert l1g != "", (family, s)
            worst = max(worst, abs(float(l1g) - expected))
            filled += 1
    assert worst <= 1e-9
    print(f"\ncriterion 3: PASS - {filled} golden points on both families, worst error {worst:.2e}")


def test_criterion_4_counterexample():
    report = detect(equal_setting(3, 0.5), n_starts=N_STARTS)
    assert report.outcome == "none"
    assert report.n_starts >= 50
    assert report.best_deviation > 1e-3
    print(
        f"\ncriterion 4: PASS - s=1/2 rejected, best deviation "
        f"{report.best_deviation:.6f} over {report.n_starts} starts"
    )


def test_criterion_5_trace_preservation_certificates():
    t0 = time.monotonic()
    n_channels = 0
    worst = {"frob": 0.0, "margin": 0.0, "ann": 0.0, "map": 0.0}
    for idx, (label, setting) in enumerate(certificate_settings()):
        report = detect(setting)
        assert report.outcome == "found", label
        psi = report.candidate.state
        rho = density_pure(psi)
        V = embedding(setting)
        rng = np.random.default_rng(1000 + idx)
        for _ in range(100):
            phi = random_state(setting, rng, full_rank=True)
            kset = build_kraus_set(psi, phi)
            cert = kset.certificate
            assert cert.frobenius_residual <= 1e-9, label
            assert cert.psd_margin >= -1e-10, label
            assert cert.annihilation <= 1e-10, label
            out = apply_map(kset, rho)
            w = V @ phi.coeffs
            err = float(np.linalg.norm(out.matrix - np.outer(w, w.conj())))
            assert err <= 1e-10, label
            worst["frob"] = max(worst["frob"], cert.frobenius_residual)
            worst["margin"] = min(worst["margin"], cert.psd_margin)
            worst["ann"] = max(worst["ann"], cert.annihilation)
            worst["map"] = max(worst["map"], err)
            n_channels += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"certificates took {elapsed:.1f}s"
    print(
        f"\ncriterion 5: PASS - {n_channels} channels in {elapsed:.1f}s "
        f"(worst frobenius {worst['frob']:.2e}, margin {worst['margin']:.2e}, "
        f"annihilation {worst['ann']:.2e}, map error {worst['map']:.2e})"
    )


def test_criterion_6_degeneracy_theorem():
    rng = np.random.default_rng(60)
    for _ in range(100):
        lam1 = float(rng.uniform(0.02, 0.98))
        setting = degenerate_family_d3(lam1, random_frame_d3(rng))
        es = eigensystem(setting)
        lam2 = (3.0 - lam1) / 2.0
        assert abs(es.eigenvalues[1] - lam2) <= 1e-10
        assert abs(es.eigenvalues[2] - lam2) <= 1e-10
        assert np.max(np.abs(np.diag(setting.gram) - 1.0)) <= 1e-10
        report = detect(setting)
        assert report.outcome == "found"
    none_count = 0
    for _ in range(1000):
        setting = random_setting(3, rng, min_eigenvalue=0.02, min_gap=1e-6)
        if detect(setting).outcome == "none":
            none_count += 1
    assert none_count == 1000
    # the same law at every d: golden exactly when the top d - 1 eigenvalues coincide
    rng = np.random.default_rng(61)
    dims = (*range(2, 9), 16, 32, 50)
    for d in dims:
        for _ in range(10):
            lam1 = float(rng.uniform(0.02, 1.0))
            G = spectral_golden_gram(lam1, rng.uniform(0.0, 2.0 * np.pi, d))
            assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-10
            setting = gram_setting(G)
            mu = (d - lam1) / (d - 1)
            assert np.max(np.abs(eigensystem(setting).eigenvalues[1:] - mu)) <= 1e-10
            assert detect(setting).outcome == "found"
    for d in range(4, 9):
        for _ in range(100):
            setting = random_setting(d, rng, min_eigenvalue=0.02, min_gap=1e-6)
            assert detect(setting).outcome == "none"
    print(
        "\ncriterion 6: PASS - 100 family members admit golden states; "
        "1000 nondegenerate random settings admit none; "
        f"{10 * len(dims)} spectral golden forms at d = 2..50 admit one, "
        "500 nondegenerate random settings at d = 4..8 admit none"
    )


def test_criterion_7_monotone_bounds():
    t0 = time.monotonic()
    # golden states attain both bounds
    cases = [
        ("d2 s=0.6", build_setting(2, [(1, 2, 0.6)])),
        ("d3 equal s=-0.3", equal_setting(3, -0.3)),
        ("d4 equal s=-0.2", equal_setting(4, -0.2)),
    ]
    for label, setting in cases:
        d = setting.d
        lam = eigensystem(setting).lambda_min
        psi = detect(setting).candidate.state
        assert abs(l1_superposition(psi) - (d - 1) / lam) <= 1e-12, label
        assert abs(rel_entropy_superposition(psi) - np.log(d / lam)) <= 1e-5, label

    # 1e4 random states per setting stay below both bounds; the relative
    # entropy is capped through its uniform-mixture upper bound
    # -<psi| ln((1/d) V V^dag) |psi>, which is provably >= the monotone
    for label, setting in cases:
        d = setting.d
        lam = eigensystem(setting).lambda_min
        l1_max = (d - 1) / lam
        re_max = np.log(d / lam)
        V = embedding(setting)
        w, U = np.linalg.eigh(V @ V.conj().T)
        log_vv = (U * np.log(w)) @ U.conj().T
        rng = np.random.default_rng(70)
        raw = rng.standard_normal((10000, d)) + 1j * rng.standard_normal((10000, d))
        norms = np.sqrt(np.real(np.einsum("ni,ij,nj->n", raw.conj(), setting.gram, raw)))
        coeff = raw / norms[:, None]
        mods = np.abs(coeff)
        l1_vals = np.einsum("ni,nj->n", mods, mods) - np.sum(mods * mods, axis=1)
        assert float(np.max(l1_vals)) <= l1_max + 1e-9, label
        emb = coeff @ V.T
        re_surrogate = np.log(d) - np.real(np.einsum("ni,ij,nj->n", emb.conj(), log_vv, emb))
        assert float(np.max(re_surrogate)) <= re_max + 1e-9, label
        # spot-check the optimizer itself on a subsample
        for k in range(0, 10000, 500):
            val = rel_entropy_superposition(normalize(coeff[k], setting))
            assert val <= re_max + 1e-9, (label, k)

    # monotones never increase across 100 certified free maps
    psi = closed_form_equal_real(3, -0.25)
    setting = psi.setting
    rng = np.random.default_rng(71)
    for _ in range(100):
        phi = random_state(setting, rng, full_rank=True)
        kset = build_kraus_set(psi, phi)
        rho_in = density_mixed([random_state(setting, rng), random_state(setting, rng)], [0.5, 0.5])
        rho_out = apply_map(kset, rho_in)
        assert l1_superposition(rho_out) <= l1_superposition(rho_in) + 1e-8
        assert rel_entropy_superposition(rho_out) <= rel_entropy_superposition(rho_in) + 1e-8
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"monotone bounds took {elapsed:.2f}s"
    print(
        "\ncriterion 7: PASS - bounds attained for d in {2,3,4}; 3x10^4 random "
        f"states below both bounds; monotones non-increasing over 100 free maps in {elapsed:.2f}s"
    )


def test_criterion_8_constant_trace():
    for label, setting in certificate_settings():
        report = detect(setting)
        psi = report.candidate.state
        lam = report.candidate.lambda_min
        ov = constant_trace_overlaps(psi)
        assert np.max(np.abs(ov - lam / setting.d)) <= 1e-12, label
    st = build_setting(2, [(1, 2, 0.6)])
    psi = detect(st).candidate.state
    assert np.allclose(constant_trace_overlaps(psi), 0.2, atol=1e-12)
    print("\ncriterion 8: PASS - golden overlaps equal lambda_min/d; (1-s)/2 = 0.2 at s=0.6")


def test_criterion_9_orthonormal_limit():
    for d in (2, 3, 4):
        setting = build_setting(d, [])
        report = detect(setting)
        assert report.outcome == "found"
        psi = report.candidate.state
        assert np.allclose(psi.coeffs, np.ones(d) / np.sqrt(d), atol=1e-12)
        assert abs(l1_superposition(psi) - (d - 1)) <= 1e-12
        assert abs(rel_entropy_superposition(psi) - np.log(d)) <= 1e-5
        rng = np.random.default_rng(90 + d)
        phi = random_state(setting, rng, full_rank=True)
        for K in s1_operators(psi.coeffs, phi.coeffs):
            assert is_free_kraus(K)
    print("\ncriterion 9: PASS - zero-overlap limit reduces to the coherence theory")


def test_criterion_10_oracle_cross_checks():
    # extreme eigenvalues against an ad hoc power iteration, 50 instances
    rng = np.random.default_rng(100)
    worst_eig = 0.0
    for k in range(50):
        d = int(rng.integers(2, 6))
        setting = random_setting(d, rng, min_eigenvalue=0.02, min_gap=1e-3)
        es = eigensystem(setting)
        lam_min, lam_max, _, _ = power_extreme_eigs(setting.gram, seed=k)
        worst_eig = max(worst_eig, abs(lam_min - es.lambda_min), abs(lam_max - es.lambda_max))
    assert worst_eig <= 1e-8

    # permutation enumeration order against the successor algorithm
    for d in (2, 3, 4):
        assert list(lex_permutations(d)) == list(permutations(range(d)))

    # degenerate-eigenspace search against the zooming dense grid
    worst_grid = 0.0
    for s in (0.5, 0.2, 0.35):
        setting = equal_setting(3, s)
        es = eigensystem(setting)
        X = es.eigenvectors[:, list(es.min_group)]
        grid = grid_min_deviation(setting, X, es.lambda_min)
        search = detect(setting, n_starts=N_STARTS).best_deviation
        worst_grid = max(worst_grid, abs(grid - search))
    assert worst_grid <= 1e-8

    # golden existence against the gauge-invariant Bargmann oracle
    rng = np.random.default_rng(101)
    cases = []
    for d in (*range(2, 9), 16, 32, 50):
        for _ in range(20):
            G = spectral_golden_gram(rng.uniform(0.02, 1.0), rng.uniform(0.0, 2.0 * np.pi, d))
            cases.append(gram_setting(G))
    for d in range(3, 9):
        cases += [random_setting(d, rng, min_eigenvalue=0.02, min_gap=1e-6) for _ in range(100)]
    for family, (_, _, _, (rlo, _)) in TABLE1_FAMILIES.items():
        sign = -1.0 if rlo < 0 else 1.0
        cases += [table1_setting(family, sign * mag) for mag in (0.1, 0.25, 0.4)]
    cases += [equal_setting(3, s) for s in (0.5, 0.2, 1e-7, -0.3, 0.0)]
    a = 0.2 * np.exp(1j * np.pi / 7)
    cases.append(build_setting(3, [(1, 2, a), (2, 3, a), (1, 3, np.conj(a))]))
    found = [detect(st).outcome == "found" for st in cases]
    assert found == [bargmann_golden(st.gram, ACCEPT_TOL) for st in cases]
    assert sum(found) == 200 + 27 + 2
    print(
        f"\ncriterion 10: PASS - eigensolver oracle within {worst_eig:.2e} on 50 "
        f"instances; permutation orders identical; grid vs search within {worst_grid:.2e}; "
        f"Bargmann oracle agrees with detect on {len(cases)} settings"
    )
