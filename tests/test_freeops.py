import math
import tracemalloc

import numpy as np
import pytest

from supergram import freeops
from supergram.freeops import (
    FROBENIUS_TOL,
    ChannelCertificate,
    apply_map,
    apply_mixed,
    build_kraus_set,
    build_s2,
    is_free_kraus,
    residual,
)
from supergram.gram import build_setting, eigensystem, embedding
from supergram.golden import closed_form_equal_real, detect, golden_setting
from supergram.sampling import random_state
from supergram.states import density_mixed, density_pure, normalize

from oracles import kraus_sum, s1_operators


def golden_d2(s=0.6):
    st = build_setting(2, [(1, 2, s)])
    return st, detect(st).candidate.state


def s1_sum(psi, phi):
    """The S1 completeness sum, enumerated operator by operator."""
    return kraus_sum(psi.setting.gram, s1_operators(psi.coeffs, phi.coeffs))


def frobenius(st, ops):
    """|sum K^dag G K - G| over explicit Kraus matrices."""
    return float(np.linalg.norm(kraus_sum(st.gram, ops) - st.gram))


# ----------------------------------------------------------------- freeness test

def test_is_free_kraus():
    assert is_free_kraus(np.diag([1.0, 2.0, 3.0]))
    P = np.array([[0, 0.5, 0], [0, 0, 2.0], [1.0, 0, 0]])
    assert is_free_kraus(P)
    bad = np.array([[1.0, 0.0], [0.5, 0.0]])
    assert not is_free_kraus(bad)


# ------------------------------------------------- S1 operators, enumerated

def test_build_s1_identity_transform_d2():
    st, psi = golden_d2()
    ops = s1_operators(psi.coeffs, psi.coeffs)
    assert len(ops) == 2
    root = math.sqrt(0.5)
    assert np.allclose(ops[0], root * np.eye(2), atol=1e-14)
    swap = np.array([[0, psi.coeffs[0] / psi.coeffs[1]], [psi.coeffs[1] / psi.coeffs[0], 0]])
    assert np.allclose(ops[1], root * swap, atol=1e-14)
    for K in ops:
        assert np.allclose(K @ psi.coeffs, root * psi.coeffs, atol=1e-14)
        assert is_free_kraus(K)


def test_build_s1_golden_to_basis_state():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    ops = s1_operators(psi.coeffs, phi.coeffs)
    root = math.sqrt(0.5)
    assert np.allclose(ops[0], np.diag([root / psi.coeffs[0], 0.0]), atol=1e-14)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = root / psi.coeffs[1]
    assert np.allclose(ops[1], expected, atol=1e-14)
    for K in ops:
        assert np.allclose(K @ psi.coeffs, root * phi.coeffs, atol=1e-13)


def test_build_s1_counts_d3():
    psi = closed_form_equal_real(3, -0.3)
    rng = np.random.default_rng(0)
    phi = random_state(psi.setting, rng, full_rank=True)
    ops = s1_operators(psi.coeffs, phi.coeffs)
    assert len(ops) == 6
    cert = build_kraus_set(psi, phi).certificate
    assert cert.n_s1 == len(ops)
    assert cert.n_s1 + cert.n_s2 <= 9


def test_build_s1_requires_full_rank_initial():
    st = build_setting(2, [])
    e1 = normalize(np.array([1.0, 0.0]), st)
    psi = normalize(np.array([1.0, 1.0]), st)
    with pytest.raises(ValueError):
        build_kraus_set(e1, psi)


# --------------------------------------------------------------------- kraus_sum

def test_kraus_sum_golden_diagonal():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    K = s1_sum(psi, phi)
    assert np.allclose(np.diag(K), [0.4, 0.4], atol=1e-14)
    assert np.allclose(K, K.conj().T, atol=1e-14)


def test_kraus_sum_structure_random_targets():
    # diagonal (1 / (d |psi_i|^2)) sum_j |phi_j|^2; off-diagonal carries the
    # (d-2)!/d! permutation count times e^{i(th_i - th_l)} (1 - phi^2)/(m_i m_l)
    psi = closed_form_equal_real(3, -0.25)
    st = psi.setting
    mods_psi = np.abs(psi.coeffs)
    phases_psi = psi.coeffs / mods_psi
    rng = np.random.default_rng(5)
    for _ in range(100):
        phi = random_state(st, rng, full_rank=True)
        K = s1_sum(psi, phi)
        phi2 = float(np.sum(np.abs(phi.coeffs) ** 2))
        assert np.allclose(np.diag(K).real, phi2 / (3 * mods_psi**2), atol=1e-10)
        off_sum = complex(phi.coeffs.conj() @ (st.gram @ phi.coeffs)) - phi2  # = 1 - phi^2
        for i in range(3):
            for l in range(3):
                if i == l:
                    continue
                expected = (
                    phases_psi[i] * np.conj(phases_psi[l]) * off_sum
                    / (6.0 * mods_psi[i] * mods_psi[l])
                )
                assert abs(K[i, l] - expected) <= 1e-10


def test_kraus_sum_empty():
    st = build_setting(3, [])
    assert np.array_equal(kraus_sum(st.gram, []), np.zeros((3, 3)))


# ---------------------------------------------------------------------- residual

def test_residual_golden_d2_values():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    res = residual(st, s1_sum(psi, phi), psi)
    assert np.allclose(np.diag(res.matrix), [0.6, 0.6], atol=1e-12)
    assert abs(res.matrix[0, 1] - 0.6) <= 1e-12
    assert res.diagonally_dominant
    assert res.psd_margin >= -1e-12
    assert res.annihilation <= 1e-12


def test_residual_non_golden_initial_fails_psd():
    st = build_setting(2, [(1, 2, 0.6)])
    psi = normalize(np.array([1.0, 0.3]), st)
    rng = np.random.default_rng(1)
    for _ in range(20):
        phi = random_state(st, rng, full_rank=True)
        res = residual(st, s1_sum(psi, phi), psi)
        assert res.psd_margin < -1e-6


def test_residual_non_golden_fails_psd_across_settings():
    from supergram.sampling import random_setting

    rng = np.random.default_rng(9)
    for _ in range(100):
        st = random_setting(3, rng, min_eigenvalue=0.05)
        psi = random_state(st, rng, full_rank=True)
        phi = random_state(st, rng, full_rank=True)
        res = residual(st, s1_sum(psi, phi), psi)
        assert res.psd_margin < -1e-6


def test_residual_identity_transform_is_zero():
    st, psi = golden_d2(0.6)
    res = residual(st, s1_sum(psi, psi), psi)
    assert np.linalg.norm(res.matrix) <= 1e-13


# ---------------------------------------------------------------------- build_s2

def test_build_s2_zero_residual():
    st, psi = golden_d2()
    assert build_s2(np.zeros((2, 2)), psi) == []


def test_build_s2_reconstruction_and_annihilation():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    res = residual(st, s1_sum(psi, phi), psi)
    ops = build_s2(res.matrix, psi)
    recon = kraus_sum(st.gram, [op.matrix for op in ops])
    assert np.linalg.norm(recon - res.matrix) <= 1e-12
    for op in ops:
        assert np.linalg.norm(op.matrix @ psi.coeffs) <= 1e-12
        assert is_free_kraus(op.matrix)
        nonzero_rows = np.where(np.abs(op.matrix).sum(axis=1) > 1e-14)[0]
        assert len(nonzero_rows) == 1


def test_build_s2_d3_end_to_end():
    psi = closed_form_equal_real(3, -0.3)
    rng = np.random.default_rng(2)
    phi = random_state(psi.setting, rng, full_rank=True)
    kset = build_kraus_set(psi, phi)
    assert len(kset.s2) <= 3
    assert kset.certificate.passed


def test_build_s2_rejects_invalid_residuals():
    st, psi = golden_d2()
    with pytest.raises(ValueError):
        build_s2(-np.eye(2), psi)
    R = np.diag([1.0, 2.0])  # PSD but R psi != 0
    with pytest.raises(ValueError):
        build_s2(R, psi)


# ------------------------------------------------------------------ verification

def test_verify_trace_preserving():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    kset = build_kraus_set(psi, phi)
    s1 = s1_operators(psi.coeffs, phi.coeffs)
    assert frobenius(st, s1 + [op.matrix for op in kset.s2]) <= 1e-12

    s1_only = frobenius(st, s1)
    assert s1_only > FROBENIUS_TOL
    assert s1_only == pytest.approx(1.2, abs=1e-10)

    empty = frobenius(st, [])
    assert empty > FROBENIUS_TOL
    assert empty == pytest.approx(np.linalg.norm(st.gram), abs=1e-12)


def _random_golden_channels(rng, dims, per_dim=2):
    """(setting, psi, kset) for random golden forms and full-rank targets."""
    for d in dims:
        c = rng.uniform(-1.0, 0.0) / (d - 1)
        st = golden_setting(d, c, rng.uniform(0.0, 2.0 * np.pi, d))
        psi = detect(st).candidate.state
        for _ in range(per_dim):
            yield st, psi, build_kraus_set(psi, random_state(st, rng, full_rank=True))


def test_closed_form_completeness_matches_enumeration():
    # the certificate sums the S1 family in closed form; the d! operators
    # summed one by one must give the same completeness matrix
    rng = np.random.default_rng(13)
    for st, psi, kset in _random_golden_channels(rng, range(2, 7)):
        s1 = s1_operators(psi.coeffs, kset.target.coeffs)
        explicit = kraus_sum(st.gram, s1)
        closed = freeops._s1_completeness(st.gram, kset.ratios)
        assert np.max(np.abs(closed - explicit)) <= 1e-13
        assert kset.certificate.frobenius_residual <= FROBENIUS_TOL
        resum = frobenius(st, s1 + [op.matrix for op in kset.s2])
        assert kset.certificate.frobenius_residual == pytest.approx(resum, abs=1e-13)


def test_closed_form_action_matches_enumeration():
    rng = np.random.default_rng(14)
    for st, psi, kset in _random_golden_channels(rng, range(2, 7)):
        rho = density_mixed([random_state(st, rng), random_state(st, rng)], [0.3, 0.7])
        C = rho.coefficient_matrix()
        explicit = sum(K @ C @ K.conj().T for K in s1_operators(psi.coeffs, kset.target.coeffs))
        closed = freeops._s1_action(kset.ratios, C)
        assert np.max(np.abs(closed - explicit)) <= 1e-13


def test_build_and_apply_never_enumerate():
    # the d! enumeration lives only in the test oracles, and building and
    # applying a d = 8 channel touches nothing of size d!
    for name in ("build_s1", "kraus_sum", "permutations"):
        assert not hasattr(freeops, name), f"freeops.{name} exists"
    rng = np.random.default_rng(15)
    st = golden_setting(8, -0.5 / 7, rng.uniform(0.0, 2.0 * np.pi, 8))
    psi = detect(st).candidate.state
    rho = density_pure(psi)
    phi = random_state(st, rng, full_rank=True)
    tracemalloc.start()
    try:
        kset = build_kraus_set(psi, phi)
        out = apply_map(kset, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kset.certificate.passed
    assert kset.certificate.n_s1 == math.factorial(8)
    assert np.linalg.norm(out.matrix - density_pure(phi).matrix) <= 1e-10
    assert peak < 1_000_000


def test_golden_source_residual_is_a_multiple_of_one_projector():
    # from a golden source of G = (1 - c) I + c u u^dag, every target phi
    # leaves the S1 residual R = alpha (I - u u^dag / d) with
    # alpha = d (1 - lambda_min |phi|_2^2) / (d - 1) >= 0 by the Rayleigh
    # bound, so R is PSD and kills psi: "found" implies every target
    # certifies.  u is the minimal eigenvector's phase vector.
    rng = np.random.default_rng(7)
    for d in range(2, 30):
        st = golden_setting(d, rng.uniform(-0.95, 0.0) / (d - 1), rng.uniform(0.0, 2.0 * np.pi, d))
        psi = detect(st).candidate.state
        es = eigensystem(st)
        x = es.eigenvectors[:, 0]
        u = x / np.abs(x)
        for _ in range(5):
            phi = random_state(st, rng, full_rank=True)
            ksum = freeops._s1_completeness(st.gram, freeops._ratios(psi, phi))
            R = residual(st, ksum, psi).matrix
            alpha = d * (1.0 - es.lambda_min * np.linalg.norm(phi.coeffs) ** 2) / (d - 1)
            assert alpha >= 0.0
            assert np.linalg.norm(R - alpha * (np.eye(d) - np.outer(u, u.conj()) / d)) <= 1e-14
            assert np.linalg.norm(R @ u) <= 1e-14


@pytest.mark.parametrize("d", [16, 32, 50])
def test_high_dimensional_golden_settings_certify(d):
    rng = np.random.default_rng(d)
    c = rng.uniform(-1.0, 0.0) / (d - 1)
    st = golden_setting(d, c, rng.uniform(0.0, 2.0 * np.pi, d))
    report = detect(st)
    assert report.outcome == "found"
    assert report.candidate.lambda_min == pytest.approx(1.0 + (d - 1) * c, abs=1e-12)
    psi = report.candidate.state
    rho = density_pure(psi)
    for _ in range(25):
        phi = random_state(st, rng, full_rank=True)
        kset = build_kraus_set(psi, phi)
        assert kset.certificate.passed
        assert kset.certificate.frobenius_residual <= 1e-9
        out = apply_map(kset, rho)
        assert np.linalg.norm(out.matrix - density_pure(phi).matrix) <= 1e-10


def test_channels_build_past_the_float_range_of_d_factorial():
    # 171! exceeds the float range; setting files allow d up to 1000, and
    # nothing in the channel may need 1/d! as a float
    d = 171
    st = golden_setting(d, -0.5 / (d - 1), np.zeros(d))
    psi = detect(st).candidate.state
    phi = random_state(st, np.random.default_rng(d), full_rank=True)
    kset = build_kraus_set(psi, phi)
    assert kset.certificate.passed
    assert kset.certificate.n_s1 == math.factorial(d)
    out = apply_map(kset, density_pure(psi))
    assert np.linalg.norm(out.matrix - density_pure(phi).matrix) <= 1e-10


def test_uniform_tilde_source_reaches_exactly_the_targets_of_unit_norm_at_most():
    # equal overlaps 1/2 at d = 3 admit no golden state, yet the source
    # (1, w, w^2), w = exp(2 pi i/3), has a uniform tilde vector: its
    # channel certifies every target phi with |phi|_2^2 <= 1 and no other
    # (the closest of these 400 targets has ||phi|_2^2 - 1| = 3.0e-4)
    st = build_setting(3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    w = np.exp(2j * np.pi / 3)
    psi = normalize(np.array([1.0, w, w * w]), st)
    rng = np.random.default_rng(0)
    reached = 0
    for _ in range(400):
        phi = random_state(st, rng)
        if np.sum(np.abs(phi.coeffs) ** 2) <= 1.0:
            assert build_kraus_set(psi, phi).certificate.passed
            reached += 1
        else:
            with pytest.raises(ValueError):
                build_kraus_set(psi, phi)
    assert reached == 175


def test_golden_setting_rejects_invalid_forms():
    with pytest.raises(ValueError):
        golden_setting(4, -1.0 / 3, np.zeros(4))
    with pytest.raises(ValueError):
        golden_setting(4, 0.1, np.zeros(4))
    with pytest.raises(ValueError):
        golden_setting(4, -0.1, np.zeros(3))
    with pytest.raises(ValueError):
        golden_setting(1, 0.0, np.zeros(1))
    # the ends of c in (-1/(d-1), 0]
    for d in range(2, 6):
        with pytest.raises(ValueError):
            golden_setting(d, -1.0 / (d - 1), np.zeros(d))
        with pytest.raises(ValueError):
            golden_setting(d, 1e-12, np.zeros(d))


def test_channel_certificate_json():
    st, psi = golden_d2()
    phi = normalize(np.array([1.0, 0.0]), st)
    js = build_kraus_set(psi, phi).certificate.to_json()
    assert set(js) == {"n_s1", "n_s2", "frobenius_residual", "psd_margin", "annihilation", "pass"}
    assert js["pass"] is True


def test_operator_json_export():
    st, psi = golden_d2()
    phi = normalize(np.array([1.0, 0.0]), st)
    op = build_kraus_set(psi, phi).s2[0]
    js = op.to_json()
    assert js["kind"] == "s2"
    rebuilt = np.array([[c["re"] + 1j * c["im"] for c in row] for row in js["matrix"]])
    assert np.array_equal(rebuilt, op.matrix)


# --------------------------------------------------------------------- apply_map

def test_apply_map_reaches_target_exactly():
    st, psi = golden_d2(0.6)
    phi = normalize(np.array([1.0, 0.0]), st)
    out = apply_map(build_kraus_set(psi, phi), density_pure(psi))
    V = embedding(st)
    c1 = V[:, 0]
    assert np.linalg.norm(out.matrix - np.outer(c1, c1.conj())) <= 1e-12


def test_apply_map_identity_transform_fixes_source():
    st, psi = golden_d2()
    kset = build_kraus_set(psi, psi)
    rho = density_pure(psi)
    out = apply_map(kset, rho)
    assert np.linalg.norm(out.matrix - rho.matrix) <= 1e-12


def test_apply_map_identity_operator_set():
    from supergram.freeops import FreeKraus, KrausSet

    st, psi = golden_d2()
    rng = np.random.default_rng(3)
    eye_op = FreeKraus(np.eye(2), "general")
    cert = ChannelCertificate(
        n_s1=0, n_s2=1,
        frobenius_residual=frobenius(st, [eye_op.matrix]),
        psd_margin=0.0, annihilation=0.0, passed=True,
    )
    kset = KrausSet(
        setting=st, ratios=np.zeros((2, 2), dtype=complex), s2=(eye_op,),
        source=psi, target=psi, certificate=cert,
    )
    rho = density_mixed([random_state(st, rng), random_state(st, rng)], [0.5, 0.5])
    out = apply_map(kset, rho)
    assert np.linalg.norm(out.matrix - rho.matrix) <= 1e-12


def test_apply_map_requires_certificate():
    st, psi = golden_d2()
    phi = normalize(np.array([1.0, 0.0]), st)
    kset = build_kraus_set(psi, phi)
    bad_cert = ChannelCertificate(
        n_s1=kset.certificate.n_s1,
        n_s2=kset.certificate.n_s2,
        frobenius_residual=1.0,
        psd_margin=kset.certificate.psd_margin,
        annihilation=kset.certificate.annihilation,
        passed=False,
    )
    broken = type(kset)(
        setting=kset.setting,
        ratios=kset.ratios,
        s2=kset.s2,
        source=kset.source,
        target=kset.target,
        certificate=bad_cert,
    )
    with pytest.raises(ValueError):
        apply_map(broken, density_pure(psi))


def test_apply_map_preserves_trace_and_hermiticity():
    psi = closed_form_equal_real(3, -0.2)
    st = psi.setting
    rng = np.random.default_rng(4)
    for _ in range(10):
        phi = random_state(st, rng, full_rank=True)
        kset = build_kraus_set(psi, phi)
        rho = density_mixed(
            [random_state(st, rng), random_state(st, rng), random_state(st, rng)],
            [0.2, 0.3, 0.5],
        )
        out = apply_map(kset, rho)
        assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12
        assert np.linalg.norm(out.matrix - out.matrix.conj().T) <= 1e-12


def test_apply_mixed_matches_target_mixture():
    psi = closed_form_equal_real(3, -0.3)
    st = psi.setting
    rng = np.random.default_rng(6)
    t1 = random_state(st, rng, full_rank=True)
    t2 = random_state(st, rng, full_rank=True)
    out = apply_mixed(psi, [t1, t2], [0.3, 0.7])
    expected = density_mixed([t1, t2], [0.3, 0.7])
    assert np.linalg.norm(out.matrix - expected.matrix) <= 1e-11


@pytest.mark.parametrize("call, message", [
    (lambda psi, other: build_kraus_set(psi, other), "share one setting"),
    (lambda psi, other: apply_map(build_kraus_set(psi, psi), density_pure(other)), "different settings"),
    (lambda psi, other: apply_mixed(psi, [psi, psi], [1.0]), "one weight per target"),
    (lambda psi, other: apply_mixed(psi, [psi, psi], [0.5, 0.4]), "probability vector"),
], ids=["build-two-settings", "apply-two-settings", "mixed-weight-count", "mixed-weight-sum"])
def test_channels_refuse_invalid_input(call, message):
    _, psi = golden_d2()
    other = normalize(np.array([1.0, 0.0]), build_setting(2, [(1, 2, 0.3)]))
    with pytest.raises(ValueError, match=message):
        call(psi, other)


# ------------------------------------------------------------ freeness closure

def test_free_input_stays_free():
    psi = closed_form_equal_real(3, -0.3)
    st = psi.setting
    rng = np.random.default_rng(8)
    phi = random_state(st, rng, full_rank=True)
    kset = build_kraus_set(psi, phi)
    for K in s1_operators(psi.coeffs, phi.coeffs) + [op.matrix for op in kset.s2]:
        assert is_free_kraus(K)
    basis = [normalize(np.eye(3)[:, k], st) for k in range(3)]
    rho_free = density_mixed(basis, [0.2, 0.5, 0.3])
    out = apply_map(kset, rho_free)
    C = out.coefficient_matrix()
    off = np.abs(C - np.diag(np.diag(C)))
    assert np.max(off) <= 1e-10
