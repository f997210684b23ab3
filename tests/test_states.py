import numpy as np
import pytest

from supergram.freeops import ChannelCertificate, FreeKraus, KrausSet, ResidualReport
from supergram.gram import EigenSystem, GramSetting, build_setting, embedding
from supergram.sampling import random_setting, random_state
from supergram.states import (
    DensityOperator,
    SuperpositionState,
    density_mixed,
    density_pure,
    inner,
    normalize,
    state_from_json,
    state_to_json,
    superposition_rank,
    tilde,
)


def golden_d2(s=0.6):
    st = build_setting(2, [(1, 2, s)])
    return st, normalize(np.array([1.0, -1.0]), st)


def test_inner_self_is_one():
    st, psi = golden_d2()
    assert inner(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_inner_basis_with_golden():
    st, psi = golden_d2(0.6)
    e1 = normalize(np.array([1.0, 0.0]), st)
    # (1 - s) / sqrt(2 (1 - s)) at s = 0.6
    assert inner(e1, psi) == pytest.approx(0.4472135954999579, abs=1e-12)


def test_inner_orthonormal_is_dot_product():
    st = build_setting(3, [])
    rng = np.random.default_rng(0)
    a = random_state(st, rng)
    b = random_state(st, rng)
    assert inner(a, b) == pytest.approx(complex(np.vdot(a.coeffs, b.coeffs)), abs=1e-12)


def test_inner_rejects_mismatched_settings():
    _, psi = golden_d2(0.6)
    _, phi = golden_d2(0.3)
    with pytest.raises(ValueError):
        inner(psi, phi)


def test_normalize_known_coefficients():
    _, psi = golden_d2(0.6)
    assert np.allclose(psi.coeffs, np.array([1.0, -1.0]) / np.sqrt(0.8), atol=1e-14)

    s = -0.3
    st3 = build_setting(3, [(1, 2, s), (1, 3, s), (2, 3, s)])
    psi3 = normalize(np.ones(3), st3)
    assert np.allclose(psi3.coeffs, np.ones(3) / np.sqrt(3 * 0.4), atol=1e-14)

    st = build_setting(2, [])
    assert np.allclose(normalize(np.array([5.0, 0.0]), st).coeffs, [1.0, 0.0])


def test_normalize_zero_vector():
    st = build_setting(2, [])
    with pytest.raises(ValueError):
        normalize(np.zeros(2), st)


def test_direct_construction_guards_normalization():
    st = build_setting(2, [])
    with pytest.raises(ValueError):
        SuperpositionState(np.array([1.0, 1.0]), st)


def test_constructors_reject_nan():
    st = build_setting(2, [])
    with pytest.raises(ValueError):
        SuperpositionState(np.array([np.nan, 1.0]), st)
    with pytest.raises(ValueError):
        DensityOperator(np.array([[np.nan, 0.0], [0.0, 1.0]]), st)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            normalize(np.array([bad, 1.0]), st)
        with pytest.raises(ValueError):
            state_from_json({"coeffs": [{"re": bad}, {"re": 1.0}], "normalized": True}, st)


def test_constructors_reject_infinite_entries():
    # rejected before any arithmetic, so no RuntimeWarning escapes
    st = build_setting(2, [])
    for bad in (np.inf, -np.inf, complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            SuperpositionState(np.array([bad, 1.0]), st)
        with pytest.raises(ValueError, match="finite"):
            DensityOperator(np.array([[bad, 0.0], [0.0, 1.0]]), st)


def test_value_types_copy_their_input():
    # each frozen type keeps its own copy: writing to the caller's array
    # afterwards changes nothing, and the caller's array stays writable
    st = build_setting(2, [])
    vec = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = SuperpositionState(vec[:2], st)
    mat = np.diag([0.5, 0.5, 0.0]).astype(complex)
    rho = DensityOperator(mat[:2, :2], st)
    gram = np.eye(2, dtype=complex)
    setting = GramSetting(gram)
    kraus = np.eye(2, dtype=complex)
    op = FreeKraus(kraus)
    evals, evecs = np.array([1.0, 1.0]), np.eye(2, dtype=complex)
    es = EigenSystem(evals, evecs, ((0, 1),))
    resid = np.zeros((2, 2), dtype=complex)
    report = ResidualReport(resid, 0.0, 0.0, True)
    ratios = np.ones((2, 2), dtype=complex)
    cert = ChannelCertificate(n_s1=2, n_s2=0, frobenius_residual=0.0, psd_margin=0.0,
                              annihilation=0.0, passed=True)
    kset = KrausSet(setting=st, ratios=ratios, s2=(), source=psi,
                    target=psi, certificate=cert)
    for base in (vec, mat, gram, kraus, evals, evecs, resid, ratios):
        assert base.flags.writeable
        base[0] = 5.0
    assert np.array_equal(psi.coeffs, [1.0, 0.0])
    assert np.real(np.vdot(psi.coeffs, st.gram @ psi.coeffs)) == 1.0
    assert np.trace(rho.matrix) == 1.0
    assert np.array_equal(setting.gram, np.eye(2))
    assert np.array_equal(op.matrix, np.eye(2))
    assert np.array_equal(es.eigenvalues, [1.0, 1.0])
    assert np.array_equal(es.eigenvectors, np.eye(2))
    assert np.array_equal(report.matrix, np.zeros((2, 2)))
    assert np.array_equal(kset.ratios, np.ones((2, 2)))


def test_tilde_golden_is_uniform():
    for s in (0.6, -0.4):
        st = build_setting(2, [(1, 2, s)])
        vec = np.array([1.0, -1.0]) if s >= 0 else np.array([1.0, 1.0])
        psi = normalize(vec, st)
        assert np.allclose(tilde(psi), [0.5, 0.5], atol=1e-12)


def test_tilde_orthonormal_is_modulus_squared():
    st = build_setting(3, [])
    rng = np.random.default_rng(1)
    psi = random_state(st, rng)
    assert np.allclose(tilde(psi), np.abs(psi.coeffs) ** 2, atol=1e-12)


def test_tilde_degenerate_real_combination_not_uniform():
    st = build_setting(3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    psi = SuperpositionState(np.array([2.0, -1.0, -1.0]) / np.sqrt(3.0), st)
    t = tilde(psi)
    assert np.allclose(t, [2 / 3, 1 / 6, 1 / 6], atol=1e-12)
    assert np.max(np.abs(t - 1 / 3)) > 0.3


def test_tilde_sums_to_one_random():
    rng = np.random.default_rng(2)
    for _ in range(50):
        st = random_setting(4, rng)
        psi = random_state(st, rng)
        assert np.sum(tilde(psi)) == pytest.approx(1.0, abs=1e-10)


def test_superposition_rank():
    st = build_setting(3, [])
    assert superposition_rank(normalize(np.array([1.0, 0, 0]), st)) == 1
    assert superposition_rank(normalize(np.ones(3), st)) == 3
    psi = normalize(np.array([1.0, 1e-15, 0.0]), st)
    assert superposition_rank(psi) == 1


def test_density_pure_golden_orthonormal():
    st = build_setting(2, [])
    psi = normalize(np.array([1.0, 1.0]), st)
    rho = density_pure(psi)
    assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)


def test_density_pure_spectrum():
    rng = np.random.default_rng(3)
    st = random_setting(3, rng)
    rho = density_pure(random_state(st, rng))
    evals = np.linalg.eigvalsh(rho.matrix)
    assert evals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(evals[:-1])) <= 1e-10


def test_density_mixed_basis_projectors():
    st = build_setting(2, [(1, 2, 0.6)])
    c1 = normalize(np.array([1.0, 0.0]), st)
    c2 = normalize(np.array([0.0, 1.0]), st)
    rho = density_mixed([c1, c2], [0.5, 0.5])
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 2
    assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12


def test_density_mixed_weight_validation():
    st = build_setting(2, [])
    psi = normalize(np.array([1.0, 0.0]), st)
    with pytest.raises(ValueError):
        density_mixed([psi, psi], [0.4, 0.4])
    rng = np.random.default_rng(4)
    a, b = random_state(st, rng), random_state(st, rng)
    rho = density_mixed([a, b], [0.3, 0.7])
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("build, message", [
    (lambda st: SuperpositionState(np.ones(3) / np.sqrt(3), st), "expected 2 coefficients"),
    (lambda st: DensityOperator(np.eye(3) / 3, st), "expected a 2x2 matrix"),
    (lambda st: DensityOperator([[0.5, 0.1], [0.0, 0.5]], st), "not Hermitian"),
    (lambda st: DensityOperator(np.diag([0.5, 0.6]), st), "has trace 1.1"),
    (lambda st: DensityOperator(np.diag([1.5, -0.5]), st), "not positive semidefinite"),
    (lambda st: density_mixed([normalize([1.0, 0.0], st)], [0.5, 0.5]), "one weight per state"),
    (lambda st: density_mixed([normalize([1.0, 0.0], st)] * 2, [1.5, -0.5]), "nonnegative"),
    (lambda st: density_mixed([normalize([1.0, 0.0], st), normalize([1.0, 0.0], build_setting(2, []))],
                              [0.5, 0.5]), "share one setting"),
], ids=["state-shape", "density-shape", "density-hermitian", "density-trace", "density-psd",
        "mixed-weight-count", "mixed-negative-weight", "mixed-two-settings"])
def test_states_refuse_invalid_input(build, message):
    st = build_setting(2, [(1, 2, 0.6)])
    with pytest.raises(ValueError, match=message):
        build(st)


def test_inner_matches_embedding_frame():
    rng = np.random.default_rng(5)
    for _ in range(20):
        st = random_setting(4, rng)
        V = embedding(st)
        a, b = random_state(st, rng), random_state(st, rng)
        direct = inner(a, b)
        embedded = complex(np.vdot(V @ a.coeffs, V @ b.coeffs))
        assert abs(direct - embedded) <= 1e-12


def test_coefficient_matrix_round_trip():
    rng = np.random.default_rng(6)
    st = random_setting(3, rng)
    a, b = random_state(st, rng), random_state(st, rng)
    rho = density_mixed([a, b], [0.25, 0.75])
    C = rho.coefficient_matrix()
    V = embedding(st)
    assert np.linalg.norm(V @ C @ V.conj().T - rho.matrix) <= 1e-12
    expected = 0.25 * np.outer(a.coeffs, a.coeffs.conj()) + 0.75 * np.outer(b.coeffs, b.coeffs.conj())
    assert np.linalg.norm(C - expected) <= 1e-10


def test_state_json_round_trip_and_verification():
    st, psi = golden_d2()
    again = state_from_json(state_to_json(psi), st)
    assert np.allclose(again.coeffs, psi.coeffs, atol=1e-14)
    # unnormalized input is normalized on load
    loaded = state_from_json({"coeffs": [{"re": 2.0, "im": 0.0}, {"re": -2.0, "im": 0.0}]}, st)
    assert np.allclose(loaded.coeffs, psi.coeffs, atol=1e-14)
    # asserted-normalized input is verified
    with pytest.raises(ValueError):
        state_from_json(
            {"coeffs": [{"re": 2.0, "im": 0.0}, {"re": -2.0, "im": 0.0}], "normalized": True}, st
        )


# No generator is passed: a bound no setting meets must be rejected
# before the first draw, where it would otherwise be redrawn forever.
def test_random_setting_rejects_min_eigenvalue_of_one():
    with pytest.raises(ValueError):
        random_setting(3, None, min_eigenvalue=1.0)


def test_random_setting_rejects_min_gap_of_one_over_d_minus_1():
    with pytest.raises(ValueError):
        random_setting(4, None, min_gap=1.0 / 3)


def test_wrong_coefficient_count_is_refused_before_arithmetic():
    st = build_setting(2, [(1, 2, 0.6)])
    with pytest.raises(ValueError, match="expected 2 coefficients, got shape"):
        normalize(np.array([1.0, 0.0, 0.0]), st)
    for normalized in (False, True):
        obj = {"coeffs": [{"re": 1.0}], "normalized": normalized}
        with pytest.raises(ValueError, match="^expected 2 coefficients, got 1$"):
            state_from_json(obj, st)
