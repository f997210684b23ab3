import numpy as np
import pytest

from supergram.freeops import apply_map, build_kraus_set
from supergram.golden import closed_form_equal_real, detect
from supergram.gram import build_setting, eigensystem, embedding
from supergram.monotones import (
    bound_check,
    constant_trace_overlaps,
    l1_superposition,
    monotone_report,
    rel_entropy_superposition,
)
from supergram.sampling import random_setting, random_state
from supergram.states import density_mixed, density_pure, normalize

from oracles import rel_entropy_d2


def golden_d2(s=0.6):
    st = build_setting(2, [(1, 2, s)])
    return st, detect(st).candidate.state


# ------------------------------------------------------------------------- l1

def test_l1_golden_d2():
    _, psi = golden_d2(0.6)
    assert l1_superposition(psi) == pytest.approx(2.5, abs=1e-12)


def test_l1_golden_d3():
    psi = closed_form_equal_real(3, -0.3)
    assert l1_superposition(psi) == pytest.approx(5.0, abs=1e-12)


def test_l1_free_states_are_zero():
    st = build_setting(3, [(1, 2, 0.2), (1, 3, 0.1), (2, 3, -0.1)])
    basis = [normalize(np.eye(3)[:, k], st) for k in range(3)]
    assert l1_superposition(basis[0]) <= 1e-15
    rho = density_mixed(basis, [0.5, 0.2, 0.3])
    assert l1_superposition(rho) <= 1e-12


def test_l1_mixed_matches_coefficient_bilinears():
    st = build_setting(2, [(1, 2, 0.6)])
    rng = np.random.default_rng(0)
    a, b = random_state(st, rng), random_state(st, rng)
    rho = density_mixed([a, b], [0.4, 0.6])
    C = 0.4 * np.outer(a.coeffs, a.coeffs.conj()) + 0.6 * np.outer(b.coeffs, b.coeffs.conj())
    expected = np.abs(C).sum() - np.trace(np.abs(C))
    assert l1_superposition(rho) == pytest.approx(float(expected), abs=1e-10)


# --------------------------------------------------------------- rel entropy

def test_rel_entropy_golden_values():
    _, psi = golden_d2(0.6)
    assert rel_entropy_superposition(psi) == pytest.approx(np.log(5.0), abs=1e-8)

    psi3 = closed_form_equal_real(3, -0.3)
    assert rel_entropy_superposition(psi3) == pytest.approx(np.log(3.0 / 0.4), abs=1e-8)


def test_rel_entropy_free_state_is_zero():
    st = build_setting(3, [(1, 2, 0.3), (1, 3, 0.1), (2, 3, 0.2)])
    e2 = normalize(np.eye(3)[:, 1], st)
    assert rel_entropy_superposition(e2) <= 1e-8


def test_rel_entropy_orthonormal_golden_is_log_d():
    st = build_setting(4, [])
    psi = normalize(np.ones(4), st)
    assert rel_entropy_superposition(psi) == pytest.approx(np.log(4.0), abs=1e-8)


def test_rel_entropy_gradient_matches_finite_differences():
    st = build_setting(3, [(1, 2, 0.3), (1, 3, -0.2), (2, 3, 0.1)])
    rng = np.random.default_rng(1)
    psi = random_state(st, rng)
    rho = density_pure(psi)
    V = embedding(st)

    def objective(q):
        sigma = (V * q) @ V.conj().T
        w, U = np.linalg.eigh(sigma)
        logs = np.log(np.clip(w, 1e-300, None))
        A = U.conj().T @ rho.matrix @ U
        return -float(np.real(np.sum(np.diag(A) * logs)))

    # compare the optimizer's internal gradient against central differences
    from supergram.monotones import _loewner_log

    q = np.array([0.5, 0.3, 0.2])
    sigma = (V * q) @ V.conj().T
    w, U = np.linalg.eigh(sigma)
    A = U.conj().T @ rho.matrix @ U
    L = _loewner_log(w)
    W = U.conj().T @ V
    grad = -np.real(np.einsum("ik,ij,jk->k", W, A.T * L, W.conj()))
    h = 1e-7
    for k in range(3):
        dq = np.zeros(3)
        dq[k] = h
        fd = (objective(q + dq) - objective(q - dq)) / (2 * h)
        assert grad[k] == pytest.approx(fd, abs=1e-5)


def test_rel_entropy_diagnostics_and_convergence():
    st = build_setting(3, [(1, 2, -0.2), (1, 3, 0.15), (2, 3, 0.1)])
    rng = np.random.default_rng(2)
    psi = random_state(st, rng)
    value, info = rel_entropy_superposition(psi, full_output=True)
    assert value >= 0.0
    assert info.converged
    assert info.gradient_norm <= 1e-8
    assert abs(info.q.sum() - 1.0) <= 1e-12


def seeded_mixtures_d2(frac, n, rng):
    """n seeded two-state mixtures, each on a qubit setting with overlap
    modulus frac and a seeded phase; yields (setting, rho, P) with P the
    coefficient bilinear of rho."""
    for _ in range(n):
        st = build_setting(2, [(1, 2, frac * np.exp(2j * np.pi * rng.uniform()))])
        a, b = random_state(st, rng), random_state(st, rng)
        w = rng.dirichlet(np.ones(2))
        P = w[0] * np.outer(a.coeffs, a.coeffs.conj()) + w[1] * np.outer(b.coeffs, b.coeffs.conj())
        yield st, density_mixed([a, b], w), P


def test_rel_entropy_matches_d2_oracle():
    rng = np.random.default_rng(20)
    for frac in (0.05, 0.2, 0.6, 0.9):
        for st, rho, P in seeded_mixtures_d2(frac, 8, rng):
            expected = rel_entropy_d2(st.gram, P)
            assert rel_entropy_superposition(rho) == pytest.approx(expected, abs=1e-9), frac


def test_rel_entropy_orthonormal_limit_in_one_step():
    # with V = I the fixed-point step lands on q = diag(rho), the closed
    # form S(diag rho) - S(rho)
    rng = np.random.default_rng(21)
    for d in range(2, 6):
        st = build_setting(d, [])
        for _ in range(3):
            rho = density_mixed([random_state(st, rng) for _ in range(3)], rng.dirichlet(np.ones(3)))
            p = np.real(np.diag(rho.matrix))
            lam = np.linalg.eigvalsh(rho.matrix)
            lam = lam[lam > 1e-15]
            expected = float(-np.sum(p * np.log(p)) + np.sum(lam * np.log(lam)))
            value, info = rel_entropy_superposition(rho, full_output=True)
            assert value == pytest.approx(expected, abs=1e-12), d
            assert info.iterations == 1, d


def test_rel_entropy_iteration_budget_d2():
    # the bench probe's overlap: exponentiated gradient alone needs about
    # a thousand iterations per solve here
    rng = np.random.default_rng(22)
    infos = [
        rel_entropy_superposition(rho, full_output=True)[1]
        for _, rho, _ in seeded_mixtures_d2(0.2, 24, rng)
    ]
    assert all(info.converged for info in infos)
    assert sum(info.iterations for info in infos) < 500


def test_rel_entropy_converges_near_dependence():
    # lambda_min = 1e-6: the plain fixed-point step contracts slowly here,
    # and only its over-relaxation converges within the iteration cap
    rng = np.random.default_rng(23)
    for st, rho, P in seeded_mixtures_d2(1.0 - 1e-6, 4, rng):
        value, info = rel_entropy_superposition(rho, full_output=True)
        assert info.converged
        assert info.iterations < 1000
        assert value == pytest.approx(rel_entropy_d2(st.gram, P), abs=1e-9)


def test_rel_entropy_backs_off_an_overshooting_step():
    # on this mixture the full step q_k g_k raises the objective once, near
    # the optimum, and a shorter step q_k g_k^tau, tau < 1, is taken instead
    rng = np.random.default_rng(14)
    st = random_setting(4, rng)
    rel_entropy_superposition(random_state(st, rng))
    states = [random_state(st, rng), random_state(st, rng)]
    rho = density_mixed(states, rng.dirichlet(np.ones(2)))
    value, info = rel_entropy_superposition(rho, full_output=True)
    assert info.converged
    assert value == pytest.approx(0.6992314161965757, abs=1e-12)


def test_rel_entropy_objective_is_convex_along_segments():
    st = build_setting(3, [(1, 2, 0.25), (1, 3, -0.1), (2, 3, 0.2)])
    rng = np.random.default_rng(3)
    psi = random_state(st, rng)
    rho = density_pure(psi)
    V = embedding(st)

    def objective(q):
        sigma = (V * q) @ V.conj().T
        w, U = np.linalg.eigh(sigma)
        logs = np.log(np.clip(w, 1e-300, None))
        A = U.conj().T @ rho.matrix @ U
        return -float(np.real(np.sum(np.diag(A) * logs)))

    for _ in range(20):
        q1 = rng.dirichlet(np.ones(3))
        q2 = rng.dirichlet(np.ones(3))
        mid = objective((q1 + q2) / 2)
        assert mid <= (objective(q1) + objective(q2)) / 2 + 1e-10


# ------------------------------------------------------------------ overlaps

def test_constant_trace_overlaps_golden_d2():
    _, psi = golden_d2(0.6)
    ov = constant_trace_overlaps(psi)
    assert np.allclose(ov, [0.2, 0.2], atol=1e-13)


def test_constant_trace_overlaps_equal_real_family():
    for d, s in ((3, -0.3), (4, -0.2), (5, -0.15)):
        psi = closed_form_equal_real(d, s)
        lam = 1 + (d - 1) * s
        ov = constant_trace_overlaps(psi)
        assert np.allclose(ov, lam / d, atol=1e-12)
        assert ov.max() - ov.min() <= 1e-10


def test_constant_trace_overlaps_non_golden_unequal():
    st = build_setting(2, [(1, 2, 0.6)])
    psi = normalize(np.array([0.9, 0.1]), st)
    ov = constant_trace_overlaps(psi)
    assert ov.max() - ov.min() > 1e-3


# --------------------------------------------------------------- bound check

def test_bound_check_golden_attains_both():
    _, psi = golden_d2(0.6)
    report = monotone_report(psi)
    assert report.l1 == pytest.approx(2.5, abs=1e-12)
    assert report.l1_bound == pytest.approx(2.5, abs=1e-12)
    flags = bound_check(report)
    assert flags.l1_within and flags.rel_entropy_within
    assert flags.l1_attained and flags.rel_entropy_attained
    js = report.to_json()
    assert js["attained"] is True
    assert js["bounds"]["l1_max"] == pytest.approx(2.5)


def test_bounds_hold_for_random_states():
    st = build_setting(3, [(1, 2, -0.3), (1, 3, -0.3), (2, 3, -0.3)])
    lam = eigensystem(st).lambda_min
    l1_max = 2 / lam
    rng = np.random.default_rng(4)
    for _ in range(500):
        psi = random_state(st, rng)
        assert l1_superposition(psi) <= l1_max + 1e-9


def test_golden_l1_is_extremal():
    psi_g = closed_form_equal_real(3, -0.3)
    best = l1_superposition(psi_g)
    rng = np.random.default_rng(5)
    for _ in range(2000):
        psi = random_state(psi_g.setting, rng)
        assert l1_superposition(psi) <= best + 1e-9


def test_orthonormal_limits():
    st = build_setting(3, [])
    psi = normalize(np.ones(3), st)
    report = monotone_report(psi)
    assert report.l1 == pytest.approx(2.0, abs=1e-12)
    assert report.rel_entropy == pytest.approx(np.log(3.0), abs=1e-8)
    assert report.l1_bound == pytest.approx(2.0)
    assert report.rel_entropy_bound == pytest.approx(np.log(3.0))


# -------------------------------------------------------------- monotonicity

def test_monotones_never_increase_under_free_maps():
    psi = closed_form_equal_real(3, -0.25)
    st = psi.setting
    rng = np.random.default_rng(6)
    for _ in range(15):
        phi = random_state(st, rng, full_rank=True)
        kset = build_kraus_set(psi, phi)
        rho_in = density_mixed(
            [random_state(st, rng), random_state(st, rng)], [0.6, 0.4]
        )
        rho_out = apply_map(kset, rho_in)
        assert l1_superposition(rho_out) <= l1_superposition(rho_in) + 1e-8
        re_in = rel_entropy_superposition(rho_in)
        re_out = rel_entropy_superposition(rho_out)
        assert re_out <= re_in + 1e-8
