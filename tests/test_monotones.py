import itertools
import time

import numpy as np
import pytest

from supergram.freeops import apply_map, build_kraus_set
import supergram.monotones as monotones
from supergram.golden import closed_form_equal_real, detect, golden_setting, table1_setting
from supergram.gram import GAP_TOL, GramSetting, build_setting, eigensystem, embedding
from supergram.monotones import (
    _Q_FLOOR,
    _embedded,
    _hessian,
    _kkt_check,
    _loewner_log,
    _sorted_triples,
    bound_check,
    constant_trace_overlaps,
    l1_superposition,
    monotone_report,
    rel_entropy_superposition,
)
from supergram.sampling import random_setting, random_state
from supergram.states import density_mixed, density_pure, normalize

from oracles import rel_entropy_d2
from test_invariance import perturbed_golden_forms


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


def test_d2_oracle_lies_within_the_certified_gap():
    # by convexity value - gap <= min <= value; the oracle's golden-section
    # minimum is that min up to rounding
    rng = np.random.default_rng(20)
    for frac in (0.05, 0.2, 0.6, 0.9):
        for st, rho, P in seeded_mixtures_d2(frac, 8, rng):
            value, info = rel_entropy_superposition(rho, full_output=True)
            assert info.converged and info.gap <= GAP_TOL, frac
            expected = rel_entropy_d2(st.gram, P)
            assert value - info.gap - 1e-14 <= expected <= value + 1e-14, frac


def objective_parts(V, rho_emb, q):
    """Gradient of the solver's objective at q and the eigensystem parts
    (w, A, W, conj(W), L) its Hessian takes, computed as the solver does."""
    w, U = np.linalg.eigh((V * q) @ V.conj().T)
    Uh = U.conj().T
    A, W, L = Uh @ rho_emb @ U, Uh @ V, _loewner_log(w)
    return -(W * ((A.T * L) @ W.conj())).real.sum(axis=0), (w, A, W, W.conj(), L)


@pytest.mark.parametrize("case", ["random", "orthonormal", "golden"])
def test_hessian_matches_finite_differences_of_the_gradient(case):
    # sigma = I/d in an orthonormal setting has one d-fold eigenvalue, and a
    # golden setting at uniform q has its top d - 1 eigenvalues coincide:
    # both reach the limits of the divided-difference tables
    rng = np.random.default_rng(26)
    for d in range(2, 6):
        q = np.full(d, 1.0 / d)
        if case == "random":
            st, q = random_setting(d, rng), 0.5 * q + 0.5 * rng.dirichlet(np.ones(d))
        elif case == "orthonormal":
            st = build_setting(d, [])
        else:
            st = golden_setting(d, -0.5 / (d - 1), rng.uniform(0.0, 2.0 * np.pi, d))
        rho = density_mixed([random_state(st, rng), random_state(st, rng)], [0.3, 0.7])
        _, V, rho_emb = _embedded(rho)
        _, parts = objective_parts(V, rho_emb, q)
        w = parts[0]
        if case == "orthonormal":
            assert np.ptp(w) <= 1e-15
        elif case == "golden":
            assert np.ptp(w[1:]) <= 1e-15 and w[1] - w[0] > 0.1
        triples = _sorted_triples(d)
        H = _hessian(*parts, triples)
        h = 1e-6
        fd = np.column_stack([
            (objective_parts(V, rho_emb, q + h * e)[0] - objective_parts(V, rho_emb, q - h * e)[0]) / (2 * h)
            for e in np.eye(d)
        ])
        assert np.abs(H - fd).max() <= 1e-6 * np.abs(H).max(), (case, d)
        # the index tables are built once per d and shared, read-only
        assert _sorted_triples(d) is triples
        for table in triples:
            with pytest.raises(ValueError):
                table[0] = 1


def test_rel_entropy_orthonormal_limit_in_one_step():
    # with V = I the start q = diag(rho) is the optimum, the closed form
    # S(diag rho) - S(rho), and the solve takes no step
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
            assert info.iterations == 0, d


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


def test_rel_entropy_iteration_budget_mixed():
    # the bench's regime: two-state mixtures at d = 2..5, overlap fractions
    # 0.6 and 0.9 of the way from orthonormal to dependent (equal real
    # overlaps at d >= 3); 485 iterations in total when this test was written
    rng = np.random.default_rng(24)
    infos = []
    for d in range(2, 6):
        for frac in (0.6, 0.9):
            if d == 2:
                st = build_setting(2, [(1, 2, frac * np.exp(2j * np.pi * rng.uniform()))])
            else:
                s = frac / (1.0 - d)
                st = build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])
            for _ in range(5):
                states = [random_state(st, rng), random_state(st, rng)]
                rho = density_mixed(states, rng.dirichlet(np.ones(2)))
                infos.append(rel_entropy_superposition(rho, full_output=True)[1])
    assert len(infos) == 40
    assert all(info.converged for info in infos)
    assert sum(info.iterations for info in infos) <= 485


# (iterations, value) of the 16 solves of test_rel_entropy_solve_path_is_pinned
# as the solver took them when the test was written
PINNED_SOLVES = [
    (4, 0.8929428060197356), (4, 0.22388870540621827), (4, 0.23903782329533457),
    (4, 0.0292887893709722), (4, 0.44385867153238634), (5, 0.34348350911545145),
    (7, 0.19416931147030952), (4, 0.034472759264537634), (4, 0.9574762007872768),
    (4, 0.7552574728927651), (6, 0.46457395924169037), (5, 0.7262448156380902),
    (4, 0.8029184703101191), (6, 0.9496939151388658), (5, 1.0624577883716033),
    (6, 0.5718153660423876),
]


def test_rel_entropy_solve_path_is_pinned():
    # the bench's regime, as in test_rel_entropy_iteration_budget_mixed: two
    # seeded two-state mixtures per d = 2..5 and overlap fraction 0.6, 0.9.
    # A kernel edit meant to keep every iterate must keep each solve's
    # iteration count and value
    rng = np.random.default_rng(28)
    solves = []
    for d in range(2, 6):
        for frac in (0.6, 0.9):
            if d == 2:
                st = build_setting(2, [(1, 2, frac * np.exp(2j * np.pi * rng.uniform()))])
            else:
                s = frac / (1.0 - d)
                st = build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])
            for _ in range(2):
                states = [random_state(st, rng), random_state(st, rng)]
                rho = density_mixed(states, rng.dirichlet(np.ones(2)))
                value, info = rel_entropy_superposition(rho, full_output=True)
                assert info.converged
                solves.append((info.iterations, value))
    assert [it for it, _ in solves] == [it for it, _ in PINNED_SOLVES]
    for (_, value), (_, pinned) in zip(solves, PINNED_SOLVES):
        assert value == pytest.approx(pinned, abs=1e-15)


def kkt_residual(q, grad):
    """Simplex KKT residual written out coordinate by coordinate: interior
    coordinates share the multiplier mu and contribute q_k (grad_k - mu);
    a floored coordinate contributes only when grad_k < mu, that is when
    raising q_k would lower the objective.  With no interior coordinate
    every coordinate counts as interior."""
    floored = [k for k in range(len(q)) if q[k] <= 10.0 * _Q_FLOOR]
    if len(floored) == len(q):
        floored = []
    interior = [k for k in range(len(q)) if k not in floored]
    mu = sum(q[k] * grad[k] for k in interior) / sum(q[k] for k in interior)
    terms = [q[k] * (grad[k] - mu) for k in interior]
    terms += [min(grad[k] - mu, 0.0) for k in floored]
    return float(np.sqrt(sum(t * t for t in terms)))


def test_projected_gradient_norm_matches_kkt_definition():
    rng = np.random.default_rng(25)
    # no coordinate floored
    for d in range(2, 6):
        q = rng.dirichlet(np.ones(d))
        grad = -rng.uniform(0.5, 1.5, d)
        residual, gap, pushes_in = _kkt_check(q, grad)
        assert residual == pytest.approx(kkt_residual(q, grad), rel=1e-12)
        # the Frank-Wolfe gap max_k g_k - sum_k q_k g_k, g = -grad
        assert gap == pytest.approx((-grad).max() - q @ -grad, rel=1e-12)
        assert not pushes_in
    # every coordinate floored
    q = np.full(4, _Q_FLOOR)
    grad = -rng.uniform(0.5, 1.5, 4)
    assert _kkt_check(q, grad)[0] == pytest.approx(kkt_residual(q, grad), rel=1e-12)
    # a mix: the floored coordinate 1 has grad above mu (it pushes outward,
    # toward the floor, and adds nothing), coordinate 3 below mu (it pushes
    # inward and adds |grad_3 - mu|)
    q = np.array([0.5, _Q_FLOOR, 0.3, 2.0 * _Q_FLOOR, 0.2])
    q /= q.sum()
    grad = np.array([-1.0, -0.2, -1.1, -1.9, -0.9])
    mu = (q[[0, 2, 4]] @ grad[[0, 2, 4]]) / q[[0, 2, 4]].sum()
    assert grad[1] > mu > grad[3]
    expected = kkt_residual(q, grad)
    assert expected > abs(grad[3] - mu)
    assert _kkt_check(q, grad)[0] == pytest.approx(expected, rel=1e-12)
    pushed = grad.copy()
    pushed[1] += 5.0
    assert _kkt_check(q, pushed)[0] == pytest.approx(expected, rel=1e-12)
    # coordinate 3 pushes in until its gradient rises above mu
    assert _kkt_check(q, grad)[2] and _kkt_check(q, pushed)[2]
    outward = grad.copy()
    outward[3] = -0.2
    assert not _kkt_check(q, outward)[2]


def test_rel_entropy_converges_near_dependence():
    # lambda_min = 1e-6: the plain fixed-point step contracts slowly here
    rng = np.random.default_rng(23)
    for st, rho, P in seeded_mixtures_d2(1.0 - 1e-6, 4, rng):
        value, info = rel_entropy_superposition(rho, full_output=True)
        assert info.converged
        assert info.iterations < 1000
        assert value == pytest.approx(rel_entropy_d2(st.gram, P), abs=1e-9)


def test_rel_entropy_backs_off_an_overshooting_step():
    # a pinned value on a d = 4 mixture; the back-off to tau < 1 itself is
    # shown by test_rel_entropy_falls_back_to_a_shortened_fixed_point_step
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


def test_attaining_the_bounds_does_not_make_a_state_golden():
    # equal overlaps 1/2 at d = 3 admit no golden state, yet (1, w, w^2)
    # from the degenerate minimal eigenspace reaches both bounds
    st = build_setting(3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)])
    w = np.exp(2j * np.pi / 3)
    report = monotone_report(normalize(np.array([1.0, w, w**2]), st))
    assert report.l1 == pytest.approx(4.0, abs=1e-12)
    assert report.rel_entropy == pytest.approx(np.log(6.0), abs=1e-5)
    assert report.to_json()["attained"] is True
    assert detect(st).outcome == "none"


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


def test_monotone_report_carries_the_certificate():
    # the report's gap is the solver's own, and a converged solve certifies
    # the value to within GAP_TOL; to_json leaves it out
    rng = np.random.default_rng(29)
    st = random_setting(4, rng)
    rho = density_mixed([random_state(st, rng), random_state(st, rng)], [0.3, 0.7])
    report = monotone_report(rho)
    value, info = rel_entropy_superposition(rho, full_output=True)
    assert info.converged
    assert report.rel_entropy == value
    assert report.gap == info.gap <= GAP_TOL
    assert "gap" not in report.to_json()


def test_monotone_report_refuses_a_dependent_setting():
    # lambda_min ~ 1e-13: the embedding still factors, but the basis counts
    # as dependent, as for validate and detect
    st = build_setting(2, [(1, 2, -0.9999999999999)])
    rho = density_pure(normalize(np.array([1.0, 0.0]), st))
    with pytest.raises(ValueError, match="dependent basis"):
        monotone_report(rho)


def near_dependence_stress(seed):
    """The near-dependence stress recipe: for d = 2..6, 30 settings
    G = W^dag W from complex Gaussian W with W[:, -1] = W[:, 0] + eps
    W[:, -1], eps = 10^U(-3.5, -0.5), and unit columns; each setting gives
    a pure state and then a two-state mixture."""
    rng = np.random.default_rng(seed)
    for d in range(2, 7):
        for _ in range(30):
            W = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            eps = 10 ** rng.uniform(-3.5, -0.5)
            W[:, -1] = W[:, 0] + eps * W[:, -1]
            W /= np.linalg.norm(W, axis=0, keepdims=True)
            st = GramSetting(W.conj().T @ W)
            yield density_pure(random_state(st, rng))
            yield density_mixed([random_state(st, rng), random_state(st, rng)], rng.dirichlet(np.ones(2)))


# seed -> (position in the stress sequence, value): the 17 solves of the
# recipe that a first-order solver left unconverged at 20000 iterations,
# with the values it stopped at (lambda_min from 4.0e-9 to 2.1e-6)
CAPPED = {
    1: [(83, 1.2496965831569793), (137, 0.7440331891228111), (186, 1.020336094963272),
        (187, 0.7156396665612621), (218, 0.75885985393041), (223, 0.8097707391904637),
        (263, 0.5159916101704027)],
    2: [(72, 0.3072633719086337), (88, 0.002139952445243774), (99, 0.14409903317441441),
        (102, 0.42335797817475324), (119, 0.042761135687013424), (130, 0.4068777721177256),
        (131, 0.086918311278674), (206, 0.9373493183509662), (245, 0.5300882172266429),
        (247, 1.1922745514881938)],
}


def test_near_dependence_solves_end_far_below_the_cap():
    t0 = time.monotonic()
    for seed, solves in CAPPED.items():
        stress = list(near_dependence_stress(seed))
        for index, capped_value in solves:
            rho = stress[index]
            value, info = rel_entropy_superposition(rho, full_output=True)
            # converged, or stalled where rounding floors the gap
            assert info.iterations < 100, (seed, index)
            assert info.converged or eigensystem(rho.setting).lambda_min <= 1e-7, (seed, index)
            assert value <= capped_value + 1e-12, (seed, index)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"near-dependence solves took {elapsed:.2f}s"


def monotone_apply_pool():
    """The bench's monotone-apply solves, rebuilt from its recipe: nine
    channels from golden sources to seeded full-rank targets (d = 2..5 at
    overlap fractions 0.6 and 0.9, the table1 row "s,is,-is" at s = 0.35
    in place of d = 3 at 0.9, and the probe's d = 2 at 0.2); each of 24
    pool blocks sends one two-state mixture through each of the first
    eight, and the probe sends 12 through the ninth.  Yields every input
    state and its image."""
    rng = np.random.default_rng([0, 0])
    channels = []
    for d, frac in ((2, 0.6), (2, 0.9), (3, 0.6), (3, None), (4, 0.6), (4, 0.9), (5, 0.6),
                    (5, 0.9), (2, 0.2)):
        if frac is None:
            st = table1_setting("s,is,-is", 0.35)
        elif d == 2:
            st = build_setting(2, [(1, 2, frac * np.exp(2j * np.pi * rng.uniform()))])
        else:
            s = frac / (1.0 - d)
            st = build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])
        target = random_state(st, rng, full_rank=True)
        channels.append(build_kraus_set(detect(st).candidate.state, target))
    blocks = [(channels[:8], np.random.default_rng([0, 1, j])) for j in range(24)]
    blocks.append(([channels[8]] * 12, np.random.default_rng([0, 2])))
    for kraus_sets, draws in blocks:
        for kset in kraus_sets:
            st = kset.setting
            rho = density_mixed([random_state(st, draws), random_state(st, draws)],
                                draws.dirichlet(np.ones(2)))
            yield rho
            yield apply_map(kset, rho)


def test_gap_alone_decides_convergence(monkeypatch):
    # the solve stops on the duality gap alone; a KKT residual bound of
    # 1e-8 on top of it would change no verdict.  Every solve of these sets
    # that converges does so within 18 iterations; 25 bound the time of the
    # few that rounding keeps from converging
    monkeypatch.setattr(monotones, "_MAX_ITER", 25)
    near_golden = (detect(GramSetting(G)) for G in perturbed_golden_forms(np.random.default_rng(14), 500))
    sets = {
        "pool and probe": list(monotone_apply_pool()),
        **{f"stress seed {seed}": list(near_dependence_stress(seed)) for seed in range(4)},
        "near golden": [rep.candidate.state for rep in near_golden if rep.outcome == "found"],
    }
    assert [len(states) for states in sets.values()] == [408, 300, 300, 300, 300, 358]
    converged = {}
    for name, states in sets.items():
        infos = [rel_entropy_superposition(rho, full_output=True)[1] for rho in states]
        for k, info in enumerate(infos):
            assert info.converged == (info.gap <= GAP_TOL and info.gradient_norm <= 1e-8), (name, k)
        converged[name] = sum(info.converged for info in infos)
    # the verdicts compared are mostly "converged", so the comparison bites
    assert converged["pool and probe"] == 408
    assert sum(converged[f"stress seed {seed}"] for seed in range(4)) >= 1199
    assert converged["near golden"] >= 339


def test_rel_entropy_falls_back_to_a_shortened_fixed_point_step(monkeypatch):
    # on solve 203 of the stress recipe at seed 3 (d = 5, lambda_min = 0.012)
    # the tenth Newton step is refused at every halving; the fixed-point step
    # q_k g_k^tau is taken instead, with tau backed off to 1/4.  Spies on
    # the step and on the KKT bookkeeping, which sees every accepted point,
    # show it.
    rho = next(itertools.islice(near_dependence_stress(3), 203, None))
    proposals, points = [], []
    newton_step, kkt_check = monotones._newton_step, monotones._kkt_check

    def spy_newton_step(q, grad, H):
        step = newton_step(q, grad, H)
        proposals.append((q, grad, step))
        return step

    def spy_kkt_check(q, grad):
        points.append(q)
        return kkt_check(q, grad)

    monkeypatch.setattr(monotones, "_newton_step", spy_newton_step)
    monkeypatch.setattr(monotones, "_kkt_check", spy_kkt_check)
    value, info = rel_entropy_superposition(rho, full_output=True)

    def fixed_point_tau(q, grad, q_next):
        # the exponent of a fixed-point step from q that lands on q_next
        log_g = np.log(-grad)
        log_g -= log_g.max()
        for k in range(-4, 60):
            x = np.maximum(q * np.exp(2.0**-k * log_g), _Q_FLOOR)
            if np.abs(x / x.sum() - q_next).max() <= 1e-15:
                return 2.0**-k
        return None

    assert len(proposals) == len(points) - 1 == info.iterations
    taus = [fixed_point_tau(q, grad, q_next) for (q, grad, step), q_next in zip(proposals, points[1:])
            if step is not None]
    assert [tau for tau in taus if tau is not None] == [0.25]
    assert info.converged and info.iterations == 11
    assert value == pytest.approx(0.708812487278594, abs=1e-12)


def test_fixed_point_path_above_the_newton_dimension(monkeypatch):
    # above _NEWTON_MAX_DIM only fixed-point steps are taken; they reach the
    # certified value that Newton steps reach when allowed at that d
    rng = np.random.default_rng(27)
    d = monotones._NEWTON_MAX_DIM + 2
    st = random_setting(d, rng)
    rho = density_mixed([random_state(st, rng), random_state(st, rng)], [0.5, 0.5])
    value, info = rel_entropy_superposition(rho, full_output=True)
    monkeypatch.setattr(monotones, "_NEWTON_MAX_DIM", d)
    newton_value, newton_info = rel_entropy_superposition(rho, full_output=True)
    assert info.converged and newton_info.converged
    assert newton_info.iterations < info.iterations
    assert abs(value - newton_value) <= info.gap + newton_info.gap
