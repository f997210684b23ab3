"""Superposition monotones and their extremal bounds.

The l1 monotone sums the off-diagonal moduli of the basis-bilinear
coefficient matrix; the relative-entropy monotone minimizes S(rho || sigma)
over free states sigma = sum_k q_k |c_k><c_k| on the probability simplex
by the Blahut-Arimoto fixed-point update q_k <- q_k g_k, with g the
negative gradient, shortened to q_k g_k^tau with tau < 1 where the full
update would raise the objective.  Golden states saturate the setting's
bounds (d - 1) / lambda_min and ln(d / lambda_min).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import BOUND_L1_TOL, BOUND_REL_ENTROPY_TOL, GRAD_TOL, MIN_EIG_TOL
from .gram import GramSetting, eigensystem, embedding
from .states import DensityOperator, SuperpositionState

__all__ = [
    "BoundCheck",
    "MonotoneReport",
    "RelEntropyInfo",
    "bound_check",
    "constant_trace_overlaps",
    "l1_superposition",
    "monotone_report",
    "rel_entropy_superposition",
]

# interior floor keeping ln(sigma) finite while some q_k -> 0
_Q_FLOOR = 1e-12
# eigenvalue floor for the matrix logarithm
_LOG_FLOOR = 1e-300
# iterations, full or shortened steps alike, before the solve gives up
_MAX_ITER = 20000
# an accepted step with exponent tau >= 1 that leaves the projected gradient
# above this share of its previous norm is slow, and omega doubles
_SLOW_RATE = 0.5
_MAX_OMEGA = 1e3


def _embedded(rho) -> tuple[GramSetting, np.ndarray, np.ndarray]:
    """Setting, embedding V and density matrix in the embedding frame of a
    state or density operator."""
    if isinstance(rho, SuperpositionState):
        V = embedding(rho.setting)
        w = V @ rho.coeffs
        return rho.setting, V, np.outer(w, w.conj())
    if isinstance(rho, DensityOperator):
        return rho.setting, embedding(rho.setting), rho.matrix
    raise TypeError("expected a SuperpositionState or DensityOperator")


def l1_superposition(rho) -> float:
    """Sum of off-diagonal moduli of the basis-bilinear coefficients.

    For a pure state this is sum_{i != j} |psi_i| |psi_j|; zero exactly on
    superposition-free states (diagonal mixtures of basis projectors).
    """
    if isinstance(rho, SuperpositionState):
        C = np.outer(rho.coeffs, rho.coeffs.conj())
    elif isinstance(rho, DensityOperator):
        C = rho.coefficient_matrix()
    else:
        raise TypeError("expected a SuperpositionState or DensityOperator")
    A = np.abs(C)
    return float(A.sum() - np.trace(A))


def _entropy_term(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-15]
    return float(np.sum(evals * np.log(evals)))


def _loewner_log(w: np.ndarray) -> np.ndarray:
    """Divided-difference table of ln on the (floored) eigenvalues:
    L_ij = (ln w_i - ln w_j) / (w_i - w_j), with 1/w on coincidences."""
    w = np.maximum(w, _Q_FLOOR * 1e-6)
    lw = np.log(w)
    diff = np.subtract.outer(w, w)
    small = np.abs(diff) <= 1e-12 * np.maximum.outer(w, w)
    diff[small] = 1.0
    L = np.subtract.outer(lw, lw)
    L /= diff
    L[small] = 2.0 / np.add.outer(w, w)[small]
    return L


@dataclass(frozen=True)
class RelEntropyInfo:
    """Diagnostics of one relative-entropy solve.

    ``value`` is the monotone and ``q`` the optimal weights on the simplex.
    ``iterations`` counts accepted steps, full or shortened.
    ``gradient_norm`` is the simplex KKT residual at ``q`` (see
    ``_projected_gradient_norm``), and ``converged`` says whether it fell
    to ``GRAD_TOL``.
    """

    value: float
    q: np.ndarray
    iterations: int
    gradient_norm: float
    converged: bool


def rel_entropy_superposition(rho, full_output: bool = False):
    """min_q S(rho || sum_k q_k |c_k><c_k|) over the probability simplex.

    The objective tr(rho ln rho) - tr(rho ln sigma(q)) is convex in q, and
    sigma(q) = V diag(q) V^dag in the embedding frame.  Its negative
    gradient g_k = tr(rho Dln_sigma[|c_k><c_k|]) satisfies
    sum_k q_k g_k = tr rho = 1, so the fixed-point update q_k <- q_k g_k
    stays on the simplex without a step size; its fixed points are the
    optimality (KKT) points, and in the orthonormal limit V = I it lands
    on q = diag(rho), the closed form S(diag rho) - S(rho), in one step.
    Each iteration takes the step q_k <- q_k g_k^tau, floored at 1e-12 and
    renormalized, with the first tau of omega, 1, 1/2, 1/4, ... (at most
    60 tries) that does not raise the objective.  A short enough step
    always descends: g >= 0, because ln is operator monotone, and along
    q g^tau the objective's slope at tau = 0 is -Cov_q(g, ln g) <= 0,
    zero only at a fixed point.  While the iteration contracts slowly
    (near linear dependence) omega doubles up to 1e3 after each full
    step, and it is reset to 1 when a shorter step is taken.  The
    iteration stops, converged, once the simplex-projected gradient norm
    falls to ``GRAD_TOL``, and gives up after 20000 iterations.

    With ``full_output`` the optimizer diagnostics are returned alongside
    the value.
    """
    setting, V, rho_emb = _embedded(rho)
    d = setting.d
    const = _entropy_term(rho_emb)
    Vh = V.conj().T

    def objective_grad(q):
        # one Hermitian eigendecomposition of sigma gives the value
        # const - sum_i A_ii ln w_i and, through the Daleckii-Krein table L,
        # the gradient -Re sum_ij W_ik (A^T o L)_ij conj(W_jk)
        w, U = np.linalg.eigh((V * q) @ Vh)
        w = np.maximum(w, _LOG_FLOOR)
        Uh = U.conj().T
        A = Uh @ rho_emb @ U
        val = const - float(A.diagonal().real @ np.log(w))
        W = Uh @ V
        grad = -(W * ((A.T * _loewner_log(w)) @ W.conj())).real.sum(axis=0)
        return val, grad

    def trial(x):
        x = np.maximum(x, _Q_FLOOR)
        x /= x.sum()
        return (x, *objective_grad(x))

    q = np.full(d, 1.0 / d)
    val, grad = objective_grad(q)
    iterations = 0
    pg_norm = _projected_gradient_norm(q, grad)
    omega = 1.0
    while pg_norm > GRAD_TOL and iterations < _MAX_ITER:
        # step q_k <- q_k g_k^tau with g = -grad, in logs so that a large
        # tau cannot overflow; ln 0 = -inf gives a zero weight
        g = -grad
        log_g = np.log(g, out=np.full(d, -np.inf), where=g > 0.0)
        log_g -= log_g.max()
        # tau = omega, then the plain step tau = 1, then halved: the slope
        # at tau = 0 is -Cov_q(g, ln g) <= 0, so a short enough step descends
        tau = omega
        for _ in range(60):
            cand, cand_val, cand_grad = trial(q * np.exp(tau * log_g))
            if cand_val <= val + 1e-15:
                break
            tau = min(tau / 2.0, 1.0)
        else:
            break
        if tau < omega:
            omega = 1.0
        stalled = cand_val > val - 1e-18 and float(np.linalg.norm(cand - q)) < 1e-15
        q, val, grad = cand, cand_val, cand_grad
        pg_prev, pg_norm = pg_norm, _projected_gradient_norm(q, grad)
        if tau >= 1.0 and pg_norm > _SLOW_RATE * pg_prev:
            omega = min(2.0 * omega, _MAX_OMEGA)
        iterations += 1
        if stalled:
            break

    value = max(val, 0.0)
    info = RelEntropyInfo(
        value=value,
        q=q,
        iterations=iterations,
        gradient_norm=pg_norm,
        converged=bool(pg_norm <= GRAD_TOL),
    )
    return (value, info) if full_output else value


def _projected_gradient_norm(q: np.ndarray, grad: np.ndarray) -> float:
    """KKT residual on the simplex: interior coordinates must share one
    multiplier, floored coordinates may only push outward."""
    active = q <= _Q_FLOOR * 10.0
    if not active.any() or active.all():
        # every coordinate counts as interior
        r = (grad - (q @ grad) / q.sum()) * q
        return math.sqrt(r @ r)
    mu = float(np.sum(q[~active] * grad[~active]) / np.sum(q[~active]))
    r = grad - mu
    r[active] = np.minimum(r[active], 0.0)
    return float(np.linalg.norm(r * np.where(active, 1.0, q)))


def constant_trace_overlaps(psi) -> np.ndarray:
    """Overlaps tr(rho |c_i><c_i|) with every basis projector.

    For a pure state this is |<Psi|c_i>|^2 = |(G psi)_i|^2; a golden state
    has all components equal to lambda_min / d.
    """
    _, V, rho_emb = _embedded(psi)
    return np.real(np.einsum("ij,jk,ki->i", V.conj().T, rho_emb, V)).copy()


@dataclass(frozen=True)
class BoundCheck:
    l1_within: bool
    rel_entropy_within: bool
    l1_attained: bool
    rel_entropy_attained: bool


@dataclass(frozen=True, eq=False)
class MonotoneReport:
    """Both monotones of one state, its basis overlaps, the setting's
    bounds (d - 1)/lambda_min and ln(d/lambda_min), and solver data.

    Golden states attain both bounds (``"attained"`` in ``to_json``), but
    attaining them is not enough: at equal overlaps 1/2 in d = 3, the
    state (1, w, w^2), w = exp(2 pi i / 3), attains both with no golden
    state in the setting.
    """

    l1: float
    rel_entropy: float
    overlaps: np.ndarray
    l1_bound: float
    rel_entropy_bound: float
    iterations: int
    gradient_norm: float

    def to_json(self) -> dict:
        flags = bound_check(self)
        return {
            "l1": self.l1,
            "rel_entropy": self.rel_entropy,
            "overlaps": [float(x) for x in self.overlaps],
            "bounds": {"l1_max": self.l1_bound, "rel_ent_max": self.rel_entropy_bound},
            "attained": flags.l1_attained and flags.rel_entropy_attained,
        }


def monotone_report(rho) -> MonotoneReport:
    """Evaluate both monotones, the basis overlaps, and the setting's
    extremal bounds for one state; refuses a dependent setting."""
    setting = rho.setting
    lam_min = eigensystem(setting).lambda_min
    if lam_min <= MIN_EIG_TOL:
        raise ValueError("setting is not positive definite (dependent basis)")
    value, info = rel_entropy_superposition(rho, full_output=True)
    return MonotoneReport(
        l1=l1_superposition(rho),
        rel_entropy=value,
        overlaps=constant_trace_overlaps(rho),
        l1_bound=(setting.d - 1) / lam_min,
        rel_entropy_bound=float(np.log(setting.d / lam_min)),
        iterations=info.iterations,
        gradient_norm=info.gradient_norm,
    )


def bound_check(report: MonotoneReport) -> BoundCheck:
    """Verify the monotone values against the report's upper bounds and
    flag attainment, which golden states show but which does not make a
    state golden (see ``MonotoneReport``)."""
    l1_max, re_max = report.l1_bound, report.rel_entropy_bound
    return BoundCheck(
        l1_within=bool(report.l1 <= l1_max + BOUND_L1_TOL),
        rel_entropy_within=bool(report.rel_entropy <= re_max + BOUND_REL_ENTROPY_TOL),
        l1_attained=bool(abs(report.l1 - l1_max) <= BOUND_L1_TOL),
        rel_entropy_attained=bool(abs(report.rel_entropy - re_max) <= BOUND_REL_ENTROPY_TOL),
    )
