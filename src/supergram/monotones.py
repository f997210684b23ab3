"""Superposition monotones and their extremal bounds.

The l1 monotone sums the off-diagonal moduli of the basis-bilinear
coefficient matrix; the relative-entropy monotone minimizes S(rho || sigma)
over free states sigma = sum_k q_k |c_k><c_k| on the probability simplex.
That solve starts from the orthonormal closed form q = diag(C) / tr C,
takes damped Newton steps on the free face of the simplex (Hessian from
second divided differences of ln), falls back to the Blahut-Arimoto step
q_k <- q_k g_k^tau (g the negative gradient) where a Newton step is
undefined or refused, and stops once the Frank-Wolfe duality gap, which
bounds the value's excess over the minimum, is at most ``GAP_TOL``.
Golden states saturate the setting's bounds (d - 1) / lambda_min and
ln(d / lambda_min).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gram import BOUND_L1_TOL, BOUND_REL_ENTROPY_TOL, GAP_TOL, MIN_EIG_TOL
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
# above this dimension a Newton step's O(d^4) Hessian and its d^3 tables
# cost more than the fixed-point steps it saves, and only those are taken
_NEWTON_MAX_DIM = 16


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


def _read_only(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.cache
def _sorted_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index tables min(i, j) and max(i, j) of a d x d table, built once per
    d and shared, so read-only."""
    r = np.arange(d)
    return _read_only(np.minimum.outer(r, r), np.maximum.outer(r, r))


def _loewner_log(w: np.ndarray) -> np.ndarray:
    """Divided-difference table of ln on ascending positive eigenvalues w:
    L_ij = (ln w_i - ln w_j) / (w_i - w_j), with 1/w on coincidences.
    Taken as log1p(x) / x / min(w_i, w_j), x = |w_i - w_j| / min(w_i, w_j),
    which keeps full relative accuracy however close the pair."""
    lo_index, hi_index = _sorted_pairs(len(w))
    lo = w[lo_index]
    x = (w[hi_index] - lo) / lo
    L = np.ones_like(x)
    np.divide(np.log1p(x), x, out=L, where=x > 0.0)
    L /= lo
    return L


@functools.cache
def _sorted_triples(d: int) -> tuple[np.ndarray, ...]:
    """For every index triple (i, m, j) of a d x d x d table, flattened: its
    sorted members lo <= mid <= hi, and the flat positions of (lo, mid) and
    (mid, hi) in a d x d table.  Built once per d and shared, so read-only."""
    r = np.arange(d)
    i, m, j = r[:, None, None], r[:, None], r
    lo = np.minimum(np.minimum(i, m), j).ravel()
    hi = np.maximum(np.maximum(i, m), j).ravel()
    mid = (i + m + j).ravel() - lo - hi
    return _read_only(lo, mid, hi, lo * d + mid, mid * d + hi)


def _loewner_log2(w: np.ndarray, L: np.ndarray, triples) -> np.ndarray:
    """Second divided differences of ln on ascending positive w, from
    L = ``_loewner_log(w)`` and ``_sorted_triples(len(w))``, symmetric in
    (i, m, j): T = (L[lo, mid] - L[mid, hi]) / (w_lo - w_hi) over the sorted
    triple, and ln''/2 = -1/(2 u^2) at its mean u where w_hi and w_lo agree
    to 1e-5 relative; either way to about 1e-10 relative."""
    lo, mid, hi, lo_mid, mid_hi = triples
    w_lo, w_hi = w[lo], w[hi]
    span = w_lo - w_hi
    T = -4.5 / (w_lo + w[mid] + w_hi) ** 2
    np.divide(L.ravel()[lo_mid] - L.ravel()[mid_hi], span, out=T, where=span < -1e-5 * w_hi)
    d = len(w)
    return T.reshape(d, d, d)


def _hessian(w, A, W, Wc, L, triples) -> np.ndarray:
    """Hessian of the objective in q from the eigensystem of sigma, Wc =
    conj(W): -2 Re K, K_kl = sum_ijm A_ji T_imj W_ik Wc_mk W_ml Wc_jl, T the
    second divided differences of ln (Daleckii-Krein one order up), summed
    over m as one batch of d products W^T M_m Wc, M_m[i, j] = A_ji T_mij."""
    B = W.T @ (A.T * _loewner_log2(w, L, triples)) @ Wc
    K = np.add.reduce(Wc[:, :, None] * W[:, None, :] * B)
    return -2.0 * K.real


def _newton_step(q: np.ndarray, grad: np.ndarray, H: np.ndarray):
    """Newton step on the free face {q_k > 10 _Q_FLOOR} of the simplex, from
    the bordered KKT system [H_FF 1; 1^T 0]; None when the face has fewer
    than two coordinates, the system is singular, or the step does not
    descend."""
    free = q > _Q_FLOOR * 10.0
    n = np.count_nonzero(free)
    if n < 2:
        return None
    if n == len(q):  # the whole simplex is the face: views, no gathered copies
        free = slice(None)
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = H[free][:, free]
    kkt[n, n] = 0.0
    # a step that sums to zero sees the gradient only up to a constant;
    # centring it keeps its slope, of order |grad - mean|^2, above rounding
    grad = grad - q @ grad
    rhs = np.zeros(n + 1)
    np.negative(grad[free], out=rhs[:n])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    step = np.zeros(len(q))
    step[free] = sol[:n]
    return step if np.isfinite(step).all() and grad @ step < 0.0 else None


@dataclass(frozen=True)
class RelEntropyInfo:
    """Diagnostics of one relative-entropy solve.

    ``value`` is the monotone and ``q`` the optimal weights on the simplex.
    ``iterations`` counts accepted steps, Newton or fixed-point alike.
    ``gradient_norm`` is the simplex KKT residual at ``q`` and ``gap`` the
    Frank-Wolfe duality gap, which bounds the value's excess over the true
    minimum (both from ``_kkt_check``).  ``converged`` says whether the gap
    fell to ``GAP_TOL``; the residual is reported, not tested.
    """

    value: float
    q: np.ndarray
    iterations: int
    gradient_norm: float
    gap: float
    converged: bool


def rel_entropy_superposition(rho, full_output: bool = False):
    """min_q S(rho || sum_k q_k |c_k><c_k|) over the probability simplex.

    The objective tr(rho ln rho) - tr(rho ln sigma(q)) is convex in q, and
    sigma(q) = V diag(q) V^dag in the embedding frame.  Its negative
    gradient g_k = tr(rho Dln_sigma[|c_k><c_k|]) satisfies
    sum_k q_k g_k = tr rho = 1.

    Start: q = diag(C) / tr C, C = V^-1 rho V^-dag the coefficient matrix,
    floored at 1e-12 and renormalized.  In the orthonormal limit V = I
    this is the optimum, the closed form S(diag rho) - S(rho), and the
    solve takes no step.

    Step: for d up to 16, a damped Newton step on the free face
    {q_k > 1e-11}, from the Hessian of second divided differences of ln
    (``_hessian``) and the bordered KKT system of the face, cut to 0.99
    of the distance to the simplex boundary and halved, at most three
    times, until it does not raise the objective.

    Fallback: where the Newton step is undefined, does not descend or is
    not accepted, or a floored weight should grow (its gradient is below
    the free face's multiplier), the fixed-point step q_k <- q_k g_k^tau,
    floored and renormalized, with the first tau of omega, 1, 1/2, 1/4,
    ... (at most 60 tries) that does not raise the objective.  A short
    enough step always descends: g >= 0, because ln is operator monotone,
    and along q g^tau the slope at tau = 0 is -Cov_q(g, ln g) <= 0.  While
    this iteration contracts slowly (near linear dependence) omega doubles
    up to 1e3 after each full step; a shorter step resets it to 1.

    Stop: converged once the duality gap max_k g_k - sum_k q_k g_k, which
    bounds the value's excess over the minimum, is at most ``GAP_TOL``;
    the simplex KKT residual is reported and paces omega, but stops
    nothing.  Near linear dependence rounding keeps the gap above about
    eps / lambda_min; a step that moves q by less than 1e-15 without
    lowering the objective then ends the solve unconverged, and so do
    20000 iterations.

    Cost: a trial point is one eigendecomposition of sigma; a Newton
    iteration adds the Hessian (2d products of d x d matrices) and one
    (n + 1)-square solve.  At d <= 5 numpy's per-call overhead sets it.

    With ``full_output`` the optimizer diagnostics are returned alongside
    the value.
    """
    setting, V, rho_emb = _embedded(rho)
    d = setting.d
    const = _entropy_term(rho_emb)
    Vh = V.conj().T

    def objective_grad(q):
        # one eigendecomposition of sigma gives the value const - sum_i A_ii
        # ln w_i, the gradient -Re sum_ij W_ik (A^T o L)_ij Wc_jk through the
        # Daleckii-Krein table L, and the eigensystem kept for the Hessian
        w, U = np.linalg.eigh((V * q) @ Vh)
        np.maximum(w, _LOG_FLOOR, out=w)
        Uh = U.conj().T
        A = Uh @ rho_emb @ U
        val = const - float(A.diagonal().real @ np.log(w))
        W = Uh @ V
        Wc = W.conj()
        np.maximum(w, _Q_FLOOR * 1e-6, out=w)
        L = _loewner_log(w)
        grad = -np.add.reduce((W * ((A.T * L) @ Wc)).real)
        return val, grad, (w, A, W, Wc, L)

    def trial(x):
        # x is always a fresh array, floored and renormalized in place
        np.maximum(x, _Q_FLOOR, out=x)
        x /= x.sum()
        return (x, *objective_grad(x))

    triples = _sorted_triples(d) if d <= _NEWTON_MAX_DIM else None

    def newton(q, val, grad, eig):
        # the damped Newton step's accepted trial point, or None
        step = _newton_step(q, grad, _hessian(*eig, triples))
        if step is None:
            return None
        shrink = step < 0.0
        alpha = min(1.0, 0.99 * float((q[shrink] / -step[shrink]).min()))
        for _ in range(4):
            cand = trial(q + alpha * step)
            if cand[1] <= val + 1e-15:
                return cand
            alpha /= 2.0
        return None

    Vinv = np.linalg.inv(V)
    q, val, grad, eig = trial((Vinv @ rho_emb @ Vinv.conj().T).diagonal().real.copy())
    iterations = 0
    pg_norm, gap, pushes_in = _kkt_check(q, grad)
    omega = 1.0
    while gap > GAP_TOL and iterations < _MAX_ITER:
        cand = None
        if triples is not None and not pushes_in:
            cand = newton(q, val, grad, eig)
        took_newton = cand is not None
        if not took_newton:
            # step q_k <- q_k g_k^tau with g = -grad, in logs so that a
            # large tau cannot overflow; ln 0 = -inf gives a zero weight
            g = -grad
            log_g = np.log(g, out=np.full(d, -np.inf), where=g > 0.0)
            log_g -= log_g.max()
            # tau = omega, then the plain step tau = 1, then halved
            tau = omega
            for _ in range(60):
                cand = trial(q * np.exp(tau * log_g))
                if cand[1] <= val + 1e-15:
                    break
                tau = min(tau / 2.0, 1.0)
            else:
                break
            if tau < omega:
                omega = 1.0
        stalled = cand[1] > val - 1e-18 and float(np.linalg.norm(cand[0] - q)) < 1e-15
        q, val, grad, eig = cand
        pg_prev = pg_norm
        pg_norm, gap, pushes_in = _kkt_check(q, grad)
        if not took_newton and tau >= 1.0 and pg_norm > _SLOW_RATE * pg_prev:
            omega = min(2.0 * omega, _MAX_OMEGA)
        iterations += 1
        if stalled:
            break

    value = max(val, 0.0)
    info = RelEntropyInfo(value, q, iterations, pg_norm, gap, bool(gap <= GAP_TOL))
    return (value, info) if full_output else value


def _kkt_check(q: np.ndarray, grad: np.ndarray) -> tuple[float, float, bool]:
    """Stop and face tests in one pass, g = -grad: the simplex KKT residual
    (interior coordinates share one multiplier mu, floored ones may only
    push outward), the Frank-Wolfe gap max_k g_k - sum_k q_k g_k, which
    bounds the objective's excess over its minimum, and whether a floored
    weight pushes in (grad below mu), which a step on the face cannot do."""
    qg = q @ grad
    gap = float(qg - grad.min())
    active = q <= _Q_FLOOR * 10.0
    if not 0 < np.count_nonzero(active) < len(q):
        # every coordinate counts as interior
        r = (grad - qg / q.sum()) * q
        return math.sqrt(r @ r), gap, False
    mu = float(np.sum(q[~active] * grad[~active]) / np.sum(q[~active]))
    r = grad - mu
    r[active] = np.minimum(r[active], 0.0)
    residual = float(np.linalg.norm(r * np.where(active, 1.0, q)))
    return residual, gap, bool(grad[active].min() < mu)


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
    bounds (d - 1)/lambda_min and ln(d/lambda_min), and solver data: the
    duality ``gap`` certifies ``rel_entropy`` to within itself.

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
    gap: float

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
        gap=info.gap,
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
