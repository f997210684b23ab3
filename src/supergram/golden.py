"""Detection and construction of golden (maximal) superposition states.

A golden state of an inner-product setting can be converted into every
other state of the same dimension by superposition-free operations.  Two
necessary conditions pin its form: it must be an eigenvector of the Gram
matrix for the smallest eigenvalue, and its tilde vector diag(psi*) G psi
must equal (1/d, ..., 1/d).  Together they force coefficients of common
modulus 1/sqrt(d * lambda_min) with free phases.

Necessity alone does not certify convertibility.  The free-channel
construction used throughout :mod:`supergram.freeops` succeeds for every
target exactly when its residual at the extreme target vanishes, which in
terms of the candidate phases u_i = psi_i / |psi_i| reads

    G_il = (lambda_min - 1) / (d - 1) * u_i * conj(u_l)   for all i != l.

With the unit diagonal this says that a golden state exists exactly when

    G = (1 - c) I + c u u^dag,   |u_i| = 1,   c in (-1/(d-1), 0],

and then u are its phases and lambda_min = 1 + (d - 1) c.  ``detect``
decides by this closed form: it fits c and u in O(d^2) and accepts when
the entrywise distance from G to the fitted form is within tolerance.
The eigenspace itself does not decide.  At the equal-overlap setting
s = 1/2 in dimension 3, complex combinations of the degenerate minimal
eigenspace such as (1, w, w^2) with w = exp(2 pi i / 3) do satisfy the
uniform-tilde condition, yet no free channel built from them is trace
preserving, and the setting admits no golden state.

On request (``n_starts > 0``) a multistart search of a degenerate minimal
eigenspace reports how far the best eigenspace vector remains from a
certified golden state.  It is a diagnostic only and never changes the
verdict; scipy is imported when it first runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import ACCEPT_TOL, EQUAL_MODULUS_TOL, MIN_EIG_TOL, PAIR_REL_TOL, REJECT_TOL
from .gram import TABLE1_TOL, UNITARY_TOL, ZERO_TOL
from .gram import GramSetting, build_setting, eigensystem, fix_phase
from .states import SuperpositionState, normalize

__all__ = [
    "ACCEPT_TOL",
    "DETECT_SEED",
    "N_STARTS",
    "REJECT_TOL",
    "TABLE1_FAMILIES",
    "D3DegeneracyReport",
    "GoldenCandidate",
    "GoldenSearchReport",
    "candidate_form",
    "closed_form_d2",
    "closed_form_equal_real",
    "degeneracy_required_d3",
    "degenerate_family_d3",
    "detect",
    "golden_setting",
    "random_frame_d3",
    "report_to_json",
    "table1_row",
    "table1_setting",
]

# starts of the opt-in eigenspace search (``detect(..., n_starts=N_STARTS)``)
N_STARTS = 50
DETECT_SEED = 1905


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call so that
    importing the package does not load scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


@dataclass(frozen=True)
class GoldenCandidate:
    """An accepted golden state with its certification numbers."""

    state: SuperpositionState
    lambda_min: float
    tilde_deviation: float
    eigen_residual: float


@dataclass(frozen=True)
class GoldenSearchReport:
    """Outcome of golden-state detection on one setting.

    With ``n_starts == 0`` (the default) ``best_deviation`` is the
    entrywise distance max |G - ((1 - c) I + c u u^dag)| from the Gram
    matrix to its fitted golden form, the number that decided the
    outcome.  When the eigenspace search ran (``n_starts > 0``, only on a
    degenerate "none"), it is instead the smallest certified-goldenness
    deviation the search saw over the eigenspace (max of tilde deviation
    and free-channel residual), and ``n_starts`` counts its starts.
    ``inconclusive`` marks a "none" whose deviation lies in the gray zone
    between acceptance and confident rejection, or one whose fit was
    accepted but whose state cannot be confirmed normalized to
    ``NORM_TOL``, as happens close to linear dependence.
    """

    outcome: str
    candidate: GoldenCandidate | None
    best_deviation: float
    inconclusive: bool
    multiplicity: int
    n_starts: int


def report_to_json(report: GoldenSearchReport) -> dict:
    out = {
        "outcome": report.outcome,
        "lambda_min": None,
        "coefficients": None,
        "tilde_deviation": None,
        "eigen_residual": None,
        "best_deviation": report.best_deviation,
        "inconclusive": report.inconclusive,
        "multiplicity": report.multiplicity,
        "n_starts": report.n_starts,
    }
    if report.candidate is not None:
        c = report.candidate
        out["lambda_min"] = c.lambda_min
        out["coefficients"] = [
            {"re": float(z.real), "im": float(z.imag)} for z in c.state.coeffs
        ]
        out["tilde_deviation"] = c.tilde_deviation
        out["eigen_residual"] = c.eigen_residual
    return out


def _admissible(d: int, c: float) -> bool:
    """c in (-1/(d-1), 0]: the golden form is positive definite, u minimal."""
    return -1.0 / (d - 1) < c <= 0.0


def _form(c: float, u: np.ndarray) -> np.ndarray:
    """The golden form (1 - c) I + c u u^dag."""
    return (1.0 - c) * np.eye(len(u)) + c * np.outer(u, u.conj())


def golden_setting(d: int, c: float, phases) -> GramSetting:
    """The golden form G = (1 - c) I + c u u^dag with u_k = exp(i phases_k).

    Every such setting with c in (-1/(d-1), 0] admits a golden state,
    u / sqrt(d (1 + (d-1) c)), at any dimension ``d``.
    """
    if d < 2 or not _admissible(d, c):
        raise ValueError(f"the golden form needs d >= 2 and c in (-1/(d-1), 0], got d = {d}, c = {c}")
    u = np.exp(1j * np.asarray(phases, dtype=float))
    if u.shape != (d,):
        raise ValueError(f"need one phase per basis state, got shape {u.shape}")
    G = _form(c, u)
    return build_setting(d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)])


def candidate_form(setting: GramSetting, lambda_min: float, phases) -> SuperpositionState:
    """The candidate maximal state sqrt(1/(d lambda_min)) (e^{i theta_1}, ...).

    Raises if the resulting vector is not normalized for this setting,
    which happens whenever (lambda_min, phases) do not actually describe a
    minimal eigenvector of the Gram matrix.
    """
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (setting.d,):
        raise ValueError(f"expected {setting.d} phases")
    coeffs = np.exp(1j * phases) / math.sqrt(setting.d * lambda_min)
    return SuperpositionState(coeffs, setting)


def _tilde_deviation(setting: GramSetting, coeffs: np.ndarray) -> float:
    t = coeffs.conj() * (setting.gram @ coeffs)
    return float(np.max(np.abs(t - 1.0 / setting.d)))


def _structural_deviation(setting: GramSetting, coeffs: np.ndarray, lam: float) -> float:
    """Largest off-diagonal entry of the free-channel residual at the
    extreme target, G_il - c u_i conj(u_l) with c = (lam - 1)/(d - 1)."""
    mods = np.abs(coeffs)
    u = np.where(mods > ZERO_TOL, coeffs / np.where(mods > ZERO_TOL, mods, 1.0), 1.0)
    M = setting.gram - _form((lam - 1.0) / (setting.d - 1), u)
    np.fill_diagonal(M, 0.0)
    return float(np.max(np.abs(M)))


def _deviation(setting: GramSetting, coeffs: np.ndarray, lam: float) -> float:
    return max(
        _tilde_deviation(setting, coeffs),
        _structural_deviation(setting, coeffs, lam),
    )


def _normalized_from_raw(setting: GramSetting, raw: np.ndarray) -> np.ndarray:
    n2 = float(np.real(np.vdot(raw, setting.gram @ raw)))
    return raw / math.sqrt(n2)


def _search_objective(params: np.ndarray, X: np.ndarray, setting: GramSetting, lam: float) -> float:
    """Smooth surrogate for the combined deviation over the eigenspace.

    ``params`` are the real and imaginary parts of the span coefficients;
    the squared tilde deviation plus the squared (modulus-weighted)
    residual identity vanish exactly at certified golden states.
    """
    a = params[0::2] + 1j * params[1::2]
    v = X @ a
    nrm = np.linalg.norm(v)
    if nrm < ZERO_TOL:
        return 1e6
    psi = _normalized_from_raw(setting, v / nrm)
    d = setting.d
    t = psi.conj() * (setting.gram @ psi)
    f = float(np.sum(np.abs(t - 1.0 / d) ** 2))
    mods = np.abs(psi)
    c = (lam - 1.0) / (d - 1)
    scale = d * lam
    E = scale * (setting.gram * np.outer(mods, mods) - c * np.outer(psi, psi.conj()))
    np.fill_diagonal(E, 0.0)
    return f + float(np.sum(np.abs(E) ** 2))


def _deviation_of_params(params: np.ndarray, X: np.ndarray, setting: GramSetting, lam: float) -> float:
    a = params[0::2] + 1j * params[1::2]
    v = X @ a
    nrm = np.linalg.norm(v)
    if nrm < ZERO_TOL:
        return 1e6
    psi = _normalized_from_raw(setting, v / nrm)
    return _deviation(setting, psi, lam)


def _degenerate_search(setting, X, lam, n_starts, seed, accept_tol):
    """Multistart quasi-Newton search of the degenerate minimal eigenspace,
    followed by a derivative-free polish of the reported deviation.

    Returns (best deviation, starts run).
    """
    d, m = X.shape
    rng = np.random.default_rng(seed)

    starts = []
    a0 = X.conj().T @ np.ones(d)
    if np.linalg.norm(a0) > 1e-9:
        p0 = np.empty(2 * m)
        p0[0::2], p0[1::2] = a0.real, a0.imag
        starts.append(p0)
        # cheap exit for the orthonormal-limit style cases
        dev0 = _deviation_of_params(p0, X, setting, lam)
        if dev0 <= accept_tol:
            return dev0, 1
    while len(starts) < n_starts:
        starts.append(rng.standard_normal(2 * m))

    converged = []
    for p in starts:
        res = minimize(
            _search_objective,
            p,
            args=(X, setting, lam),
            method="L-BFGS-B",
            options={"gtol": 1e-12, "ftol": 1e-16, "maxiter": 500},
        )
        converged.append((float(res.fun), res.x))
        if res.fun < 1e-22:
            # a certified golden point; no further starts needed
            break
    converged.sort(key=lambda item: item[0])

    best_dev = np.inf
    for _, x in converged[:3]:
        polish = minimize(
            _deviation_of_params,
            x,
            args=(X, setting, lam),
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxfev": 1500},
        )
        best_dev = min(best_dev, float(polish.fun))
    for _, x in converged:
        best_dev = min(best_dev, _deviation_of_params(x, X, setting, lam))
    return best_dev, len(converged)


def _golden_form(setting: GramSetting) -> tuple[float, np.ndarray, float]:
    """Fit G = (1 - c) I + c u u^dag to the Gram matrix.

    c = -mean |G_il| over the off-diagonal entries, and u carries the
    phases of the first row (u_1 = 1; u = 1 when the row vanishes).
    Returns (c, u, entrywise distance max |G - fitted form|).
    """
    G = setting.gram
    d = setting.d
    c = -float(np.mean(np.abs(G[~np.eye(d, dtype=bool)])))
    # G_1l = c conj(u_l) with c <= 0, so u_l has the phase of -conj(G_1l)
    row = -G[0].conj()
    mods = np.abs(row)
    u = np.where(mods > 0.0, row / np.where(mods > 0.0, mods, 1.0), 1.0)
    u[0] = 1.0
    return c, u, float(np.max(np.abs(G - _form(c, u))))


def detect(
    setting: GramSetting,
    n_starts: int = 0,
    seed: int = DETECT_SEED,
    accept_tol: float = ACCEPT_TOL,
) -> GoldenSearchReport:
    """Decide whether a setting admits a golden state and construct it.

    The decision is the closed form: fit G = (1 - c) I + c u u^dag with
    c = -mean |G_il| off the diagonal and u the phases of the first row,
    and accept when the entrywise distance from G to the fit is at most
    ``accept_tol`` and c lies in (-1/(d-1), 0].  The golden state is then
    u / sqrt(d lambda) with lambda = 1 + (d - 1) c, the minimal
    eigenvalue.  The eigensystem rejects dependent settings and supplies
    ``multiplicity``.

    On "none" the report carries that distance as ``best_deviation`` and
    is inconclusive when it is at most ``REJECT_TOL``, or when the fit is
    accepted but the state fails the normalization check.  With
    ``n_starts > 0`` a degenerate "none" additionally runs the multistart
    search of the minimal eigenspace (deterministic for a fixed ``seed``),
    whose smallest deviation then replaces the distance; the verdict does
    not change.
    """
    es = eigensystem(setting)
    if es.lambda_min <= MIN_EIG_TOL:
        raise ValueError("setting is not positive definite (dependent basis)")
    group = list(es.min_group)
    m = len(group)
    d = setting.d

    c, u, dist = _golden_form(setting)
    if dist <= accept_tol and _admissible(d, c):
        lam = 1.0 + (d - 1) * c
        # u^dag G u = d lam up to the fit distance; normalizing against G
        # keeps the state normalized when a caller loosens accept_tol
        psi = fix_phase(_normalized_from_raw(setting, u))
        try:
            candidate = _make_candidate(setting, psi, lam)
        except ValueError:
            # near dependence psi^dag G psi carries a rounding error of about
            # eps / lambda_min, which can exceed NORM_TOL: no verdict
            return GoldenSearchReport("none", None, dist, True, m, 0)
        return GoldenSearchReport("found", candidate, dist, False, m, 0)
    if m == 1 or n_starts <= 0:
        return GoldenSearchReport("none", None, dist, dist <= REJECT_TOL, m, 0)

    lam = float(np.mean(es.eigenvalues[group]))
    X = es.eigenvectors[:, group]
    best_dev, starts_run = _degenerate_search(setting, X, lam, n_starts, seed, accept_tol)
    return GoldenSearchReport("none", None, best_dev, best_dev <= REJECT_TOL, m, starts_run)


def _make_candidate(setting: GramSetting, psi: np.ndarray, lam: float) -> GoldenCandidate:
    state = SuperpositionState(psi, setting)
    residual = float(np.linalg.norm(setting.gram @ psi - lam * psi))
    return GoldenCandidate(
        state=state,
        lambda_min=lam,
        tilde_deviation=_tilde_deviation(setting, psi),
        eigen_residual=residual,
    )


def closed_form_d2(s_modulus: float, theta: float = 0.0) -> SuperpositionState:
    """Golden state of a qubit setting with overlap s e^{i theta}.

    The golden form has c = -|s|, and the state is (1, -e^{-i theta}) /
    sqrt(2 (1 - s)) for s >= 0 and (1, e^{-i theta}) / sqrt(2 (1 + s)) for s < 0.
    """
    s = float(s_modulus)
    if abs(s) >= 1.0:
        raise ValueError("|s| must be < 1")
    setting = build_setting(2, [(1, 2, s * np.exp(1j * theta))])
    return candidate_form(setting, 1.0 - abs(s), [0.0, (np.pi if s >= 0 else 0.0) - theta])


def closed_form_equal_real(d: int, s: float) -> SuperpositionState:
    """Golden state (1, ..., 1) / sqrt(d (1 + (d-1) s)) of the equal real
    overlap setting, valid for s in (1/(1-d), 0]."""
    return candidate_form(golden_setting(d, s, np.zeros(d)), 1.0 + (d - 1) * s, np.zeros(d))


# the nine three-dimensional sign-pattern families: overlap multipliers for
# (s12, s13, s23), the minimal eigenvalue as (a + b s), the eigenvector
# pattern, and the admissible half-open range of s
TABLE1_FAMILIES = {
    "s,s,s": ((1, 1, 1), (1.0, 2.0), (1, 1, 1), (-0.5, 0.0)),
    "-s,s,s": ((-1, 1, 1), (1.0, -2.0), (1, 1, -1), (0.0, 0.5)),
    "s,-s,s": ((1, -1, 1), (1.0, -2.0), (1, -1, 1), (0.0, 0.5)),
    "s,s,-s": ((1, 1, -1), (1.0, -2.0), (-1, 1, 1), (0.0, 0.5)),
    "s,-s,-s": ((1, -1, -1), (1.0, 2.0), (1, 1, -1), (-0.5, 0.0)),
    "-s,s,-s": ((-1, 1, -1), (1.0, 2.0), (1, -1, 1), (-0.5, 0.0)),
    "-s,-s,s": ((-1, -1, 1), (1.0, 2.0), (-1, 1, 1), (-0.5, 0.0)),
    "-s,-s,-s": ((-1, -1, -1), (1.0, -2.0), (1, 1, 1), (0.0, 0.5)),
    "s,is,-is": ((1, 1j, -1j), (1.0, -2.0), (-1j, 1j, 1), (0.0, 0.5)),
}


def table1_setting(family: str, s: float) -> GramSetting:
    """Build the Gram setting of one sign-pattern family at parameter s."""
    if family not in TABLE1_FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {sorted(TABLE1_FAMILIES)}")
    mults, _, _, (lo, hi) = TABLE1_FAMILIES[family]
    # each family is the golden form with c = -|s|, s of the family's sign
    if not (_admissible(3, -abs(s)) and (s >= 0.0 if lo == 0.0 else s <= 0.0)):
        raise ValueError(f"family {family!r} requires s in "
                         f"{'[0, %g)' % hi if lo == 0.0 else '(%g, 0]' % lo}, got {s}")
    m12, m13, m23 = mults
    return build_setting(3, [(1, 2, m12 * s), (1, 3, m13 * s), (2, 3, m23 * s)])


def table1_row(family: str, s: float) -> GoldenCandidate:
    """Golden state of one sign-pattern family, verified through ``detect``.

    The returned candidate carries the family's minimal eigenvalue and the
    detected state, which matches the family's eigenvector pattern up to a
    global phase.
    """
    setting = table1_setting(family, s)
    _, (a, b), pattern, _ = TABLE1_FAMILIES[family]
    lam_expected = a + b * s
    report = detect(setting)
    if report.outcome != "found":
        raise RuntimeError(f"family {family!r} at s = {s} unexpectedly admits no golden state")
    cand = report.candidate
    if abs(cand.lambda_min - lam_expected) > TABLE1_TOL:
        raise RuntimeError(
            f"family {family!r} at s = {s}: detected lambda_min {cand.lambda_min} "
            f"differs from the family value {lam_expected}"
        )
    expected = normalize(np.asarray(pattern, dtype=complex), setting)
    if _phase_aligned_distance(expected.coeffs, cand.state.coeffs) > TABLE1_TOL:
        raise RuntimeError(f"family {family!r} at s = {s}: detected state deviates from the pattern")
    return cand


def _phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    ov = np.vdot(a, b)
    phase = ov / abs(ov) if abs(ov) > 1e-15 else 1.0
    return float(np.linalg.norm(a * phase - b))


def random_frame_d3(rng: np.random.Generator) -> np.ndarray:
    """A 3x3 unitary whose first column is (e^{i theta_k}) / sqrt(3) at random
    phases, up to a global phase; the other columns complete it."""
    col0 = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=3)) / math.sqrt(3.0)
    A = np.column_stack([col0, rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))])
    return np.linalg.qr(A)[0]


def degenerate_family_d3(lambda1: float, frame: np.ndarray) -> GramSetting:
    """Member of the three-dimensional golden-admitting family.

    Given lambda1 in (0, 1] and a unitary frame whose first column is a
    golden direction (equal-modulus entries), the unique unit-diagonal
    Gram matrix with spectrum {lambda1, lambda2, lambda2},
    lambda2 = (3 - lambda1) / 2, and that minimal eigenvector is

        G = lambda2 I + (lambda1 - lambda2) x1 x1^dag.

    lambda1 = 1 gives the identity (orthonormal limit).
    """
    frame = np.asarray(frame, dtype=complex)
    if frame.shape != (3, 3):
        raise ValueError("frame must be a 3x3 unitary")
    if np.linalg.norm(frame.conj().T @ frame - np.eye(3)) > UNITARY_TOL:
        raise ValueError("frame must be unitary")
    x1 = frame[:, 0]
    if np.max(np.abs(np.abs(x1) - 1.0 / math.sqrt(3.0))) > EQUAL_MODULUS_TOL:
        raise ValueError("frame's first column must have equal-modulus entries (golden form)")
    return golden_setting(3, (float(lambda1) - 1.0) / 2.0, np.angle(x1))


@dataclass(frozen=True)
class D3DegeneracyReport:
    """Whether a d = 3 setting admits a golden state, whether its two
    largest eigenvalues coincide, and whether the two facts agree with the
    rule that golden-admitting settings have a degenerate pair."""

    admits_golden: bool
    degenerate_pair: bool
    consistent: bool


def degeneracy_required_d3(setting: GramSetting) -> D3DegeneracyReport:
    """Check the d = 3 degeneracy rule on one setting.

    Returns a report rather than asserting, so a violation (none is known)
    would be visible instead of fatal.
    """
    if setting.d != 3:
        raise ValueError("this check is specific to three-dimensional settings")
    report = detect(setting)
    es = eigensystem(setting)
    lam2, lam3 = float(es.eigenvalues[1]), float(es.eigenvalues[2])
    pair = abs(lam3 - lam2) <= PAIR_REL_TOL * max(abs(lam3), 1.0)
    admits = report.outcome == "found"
    return D3DegeneracyReport(
        admits_golden=admits,
        degenerate_pair=pair,
        consistent=(not admits) or pair,
    )
