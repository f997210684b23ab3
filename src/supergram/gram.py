"""Inner-product settings of nonorthogonal bases, stored as Gram matrices.

The Gram matrix of ``d`` normalized, linearly independent basis states is
the Hermitian, unit-diagonal, positive-definite matrix of their pairwise
overlaps.  Everything downstream (state geometry, maximal-state detection,
free-operation certificates) consumes the spectral data assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEGENERACY_REL_TOL",
    "MIN_EIG_TOL",
    "EigenSystem",
    "GramSetting",
    "ValidationReport",
    "build_setting",
    "eigensystem",
    "embedding",
    "fix_phase",
    "rayleigh",
    "reorient_embedding",
    "same_setting",
    "setting_from_json",
    "setting_to_json",
    "validate",
]

# Tolerance table: every threshold that decides a verdict, raises an error
# or sets a report flag, one name per decision.  Absolute except the two
# _REL_ ones, which scale with the largest eigenvalue.
ZERO_TOL = 1e-12  # a modulus, norm, asymmetry or negative weight counts as zero
MIN_EIG_TOL = 1e-12  # Gram eigenvalues at or below count as linear dependence
DET3_TOL = 1e-10  # |det3| at or below agrees with either independence verdict
DEGENERACY_REL_TOL = 1e-9  # closer eigenvalues share a degeneracy group
PAIR_REL_TOL = 1e-8  # d = 3 degeneracy rule: the two largest eigenvalues coincide
UNITARY_TOL = 1e-10  # |U^dag U - I| of a frame rotation or a d = 3 family frame
EQUAL_MODULUS_TOL = 1e-9  # d = 3 family frame: first-column moduli are 1/sqrt(3)
NORM_TOL = 1e-8  # a directly constructed state is normalized
NORMALIZED_INPUT_TOL = 1e-10  # a state loaded as normalized is kept as given
DENSITY_TOL = 1e-10  # Hermitian, unit trace, PSD; mixture weights sum to one
ACCEPT_TOL = 1e-9  # distance from the golden form at which a setting is accepted
REJECT_TOL = 1e-6  # a "none" above this is confident, at or below inconclusive
TABLE1_TOL = 1e-9  # a detected table1 row matches its family's closed form
FROBENIUS_TOL = 1e-9  # channel completeness residual |sum K^dag G K - G|_F
PSD_TOL = 1e-10  # the S1 residual's eigenvalues are at least -PSD_TOL
ANNIHILATION_TOL = 1e-10  # |R psi| of the S1 residual on the source state
S2_EIG_TOL = 1e-13  # residual eigenpairs above this become S2 operators (sets n_s2)
FREE_ENTRY_TOL = 1e-10  # a free Kraus column has one entry above this at most
GRAD_TOL = 1e-8  # projected gradient norm of a converged relative-entropy solve
BOUND_L1_TOL = 1e-9  # slack of the l1 bound, for "within" and "attained"
BOUND_REL_ENTROPY_TOL = 1e-5  # slack of the relative-entropy bound, likewise
SCAN_EDGE_TOL = 1e-9  # scan grid points this close to an open end are clipped


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate ``v`` by a global phase so that its first component with
    modulus above ``ZERO_TOL`` becomes real and positive."""
    v = np.asarray(v, dtype=complex)
    for c in v:
        if abs(c) > ZERO_TOL:
            return v * (abs(c) / c)
    return v.copy()


@dataclass(frozen=True, eq=False)
class GramSetting:
    """An inner-product setting: dimension, sparse overlaps, and the full
    Gram matrix.

    ``overlaps`` holds 1-based ``(i, j, value)`` triples with ``i < j``;
    pairs not listed have overlap zero.  ``gram`` is the d x d Hermitian
    matrix with unit diagonal built from them.
    """

    d: int
    overlaps: tuple
    gram: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram", np.array(self.gram, dtype=complex))
        self.gram.setflags(write=False)

    def overlap(self, i: int, j: int) -> complex:
        """Overlap of basis states ``i`` and ``j`` (1-based)."""
        return complex(self.gram[i - 1, j - 1])


def same_setting(a: GramSetting, b: GramSetting) -> bool:
    return a is b or (a.d == b.d and np.array_equal(a.gram, b.gram))


def build_setting(d: int, overlaps) -> GramSetting:
    """Assemble a GramSetting from pairwise overlaps.

    Parameters
    ----------
    d : dimension, at least 2.
    overlaps : iterable of ``(i, j, value)`` with 1-based ``i < j``.
        Missing pairs default to overlap zero.

    Positive definiteness is not checked here; ``validate`` reports it.
    """
    if int(d) != d or d < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    d = int(d)
    gram = np.eye(d, dtype=complex)
    seen = set()
    stored = []
    for i, j, s in overlaps:
        if not (1 <= i < j <= d):
            raise ValueError(f"overlap indices must satisfy 1 <= i < j <= d, got ({i}, {j})")
        if (i, j) in seen:
            raise ValueError(f"duplicate overlap pair ({i}, {j})")
        seen.add((i, j))
        s = complex(s)
        if abs(s) >= 1.0:
            raise ValueError(f"|overlap| must be < 1 for normalized states, got |s_{i}{j}| = {abs(s)}")
        gram[i - 1, j - 1] = s
        gram[j - 1, i - 1] = np.conj(s)
        stored.append((int(i), int(j), s))
    return GramSetting(d=d, overlaps=tuple(stored), gram=gram)


@dataclass(frozen=True)
class ValidationReport:
    """Health report for a setting.  ``linearly_independent`` is the
    verdict; the other fields say why."""

    hermitian: bool
    unit_diagonal: bool
    min_eigenvalue: float
    linearly_independent: bool
    condition_number: float
    det3: float | None = None
    det3_sign_consistent: bool | None = None

    def to_json(self) -> dict:
        out = {
            "hermitian": self.hermitian,
            "unit_diagonal": self.unit_diagonal,
            "min_eigenvalue": self.min_eigenvalue,
            "linearly_independent": self.linearly_independent,
            "condition_number": self.condition_number,
        }
        if self.det3 is not None:
            out["det3"] = self.det3
            out["det3_sign_consistent"] = self.det3_sign_consistent
        return out


def validate(setting: GramSetting) -> ValidationReport:
    """Check Hermiticity, unit diagonal and positive definiteness.

    Linear independence of the basis is exactly positive definiteness of
    the Gram matrix: the smallest eigenvalue exceeds ``MIN_EIG_TOL``.
    For d = 3 the closed-form determinant

        1 - |s12|^2 - |s13|^2 - |s23|^2 + 2 Re(s12 conj(s13) s23)

    is evaluated as well and its sign checked against the eigenvalue test.
    """
    G = setting.gram
    hermitian = bool(np.linalg.norm(G - G.conj().T) <= ZERO_TOL)
    unit_diagonal = bool(np.max(np.abs(np.diag(G) - 1.0)) <= ZERO_TOL)
    evals = np.linalg.eigvalsh(G)
    lam_min = float(evals[0])
    lam_max = float(evals[-1])
    independent = bool(lam_min > MIN_EIG_TOL)
    cond = float(lam_max / lam_min) if lam_min > 0 else float("inf")

    det3 = None
    det3_ok = None
    if setting.d == 3:
        s12, s13, s23 = G[0, 1], G[0, 2], G[1, 2]
        det3 = float(
            1.0
            - abs(s12) ** 2
            - abs(s13) ** 2
            - abs(s23) ** 2
            + 2.0 * np.real(s12 * np.conj(s13) * s23)
        )
        det3_ok = bool((det3 > MIN_EIG_TOL) == independent or abs(det3) <= DET3_TOL)

    return ValidationReport(
        hermitian=hermitian,
        unit_diagonal=unit_diagonal,
        min_eigenvalue=lam_min,
        linearly_independent=independent,
        condition_number=cond,
        det3=det3,
        det3_sign_consistent=det3_ok,
    )


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues, phase-fixed orthonormal eigenvectors (as
    columns) and degeneracy groups of a Gram matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    groups: tuple

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues", np.array(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", np.array(self.eigenvectors))
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def min_group(self) -> tuple:
        return self.groups[0]


def eigensystem(setting: GramSetting) -> EigenSystem:
    """Eigendecompose the Gram matrix.

    Eigenvalues come back ascending; eigenvalues closer than
    ``DEGENERACY_REL_TOL * lambda_max`` (chained) share a degeneracy group.
    Each eigenvector is rotated so its first sizable component is real
    positive, making the output deterministic up to degeneracies.
    """
    evals, evecs = np.linalg.eigh(setting.gram)
    if not np.all(np.isfinite(evals)):
        raise ArithmeticError("eigensolver failed to converge on the Gram matrix")
    evecs = np.column_stack([fix_phase(evecs[:, k]) for k in range(setting.d)])
    gap_tol = DEGENERACY_REL_TOL * max(abs(evals[-1]), 1e-300)
    groups = [[0]]
    for k in range(1, setting.d):
        if evals[k] - evals[k - 1] <= gap_tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return EigenSystem(
        eigenvalues=evals,
        eigenvectors=evecs,
        groups=tuple(tuple(g) for g in groups),
    )


def rayleigh(setting: GramSetting, x: np.ndarray) -> float:
    """Rayleigh quotient x^dag G x / x^dag x; lies in [lambda_min, lambda_max]."""
    x = np.asarray(x, dtype=complex)
    nrm2 = float(np.real(np.vdot(x, x)))
    if nrm2 <= 0.0:
        raise ValueError("Rayleigh quotient is undefined for the zero vector")
    return float(np.real(np.vdot(x, setting.gram @ x)) / nrm2)


def embedding(setting: GramSetting) -> np.ndarray:
    """Upper-triangular V with positive real diagonal and V^dag V = G.

    Column k of V is the coordinate vector of basis state k in an
    orthonormal frame (Cholesky convention).
    """
    try:
        L = np.linalg.cholesky(setting.gram)
    except np.linalg.LinAlgError as exc:
        raise ValueError("setting is not positive definite (dependent basis)") from exc
    return L.conj().T


def reorient_embedding(V: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Rotate the orthonormal frame by a unitary U; the Gram matrix
    (U V)^dag (U V) is unchanged."""
    U = np.asarray(U, dtype=complex)
    eye = np.eye(U.shape[0])
    if np.linalg.norm(U.conj().T @ U - eye) > UNITARY_TOL:
        raise ValueError("frame rotation must be unitary")
    return U @ np.asarray(V, dtype=complex)


def setting_to_json(setting: GramSetting) -> dict:
    """Serialize as {"d": ..., "overlaps": [{"i", "j", "re", "im"}, ...]}."""
    return {
        "d": setting.d,
        "overlaps": [
            {"i": i, "j": j, "re": float(np.real(s)), "im": float(np.imag(s))}
            for i, j, s in setting.overlaps
        ],
    }


def setting_from_json(obj: dict) -> GramSetting:
    """Inverse of ``setting_to_json``; omitted pairs are zero."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError("setting JSON must be an object with a 'd' field")
    pairs = []
    for entry in obj.get("overlaps", []):
        try:
            i, j = int(entry["i"]), int(entry["j"])
            s = complex(float(entry.get("re", 0.0)), float(entry.get("im", 0.0)))
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed overlap entry: {entry!r}") from exc
        pairs.append((i, j, s))
    return build_setting(int(obj["d"]), pairs)
