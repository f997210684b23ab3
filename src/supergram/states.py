"""Superposition states as coefficient vectors over a nonorthogonal basis.

All geometry is weighted by the Gram matrix of the setting: inner products
are phi^dag G psi, normalization means psi^dag G psi = 1, and density
operators live in the orthonormal embedding frame V with V^dag V = G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gram import DENSITY_TOL, NORM_TOL, NORMALIZED_INPUT_TOL, ZERO_TOL
from .gram import GramSetting, _json_number, embedding, fix_phase, same_setting

__all__ = [
    "DensityOperator",
    "SuperpositionState",
    "density_mixed",
    "density_pure",
    "inner",
    "normalize",
    "state_from_json",
    "state_to_json",
    "superposition_rank",
    "tilde",
]


@dataclass(frozen=True, eq=False)
class SuperpositionState:
    """Coefficient vector of a normalized pure state, tied to its setting."""

    coeffs: np.ndarray
    setting: GramSetting

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.shape != (self.setting.d,):
            raise ValueError(f"expected {self.setting.d} coefficients, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        n2 = np.real(np.vdot(coeffs, self.setting.gram @ coeffs))
        if not abs(n2 - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: psi^dag G psi = {n2}")
        object.__setattr__(self, "coeffs", coeffs)
        self.coeffs.setflags(write=False)


def normalize(psi_raw, setting: GramSetting) -> SuperpositionState:
    """Scale a raw coefficient vector to psi^dag G psi = 1 and fix its
    global phase (first sizable component real positive)."""
    v = np.asarray(psi_raw, dtype=complex)
    if v.shape != (setting.d,):
        raise ValueError(f"expected {setting.d} coefficients, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("coefficients must be finite")
    n2 = float(np.real(np.vdot(v, setting.gram @ v)))
    if not n2 > ZERO_TOL**2:
        raise ValueError("cannot normalize a (numerically) zero vector")
    return SuperpositionState(fix_phase(v / np.sqrt(n2)), setting)


def inner(phi: SuperpositionState, psi: SuperpositionState) -> complex:
    """Hilbert-space inner product <phi|psi> = phi^dag G psi."""
    if not same_setting(phi.setting, psi.setting):
        raise ValueError("states belong to different inner-product settings")
    return complex(phi.coeffs.conj() @ (phi.setting.gram @ psi.coeffs))


def tilde(psi: SuperpositionState) -> np.ndarray:
    """The vector diag(psi*) G psi, whose components sum to 1 for a
    normalized state.  For G = identity it reduces to |psi_k|^2."""
    return psi.coeffs.conj() * (psi.setting.gram @ psi.coeffs)


def superposition_rank(psi: SuperpositionState) -> int:
    """Number of coefficients with modulus above ``ZERO_TOL``."""
    return int(np.count_nonzero(np.abs(psi.coeffs) > ZERO_TOL))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Density matrix in the orthonormal embedding frame of a setting."""

    matrix: np.ndarray
    setting: GramSetting

    def __post_init__(self):
        rho = np.array(self.matrix, dtype=complex)
        d = self.setting.d
        if rho.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValueError("density matrix entries must be finite")
        if not np.linalg.norm(rho - rho.conj().T) <= DENSITY_TOL:
            raise ValueError("density matrix is not Hermitian")
        tr = float(np.real(np.trace(rho)))
        if abs(tr - 1.0) > DENSITY_TOL:
            raise ValueError(f"density matrix has trace {tr}, expected 1")
        if float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]) < -DENSITY_TOL:
            raise ValueError("density matrix is not positive semidefinite")
        object.__setattr__(self, "matrix", rho)
        self.matrix.setflags(write=False)

    def coefficient_matrix(self) -> np.ndarray:
        """Basis-bilinear coefficients: the matrix C with rho = V C V^dag.

        Well posed because the embedding V is invertible for a linearly
        independent basis.
        """
        V = embedding(self.setting)
        B = np.linalg.solve(V, self.matrix)
        return np.linalg.solve(V, B.conj().T).conj().T


def density_pure(psi: SuperpositionState) -> DensityOperator:
    """Projector |psi><psi| in the embedding frame."""
    w = embedding(psi.setting) @ psi.coeffs
    return DensityOperator(np.outer(w, w.conj()), psi.setting)


def density_mixed(states, weights) -> DensityOperator:
    """Convex mixture sum_i p_i |psi_i><psi_i| in the embedding frame."""
    states = list(states)
    weights = np.asarray(weights, dtype=float)
    if len(states) == 0 or weights.shape != (len(states),):
        raise ValueError("need one weight per state")
    if np.any(weights < -ZERO_TOL):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > DENSITY_TOL:
        raise ValueError(f"weights sum to {weights.sum()}, expected 1")
    setting = states[0].setting
    V = embedding(setting)
    rho = np.zeros((setting.d, setting.d), dtype=complex)
    for p, st in zip(weights, states):
        if not same_setting(st.setting, setting):
            raise ValueError("all states in a mixture must share one setting")
        w = V @ st.coeffs
        rho += p * np.outer(w, w.conj())
    return DensityOperator(rho, setting)


def state_to_json(psi: SuperpositionState) -> dict:
    return {
        "coeffs": [{"re": float(c.real), "im": float(c.imag)} for c in psi.coeffs],
        "normalized": True,
    }


def state_from_json(obj: dict, setting: GramSetting) -> SuperpositionState:
    """Load a state from {"coeffs": [{"re", "im"}, ...]}.

    ``re`` and ``im`` must be JSON numbers.  Coefficients are normalized on
    load unless the object asserts "normalized": true, in which case
    normalization is verified instead (within ``NORMALIZED_INPUT_TOL``) and
    the coefficients are kept as given.
    """
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ValueError("state JSON must be an object with a 'coeffs' field")
    try:
        v = np.array(
            [complex(_json_number(c.get("re", 0.0)), _json_number(c.get("im", 0.0))) for c in obj["coeffs"]],
            dtype=complex,
        )
    except (TypeError, AttributeError, ValueError) as exc:
        raise ValueError("malformed coefficient entries") from exc
    if len(v) != setting.d:
        raise ValueError(f"expected {setting.d} coefficients, got {len(v)}")
    if obj.get("normalized", False):
        if not np.isfinite(v).all():
            raise ValueError("coefficients must be finite")
        n2 = float(np.real(np.vdot(v, setting.gram @ v)))
        if abs(n2 - 1.0) > NORMALIZED_INPUT_TOL:
            raise ValueError(f"state asserted normalized but psi^dag G psi = {n2}")
        return SuperpositionState(v, setting)
    return normalize(v, setting)
