"""Superposition-free Kraus operators in the matrix picture.

A Kraus matrix acting on coefficient vectors is free when every column has
at most one nonzero entry.  Two families realize golden-state conversions:

* S1 operators, one per permutation sigma, carry the transformation,
  K[sigma(j), j] = sqrt(1/d!) r[sigma(j), j] with r_ij = phi_i / psi_j, so
  each maps the initial coefficient vector to sqrt(1/d!) times the target.
* S2 operators, one nonzero row each, annihilate the initial state and
  complete the channel: writing R = G - sum K^dag G K, an
  eigendecomposition R = sum_m w_m w_m^dag yields single-row operators
  with row m equal to conj(w_m), contributing exactly w_m w_m^dag because
  the Gram diagonal is one.

The d! S1 operators are never needed one by one to build or apply the
channel.  Of the d! orderings sigma, (d-1)! send column j to row i, and
(d-2)! send the pair of columns (j, k), j != k, to the pair of rows
(i, l), i != l.  Weighting each by 1/d! gives the two sums in closed form:

* completeness, sum K^dag G K: diagonal sum_i |r_ij|^2 / d, off-diagonal
  part r^dag (G - I) r / (d (d-1));
* action, sum K C K^dag: diagonal |r|^2 diag(C) / d, off-diagonal part
  r (C - diag C) r^dag / (d (d-1)).

Building and applying the S1 family therefore costs O(d^3) in time and
O(d^2) in memory at every d; the at most d S2 operators stay explicit
matrices.

The whole set is trace preserving precisely when R is positive
semidefinite and annihilates the initial vector; the certificate records
both margins together with the Frobenius completeness residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gram import ANNIHILATION_TOL, DENSITY_TOL, FREE_ENTRY_TOL, FROBENIUS_TOL, PSD_TOL
from .gram import S2_EIG_TOL, ZERO_TOL
from .gram import GramSetting, embedding, same_setting
from .states import DensityOperator, SuperpositionState, density_pure

__all__ = [
    "ChannelCertificate",
    "FreeKraus",
    "KrausSet",
    "ResidualReport",
    "apply_map",
    "apply_mixed",
    "build_kraus_set",
    "build_s2",
    "is_free_kraus",
    "residual",
]


@dataclass(frozen=True, eq=False)
class FreeKraus:
    """One free Kraus matrix; ``kind`` is "s2" or "general"."""

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.array(self.matrix, dtype=complex))
        self.matrix.setflags(write=False)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "matrix": [
                [{"re": float(z.real), "im": float(z.imag)} for z in row]
                for row in self.matrix
            ],
        }


def is_free_kraus(M: np.ndarray) -> bool:
    """True when no column of M has two entries above ``FREE_ENTRY_TOL``."""
    M = np.asarray(M)
    return bool(np.all(np.count_nonzero(np.abs(M) > FREE_ENTRY_TOL, axis=0) <= 1))


def _ratios(psi: SuperpositionState, phi: SuperpositionState) -> np.ndarray:
    """The ratio matrix r_ij = phi_i / psi_j behind the S1 family."""
    if not same_setting(psi.setting, phi.setting):
        raise ValueError("initial and target state must share one setting")
    if np.min(np.abs(psi.coeffs)) <= ZERO_TOL:
        raise ValueError("initial state must have full superposition rank (no zero coefficient)")
    return phi.coeffs[:, None] / psi.coeffs[None, :]


def _s1_completeness(G: np.ndarray, r: np.ndarray) -> np.ndarray:
    """sum K^dag G K over the S1 family of ratio matrix r, in closed form."""
    d = len(r)
    total = r.conj().T @ (G - np.eye(d)) @ r / (d * (d - 1))
    np.fill_diagonal(total, np.sum(np.abs(r) ** 2, axis=0) / d)
    return total


def _s1_action(r: np.ndarray, C: np.ndarray) -> np.ndarray:
    """sum K C K^dag over the S1 family of ratio matrix r, in closed form."""
    d = len(r)
    diag = np.diag(C)
    out = r @ (C - np.diag(diag)) @ r.conj().T / (d * (d - 1))
    np.fill_diagonal(out, np.abs(r) ** 2 @ diag / d)
    return out


@dataclass(frozen=True, eq=False)
class ResidualReport:
    """The residual R = G - sum K^dag G K and its certificate margins."""

    matrix: np.ndarray
    psd_margin: float
    annihilation: float
    diagonally_dominant: bool

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.array(self.matrix))
        self.matrix.setflags(write=False)


def residual(setting: GramSetting, ksum: np.ndarray, psi: SuperpositionState) -> ResidualReport:
    """Certificate data for R = G - ksum against the initial state psi.

    ``psd_margin`` is the smallest eigenvalue of the Hermitian part of R;
    ``annihilation`` is |R psi|.  Diagonal dominance, when it holds, is an
    independent witness of positive semidefiniteness.
    """
    R = setting.gram - np.asarray(ksum, dtype=complex)
    H = (R + R.conj().T) / 2.0
    margin = float(np.linalg.eigvalsh(H)[0])
    ann = float(np.linalg.norm(R @ psi.coeffs))
    absR = np.abs(R)
    off = absR.sum(axis=1) - np.diag(absR)
    dom = bool(np.all(np.real(np.diag(R)) >= -ZERO_TOL) and np.all(np.diag(absR) + ZERO_TOL >= off))
    return ResidualReport(matrix=R, psd_margin=margin, annihilation=ann, diagonally_dominant=dom)


def build_s2(R: np.ndarray, psi: SuperpositionState) -> list[FreeKraus]:
    """Single-row operators decomposing a PSD residual that kills psi.

    Eigenvectors of R with eigenvalue above ``S2_EIG_TOL``, scaled to w_m, become
    operators whose only nonzero row is conj(w_m); each contributes
    w_m w_m^dag to the completeness sum and annihilates psi.  Raises unless
    R is PSD within ``PSD_TOL`` and |R psi| is within ``ANNIHILATION_TOL``.
    """
    R = np.asarray(R, dtype=complex)
    H = (R + R.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(H)
    if float(evals[0]) < -PSD_TOL:
        raise ValueError(f"residual is not positive semidefinite (min eigenvalue {evals[0]})")
    ann = float(np.linalg.norm(R @ psi.coeffs))
    if ann > ANNIHILATION_TOL:
        raise ValueError(f"residual does not annihilate the initial state (|R psi| = {ann})")
    d = psi.setting.d
    ops = []
    row = 0
    for lam, vec in zip(evals, evecs.T):
        if lam <= S2_EIG_TOL:
            continue
        w = math.sqrt(float(lam)) * vec
        F = np.zeros((d, d), dtype=complex)
        F[row, :] = w.conj()
        ops.append(FreeKraus(F, "s2"))
        row += 1
    return ops


@dataclass(frozen=True)
class ChannelCertificate:
    """Full evidence bundle for one constructed channel."""

    n_s1: int
    n_s2: int
    frobenius_residual: float
    psd_margin: float
    annihilation: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "n_s1": self.n_s1,
            "n_s2": self.n_s2,
            "frobenius_residual": self.frobenius_residual,
            "psd_margin": self.psd_margin,
            "annihilation": self.annihilation,
            "pass": self.passed,
        }


@dataclass(frozen=True, eq=False)
class KrausSet:
    """A certified superposition-free channel taking ``source`` to
    ``target`` with uniform branch probability 1/d!.

    The S1 family is held only as its ratio matrix r_ij = phi_i / psi_j:
    the operator of permutation sigma has entry sqrt(probability)
    r[sigma(j), j] at (sigma(j), j) and zeros elsewhere.
    """

    setting: GramSetting
    ratios: np.ndarray
    s2: tuple
    probability: float
    source: SuperpositionState
    target: SuperpositionState
    certificate: ChannelCertificate
    full_rank_target: bool

    def __post_init__(self):
        object.__setattr__(self, "ratios", np.array(self.ratios))
        self.ratios.setflags(write=False)


def build_kraus_set(psi: SuperpositionState, phi: SuperpositionState) -> KrausSet:
    """Build and certify the full S1 + S2 channel for psi -> phi.

    Raises when the residual left by the S1 family is not a valid S2
    decomposition problem (not PSD, or not annihilating psi), which is the
    numerical signature that psi is not a golden state of its setting.
    """
    setting = psi.setting
    r = _ratios(psi, phi)
    ksum = _s1_completeness(setting.gram, r)
    res = residual(setting, ksum, psi)
    s2 = build_s2(res.matrix, psi)
    for op in s2:
        ksum += op.matrix.conj().T @ setting.gram @ op.matrix
    frobenius = float(np.linalg.norm(ksum - setting.gram))
    cert = ChannelCertificate(
        n_s1=math.factorial(setting.d),
        n_s2=len(s2),
        frobenius_residual=frobenius,
        psd_margin=res.psd_margin,
        annihilation=res.annihilation,
        passed=bool(
            frobenius <= FROBENIUS_TOL
            and res.psd_margin >= -PSD_TOL
            and res.annihilation <= ANNIHILATION_TOL
        ),
    )
    full_rank = bool(np.min(np.abs(phi.coeffs)) > ZERO_TOL)
    return KrausSet(
        setting=setting,
        ratios=r,
        s2=tuple(s2),
        probability=1.0 / math.factorial(setting.d),
        source=psi,
        target=phi,
        certificate=cert,
        full_rank_target=full_rank,
    )


def apply_map(kraus_set: KrausSet, rho: DensityOperator) -> DensityOperator:
    """Apply the channel to a density operator in the embedding frame."""
    if not kraus_set.certificate.passed:
        raise ValueError("refusing to apply a channel whose certificate failed")
    if not same_setting(kraus_set.setting, rho.setting):
        raise ValueError("channel and state belong to different settings")
    V = embedding(kraus_set.setting)
    C = rho.coefficient_matrix()
    out = _s1_action(kraus_set.ratios, C)
    for op in kraus_set.s2:
        out += op.matrix @ C @ op.matrix.conj().T
    return DensityOperator(V @ out @ V.conj().T, kraus_set.setting)


def apply_mixed(psi: SuperpositionState, targets, weights) -> DensityOperator:
    """Convex combination of golden-state conversions: channels psi ->
    phi_i applied to |psi><psi| and mixed with the given weights."""
    targets = list(targets)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(targets),):
        raise ValueError("need one weight per target")
    if np.any(weights < -ZERO_TOL) or abs(weights.sum() - 1.0) > DENSITY_TOL:
        raise ValueError("weights must be a probability vector")
    rho = density_pure(psi)
    total = np.zeros((psi.setting.d, psi.setting.d), dtype=complex)
    for p, phi in zip(weights, targets):
        out = apply_map(build_kraus_set(psi, phi), rho)
        total += p * out.matrix
    return DensityOperator(total, psi.setting)
