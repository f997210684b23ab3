"""Seeded random settings and states for sweeps, verification and demos."""

from __future__ import annotations

import numpy as np

from .gram import GramSetting, build_setting, eigensystem
from .states import SuperpositionState, normalize

__all__ = ["golden_setting", "random_setting", "random_state"]


def golden_setting(d: int, c: float, phases) -> GramSetting:
    """The golden form G = (1 - c) I + c u u^dag with u_k = exp(i phases_k).

    Every such setting with c in (-1/(d-1), 0] admits a golden state,
    u / sqrt(d (1 + (d-1) c)), at any dimension ``d``.
    """
    if d < 2 or not -1.0 / (d - 1) < c <= 0.0:
        raise ValueError(f"the golden form needs d >= 2 and c in (-1/(d-1), 0], got d = {d}, c = {c}")
    u = np.exp(1j * np.asarray(phases, dtype=float))
    if u.shape != (d,):
        raise ValueError(f"need one phase per basis state, got shape {u.shape}")
    G = (1.0 - c) * np.eye(d) + c * np.outer(u, u.conj())
    return build_setting(d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)])


def random_setting(
    d: int,
    rng: np.random.Generator,
    min_eigenvalue: float = 1e-3,
    min_gap: float = 0.0,
) -> GramSetting:
    """A random valid setting, built as G = W^dag W from unit columns.

    ``min_eigenvalue`` keeps the basis comfortably independent; a positive
    ``min_gap`` (relative to lambda_max) additionally forces a
    nondegenerate spectrum.  Raises on bounds no setting meets: lambda_min
    is at most tr G / d = 1, and the smallest of the d - 1 gaps is below
    lambda_max / (d - 1).
    """
    if min_eigenvalue >= 1.0:
        raise ValueError(f"min_eigenvalue must be below 1, got {min_eigenvalue}")
    if min_gap * (d - 1) >= 1.0:
        raise ValueError(f"min_gap must be below 1/(d-1) = {1.0 / (d - 1)}, got {min_gap}")
    while True:
        W = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        W /= np.linalg.norm(W, axis=0, keepdims=True)
        G = W.conj().T @ W
        setting = build_setting(
            d, [(i + 1, j + 1, G[i, j]) for i in range(d) for j in range(i + 1, d)]
        )
        es = eigensystem(setting)
        if es.lambda_min <= min_eigenvalue:
            continue
        if min_gap > 0.0:
            gaps = np.diff(es.eigenvalues)
            if np.min(gaps) <= min_gap * es.lambda_max:
                continue
        return setting


def random_state(
    setting: GramSetting,
    rng: np.random.Generator,
    full_rank: bool = False,
) -> SuperpositionState:
    """A random normalized state; with ``full_rank`` every coefficient
    modulus is at least 0.05 of the largest (required of conversion targets)."""
    while True:
        v = rng.standard_normal(setting.d) + 1j * rng.standard_normal(setting.d)
        psi = normalize(v, setting)
        if not full_rank:
            return psi
        mods = np.abs(psi.coeffs)
        if mods.min() >= 0.05 * mods.max():
            return psi
