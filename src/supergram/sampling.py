"""Seeded random settings and states for sweeps, verification and demos:
random generators only (the golden form is ``golden.golden_setting``)."""

from __future__ import annotations

import numpy as np

from .gram import GramSetting, eigensystem
from .states import SuperpositionState, normalize

__all__ = ["random_setting", "random_state"]


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
        setting = GramSetting(W.conj().T @ W)
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
