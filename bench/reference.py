"""Closed-form golden-existence predicate, independent of ``supergram.golden``.

A setting admits a golden state exactly when its Gram matrix has the form

    G = (1 - c) I + c u u^dag,   |u_i| = 1,   c in (-1/(d-1), 0],

and then the golden state has phases u, the minimal eigenvalue is
lambda_min = 1 + c (d - 1), and its l1 monotone is (d - 1) / lambda_min.
The check costs O(d^2) and uses no eigensolver and no search, so it can
judge the library's verdicts without sharing any of their code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# entrywise tolerance on the fitted form; the benchmark's settings are
# exact to rounding, far inside it, and its rejected settings far outside
FORM_TOL = 1e-9


@dataclass(frozen=True)
class GoldenForm:
    """The fitted rank-one form of a golden-admitting Gram matrix."""

    c: float
    phases: np.ndarray

    @property
    def d(self) -> int:
        return len(self.phases)

    @property
    def lambda_min(self) -> float:
        return 1.0 + self.c * (self.d - 1)

    @property
    def l1_bound(self) -> float:
        return (self.d - 1) / self.lambda_min

    @property
    def rel_entropy_bound(self) -> float:
        return float(np.log(self.d / self.lambda_min))


def embedded_projector(gram, coeffs) -> np.ndarray:
    """|phi><phi| in the Cholesky frame V (upper triangular, positive
    diagonal, V^dag V = G), the unique frame density operators use."""
    V = np.linalg.cholesky(np.asarray(gram, dtype=complex)).conj().T
    w = V @ np.asarray(coeffs, dtype=complex)
    return np.outer(w, w.conj())


def golden_form(gram) -> GoldenForm | None:
    """Fit G = (1 - c) I + c u u^dag; return the form, or None when the
    setting admits no golden state."""
    G = np.asarray(gram, dtype=complex)
    d = G.shape[0]
    off = ~np.eye(d, dtype=bool)
    c = -float(np.mean(np.abs(G[off])))
    if c < -FORM_TOL:
        u = np.conj(G[0, :] / c)
        u[0] = 1.0
        if np.max(np.abs(np.abs(u) - 1.0)) > FORM_TOL:
            return None
        u = u / np.abs(u)
    else:
        c, u = 0.0, np.ones(d, dtype=complex)
    model = (1.0 - c) * np.eye(d) + c * np.outer(u, u.conj())
    if np.max(np.abs(G - model)) > FORM_TOL:
        return None
    if not (-1.0 / (d - 1) < c <= 0.0):
        return None
    return GoldenForm(c=c, phases=u)
