"""Inner-product settings of nonorthogonal bases, stored as Gram matrices.

The Gram matrix of ``d`` normalized, linearly independent basis states is
the Hermitian, unit-diagonal, positive-definite matrix of their pairwise
overlaps.  Everything downstream (state geometry, maximal-state detection,
free-operation certificates) consumes the spectral data assembled here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
    "same_setting",
    "setting_from_json",
    "setting_to_json",
    "validate",
]

# Tolerance table: every threshold that decides a verdict, raises an error
# or sets a report flag, one name per decision.  Absolute except
# DEGENERACY_REL_TOL, which scales with the largest eigenvalue.
ZERO_TOL = 1e-12  # a modulus, norm, asymmetry or negative weight counts as zero
MIN_EIG_TOL = 1e-12  # Gram eigenvalues at or below count as linear dependence
DEGENERACY_REL_TOL = 1e-9  # closer eigenvalues share a degeneracy group
UNITARY_TOL = 1e-10  # |U^dag U - I| of a d = 3 family frame
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
GAP_TOL = 1e-10  # duality gap, value minus minimum at most, of a converged solve
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
    """An inner-product setting: the Gram matrix G_ij = <c_i|c_j> of d >= 2
    normalized basis states, finite, Hermitian and unit-diagonal within
    ``ZERO_TOL``, with off-diagonal moduli below 1.  Stored read-only as its
    upper triangle mirrored onto the lower one, with an exact unit diagonal.
    Positive definiteness is not checked here; ``validate`` reports it.
    """

    gram: np.ndarray
    d: int = field(init=False)

    def __post_init__(self):
        G = np.array(self.gram, dtype=complex)
        if G.ndim != 2 or G.shape[0] != G.shape[1] or G.shape[0] < 2:
            raise ValueError(f"a Gram matrix must be square with d >= 2, got shape {G.shape}")
        # one pass over Python scalars, cheaper than numpy calls at a basis's small d
        rows, asymmetry = G.tolist(), 0.0  # asymmetry = |G - G^dag|_F^2
        for i, row in enumerate(rows):
            if not abs(row[i] - 1.0) <= ZERO_TOL:
                raise ValueError(f"Gram matrix diagonal is not 1: G_{i + 1}{i + 1} = {row[i]}")
            asymmetry += (2.0 * row[i].imag) ** 2
            row[i] = 1.0
            for j in range(i + 1, len(rows)):
                s = row[j]
                if not abs(s) < 1.0:  # NaN fails too
                    raise ValueError(f"|overlap| must be < 1 for normalized states, "
                                     f"got |s_{i + 1}{j + 1}| = {abs(s)}")
                asymmetry += 2.0 * abs(s - rows[j][i].conjugate()) ** 2
                rows[j][i] = s.conjugate()
        if not asymmetry <= ZERO_TOL**2:  # a NaN or an infinity below the diagonal fails here
            raise ValueError("Gram matrix is not Hermitian")
        gram = np.array(rows, dtype=complex)
        gram.setflags(write=False)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "d", len(rows))

    def overlap(self, i: int, j: int) -> complex:
        """Overlap of basis states ``i`` and ``j`` (1-based)."""
        return complex(self.gram[i - 1, j - 1])


def same_setting(a: GramSetting, b: GramSetting) -> bool:
    return a is b or np.array_equal(a.gram, b.gram)


def _integer(x):
    """``x`` as an int if it is an integral number (3 or 3.0), else None."""
    try:
        return int(x) if int(x) == x else None
    except (TypeError, ValueError, OverflowError):
        return None


def build_setting(d: int, overlaps) -> GramSetting:
    """Assemble a GramSetting from pairwise overlaps.

    Parameters
    ----------
    d : dimension, an integer of at least 2.
    overlaps : iterable of ``(i, j, value)``, integer 1-based ``i < j``,
        each pair at most once.  Missing pairs default to overlap zero.

    ``GramSetting`` checks the values and ``validate`` the dependence.
    """
    n = _integer(d)
    if n is None or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {d!r}")
    gram = np.eye(n, dtype=complex)
    seen = set()
    for i, j, s in overlaps:
        a, b = _integer(i), _integer(j)
        if a is None or b is None or not 1 <= a < b <= n:
            raise ValueError(f"overlap indices must be integers with 1 <= i < j <= d, got ({i!r}, {j!r})")
        if (a, b) in seen:
            raise ValueError(f"duplicate overlap pair ({a}, {b})")
        seen.add((a, b))
        s = complex(s)
        gram[a - 1, b - 1], gram[b - 1, a - 1] = s, s.conjugate()
    return GramSetting(gram)


@dataclass(frozen=True)
class ValidationReport:
    """Linear independence of a setting's basis.  ``linearly_independent``
    is the verdict; the other fields say how close it came."""

    min_eigenvalue: float
    linearly_independent: bool
    condition_number: float

    def to_json(self) -> dict:
        return asdict(self)


def validate(setting: GramSetting) -> ValidationReport:
    """Check linear independence of the basis, which is exactly positive
    definiteness of the Gram matrix: the smallest eigenvalue exceeds
    ``MIN_EIG_TOL``.  ``GramSetting`` guarantees the rest.
    """
    evals = np.linalg.eigvalsh(setting.gram)
    lam_min = float(evals[0])
    return ValidationReport(
        min_eigenvalue=lam_min,
        linearly_independent=bool(lam_min > MIN_EIG_TOL),
        condition_number=float(evals[-1] / lam_min) if lam_min > 0 else float("inf"),
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


def setting_to_json(setting: GramSetting) -> dict:
    """Serialize as {"d": ..., "overlaps": [{"i", "j", "re", "im"}, ...]}:
    the nonzero pairs of the upper triangle, 1-based, in row-major order."""
    return {
        "d": setting.d,
        "overlaps": [
            {"i": i + 1, "j": j + 1, "re": float(s.real), "im": float(s.imag)}
            for (i, j), s in np.ndenumerate(np.triu(setting.gram, 1)) if s != 0
        ],
    }


# largest d a setting file may ask for: beyond it the d x d Gram matrix,
# its eigensolve and the d^2 overlap loop stop being a reasonable request
MAX_JSON_DIM = 1000


def _json_number(x) -> float:
    """``x`` as a float if it is a JSON number; strings, booleans and
    other values raise ``ValueError``, as non-integral indices do."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"expected a number, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise ValueError(f"number out of range: {x!r}") from exc


def setting_from_json(obj: dict) -> GramSetting:
    """Inverse of ``setting_to_json``; omitted pairs are zero.  ``re`` and
    ``im`` must be JSON numbers, and ``d`` at most ``MAX_JSON_DIM``."""
    if not isinstance(obj, dict) or "d" not in obj:
        raise ValueError("setting JSON must be an object with a 'd' field")
    d = _integer(obj["d"])
    if d is not None and d > MAX_JSON_DIM:
        raise ValueError(f"dimension must be at most {MAX_JSON_DIM}, got {d}")
    entries = obj.get("overlaps", [])
    if not isinstance(entries, list):
        raise ValueError(f"'overlaps' must be a list, got {entries!r}")
    pairs = []
    for entry in entries:
        try:
            s = complex(_json_number(entry.get("re", 0.0)), _json_number(entry.get("im", 0.0)))
            pairs.append((entry["i"], entry["j"], s))
        except (AttributeError, KeyError, ValueError) as exc:
            raise ValueError(f"malformed overlap entry: {entry!r}") from exc
    return build_setting(obj["d"], pairs)
