"""Independent brute-force oracles used to cross-check the library.

Nothing here may import anything but numpy, or call numpy's eigensolvers
or itertools.permutations: extreme eigenvalues come from power iteration,
permutations from the classic lexicographic successor algorithm, the d!
free Kraus operators of a golden-state channel from those permutations one
by one, the degenerate-eigenspace deviation from a zooming dense grid, and
the qubit relative-entropy monotone from closed-form 2x2 logarithms and a
golden-section search.  Golden existence is checked from the
phase-invariant 3-cycle data of the Gram matrix, with no fit.
"""

from __future__ import annotations

import numpy as np


def power_extreme_eigs(G: np.ndarray, seed: int = 0, max_iter: int = 500000, tol: float = 1e-13):
    """Extreme eigenvalues of a Hermitian PSD matrix by power iteration.

    The largest eigenvalue comes from iterating G itself; the smallest
    from iterating (shift I - G) with a Gershgorin upper bound as shift.
    Returns (lam_min, lam_max, v_min, v_max).
    """
    G = np.asarray(G, dtype=complex)
    d = G.shape[0]
    rng = np.random.default_rng(seed)

    def iterate(M):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iter):
            w = M @ v
            nrm = np.linalg.norm(w)
            if nrm == 0.0:
                return 0.0, v
            v_new = w / nrm
            lam = float(np.real(np.vdot(v_new, M @ v_new)))
            if np.linalg.norm(M @ v_new - lam * v_new) < tol:
                return lam, v_new
            v = v_new
        return lam, v

    lam_max, v_max = iterate(G)
    shift = float(np.max(np.sum(np.abs(G), axis=1)))
    mu, v_min = iterate(shift * np.eye(d) - G)
    return shift - mu, lam_max, v_min, v_max


def lex_permutations(n: int):
    """All permutations of range(n) in lexicographic order, produced by the
    textbook successor algorithm (no library enumeration)."""
    a = list(range(n))
    yield tuple(a)
    while True:
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        l = n - 1
        while a[j] >= a[l]:
            l -= 1
        a[j], a[l] = a[l], a[j]
        a[j + 1:] = a[len(a) - 1: j: -1]
        yield tuple(a)


def s1_operators(psi_coeffs, phi_coeffs):
    """The d! permutation operators converting psi to phi, as matrices.

    The n-th operator, for the n-th lexicographic permutation sigma, holds
    sqrt(1/d!) phi_{sigma(j)} / psi_j at (sigma(j), j) and zeros elsewhere,
    so each maps psi to sqrt(1/d!) phi.
    """
    psi = np.asarray(psi_coeffs, dtype=complex)
    phi = np.asarray(phi_coeffs, dtype=complex)
    d = len(psi)
    perms = list(lex_permutations(d))
    scale = np.sqrt(1.0 / len(perms))
    ops = []
    for sigma in perms:
        K = np.zeros((d, d), dtype=complex)
        for j in range(d):
            K[sigma[j], j] = scale * phi[sigma[j]] / psi[j]
        ops.append(K)
    return ops


def kraus_sum(G, ops):
    """The completeness matrix sum_n K_n^dag G K_n, one operator at a time."""
    G = np.asarray(G, dtype=complex)
    total = np.zeros_like(G)
    for K in ops:
        K = np.asarray(K, dtype=complex)
        total += K.conj().T @ G @ K
    return total


def _grid_deviation(setting, X, lam, alphas, betas):
    """Combined goldenness deviation on an (alpha, beta) grid of the
    two-dimensional eigenspace chart a = (cos a, sin a e^{i b})."""
    G = setting.gram
    d = setting.d
    A, B = np.meshgrid(alphas, betas, indexing="ij")
    a1 = np.cos(A).ravel()
    a2 = (np.sin(A) * np.exp(1j * B)).ravel()
    V = X[:, [0]] * a1[None, :] + X[:, [1]] * a2[None, :]
    n2 = np.real(np.einsum("in,in->n", V.conj(), G @ V))
    psi = V / np.sqrt(n2)[None, :]
    t = psi.conj() * (G @ psi)
    dev = np.max(np.abs(t - 1.0 / d), axis=0)
    mods = np.abs(psi)
    safe = np.where(mods > 1e-12, mods, 1.0)
    u = np.where(mods > 1e-12, psi / safe, 1.0)
    c = (lam - 1.0) / (d - 1)
    for i in range(d):
        for l in range(d):
            if i == l:
                continue
            dev = np.maximum(dev, np.abs(G[i, l] - c * u[i] * u[l].conj()))
    return dev.reshape(A.shape)


def grid_min_deviation(setting, X, lam, levels: int = 7, n: int = 121):
    """Global minimum of the goldenness deviation over a two-dimensional
    degenerate eigenspace by iterative grid refinement."""
    assert X.shape[1] == 2, "grid oracle covers multiplicity-2 eigenspaces"
    alo, ahi = 0.0, np.pi / 2
    blo, bhi = 0.0, 2 * np.pi
    best = np.inf
    for level in range(levels):
        alphas = np.linspace(alo, ahi, n)
        betas = np.linspace(blo, bhi, n)
        dev = _grid_deviation(setting, X, lam, alphas, betas)
        k = int(np.argmin(dev))
        i, j = divmod(k, n)
        best = min(best, float(dev[i, j]))
        da = (ahi - alo) / (n - 1)
        db = (bhi - blo) / (n - 1)
        alo, ahi = alphas[i] - 2 * da, alphas[i] + 2 * da
        blo, bhi = betas[j] - 2 * db, betas[j] + 2 * db
    return best


def spectral_golden_gram(lam1, phases):
    """mu I + (lam1 - mu) x x^dag with x_k = exp(i phases_k) / sqrt(d) and
    mu = (d - lam1) / (d - 1): the unit-diagonal matrix with spectrum
    {lam1, mu x (d - 1)} and that lam1-eigenvector."""
    x = np.exp(1j * np.asarray(phases, dtype=float)) / np.sqrt(len(phases))
    mu = (len(x) - lam1) / (len(x) - 1)
    return mu * np.eye(len(x)) + (lam1 - mu) * np.outer(x, x.conj())


def bargmann_golden(G, tol):
    """Whether G admits a golden state, from gauge-invariant data alone.

    G is golden exactly when every off-diagonal modulus equals one
    s < 1/(d - 1) and every 3-cycle Bargmann invariant G_ij G_jk G_ki,
    i < j < k, equals -s^3 (V. Bargmann, J. Math. Phys. 5, 862, 1964):
    then u_j = -conj(G_1j) / s gives G_ij = -s u_i conj(u_j).  Moduli must
    lie within tol of their mean s, and the invariants are compared in
    distance units, |G_ij G_jk G_ki + s^3| <= tol s^2, so that overlaps
    far below tol are still seen.
    """
    G = np.asarray(G, dtype=complex)
    d = G.shape[0]
    mods = np.abs(G[~np.eye(d, dtype=bool)])
    s = float(np.mean(mods))
    if np.max(np.abs(mods - s)) > tol or not s < 1.0 / (d - 1):
        return False
    i, j, k = np.ogrid[:d, :d, :d]
    cycles = G[:, :, None] * G[None, :, :] * G.T[:, None, :]
    return bool(np.all(np.abs(cycles[(i < j) & (j < k)] + s**3) <= tol * s**2))


def _log_2x2(H):
    """Eigenvalues and logarithm of a 2x2 Hermitian positive definite matrix
    from its trace and determinant: ln H = a I + b (H - m I) with
    m = tr H / 2, a = (ln l+ + ln l-) / 2 and b = (ln l+ - ln l-) / (2 r)."""
    m = float(np.real(H[0, 0] + H[1, 1])) / 2.0
    r = float(np.hypot(np.real(H[0, 0] - H[1, 1]) / 2.0, abs(H[0, 1])))
    det = float(np.real(H[0, 0] * H[1, 1]) - abs(H[0, 1]) ** 2)
    hi = m + r
    lo = det / hi
    if r == 0.0:
        return (hi, lo), np.log(m) * np.eye(2)
    a = (np.log(hi) + np.log(lo)) / 2.0
    b = (np.log(hi) - np.log(lo)) / (2.0 * r)
    return (hi, lo), a * np.eye(2) + b * (H - m * np.eye(2))


def rel_entropy_d2(G, P):
    """min_q S(rho || q |c_1><c_1| + (1 - q) |c_2><c_2|) for a qubit setting.

    G is the 2x2 Gram matrix and P the coefficient bilinear sum_j w_j
    psi_j psi_j^dag of the state.  The vectors are c_1 = (1, 0) and
    c_2 = (s, sqrt(1 - |s|^2)) with s = G_12, so rho = B P B^dag with
    B = [c_1 c_2].  The objective is convex in q, and a golden-section
    search narrows q in (0, 1) to an interval of width 1e-14.
    """
    s = complex(G[0, 1])
    B = np.array([[1.0, s], [0.0, np.sqrt(1.0 - abs(s) ** 2)]], dtype=complex)
    rho = B @ np.asarray(P, dtype=complex) @ B.conj().T
    rho = rho / np.real(np.trace(rho))
    evals, _ = _log_2x2(rho)
    neg_entropy = sum(x * np.log(x) for x in evals if x > 0.0)
    P1 = np.outer(B[:, 0], B[:, 0].conj())
    P2 = np.outer(B[:, 1], B[:, 1].conj())

    def f(q):
        _, log_sigma = _log_2x2(q * P1 + (1.0 - q) * P2)
        return neg_entropy - float(np.real(np.trace(rho @ log_sigma)))

    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1, x2 = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-14:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - ratio * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + ratio * (hi - lo)
            f2 = f(x2)
    return min(f1, f2)
