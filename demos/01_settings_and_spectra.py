"""Walkthrough: inner-product settings and their spectra.

A set of d normalized, linearly independent (generally nonorthogonal)
basis states is fully described by its Gram matrix of pairwise overlaps.
This script builds a few settings, validates them, and inspects the
spectral quantities everything else depends on.
"""

import numpy as np

from supergram import (
    build_setting,
    eigensystem,
    embedding,
    rayleigh,
    validate,
)

# --- a qubit pair with real overlap 0.6 -----------------------------------
st = build_setting(2, [(1, 2, 0.6)])
print("Gram matrix:\n", st.gram.real)
print("validation:", validate(st))

# --- three states with one complex overlap pattern ------------------------
s = 0.3
st3 = build_setting(3, [(1, 2, s), (1, 3, 1j * s), (2, 3, -1j * s)])
print("\ncomplex setting, unit diagonal:", np.diag(st3.gram))
rep = validate(st3)
print("spectrum %s, min eigenvalue %.4f" % (np.linalg.eigvalsh(st3.gram).round(4), rep.min_eigenvalue))

# --- the spectrum decides everything ---------------------------------------
es = eigensystem(st3)
print("\neigenvalues:", es.eigenvalues.round(12))
print("degeneracy groups:", es.groups)

# Rayleigh quotients of arbitrary vectors stay inside [lambda_min, lambda_max]
rng = np.random.default_rng(0)
quotients = [rayleigh(st3, rng.standard_normal(3) + 1j * rng.standard_normal(3))
             for _ in range(5)]
print("Rayleigh quotients:", np.round(quotients, 4))
print("bounds: [%.4f, %.4f]" % (es.lambda_min, es.lambda_max))

# --- an orthonormal frame for the basis ------------------------------------
# V is upper triangular with V^dag V = G; column k holds the coordinates of
# basis state k.  Any unitary reorientation U V leaves the Gram matrix intact.
st2 = build_setting(2, [(1, 2, -0.8)])
V = embedding(st2)
print("\nembedding V:\n", V.round(6))
print("V^dag V - G:", np.linalg.norm(V.conj().T @ V - st2.gram))

theta = 0.7
U = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
W = U @ V
print("after reorientation, Gram unchanged:", np.linalg.norm(W.conj().T @ W - st2.gram))
