"""Walkthrough: superposition-free Kraus channels from a golden state.

The conversion psi -> phi uses d! permutation-structured operators (each
mapping psi to sqrt(1/d!) phi) plus up to d single-row operators that
annihilate psi and complete the channel.  The channel holds the d!
operators only through their ratio matrix r_ij = phi_i / psi_j: the
operator of permutation sigma has entry sqrt(1/d!) r[sigma(j), j] at
(sigma(j), j).  The certificate records the completeness residual, the
PSD margin of the leftover, and how exactly the leftover kills psi.
"""

import math

import numpy as np

from supergram import (
    apply_map,
    apply_mixed,
    build_kraus_set,
    build_setting,
    density_pure,
    detect,
    is_free_kraus,
    normalize,
    random_state,
)

st = build_setting(2, [(1, 2, 0.6)])
psi = detect(st).candidate.state
phi = normalize(np.array([1.0, 0.0]), st)  # target: the first basis state

kset = build_kraus_set(psi, phi)
weight = 1.0 / math.factorial(st.d)
print("S1 operators (%d), probability 1/d! = %.2f each, from the ratios r:"
      % (kset.certificate.n_s1, weight))
print(kset.ratios.round(4))
identity_op = np.sqrt(weight) * np.diag(np.diag(kset.ratios))
print("identity-permutation operator sqrt(1/d!) diag(r):")
print(identity_op.round(4), "free:", is_free_kraus(identity_op))
print("S2 operators (%d):" % len(kset.s2))
for op in kset.s2:
    print(op.matrix.round(4), "free:", is_free_kraus(op.matrix))
print("certificate:", kset.certificate.to_json())

# the channel reproduces the target projector exactly
out = apply_map(kset, density_pure(psi))
print("\n|| Phi(|psi><psi|) - |phi><phi| || =",
      np.linalg.norm(out.matrix - density_pure(phi).matrix))

# mixed targets come from convex combinations of such channels
rng = np.random.default_rng(1)
t1 = random_state(st, rng, full_rank=True)
t2 = random_state(st, rng, full_rank=True)
sigma = apply_mixed(psi, [t1, t2], [0.3, 0.7])
print("mixed-output trace:", np.trace(sigma.matrix).real)

# a non-golden initial state cannot be completed: the leftover
# G - sum K^dag G K acquires a negative eigenvalue
bad = normalize(np.array([1.0, 0.3]), st)
try:
    build_kraus_set(bad, phi)
except ValueError as exc:
    print("\nnon-golden initial state rejected:", exc)
