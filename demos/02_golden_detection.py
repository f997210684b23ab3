"""Walkthrough: detecting golden (maximal) superposition states.

A golden state converts into every other state of its dimension by
superposition-free operations.  It must be a minimal eigenvector of the
Gram matrix with uniform tilde vector, and its phases must match the
overlaps so that the free-channel construction closes.
"""

import numpy as np

from supergram import (
    build_setting,
    closed_form_d2,
    closed_form_equal_real,
    degenerate_family_d3,
    detect,
    random_frame_d3,
    table1_row,
    tilde,
)

# --- every qubit setting admits a golden state ------------------------------
for s in (0.6, -0.4):
    rep = detect(build_setting(2, [(1, 2, s)]))
    print("s=%+.1f: %s, lambda_min=%.2f, coeffs=%s"
          % (s, rep.outcome, rep.candidate.lambda_min, rep.candidate.state.coeffs.round(4)))

# complex overlaps only twist the relative phase
psi = closed_form_d2(0.5, theta=np.pi / 2)
print("complex overlap: coeffs", psi.coeffs.round(4), "tilde", tilde(psi).round(4))

# --- dimension three: the nine sign-pattern families ------------------------
cand = table1_row("s,is,-is", 0.25)
print("\nfamily {s, is, -is} at s=0.25: lambda_min=%.2f, state=%s"
      % (cand.lambda_min, cand.state.coeffs.round(4)))

# --- the equal-overlap counterexample at s = 1/2 ----------------------------
# The minimal eigenvalue is doubly degenerate and the eigenspace even
# contains uniform-tilde vectors, but the free channels built from them
# reach only part of the state space, not every target.  A golden form
# other than the identity has a simple minimal eigenvalue, so the identity
# is the only candidate here, and it lies 0.5 away.
rep = detect(build_setting(3, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5)]))
print("\nequal s=1/2: %s, multiplicity %d, fit distance %.4f (to the identity), %d search starts"
      % (rep.outcome, rep.multiplicity, rep.best_deviation, rep.n_starts))

# --- equal negative overlaps always work ------------------------------------
psi = closed_form_equal_real(5, -0.2)
print("\nd=5 equal s=-0.2: coeffs all %.6f, tilde %s"
      % (psi.coeffs[0].real, tilde(psi).real.round(6)))

# --- the full three-dimensional golden-admitting family ---------------------
# Unit diagonal forces the two larger eigenvalues to coincide at
# (3 - lambda1)/2; conversely any lambda1 in (0, 1] and any golden-form
# direction produce a valid member.
rng = np.random.default_rng(7)
st = degenerate_family_d3(0.5, random_frame_d3(rng))
rep = detect(st)
print("\nfamily member lambda1=0.5: spectrum ok, detect ->", rep.outcome,
      ", lambda_min %.6f" % rep.candidate.lambda_min)
