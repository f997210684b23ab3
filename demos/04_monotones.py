"""Walkthrough: superposition monotones and their extremal bounds.

For a setting with smallest Gram eigenvalue lambda_min, the l1 monotone is
capped by (d - 1)/lambda_min and the relative-entropy monotone by
ln(d / lambda_min); golden states attain both caps, and every basis
projector sees a golden state with the same overlap lambda_min / d.
"""

import numpy as np

from supergram import (
    bound_check,
    build_setting,
    constant_trace_overlaps,
    detect,
    l1_superposition,
    monotone_report,
    random_state,
    rel_entropy_superposition,
)

st = build_setting(2, [(1, 2, 0.6)])
psi = detect(st).candidate.state

report = monotone_report(psi)
print("golden qubit state at s=0.6")
print("  l1          = %.6f (bound %.6f)" % (report.l1, report.l1_bound))
print("  rel entropy = %.6f (bound %.6f = ln 5)" % (report.rel_entropy, report.rel_entropy_bound))
print("  overlaps    =", report.overlaps.round(6), "(= lambda_min / d)")
print("  bound check:", bound_check(report))

# random states stay strictly below the golden value
rng = np.random.default_rng(5)
values = [l1_superposition(random_state(st, rng)) for _ in range(2000)]
print("\nlargest l1 among 2000 random states: %.6f < %.6f" % (max(values), report.l1))

# the overlap with every free basis projector is constant only for golden states
other = random_state(st, rng)
print("non-golden overlaps:", constant_trace_overlaps(other).round(4))

# curve data: the golden l1 along the equal-overlap families
print("\n   s     l1 (d=2)    l1 (d=3 equal)")
for s in (-0.4, -0.2, 0.0, 0.2, 0.4):
    l1_d2 = l1_superposition(detect(build_setting(2, [(1, 2, s)])).candidate.state)
    st3 = build_setting(3, [(1, 2, s), (1, 3, s), (2, 3, s)])
    rep3 = detect(st3)
    l1_d3 = "%.6f" % l1_superposition(rep3.candidate.state) if rep3.outcome == "found" else "none"
    print("%+.2f   %.6f    %s" % (s, l1_d2, l1_d3))

# in the orthonormal limit both monotones reduce to their coherence values
free = build_setting(3, [])
print("\northonormal golden rel entropy -> ln 3:",
      rel_entropy_superposition(detect(free).candidate.state))
