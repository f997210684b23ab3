"""One verdict per physical setting.

Relabelling the basis states, G -> P G P^T, or re-phasing them,
G -> D G D^dag with D diagonal unitary, describes the same physical
setting.  Neither may change what ``detect`` reports, nor the monotones of
the golden state it finds.
"""

import numpy as np
import pytest

from supergram import monotones
from supergram.golden import detect, golden_setting
from supergram.gram import GramSetting, build_setting


def perturbed_golden_forms(rng, n):
    """Golden forms at d = 3..8 plus zero-diagonal Hermitian noise of
    largest entry eps = 1e-10..3e-9, which straddles ACCEPT_TOL."""
    for _ in range(n):
        d = int(rng.integers(3, 9))
        c = rng.uniform(-0.95 / (d - 1), -1e-3)
        G = golden_setting(d, c, rng.uniform(0.0, 2.0 * np.pi, d)).gram
        E = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        E = E + E.conj().T
        np.fill_diagonal(E, 0.0)
        E *= 10.0 ** rng.uniform(-10.0, np.log10(3e-9)) / np.max(np.abs(E))
        yield G + E


def relabelled_and_rephased(rng, G):
    d = len(G)
    P = np.eye(d)[rng.permutation(d)]
    D = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))
    return [GramSetting(P @ G @ P.T), GramSetting(D @ G @ D.conj().T)]


def assert_same_report(rep, other):
    assert (other.outcome, other.inconclusive, other.multiplicity) == (
        rep.outcome, rep.inconclusive, rep.multiplicity)
    # the distances agree to rounding of the O(1) Gram entries
    assert abs(other.best_deviation - rep.best_deviation) <= 2e-15


def equal_setting(d, s):
    return build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def circulant(first_row):
    d = len(first_row)
    return build_setting(
        d, [(i + 1, j + 1, first_row[(j - i) % d]) for i in range(d) for j in range(i + 1, d)])


A = 0.2 * np.exp(1j * np.pi / 7)
# hermitian circulants: Fourier minimal eigenvectors, equal moduli and a
# uniform tilde vector, yet no golden state
CIRCULANTS = [(1.0, A, np.conj(A)), (1.0, A, 0.1, np.conj(A))]


def test_perturbed_golden_forms_keep_their_verdict(monkeypatch):
    # a few of these near-golden states start the relative-entropy solve at
    # a duality gap of about 1e-9 that rounding keeps it from closing, and
    # the solve would run all its iterations; fifty bound the time, and
    # the comparison below holds to the gap reached
    monkeypatch.setattr(monotones, "_MAX_ITER", 50)
    rng = np.random.default_rng(27)
    found = 0
    for k, G in enumerate(perturbed_golden_forms(rng, 500)):
        rep = detect(GramSetting(G))
        others = [detect(st) for st in relabelled_and_rephased(rng, G)]
        for other in others:
            assert_same_report(rep, other)
        if rep.outcome != "found":
            continue
        found += 1
        l1 = monotones.l1_superposition(rep.candidate.state)
        for other in others:
            assert monotones.l1_superposition(other.candidate.state) == pytest.approx(l1, rel=1e-13)
        if k % 5:
            continue
        value, info = monotones.rel_entropy_superposition(rep.candidate.state, full_output=True)
        for other in others:
            v, inf = monotones.rel_entropy_superposition(other.candidate.state, full_output=True)
            # both values lie within their duality gaps above one minimum
            assert abs(v - value) <= max(info.gap, inf.gap) + 1e-12
    assert 300 <= found < 500


@pytest.mark.parametrize("setting", [
    equal_setting(3, 0.5), equal_setting(3, 1e-7), *(circulant(row) for row in CIRCULANTS),
], ids=["equal-half", "equal-1e-7", "circulant-d3", "circulant-d4"])
def test_none_settings_keep_their_report(setting):
    rng = np.random.default_rng(setting.d)
    rep = detect(setting)
    assert rep.outcome == "none"
    for _ in range(20):
        for other in relabelled_and_rephased(rng, setting.gram):
            assert_same_report(rep, detect(other))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 16, 32, 50])
def test_exact_golden_forms_fit_to_rounding(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        c = rng.uniform(-0.95, 0.0) / (d - 1)
        rep = detect(golden_setting(d, c, rng.uniform(0.0, 2.0 * np.pi, d)))
        assert rep.outcome == "found"
        assert rep.best_deviation <= 1e-15
