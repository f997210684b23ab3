"""The benchmark's three seeded workloads.

Each workload turns a seed into inputs, prepares what its ops need
(``prepare``, counted in set-up time), and cuts its op stream into blocks
of a fixed mix: block k is generated from the seed and k alone, so one
seed always yields the same ops.  ``run`` makes only library calls and is
what the benchmark times; ``check`` judges the result against references
in :mod:`reference` and is not timed.

Library functions are always called through their module attribute
(``golden.detect``), so the traced run sees every call it wraps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reference import embedded_projector, golden_form
from supergram import freeops, golden, gram, monotones, sampling, states

# a certify op passes when the channel maps |psi><psi| onto |phi><phi|
# to within this Frobenius distance
MAP_TOL = 1e-10
# slack on the monotone bounds and on their non-increase under a channel
MONOTONE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Op:
    """One unit of work: ``kind`` labels its input family, ``args`` feed
    ``run``, ``expect`` feeds ``check``."""

    kind: str
    args: tuple
    expect: object = None
    known_defect: bool = False


def _equal_real(d: int, s: float) -> gram.GramSetting:
    return gram.build_setting(d, [(i, j, s) for i in range(1, d + 1) for j in range(i + 1, d + 1)])


def _circulant(first_row) -> gram.GramSetting:
    d = len(first_row)
    return gram.build_setting(
        d, [(i + 1, j + 1, first_row[(j - i) % d]) for i in range(d) for j in range(i + 1, d)]
    )


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


class Workload:
    name = ""
    block_size = 0

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        """Work needed before the first op; timed as set-up."""

    def block(self, k: int) -> list[Op]:
        raise NotImplementedError

    def probe(self) -> list[Op]:
        """Fixed, seed-independent ops run once in a traced run, outside
        the timed mix; none by default."""
        return []

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError


# ---------------------------------------------------------------- sweep

# hermitian circulants whose minimal eigenvectors are Fourier vectors:
# equal moduli and a uniform tilde vector, yet no golden state
_A = 0.2 * np.exp(1j * np.pi / 7)
CIRCULANTS = {
    "circulant-d3": (1.0, _A, np.conj(_A)),
    "circulant-d4": (1.0, _A, 0.1, np.conj(_A)),
}

# family -> (dimension, overlap signs (s12, s13, s23) or None for all
# equal, nondegenerate interval, degenerate interval, nondegenerate points
# per block).  Degenerate cost grows with |s|; the intervals stop at 0.6,
# where a d=5 search takes about twice as long as at 0.05.
SWEEP_FAMILIES = {
    "d3-equal": (3, None, (-0.45, -0.02), (0.05, 0.6), 4),
    "d3-mixed-sign": (3, (-1, 1, 1), (0.02, 0.45), (-0.6, -0.05), 4),
    "d4-equal-real": (4, None, (-0.3, -0.02), (0.05, 0.6), 4),
    "d5-equal-real": (5, None, (-0.22, -0.02), (0.05, 0.6), 3),
}
RANDOM_PER_D = 2
# each family's degenerate points over DEGENERATE_STRATA blocks: t in
# (j + v) / (2 DEGENERATE_STRATA) and 1 - t for j = 0..DEGENERATE_STRATA - 1
DEGENERATE_STRATA = 4


def _family_setting(family: str, s: float) -> gram.GramSetting:
    d, signs, *_ = SWEEP_FAMILIES[family]
    if signs is None:
        return _equal_real(d, s)
    return gram.build_setting(3, [(1, 2, signs[0] * s), (1, 3, signs[1] * s), (2, 3, signs[2] * s)])


def _grid(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n evenly spaced points of (lo, hi), shifted by a seeded offset."""
    return lo + (np.arange(n) + rng.uniform(0.05, 0.95)) * (hi - lo) / n


class Sweep(Workload):
    """One op decides one setting: ``detect``, then the l1 monotone of the
    golden state when one is found, as ``supergram scan`` does per row.

    A block holds 32 settings with a nondegenerate minimal eigenvalue and
    8 with a degenerate one, interleaved four to one; one in five keeps p50
    on the eigensolve path and p90 on the search.  The nondegenerate ones
    are 9 table1 rows (all 27 over three blocks), the two circulants, 6
    random settings and 15 family grid points.  The degenerate ones are an
    antithetic pair s = lo + t (hi - lo), lo + (1 - t) (hi - lo) per
    family, so the search cost of a block hardly depends on the seed.
    p90 is the median cost of the degenerate ops, and a run holds only
    four to six blocks, so t is stratified rather than drawn: over any
    DEGENERATE_STRATA blocks each family's points are (j + v) / 8 and
    their mirrors, j = 0..3, with the offset v and the order of j drawn
    once from the seed.
    """

    name = "sweep"
    block_size = 40

    def block(self, k: int) -> list[Op]:
        strata = _rng(self.seed, 2)
        v = strata.uniform(0.05, 0.95)
        js = strata.permutation(DEGENERATE_STRATA)
        rng = _rng(self.seed, 1, k)
        easy = []
        for i, (family, (_, _, _, (lo, _))) in enumerate(golden.TABLE1_FAMILIES.items()):
            s = (0.1, 0.25, 0.4)[(k + i) % 3] * (-1.0 if lo < 0 else 1.0)
            easy.append((f"table1 {family}", golden.table1_setting(family, s)))
        easy += [(kind, _circulant(row)) for kind, row in CIRCULANTS.items()]
        for d in (3, 4, 5):
            for _ in range(RANDOM_PER_D):
                setting = sampling.random_setting(d, rng, min_eigenvalue=0.05, min_gap=1e-3)
                easy.append((f"random-d{d}", setting))
        hard = []
        for f, (family, (_, _, easy_iv, (lo, hi), n_easy)) in enumerate(SWEEP_FAMILIES.items()):
            easy += [(family, _family_setting(family, s)) for s in _grid(rng, *easy_iv, n_easy)]
            t = (js[(k + f) % DEGENERATE_STRATA] + v) / (2 * DEGENERATE_STRATA)
            pair = [_family_setting(family, lo + x * (hi - lo)) for x in rng.permutation([t, 1 - t])]
            hard.append([(f"{family} degenerate", setting) for setting in pair])
        easy = [easy[i] for i in rng.permutation(len(easy))]
        hard = [pair[j] for j in (0, 1) for pair in hard]
        order = []
        for i, item in enumerate(hard):
            order += easy[4 * i:4 * i + 4] + [item]
        return [
            Op(kind, (setting, (self.seed, k, i)), golden_form(setting.gram), kind in CIRCULANTS)
            for i, (kind, setting) in enumerate(order)
        ]

    def run(self, op: Op):
        setting, detect_seed = op.args
        report = golden.detect(setting, seed=detect_seed)
        if report.outcome != "found":
            return report.outcome, None
        return report.outcome, monotones.l1_superposition(report.candidate.state)

    def check(self, op: Op, result) -> bool:
        outcome, l1 = result
        form = op.expect
        if form is None:
            return outcome != "found"
        return outcome == "found" and abs(l1 - form.l1_bound) <= 1e-8 * form.l1_bound


# -------------------------------------------------------------- certify

# ops per block by dimension: d = 8 is one op in forty, enough to shape
# ops_per_s and peak_rss_mb without reaching the median
CERTIFY_MIX = {3: 14, 4: 8, 5: 7, 6: 6, 7: 4, 8: 1}


class Certify(Workload):
    """One op certifies one target: build the S1 + S2 channel from a
    golden source to a seeded full-rank target and apply it to the
    source's projector, as ``supergram golden --verify N`` does per target.
    """

    name = "certify"
    block_size = sum(CERTIFY_MIX.values())

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = _rng(seed, 0)
        self.settings = {d: [] for d in CERTIFY_MIX}
        for family, (_, _, _, (lo, _)) in golden.TABLE1_FAMILIES.items():
            s = rng.uniform(0.05, 0.45) * (-1.0 if lo < 0 else 1.0)
            self.settings[3].append(golden.table1_setting(family, s))
        for d in CERTIFY_MIX:
            self.settings[d].append(_equal_real(d, rng.uniform(0.1, 0.8) / (1.0 - d)))
        self.sources = None

    def prepare(self) -> None:
        self.sources = {}
        for d, settings in self.settings.items():
            self.sources[d] = []
            for setting in settings:
                report = golden.detect(setting)
                if report.outcome != "found":
                    raise RuntimeError(f"certify source at d = {d} has no golden state")
                psi = report.candidate.state
                self.sources[d].append((psi, states.density_pure(psi)))

    def block(self, k: int) -> list[Op]:
        rng = _rng(self.seed, 1, k)
        ops = []
        for d, count in CERTIFY_MIX.items():
            settings = self.settings[d]
            for i in range(count):
                j = (k * count + i) % len(settings)
                phi = sampling.random_state(settings[j], rng, full_rank=True)
                ops.append(Op(f"certify-d{d}", (d, j, phi)))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op):
        d, j, phi = op.args
        psi, rho = self.sources[d][j]
        kset = freeops.build_kraus_set(psi, phi)
        return kset.certificate, freeops.apply_map(kset, rho)

    def check(self, op: Op, result) -> bool:
        cert, out = result
        _, _, phi = op.args
        target = embedded_projector(phi.setting.gram, phi.coeffs)
        return cert.passed and float(np.linalg.norm(out.matrix - target)) <= MAP_TOL


# ------------------------------------------------------- monotone-apply

# (dimension, overlap as a fraction of the way from orthonormal to
# dependent) per channel; None is the table1 row "s,is,-is" at s = 0.35,
# a fraction of 0.7.  The overlaps are fixed because the solver's cost
# depends strongly on them, so seeded overlaps would make throughput a
# property of the seed.  Nearly orthonormal settings (fractions up to
# about 0.3) send some solves to the 20000-iteration cap, which makes
# p90 of a run swing by a third from seed to seed; they stay out of the
# timed mix.  The probe channel is one of them, run in traced runs only on
# PROBE_STATES fixed input states, so the solver's iteration count and
# converged share there are the same on every run and can show a fix.
MONOTONE_CHANNELS = ((2, 0.6), (2, 0.9), (3, 0.6), (3, None), (4, 0.6), (4, 0.9), (5, 0.6), (5, 0.9))
PROBE_CHANNEL = (2, 0.2)
PROBE_STATES = 12
# The input states come from a fixed pool of POOL_BLOCKS blocks; the seed
# sets the order of the blocks and of the ops within each.  Solver cost
# is heavy-tailed in the state: over 400 freshly seeded ops, the p90 of
# iterations per op moved by a quarter (IQR over median) from seed to
# seed, so seeded states would make p90 a property of the seed.  A run
# goes through the whole pool two to four times.
POOL_BLOCKS = 24


class MonotoneApply(Workload):
    """One op pushes a mixed state through a prepared channel and
    evaluates both monotones before and after.

    Eight fixed channels (two per dimension 2..5, to full-rank targets)
    are built during set-up; each block sends one state of the pool
    through each of them.  A ninth, the probe channel, serves only
    ``probe``.
    """

    name = "monotone-apply"
    block_size = len(MONOTONE_CHANNELS)

    def __init__(self, seed: int):
        super().__init__(seed)
        # the channels do not depend on the seed: which target a channel
        # goes to moves the solver's cost on every output state of a run
        rng = _rng(0, 0)
        self.settings = []
        for d, frac in (*MONOTONE_CHANNELS, PROBE_CHANNEL):
            if frac is None:
                setting = golden.table1_setting("s,is,-is", 0.35)
            elif d == 2:
                phase = np.exp(2j * np.pi * rng.uniform())
                setting = gram.build_setting(2, [(1, 2, frac * phase)])
            else:
                setting = _equal_real(d, frac / (1.0 - d))
            form = golden_form(setting.gram)
            if form is None:
                raise RuntimeError("monotone-apply setting admits no golden state")
            target = sampling.random_state(setting, rng, full_rank=True)
            self.settings.append((setting, form, target))
        self.channels = None

    def prepare(self) -> None:
        self.channels = []
        for setting, _, target in self.settings:
            report = golden.detect(setting)
            if report.outcome != "found":
                raise RuntimeError(f"monotone-apply source at d = {setting.d} has no golden state")
            self.channels.append(freeops.build_kraus_set(report.candidate.state, target))

    def _op(self, n: int, rng: np.random.Generator, kind: str) -> Op:
        setting, form, _ = self.settings[n]
        mix = [sampling.random_state(setting, rng) for _ in range(2)]
        rho = states.density_mixed(mix, rng.dirichlet(np.ones(2)))
        return Op(kind, (n, rho), form)

    def block(self, k: int) -> list[Op]:
        j = _rng(self.seed, 3).permutation(POOL_BLOCKS)[k % POOL_BLOCKS]
        pool = _rng(0, 1, j)
        ops = [
            self._op(n, pool, f"monotone-d{d}") for n, (d, _) in enumerate(MONOTONE_CHANNELS)
        ]
        return [ops[i] for i in _rng(self.seed, 1, k).permutation(len(ops))]

    def probe(self) -> list[Op]:
        rng = _rng(0, 2)
        n = len(MONOTONE_CHANNELS)
        return [self._op(n, rng, "monotone-probe") for _ in range(PROBE_STATES)]

    def run(self, op: Op):
        n, rho = op.args
        out = freeops.apply_map(self.channels[n], rho)
        values = []
        for state in (rho, out):
            re, _ = monotones.rel_entropy_superposition(state, full_output=True)
            values.append((monotones.l1_superposition(state), re))
        return values

    def check(self, op: Op, result) -> bool:
        (l1_in, re_in), (l1_out, re_out) = result
        form = op.expect
        return (
            max(l1_in, l1_out) <= form.l1_bound + MONOTONE_TOL
            and max(re_in, re_out) <= form.rel_entropy_bound + MONOTONE_TOL
            and l1_out <= l1_in + MONOTONE_TOL
            and re_out <= re_in + MONOTONE_TOL
        )


WORKLOADS = {w.name: w for w in (Sweep, Certify, MonotoneApply)}
