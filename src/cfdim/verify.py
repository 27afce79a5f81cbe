"""Monte Carlo and property-suite orchestration with machine-readable reports.

Almost-everywhere laws are checked by sampling digit sequences of uniform
random points.  The sampler uses the exact conditional law of the remainder
orbit: given the first n digits, T^n(x) of a uniform x has CDF
t -> (1+r) t / (1 + r t) on (0,1) with r = q_{n-1}/q_n, so digits are drawn
by inverting that CDF and updating r -> 1/(a + r).  This reproduces the
digit law of uniform sampling exactly while staying vectorizable to millions
of digits.  The certified decimal-budget pipeline remains available for short
horizons and is tested to agree in distribution: one sample of n digits runs
Euclid on two (4n + 64)-bit numerators, so its cost grows like n^2.

The chain runs in chunks of at most _CHAIN_CHUNK steps and yields one int64
block of shape (samples, width) per chunk, row k holding sample k's digits;
the run trackers scan whole blocks and carry their state across chunk edges.
A chunk's steps run as _CHAIN_LANES equal lanes side by side (or as one
lane), so that one ufunc call serves lanes x samples values.  Lane j >= 1
starts from r = 0 and warms up over the last _CHAIN_WARMUP uniforms of lane
j - 1, dropping those digits; r forgets its start at Levy's rate, so the
warmed-up r almost always equals lane j - 1's final r bit for bit.  That
equality is checked exactly at every seam, and it makes each lane's digits
the sequential chain's, since every step is the same IEEE operations on the
same doubles; a chunk with a mismatched seam runs again as one lane.
A chunk whose uniforms all lie above _CLAMP_U = 2 / DIGIT_CAP drops the floor
at 1e-300 and the cap at DIGIT_CAP from its steps, because neither can change
a digit there (`LebesgueDigitChain.next_digits` gives the bound); the other,
screened, chunks keep every guard and count the digits set to DIGIT_CAP.

Derived thresholds are pinned by pilot-run fixtures committed to the package
data; checks compare statistics against the fixture bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import dim_solver, exponents
from .cf_core import (
    RealInput,
    basic_interval,
    continuants,
    expand,
    run_continuant,
    run_continuant_closed_form,
)
from .errors import InputOutOfRange, InsufficientBlocks, NoConvergence
from .runlength import maximal_runs

PHI = (1 + math.sqrt(5)) / 2
DIGIT_CAP = 2**31 - 1


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    name: str
    statistic: float
    bound: Tuple[float, float]
    passed: bool


@dataclass
class Report:
    suite: str
    checks: List[Check] = field(default_factory=list)
    series: List[Dict[str, float]] = field(default_factory=list)
    config: Dict[str, object] = field(default_factory=dict)

    def add(self, name: str, statistic: float, lo: float, hi: float) -> bool:
        ok = lo <= statistic <= hi
        self.checks.append(Check(name, float(statistic), (float(lo), float(hi)), ok))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> Dict[str, int]:
        n_pass = sum(c.passed for c in self.checks)
        return {"total": len(self.checks), "passed": n_pass, "failed": len(self.checks) - n_pass}

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "config": self.config,
            "checks": [
                {"name": c.name, "statistic": c.statistic, "bound": list(c.bound), "pass": c.passed}
                for c in self.checks
            ],
            "summary": self.summary(),
            "series": self.series,
        }

    def series_csv(self) -> str:
        if not self.series:
            return ""
        keys = sorted({k for row in self.series for k in row})
        lines = [",".join(keys)]
        for row in self.series:
            lines.append(",".join(repr(row[k]) if k in row else "" for k in keys))  # a missing key: an empty cell
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class McConfig:
    seed: int
    samples: int
    n_digits: int

    def __post_init__(self):
        if self.samples < 1 or self.n_digits < 1:
            raise InputOutOfRange(f"samples and n_digits must be >= 1, got {self.samples} and {self.n_digits}")
        if self.samples > _MAX_SAMPLES:
            raise InputOutOfRange(f"samples must be <= {_MAX_SAMPLES}, got {self.samples}")


def load_fixtures() -> Dict[str, object]:
    with resources.files("cfdim").joinpath("data/pilot_fixtures.json").open("r") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# exact-law digit sampling
# ---------------------------------------------------------------------------


_CHAIN_CHUNK = 512  # uniforms drawn per sample at a time
_CHAIN_LANES = 4  # lanes that a chunk's steps run in, side by side
_CHAIN_WARMUP = 48  # steps a lane runs over the last uniforms of the lane before it
_MAX_SAMPLES = 2**12  # a chain chunk holds about 9 kB per sample: 37 MB at the cap
_CLAMP_U = 2.0 / DIGIT_CAP  # a digit reaches DIGIT_CAP only from a uniform u <= this
_CLAMP_FRACTION_BOUND = 1e-6  # clamped digits over samples x n_digits
_LEMMA_STRINGS = 10_000  # random digit strings per lemma_suite run


class LebesgueDigitChain:
    """Vectorized digit-by-digit sampler of the uniform-x digit process.

    Per-sample RNG streams are derived from (seed, sample index), so results
    do not depend on batching.  `clamps` counts the digits set to DIGIT_CAP,
    the 1e-300 floor on t included; `redone` counts the chunks whose lanes
    missed a seam and were run again as one lane.
    """

    def __init__(self, seed: int, samples: int):
        self.samples = samples
        self._gens = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
            for k in range(samples)
        ]
        self.r = np.zeros(samples)
        self.clamps = 0
        self.redone = 0

    def next_digits(self, steps: int) -> Iterable[np.ndarray]:
        """Yield the next `steps` digits of every sample as int64 blocks of
        shape (samples, width), one block per chunk of at most _CHAIN_CHUNK
        steps; row k holds sample k's digits in order.  A block is a view of
        a buffer that the next chunk overwrites, so it is valid until the
        next `next()`; a caller that keeps digits must copy them.

        Each step is u / ((1 + r) - u r) floored at 1e-300, inverted, capped
        at DIGIT_CAP and truncated, then r -> 1 / (digit + r).  The digit is
        at least 1 with no floor: u <= 1 - 2^-53 and 0 <= r <= 1, so fl(1 + r)
        >= 1 + r - 2^-53 and fl(u r) <= r, the computed denominator is at
        least 1 - 2^-53 >= u (rounding is monotone and u is a double), and
        t <= 1; 1 / t, its cap (DIGIT_CAP >= 1) and the truncation are then
        all >= 1, and r stays in [0, 1].
        The digit overwrites its uniform's slot of the step-major buffer and
        stays a float until the chunk ends: every digit is an integer below
        2^53, so the float and the int64 digit are equal.  The chunk's
        digits are then cast into the sample-major buffer its uniforms were
        drawn into, which the transposes have freed.

        A chunk of take = _CHAIN_LANES x L steps with L >= _CHAIN_WARMUP runs
        as _CHAIN_LANES lanes of L steps side by side (any other chunk as one
        lane), so each ufunc call covers lanes x samples values: a step row of
        the step-major buffer holds step l of every lane.  Lane 0 starts from
        the chain's r.  Lane j >= 1 starts from r = 0 and first runs
        _CHAIN_WARMUP steps over the last uniforms of lane j - 1, dropping
        their digits; r = q_{k-1} / q_k = [0; a_k, ..., a_1] forgets its start
        at Levy's rate e^{-2.37 k}, so it then almost always holds the bits of
        lane j - 1's final r.  Every step is the same IEEE operations on the
        same doubles, so a lane whose start equals the sequential chain's r at
        its first step yields the sequential digits bit for bit.  By induction
        from lane 0, every lane starts from the sequential r when each lane's
        warmed-up r equals the final r of the lane before, which the chain
        checks exactly (`np.array_equal`; r in [0, 1] has no NaN and no -0).
        On a mismatch the chunk runs again as one lane from the chain's r and
        the untouched uniforms; `redone` counts it.

        A chunk whose smallest uniform is above _CLAMP_U skips the floor
        at 1e-300 and the cap, which change no value there, with no rounding
        margin needed: r <= 1, so the computed denominator (1 + r) - u r is
        at most 2 and t >= u / 2 > 1 / DIGIT_CAP (u / 2 is exact, and
        rounding is monotone), hence 1 / t rounds to at most DIGIT_CAP.
        Only the other, screened, chunks count clamps, over the digits they
        keep, so a warm-up digit is not counted.
        """
        n, r, warm = self.samples, self.r, _CHAIN_WARMUP
        m = _CHAIN_LANES * n
        lane_r, warmed, den, t = np.empty(m), np.empty(m - n), np.empty(m), np.empty(m)
        one, tiny, cap = np.ones(m), np.full(m, 1e-300), np.full(m, float(DIGIT_CAP))
        width = min(_CHAIN_CHUNK, steps)
        drawn = np.empty((n, width))  # sample-major: one stream per row
        by_step = np.empty(width * n)  # step-major: one step of every lane per row
        digits = drawn.view(np.int64)
        add, sub, mul, div, recip = np.add, np.subtract, np.multiply, np.divide, np.reciprocal
        maximum, minimum, trunc = np.maximum, np.minimum, np.trunc

        def walk(U, r, screened, keep=True):
            # one step per row of U from r, which it updates; a kept digit
            # overwrites its uniform, a dropped one lands in t
            w = r.size
            d, s, o, lo, hi = den[:w], t[:w], one[:w], tiny[:w], cap[:w]
            for u in U:
                v = u if keep else s
                add(o, r, out=d)
                mul(u, r, out=s)
                sub(d, s, out=d)
                div(u, d, out=s)
                if screened:
                    maximum(s, lo, out=s)
                recip(s, out=s)
                if screened:
                    minimum(s, hi, out=s)
                trunc(s, out=v)
                add(v, r, out=d)
                recip(d, out=r)

        done = 0
        while done < steps:
            take = min(width, steps - done)
            block = drawn[:, :take]
            for row, g in zip(block, self._gens):
                g.random(out=row)
            screened = block.min() <= _CLAMP_U
            k = _CHAIN_LANES if take % _CHAIN_LANES == 0 and take // _CHAIN_LANES >= warm else 1
            for k in (k, 1):  # the lanes, then after a seam mismatch the chunk as one lane
                L = take // k
                lanes = by_step[:take * n].reshape(L, k, n)
                lanes[...] = block.reshape(n, k, L).transpose(2, 1, 0)
                rl, starts = lane_r[:k * n], warmed[:(k - 1) * n]
                rl[:n], rl[n:] = r, 0.0
                if k > 1:
                    walk(lanes[L - warm:, :-1].reshape(warm, (k - 1) * n), rl[n:], screened, keep=False)
                    starts[...] = rl[n:]
                walk(lanes.reshape(L, k * n), rl, screened)
                if np.array_equal(rl[:-n], starts):  # each lane ends where the next started
                    break
                self.redone += 1
            r[...] = rl[-n:]
            if screened:
                self.clamps += int(np.count_nonzero(by_step[:take * n] == DIGIT_CAP))
            out = digits[:, :take]
            out.reshape(n, k, L)[...] = lanes.transpose(2, 1, 0)
            yield out
            done += take


_DECIMAL_REDRAW_CAP = 200  # redraws before sample_digits_decimal gives up


def sample_digits_decimal(rng: np.random.Generator, n: int) -> Tuple[Tuple[int, ...], int]:
    """Certified digits of one uniform sample via the decimal-budget pipeline.

    Draws a uniform dyadic rational k / 2^bits, bits = 4n + 64, at the full
    budget resolution and expands it as a decimal input with the same budget,
    so a digit counts only once the whole interval k / 2^bits +- 2^-bits lies
    inside its cylinder; redraws until n digits certify.  Returns (digits,
    redraws).  The widest depth-n cylinder, that of 1^n, is 1 / (F_{n+1}
    F_{n+2}) > 2^-(1.39 n + 2), so it is far wider than the interval.

    Raises NoConvergence after _DECIMAL_REDRAW_CAP redraws.
    """
    bits = 4 * n + 64
    redraws = 0
    while redraws <= _DECIMAL_REDRAW_CAP:
        k = 0
        for _ in range(-(-bits // 53)):
            k = (k << 53) | int(rng.integers(0, 2**53))
        k &= (1 << bits) - 1
        if k == 0:
            continue
        x = RealInput(kind="decimal", frac=Fraction(k, 1 << bits), precision_bits=bits)
        d = expand(x, n)
        if len(d.digits) >= n:
            return d.digits[:n], redraws
        redraws += 1
    raise NoConvergence(f"{n} digits did not certify at {bits} bits in {_DECIMAL_REDRAW_CAP} redraws")


# ---------------------------------------------------------------------------
# Monte Carlo suites
# ---------------------------------------------------------------------------


class RunMaxTracker:
    """Longest run of equal digits R_n of every sample, tracked as `push`
    feeds the next block of digits; it equals
    `runlength.run_profile(row).R[n - 1]`."""

    suite = "mc_runlength"

    def __init__(self, samples: int):
        self.pos = 0
        self.last = np.zeros(samples, dtype=np.int64)  # each sample's last digit
        self.cur = np.zeros(samples, dtype=np.int64)  # the length of the run it ends
        self.rmax = np.zeros(samples, dtype=np.int64)
        self.series: List[Dict[str, float]] = []

    def push(self, block: np.ndarray) -> None:
        """Feed the next digits of every sample, a (samples, width) block;
        it is read, not kept."""
        samples, width = block.shape
        starts, lengths = maximal_runs(block)
        first = starts.searchsorted(np.arange(samples) * width)  # each row's first run
        lengths[first] += self.cur * (block[:, 0] == self.last)  # the run carried over the edge
        np.maximum(self.rmax, np.maximum.reduceat(lengths, first), out=self.rmax)
        self.cur = lengths[np.append(first[1:], lengths.size) - 1]
        self.last = block[:, -1].copy()
        self.pos += width

    def snapshot(self) -> None:
        ratio = self.rmax / math.log(self.pos, PHI)
        self.series.append({"horizon": self.pos, "mean": float(ratio.mean()), "std": float(ratio.std())})

    def report(self, cfg: McConfig, fixtures: Dict, clamps: int) -> Report:
        """Sample mean of R_n / log_phi(n) per snapshot; its a.e. limit is 1/2.
        `clamps` is the chain's count of digits set to DIGIT_CAP."""
        fx = fixtures[self.suite]
        rep = Report(self.suite, series=list(self.series), config=asdict(cfg))
        lo, hi = fx["mean_bounds"]
        rep.add("mean_ratio_at_top_horizon", self.series[-1]["mean"], lo, hi)
        for r0, r1 in zip(self.series, self.series[1:]):
            trend = abs(r1["mean"] - 0.5) - abs(r0["mean"] - 0.5)
            name = f"approaches_half_{r0['horizon']}_to_{r1['horizon']}"
            rep.add(name, trend, -math.inf, fx["trend_slack"])
        # under the exact law a digit is >= DIGIT_CAP at rate log2(1 + 1/DIGIT_CAP) ~ 6.7e-10
        rep.add("clamp_fraction", clamps / (cfg.samples * cfg.n_digits), 0.0, _CLAMP_FRACTION_BOUND)
        return rep


class RecordTracker(exponents.RecordScan):
    """The exponents.RecordScan of every sample's digits, with the
    snapshots and report of the nu = 0 law."""

    suite = "mc_nu_zero"

    def __init__(self, samples: int, i: int):
        super().__init__(samples, i)
        self.series: List[Dict[str, float]] = []
        self.hat_le_nu_violations = 0

    def estimates(self, k: int) -> Optional[exponents.ExponentEstimate]:
        """Exponent estimates of sample k at the current position, or None
        when there are too few records."""
        recs = self.records(k)
        bd = exponents.BlockDecomposition(i=self.i, record_blocks=recs)
        try:
            return exponents.exponent_estimates(bd, self.pos)
        except InsufficientBlocks:
            return None

    def snapshot(self) -> None:
        ests = [e for e in map(self.estimates, range(len(self._closed))) if e is not None]
        exceed = sum(e.nu_est > 0.05 for e in ests)
        self.hat_le_nu_violations += sum(e.nu_hat_est > e.nu_est + 1e-15 for e in ests)
        row = {"horizon": self.pos, "samples_used": len(ests)}
        if ests:  # a fraction over no samples is left out, not read as 0
            row["exceed_fraction"] = exceed / len(ests)
        self.series.append(row)

    def report(self, cfg: McConfig, fixtures: Dict) -> Report:
        """Fraction of samples with nu estimate > 0.05 per snapshot; the a.e.
        value of nu is 0, so the fraction must shrink along horizons (a
        snapshot without estimates has no fraction to check).  Raises
        InputOutOfRange when no sample has an estimate at the top horizon."""
        if not self.series[-1]["samples_used"]:
            raise InputOutOfRange(f"no sample has enough records of {self.i} for a nu estimate by n = {self.pos}")
        fx = fixtures[self.suite]
        rep = Report(self.suite, series=list(self.series), config={**asdict(cfg), "i": self.i})
        rep.add("exceed_fraction_at_top_horizon", self.series[-1]["exceed_fraction"], 0.0, fx["exceed_bound"])
        for r0, r1 in zip(self.series, self.series[1:]):
            if not (r0["samples_used"] and r1["samples_used"]):
                continue
            step = r1["exceed_fraction"] - r0["exceed_fraction"]
            name = f"fraction_non_increasing_{r0['horizon']}_to_{r1['horizon']}"
            rep.add(name, step, -math.inf, fx["monotone_slack"])
        rep.add("nu_hat_le_nu_violations", float(self.hat_le_nu_violations), 0.0, 0.0)
        return rep


def _walk(cfg: McConfig, trackers: Sequence) -> int:
    """Push every digit block of one seeded chain to each tracker, and take a
    snapshot of each at the horizons 10^4, 10^5, 10^6 below n_digits and at
    n_digits; the chain's chunks are cut at the horizons.  Returns the
    chain's clamp count."""
    horizons = sorted({h for h in (10_000, 100_000, 1_000_000) if h < cfg.n_digits} | {cfg.n_digits})
    chain = LebesgueDigitChain(cfg.seed, cfg.samples)
    pos = 0
    for h in horizons:
        for block in chain.next_digits(h - pos):
            for t in trackers:
                t.push(block)
        for t in trackers:
            t.snapshot()
        pos = h
    return chain.clamps


def _check_runlength_horizon(cfg: McConfig) -> None:
    if cfg.n_digits < 2:
        raise InputOutOfRange("the run-length law needs n_digits >= 2: log_phi(n) is 0 at n = 1")


def mc_runlength(cfg: McConfig) -> Report:
    """Run-length law R_n / log_phi(n) -> 1/2 across uniform samples.
    Raises InputOutOfRange when n_digits < 2."""
    _check_runlength_horizon(cfg)
    tracker = RunMaxTracker(cfg.samples)
    clamps = _walk(cfg, [tracker])
    return tracker.report(cfg, load_fixtures(), clamps)


def mc_nu_zero(cfg: McConfig, i: int = 1) -> Report:
    """Asymptotic-exponent law nu = 0 against y = [i, i, ...] across uniform
    samples.  Raises InputOutOfRange for i < 1 or no estimate at n_digits."""
    tracker = RecordTracker(cfg.samples, i)
    _walk(cfg, [tracker])
    return tracker.report(cfg, load_fixtures())


def mc_laws(cfg: McConfig, i: int = 1) -> Tuple[Report, Report]:
    """The mc_runlength and mc_nu_zero reports from one chain walk, each
    equal to its standalone suite's.  Raises InputOutOfRange when n_digits < 2
    or i < 1 (before the walk), or when no sample has a nu estimate at n_digits."""
    _check_runlength_horizon(cfg)
    runs, records = RunMaxTracker(cfg.samples), RecordTracker(cfg.samples, i)
    fixtures = load_fixtures()
    clamps = _walk(cfg, [runs, records])
    return runs.report(cfg, fixtures, clamps), records.report(cfg, fixtures)


# ---------------------------------------------------------------------------
# exact lemma suite
# ---------------------------------------------------------------------------


def lemma_suite(seed: int = 20260809) -> Report:
    """Exact integer/rational property checks of the continued-fraction
    kernels at scale: continuant growth and splitting bounds, cylinder length
    identity and two-sided bounds, child-interval parity ordering, and the
    constant-run closed form; the bounds are checked on _LEMMA_STRINGS strings."""
    rng = np.random.default_rng(seed)
    rep = Report(suite="lemmas", config={"seed": seed, "n_strings": _LEMMA_STRINGS})
    fails_growth = fails_split = fails_interval = 0
    for _ in range(_LEMMA_STRINGS):
        n = int(rng.integers(1, 31))
        digits = rng.integers(1, 11, size=n).tolist()
        t = continuants(digits)
        qn = t.qk(n)
        lo = math.prod(digits)
        hi = math.prod(a + 1 for a in digits)
        if not (lo <= qn <= hi and qn * qn >= 2 ** (n - 1)):
            fails_growth += 1
        if abs(t.pk(n) * t.qk(n - 1) - t.pk(n - 1) * t.qk(n)) != 1:
            fails_growth += 1
        if n >= 2:
            cut = int(rng.integers(1, n))
            qh = continuants(digits[:cut]).qk(cut)
            qt = continuants(digits[cut:]).qk(n - cut)
            if not (qh * qt <= qn <= 2 * qh * qt):
                fails_split += 1
        b = basic_interval(digits)
        if not (
            b.right - b.left == b.length
            and Fraction(1, 2 * qn * qn) <= b.length <= Fraction(1, qn * qn)
        ):
            fails_interval += 1
    rep.add("growth_bound_failures", fails_growth, 0, 0)
    rep.add("splitting_bound_failures", fails_split, 0, 0)
    rep.add("interval_identity_failures", fails_interval, 0, 0)

    # exhaustive parity ordering of child cylinders, orders up to 6
    from itertools import product

    fails_order = 0
    for n in range(0, 6):
        for digits in product(range(1, 5), repeat=n):
            kids = [basic_interval(digits + (a,)) for a in range(1, 5)]
            parent = basic_interval(digits) if digits else None
            lefts = [c.left for c in kids]
            ordered = sorted(kids, key=lambda c: c.left)
            if n % 2 == 0:
                ok = all(x > y for x, y in zip(lefts, lefts[1:]))
            else:
                ok = all(x < y for x, y in zip(lefts, lefts[1:]))
            ok = ok and all(ordered[j].right <= ordered[j + 1].left for j in range(3))
            if parent is not None:
                ok = ok and all(parent.left <= c.left and c.right <= parent.right for c in kids)
            if not ok:
                fails_order += 1
    rep.add("parity_ordering_failures", fails_order, 0, 0)

    fails_closed = sum(
        run_continuant(i, n) != run_continuant_closed_form(i, n)
        for i in range(1, 6)
        for n in range(0, 41)
    )
    rep.add("run_continuant_closed_form_failures", fails_closed, 0, 0)
    return rep


def solver_crosscheck(n_schedule: Sequence[int] = (3, 6, 12)) -> Report:
    """Enumeration-vs-spectral agreement matrix plus the bounded-type anchor
    value and alpha-monotonicity."""
    rep = Report(suite="solver_crosscheck", config={"n_schedule": list(n_schedule)})
    alphas = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
    for B in (1, 2, 3):
        for i in (1, 2):
            prev = None
            for a in alphas:
                e = dim_solver.dim_limit(B, a, i, n_schedule)
                s = dim_solver.spectral_dim(B, a, i)
                gap = abs(e.value - s.value)
                half = (e.bracket[1] - e.bracket[0]) / 2 + (s.bracket[1] - s.bracket[0]) / 2
                rep.add(f"gap_B{B}_a{a}_i{i}", gap, 0.0, min(half + 1e-12, 0.01))
                rep.series.append(
                    {"B": B, "i": i, "alpha": float(a), "enum": e.value, "spectral": s.value}
                )
                if prev is not None:
                    rep.add(f"alpha_monotone_B{B}_i{i}_{a}", s.value - prev, -math.inf, 1e-12)
                prev = s.value
    anchor = dim_solver.spectral_dim(2, 0, 1).value
    rep.add("bounded_type_anchor_B2", anchor, 0.526, 0.536)
    return rep
