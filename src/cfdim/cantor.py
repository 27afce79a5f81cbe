"""Cantor-set constructions with prescribed constant-run structure.

A construction is a pair of index sequences {n_k}, {m_k} (runs of the digit i
occupy positions n_k+1 .. m_k) together with one alphabet bound B for every
free position.  This module builds the standard sequence schedules for
prescribed uniform/asymptotic exponents and run-length densities, distributes
a probability measure over the admissible digit tree segment by segment (the
per-segment exponent is the root of that segment's partition sum), samples
from the measure, probes local dimensions, and applies the marker-digit
insertion map that pins the exponents of the image points.

Masses and conditional sampling run on per-segment transfer-operator stacks
(see cfdim.transfer), so depths far beyond enumeration range stay cheap.  A
sampled digit is one uniform compared with the stack's bracket table of the
digit law, and an inverse-CDF draw over B weights in numpy only where the
table cannot decide; a prefix is checked one schedule interval at a
time, and masses need only the denominators q_{n-1}, q_n of their digits
(cf_core.denominators); local dimensions at all block boundaries share one
pass over the prefix.  The recursion runs over free digits only: each
segment's forced run i^t is appended in closed form,

    q(w i^t) = q(w) q_t(i) + q(w-) q_{t-1}(i),

from the run continuants q_{t-2}, q_{t-1}, q_t(i) (cf_core.run_continuants).
Segment roots, stacks (each with its bracket table) and run continuants are
cached per spec in a MeasureContext, which the spec keeps and
measure_context returns.  A context also keeps one prefix whose mass it
computed, with its segment state, and a mass walk resumes from that state
whenever the prefix asked for extends the kept one; so the mass of each
child of the kept prefix is one digit step past it.  That is one digits
tuple per spec, 160 kB at 20 000 digits.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import dim_solver, transfer
from .cf_core import DigitSeq, check_run_digit, denominators, run_continuants
from .dim_solver import DimEstimate, to_fraction
from .errors import Inadmissible, InputOutOfRange, NoConvergence

log = logging.getLogger(__name__)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def log_int(n: int) -> float:
    """float log of an arbitrary-size positive integer."""
    if n <= 0:
        raise ValueError("need a positive integer")
    b = n.bit_length()
    if b <= 512:
        return math.log(n)
    shift = b - 64
    return math.log(n >> shift) + shift * math.log(2.0)


# ---------------------------------------------------------------------------
# sequence schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeqPair:
    """Run-position sequences: the k-th forced run covers n_k+1 .. m_k; every
    other position is free, in 1..B.  Shape rules: k_max >= 1 and n_1 >= 1
    (InputOutOfRange); one end per start, n_k < m_k < n_{k+1}, no run shorter
    than the one before (ValueError).  So every segment has a nonempty free part."""

    n: Tuple[int, ...]
    m: Tuple[int, ...]

    def __post_init__(self):
        if not self.n and not self.m:
            raise InputOutOfRange("k_max must be >= 1: the schedule has no run")
        if len(self.n) != len(self.m):
            raise ValueError(f"{len(self.n)} run starts but {len(self.m)} run ends")
        for k in range(len(self.n)):
            if not self.n[k] < self.m[k]:
                raise ValueError(f"run {k + 1} is empty: n = {self.n[k]}, m = {self.m[k]}")
            if k + 1 < len(self.n) and not self.m[k] < self.n[k + 1]:
                raise ValueError(f"run {k + 1} ends at {self.m[k]}, not before the next start {self.n[k + 1]}")
            if k and self.m[k] - self.n[k] < self.m[k - 1] - self.n[k - 1]:
                raise ValueError(f"run {k + 1} is shorter than run {k}")
        if self.n[0] < 1:
            raise InputOutOfRange(f"the first run start n_1 must be >= 1, got {self.n[0]}")

    @property
    def k_max(self) -> int:
        return len(self.n)

    def run_length(self, k: int) -> int:
        """Length of the k-th run (1-based k)."""
        return self.m[k - 1] - self.n[k - 1]

    @cached_property
    def segments(self) -> Tuple[Tuple[int, int, int], ...]:
        """(m_{k-1}, n_k, m_k) of every segment k, with m_0 = 0."""
        return tuple(zip((0,) + self.m[:-1], self.n, self.m))


_MAX_SCHEDULE_BITS = 2**26  # over all entries of a schedule, 8 MB; nu_hat = 0, nu = 1 fits to k_max = 12
_MAX_SAMPLE_DEPTH = 2**24  # sample_measure keeps one int reference per digit, in a list and a tuple: ~270 MB


def _schedule(k_max: int, n_1: int, m_of, n_next) -> SeqPair:
    """Runs k = 1..k_max: n_1, m_k = m_of(n_k), n_k = n_next(n_{k-1}, m_{k-1}, k).
    More than _MAX_SCHEDULE_BITS bits in all raise InputOutOfRange before the
    run that must pass them is built; runs never shrink (n_k < m_k < n_{k+1}),
    so the next has at least the last one's bits: one that fits is never refused."""
    ns, ms, bits = [], [], 0
    for k in range(1, k_max + 1):
        n = n_next(ns[-1], ms[-1], k) if ns else n_1
        ns.append(n)
        ms.append(m_of(n))
        last = n.bit_length() + ms[-1].bit_length()
        bits += last
        if bits + (last if k < k_max else 0) > _MAX_SCHEDULE_BITS:
            raise InputOutOfRange(f"k_max = {k_max} gives a schedule of more than 2^26 bits; lower k_max")
    return SeqPair(tuple(ns), tuple(ms))


def construct_sequences(nu_hat, nu, k_max: int = 12) -> SeqPair:
    """Schedule with (m_k-n_k)/n_k -> nu and (m_k-n_k)/n_{k+1} -> nu_hat.

    nu_hat > 0:  n_1 = 2, n_{k+1} = floor((nu/nu_hat)(n_k + 1/nu)) + 2,
                 m_k = floor((1+nu) n_k) + 1.
    nu_hat = 0:  n_k = floor((1+nu) 2^(2^(2k))) + 2, same m_k formula.
    A schedule past _MAX_SCHEDULE_BITS bits raises InputOutOfRange (see _schedule).
    """
    nv = to_fraction(nu)
    nh = to_fraction(nu_hat)
    if not (nv > 0):
        raise InputOutOfRange("need 0 < nu < infinity")
    if not (0 <= nh <= nv / (1 + nv)):
        raise InputOutOfRange(f"need 0 <= nu_hat <= nu/(1+nu) = {nv/(1+nv)}")
    if nh > 0:
        n_1, n_next = 2, lambda n, m, k: int((nv / nh) * (n + Fraction(1) / nv)) + 2
    else:
        n_1, n_next = int((1 + nv) * 2**4) + 2, lambda n, m, k: int((1 + nv) * 2 ** (2 ** (2 * k))) + 2
    return _schedule(k_max, n_1, lambda n: int((1 + nv) * n) + 1, n_next)


def construct_sequences_runlength(alpha, beta, k_max: int = 12) -> SeqPair:
    """Schedule meeting the run-length density limits
    (m_k-n_k)/n_{k+1} -> alpha/(1-alpha) and (m_k-n_k)/m_k -> beta.

    One valid choice (implementation-defined): n_1 = 2,
    m_k = floor(n_k/(1-beta)) + 1, n_{k+1} = floor(((1-alpha)/alpha)(m_k-n_k)) + 2.
    A schedule past _MAX_SCHEDULE_BITS bits raises InputOutOfRange (see _schedule).
    """
    a = to_fraction(alpha)
    b = to_fraction(beta)
    if not (0 < a <= b / (1 + b) < b < 1):
        raise InputOutOfRange(f"need 0 < alpha <= beta/(1+beta) < beta < 1, got alpha={a}, beta={b}")
    return _schedule(k_max, 2, lambda n: int(n / (1 - b)) + 1, lambda n, m, k: int(((1 - a) / a) * (m - n)) + 2)


# ---------------------------------------------------------------------------
# the constrained digit set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CantorSpec:
    """Alphabet bound B, run digit i, run schedule, and the insertion digit d
    (a marker larger than every admissible digit)."""

    B: int
    i: int
    sp: SeqPair
    d: Optional[int] = None

    def __post_init__(self):
        check_run_digit(self.i)
        transfer.check_alphabet(self.B)
        if self.B < self.i + 1:
            raise InputOutOfRange(f"need B >= i+1, got B={self.B}, i={self.i}")
        if self.d is not None and self.d <= self.B:
            raise InputOutOfRange(f"insertion digit must exceed B, got d={self.d}")

    @property
    def marker(self) -> int:
        return self.d if self.d is not None else self.B + 1

    @cached_property
    def _context(self) -> "MeasureContext":
        return MeasureContext(self)

    @cached_property
    def intervals(self) -> Tuple[Tuple[int, float, Optional[int]], ...]:
        """The digit rule as (lo, hi, bound): positions lo < pos <= hi lie in
        1..bound, or carry the run digit i when bound is None.

        Free stretch k is (m_{k-1}, n_k], bounded by B, and the last one is
        (m_K, inf).
        """
        stretches = [((m_prev, n_k, self.B), (n_k, m_k, None)) for m_prev, n_k, m_k in self.sp.segments]
        return tuple(chain.from_iterable(stretches)) + ((self.sp.m[-1], math.inf, self.B),)


def _bound_at(spec: CantorSpec, pos: int) -> Optional[int]:
    """Alphabet bound at a free position, or None if the position is forced."""
    return next(bound for _, hi, bound in spec.intervals if pos <= hi)  # the last hi is inf


def admissible_children(spec: CantorSpec, prefix: Sequence[int]) -> Tuple[int, ...]:
    """Digits allowed at the next position given an admissible prefix.

    The prefix that measure_mass keeps is known to be admissible, so only
    the positions past it are validated (MeasureContext.resume)."""
    digits = tuple(prefix)
    validate_prefix(spec, digits, len(measure_context(spec).resume(digits)[0]))
    pos = len(digits) + 1
    bound = _bound_at(spec, pos)
    if bound is None:
        return (spec.i,)
    return tuple(range(1, bound + 1))


def validate_prefix(spec: CantorSpec, prefix: Sequence[int], start: int = 0) -> None:
    """Raise Inadmissible naming the first position past `start` that breaks
    the digit rule; positions 1..start are taken as already checked.

    Each interval of the rule is checked on its whole slice (count of the run
    digit, or min and max against 1..bound); only a failing slice is scanned
    digit by digit.
    """
    digits = tuple(prefix)
    i, L = spec.i, len(digits)
    for lo, hi, bound in spec.intervals:
        if lo >= L:
            return
        if hi <= start:
            continue
        lo = lo if lo > start else start  # max() without a call: this runs for every child mass
        part = digits[lo : hi if hi < L else L]
        if bound is None:
            ok = part.count(i) == len(part)
        else:
            ok = not part or (1 <= min(part) and max(part) <= bound)
        if ok:
            continue
        for pos, a in enumerate(part, start=lo + 1):
            if bound is None and a != i:
                raise Inadmissible(f"position {pos} must carry the run digit {i}, got {a}")
            if bound is not None and not 1 <= a <= bound:
                raise Inadmissible(f"position {pos} must lie in 1..{bound}, got {a}")


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureNode:
    """A digit prefix with its measure mass (kept in log scale)."""

    digits: Tuple[int, ...]
    log_mass: float


class MeasureContext:
    """Per-spec cache: segment exponents s~_{l_k} and operator stacks.

    Segment k covers positions (m_{k-1}, m_k]: free part (m_{k-1}, n_k],
    forced i-run (n_k, m_k].  The segment exponent is the root of the
    segment partition sum; the stack keeps the log completion sums G_j for
    j = 0..K, K its settling depth, and SegmentStack.level(j) reads any free
    depth from them, which yields node masses and conditional digit laws.
    The forced run's continuants (q_{t-2}, q_{t-1}, q_t)(i), t = m_k - n_k,
    append the run to any free digits in closed form (`through_run`).
    Per segment asked for (at most k_max) a context keeps one root; one
    stack, levels 0..K of degree + 1 floats (K = 21-48 over B <= 16), a few
    kB, with its sampler table (8 kB at B = 3, 62 kB at B = 16); one run
    triple, three ints of about t log2 tau(i) bits, 23 kB at segment 10 of
    the nu_hat = 1/3, nu = 1, i = 1 schedule (t = 88 572).  It also keeps measure_mass's resumable
    prefix state: the digits of one prefix whose mass it computed, one tuple
    of 8-byte references to shared small ints (160 kB at 20 000 digits), and
    that prefix's state (segment, log mass, pair) (see advance), whose ints
    are at most q_n.
    """

    def __init__(self, spec: CantorSpec):
        self.spec = spec
        self._s_tilde: Dict[int, DimEstimate] = {}
        self._stacks: Dict[int, transfer.SegmentStack] = {}
        self._runs: Dict[int, Tuple[int, int, int]] = {}
        # the kept prefix and its state, one attribute so that they change together (see measure_mass)
        self._kept: Optional[Tuple[Tuple[int, ...], Tuple[int, float, Tuple[int, int]]]] = None

    def s_tilde(self, k: int) -> DimEstimate:
        if k not in self._s_tilde:
            m_prev, n_k, m_k = self.spec.sp.segments[k - 1]
            self._s_tilde[k] = dim_solver.predim_tilde(self.spec.B, self.spec.i, (m_k - m_prev, m_k - n_k))
        return self._s_tilde[k]

    def stack(self, k: int) -> transfer.SegmentStack:
        if k not in self._stacks:
            m_prev, n_k, m_k = self.spec.sp.segments[k - 1]
            s = self.s_tilde(k).value
            self._stacks[k] = transfer.segment_stack(self.spec.B, self.spec.i, n_k - m_prev, m_k - n_k, s)
        return self._stacks[k]

    def run_continuants(self, k: int) -> Tuple[int, int, int]:
        """(q_{t-2}, q_{t-1}, q_t) of segment k's forced run i^t, t = m_k - n_k."""
        if k not in self._runs:
            _, n_k, m_k = self.spec.sp.segments[k - 1]
            self._runs[k] = run_continuants(self.spec.i, m_k - n_k)
        return self._runs[k]

    def through_run(self, k: int, prev: int, cur: int) -> Tuple[int, int]:
        """(q_{l-1}, q_l) of w i^t from (q(w-), q(w)) = (prev, cur), where
        i^t is segment k's forced run: q(w i^t) = q(w) q_t + q(w-) q_{t-1}."""
        r2, r1, r = self.run_continuants(k)
        return cur * r1 + prev * r2, cur * r + prev * r1

    def segment_factor(self, k: int, q1: int, q: int) -> float:
        """-2 s~_k log q_{l_k} of complete segment k (its free digits, then
        its run), from the pair (q1, q) = (q_{n-1}, q_n) of its free digits."""
        return -2.0 * self.s_tilde(k).value * log_int(self.through_run(k, q1, q)[1])

    def open_factor(self, k: int, left: int, q1: int, q: int) -> float:
        """Log mass of segment k seen into its free part, `left` free digits to
        go, from the pair (q1, q) of its free digits so far: the partial
        continuant power, times the stack's completion sum at q1/q."""
        # int true division rounds correctly: the float of the fraction q1/q
        return -2.0 * self.s_tilde(k).value * log_int(q) + self.stack(k).eval_log(left, q1 / q)

    def resume(self, digits: Tuple) -> Tuple[Tuple[int, ...], tuple]:
        """The kept prefix and its state if `digits` extends it, else the
        empty prefix and its state.  Equal values match, so numpy ints and
        integral floats do, as int() would convert them."""
        kept = self._kept
        if kept is not None and digits[: len(kept[0])] == kept[0]:
            return kept
        return (), (1, 0.0, (0, 1))

    def advance(self, state: tuple, digits: Tuple[int, ...], start: int) -> Tuple[tuple, float]:
        """Walk digits[start:] from `state`, the state of digits[:start], to
        the state of `digits` and their log mass.

        A state (k, lm, (q1, q)) of L digits holds the segment k of position
        L (m_{k-1} < L <= m_k; k = 1 at L = 0), the log mass lm of the
        segments whose free part has closed (n_j < L), a left fold of their
        segment factors, and the pair (q1, q) of segment k's free digits.
        The log mass is lm, plus segment k's open factor when L lies inside
        its free part.  Each segment of the walk starts from the pair (0, 1).
        """
        k, lm, (q1, q) = state
        L, pos = len(digits), start
        segments = self.spec.sp.segments
        while True:
            m_prev, n_k, m_k = segments[k - 1]
            if L <= n_k:
                q1, q = denominators(digits[pos:L], q1, q)
                return (k, lm, (q1, q)), (lm + self.open_factor(k, n_k - L, q1, q) if L > m_prev else lm)
            if pos <= n_k:  # the free part closes inside the walk
                q1, q = denominators(digits[pos:n_k], q1, q)
                lm += self.segment_factor(k, q1, q)
            if L <= m_k:
                return (k, lm, (q1, q)), lm
            k, pos, q1, q = k + 1, m_k, 0, 1


def measure_context(spec: CantorSpec) -> MeasureContext:
    """The spec's own context, built on first use and freed with the spec."""
    return spec._context


def measure_mass(spec: CantorSpec, prefix: Sequence[int]) -> MeasureNode:
    """Mass of the cylinder of an admissible prefix.

    Complete segments contribute q_{l_k}^{-2 s~_k} of their own continuants,
    and so does a segment seen into its forced run, whose completion is
    forced; a segment seen into its free part contributes its partial
    continuant power times the operator-stack completion sum at the current
    continuant ratio.

    The context keeps one prefix with its state (MeasureContext.advance).
    A prefix that extends it is walked from that state, any other from the
    empty state, and only the digits past the resume point are converted
    by int() and validated.  The walk runs on the same integers and the
    same float operations in the same order from either point, so the mass
    has the same bits.  The new state is kept unless the prefix is the kept
    one plus one digit (a child in a child sum), so that its siblings step
    from the same parent; a call that raises leaves the state as it is.
    A prefix longer than the schedule's last run end m_K raises
    InputOutOfRange: the segment exponents past it are not materialized.
    """
    digits = tuple(prefix)
    sp = spec.sp
    if len(digits) > sp.m[-1]:
        raise InputOutOfRange(f"depth {len(digits)} beyond materialized schedule (m_{sp.k_max} = {sp.m[-1]})")
    ctx = measure_context(spec)
    kept = ctx.resume(digits)
    start = len(kept[0])
    digits = kept[0] + tuple(map(int, digits[start:]))
    validate_prefix(spec, digits, start)
    state, lm = ctx.advance(kept[1], digits, start)
    if not (kept is ctx._kept and len(digits) == start + 1):  # a child leaves its parent kept
        ctx._kept = (digits, state)
    return MeasureNode(digits=digits, log_mass=lm)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def _allowed_run(spec: CantorSpec, k: int) -> int:
    """Max accidental i-run length tolerated in segment k's free part."""
    if k == 1:
        return spec.sp.run_length(1) - 1
    return spec.sp.run_length(k - 1)


def _sample_segment_free(ctx: MeasureContext, k: int, rng: np.random.Generator, reject: bool) -> Tuple[int, ...]:
    """Free digits of segment k, drawn from the conditional measure law.

    Each digit is an inverse-CDF draw with one u = rng.random() on the
    stack's digit_cdf: the arithmetic of rng.choice(B, p=w) without its
    argument checks (the exact path), so a seed gives the same digits as
    that call.  A draw with more than K free digits after it (K the settling
    depth) first reads cell floor(r cells) of the stack's bracket table
    (SegmentStack.cdf_table): if lo_b <= CDF_b(r) <= hi_b and the boundaries
    with hi_b <= u are those with lo_b <= u, the exact path counts the same
    boundaries below u; otherwise it runs on the same u.
    """
    spec = ctx.spec
    m_prev, n_k, _ = spec.sp.segments[k - 1]
    free = n_k - m_prev
    st = ctx.stack(k)
    B, i = spec.B, spec.i
    a_vec = np.arange(1, B + 1, dtype=np.float64)
    cap = _allowed_run(spec, k)
    guard_first = k >= 2  # no digit i next to the previous run end (the last free digit is never i)
    lo, hi, cells, fast = st.cdf_table or ((), (), 0, 0)  # draw j reads the table iff j < fast
    nb = B - 1
    for attempt in range(200):
        out: List[int] = []
        r, run = 0.0, 0
        for j in range(free):
            u = rng.random()
            a = 0
            if j < fast:
                row = int(r * cells) * nb
                below = bisect_right(hi, u, row, row + nb)
                if below == bisect_right(lo, u, row, row + nb):
                    a = below - row + 1
            if not a:
                cdf = st.digit_cdf(free - j - 1, a_vec + r)
                a = int(cdf.searchsorted(u, side="right")) + 1
            out.append(a)
            r = 1.0 / (a + r)
            if reject:
                run = run + 1 if a == i else 0
                if a == i and ((j == 0 and guard_first) or j == free - 1 or run > cap):
                    break
        else:
            if attempt:
                log.debug("segment %d free part redrawn %d times", k, attempt)
            return tuple(out)
    raise NoConvergence(f"segment {k} rejection cap reached")


def sample_measure(
    spec: CantorSpec,
    depth: int,
    seed: int,
    reject_accidental: bool = True,
) -> DigitSeq:
    """Draw a depth-digit admissible prefix with the measure's conditional
    probabilities; deterministic for a fixed seed.

    With `reject_accidental` the free parts are redrawn until no accidental
    i-run can disturb the designed record blocks (runs capped below the
    previous designed run length and never adjacent to a designed run), so
    record extraction reproduces the designed blocks exactly; switch it off
    for unconditioned measure-fidelity checks.  A negative depth, or one above
    _MAX_SAMPLE_DEPTH, raises InputOutOfRange before any segment is solved.
    """
    sp = spec.sp
    if depth < 0:
        raise InputOutOfRange(f"depth {depth} is negative")
    if depth > sp.m[-1]:
        raise InputOutOfRange(f"depth {depth} beyond materialized schedule (m_{sp.k_max} = {sp.m[-1]})")
    if depth > _MAX_SAMPLE_DEPTH:
        raise InputOutOfRange(f"depth {depth} beyond the sampler's cap of 2^24 digits")
    ctx = measure_context(spec)
    rng = np.random.default_rng(seed)
    i = int(spec.i)
    out: List[int] = []
    for k, (_, n_k, m_k) in enumerate(sp.segments, start=1):
        if len(out) >= depth:
            break
        out.extend(_sample_segment_free(ctx, k, rng, reject_accidental))
        out.extend([i] * (m_k - n_k))
    return DigitSeq(tuple(out[:depth]))  # every digit is already an int


def _log_length(q_prev: int, q: int) -> float:
    """log |I_n| = -(log q_n + log(q_n + q_{n-1}))."""
    return -(log_int(q) + log_int(q + q_prev))


def local_dimension(spec: CantorSpec, prefix: Sequence[int]) -> float:
    """log mu(I_n) / log |I_n| with the exact cylinder length."""
    digits = tuple(map(int, prefix))
    if not digits:
        raise ValueError("need a nonempty prefix")
    node = measure_mass(spec, digits)
    return node.log_mass / _log_length(*denominators(digits))


def local_dimension_series(spec: CantorSpec, prefix: Sequence[int]) -> Tuple[Tuple[int, float], ...]:
    """Local dimension at every completed block boundary m_k in the prefix.

    One pass: at boundary m_k the mass is the running sum of the complete
    segment factors, and the running pair (q_{l-1}, q_l) gives |I_{m_k}|.
    Each segment's free block acts on that pair as one continuant matrix:
    from its pairs (Q1, Q) and (P1, P) started at (0, 1) and (1, 0), which
    its factor needs too and which stay small, the pair becomes
    (q_{l-1} P1 + q_l Q1, q_{l-1} P + q_l Q); its forced run is then appended
    in closed form.  Each value equals local_dimension(spec, prefix[:m_k]).
    """
    digits = tuple(map(int, prefix))
    done = [seg for seg in spec.sp.segments if seg[2] <= len(digits)]
    if not done:
        return ()
    validate_prefix(spec, digits[: done[-1][2]])
    ctx = measure_context(spec)
    out = []
    lm = 0.0
    q_prev, q = 0, 1
    for k, (m_prev, n_k, m_k) in enumerate(done, start=1):
        free = digits[m_prev:n_k]
        Q1, Q = denominators(free)
        P1, P = denominators(free, 1, 0)
        lm += ctx.segment_factor(k, Q1, Q)
        q_prev, q = ctx.through_run(k, q_prev * P1 + q * Q1, q_prev * P + q * Q)
        out.append((m_k, lm / _log_length(q_prev, q)))
    return tuple(out)


# ---------------------------------------------------------------------------
# insertion map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InsertResult:
    digits: DigitSeq
    marked: Tuple[int, ...]  # 1-based positions of the inserted marker digit


def insert_map(spec: CantorSpec, x_digits: Sequence[int]) -> InsertResult:
    """Insert the marker digit d before every chunk of m_k - n_k digits of
    each block (n_k, n_{k+1}]; the prefix 1..n_1 is copied unchanged.

    Deleting the marked positions recovers the input exactly.
    """
    digits = list(map(int, x_digits))
    validate_prefix(spec, digits)
    sp = spec.sp
    d = int(spec.marker)
    out: List[int] = []
    marked: List[int] = []
    n1 = sp.n[0]
    out.extend(digits[:n1])
    pos = n1
    k = 1
    while pos < len(digits):
        chunk = sp.run_length(k)
        block_end = sp.n[k] if k < sp.k_max else len(digits)
        stop = min(block_end, len(digits))
        while pos < stop:
            marked.append(len(out) + 1)
            out.append(d)
            take = min(chunk, stop - pos)
            out.extend(digits[pos : pos + take])
            pos += take
        k += 1
    return InsertResult(digits=DigitSeq(tuple(out)), marked=tuple(marked))


def delete_marked(res: InsertResult) -> Tuple[int, ...]:
    """The digits with the marked positions (increasing, as insert_map
    returns them) removed: the slices between consecutive markers, joined."""
    d = res.digits.digits
    starts = (0,) + res.marked
    ends = res.marked + (len(d) + 1,)
    return tuple(chain.from_iterable(d[a : b - 1] for a, b in zip(starts, ends)))


def inserted_record_blocks(spec: CantorSpec, k_max: Optional[int] = None) -> Tuple[Tuple[int, int], ...]:
    """Record blocks of the image points f(x), computed from the schedule.

    The marker digit insulates each designed run, and accidental i-runs in
    free chunks are bounded by the chunk length m_k - n_k, so they are never
    strictly longer than the last record; the record structure of any image
    point is therefore the designed one, shifted by the insertion counts.
    """
    sp = spec.sp
    km = sp.k_max if k_max is None else min(k_max, sp.k_max)
    out = []
    cum = 0
    for k in range(1, km + 1):
        out.append((sp.n[k - 1] + cum + 1, sp.m[k - 1] + cum + 1))
        if k < sp.k_max:
            chunk = sp.run_length(k)
            cum += 1 + _ceil_div(sp.n[k] - sp.m[k - 1], chunk)
    return tuple(out)
