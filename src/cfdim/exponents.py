"""Uniform and asymptotic approximation exponents against y = [i, i, ...].

The orbit distance |T^n(x) - y| is controlled exactly through the length m of
the common digit prefix of T^n(x) with the constant sequence (i, i, ...):

    |I_m(y)| / (2 (i+2)^2)  <=  |T^n(x) - y|  <  |I_m(y)|.

Block decomposition keeps the "record" i-runs of x: the maximal runs of the
digit i that are strictly longer than every earlier one.  The exponents are
finite-scale liminf/limsup of the record ratios (m_k - n_k)/n_{k+1} and
(m_k - n_k)/n_k.  RecordScan finds the records: `decompose` pushes one row
through it, and verify.RecordTracker extends it to the Monte Carlo samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cf_core import DigitSeq, QuadraticTarget, check_run_digit
from .errors import Exhausted, InputOutOfRange, InsufficientBlocks
from .runlength import digit_array, maximal_runs

_THRESHOLD_BITS = 256  # mpmath working precision of the exact-threshold enclosure


@dataclass(frozen=True)
class BlockDecomposition:
    """Record i-runs of a digit string.

    A record block (n, m) means a_{n+1} = ... = a_m = i, maximal, and strictly
    longer than every earlier maximal i-run; the first i-run is always a record.
    """

    i: int
    record_blocks: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class ExponentEstimate:
    nu_hat_est: float
    nu_est: float
    k_used: int


class RecordScan:
    """Record blocks of the digit i in each of `rows` digit strings, scanned
    as `push` feeds the next digits of every row.  A run of i open at the
    last digit pushed closes at the next push that starts with another digit."""

    def __init__(self, rows: int, i: int):
        check_run_digit(i)
        self.i = i
        self.pos = 0
        self.runlen = np.zeros(rows, dtype=np.int64)  # the open run of i at each row's end
        self.best = np.zeros(rows, dtype=np.int64)  # the last closed record's length
        self._closed: List[List[Tuple[int, int]]] = [[] for _ in range(rows)]

    def _close(self, k: int, end: int, length: int) -> None:
        self._closed[k].append((end - length, end))
        self.best[k] = length

    def push(self, block: np.ndarray) -> None:
        """Feed the next digits of every row, a (rows, width) block; it is
        read, not kept.  Only record runs reach Python code."""
        nrows, width = block.shape
        pos, runlen, best = self.pos, self.runlen, self.best
        isi = block == self.i
        head, tail = isi[:, 0], isi[:, -1]
        # a carried run that ends at the block's first digit
        for k in np.flatnonzero((runlen > best) & ~head).tolist():
            self._close(k, pos, int(runlen[k]))
        starts, lengths = maximal_runs(isi)  # runs of i and of other digits, alternating
        first = starts.searchsorted(np.arange(nrows) * width)
        last = np.append(first[1:], starts.size) - 1
        lengths[first] += runlen * head  # the carried run goes on
        self.runlen = np.where(tail, lengths[last], 0)
        lengths[last[tail]] = 0  # runs still open at the block's end close later
        self.pos += width
        # a closed run of i is a record when it is longer than its row's
        # best and than every earlier run of the row in this block: screen
        # by the smallest best, then compare keys that sort by row, then
        # by length, with their running maximum
        cand = np.flatnonzero(isi.ravel()[starts] & (lengths > best.min()))
        rows = first.searchsorted(cand, side="right")
        rows -= 1
        L = lengths[cand]
        key = rows * (pos + width + 1)
        key += L
        rec = L > best[rows]
        rec[1:] &= key[1:] > np.maximum.accumulate(key[:-1])
        cand, rows, L = cand[rec], rows[rec], L[rec]
        ends = pos + starts[cand + 1] - rows * width  # where the next run of the row starts
        for k, end, length in zip(rows.tolist(), ends.tolist(), L.tolist()):
            self._close(k, end, length)

    def records(self, k: int) -> Tuple[Tuple[int, int], ...]:
        """Record blocks of row k, the still-open run included when it is one."""
        rl = int(self.runlen[k])
        open_run = ((self.pos - rl, self.pos),) if rl > self.best[k] else ()
        return tuple(self._closed[k]) + open_run


def decompose(d: Sequence[int] | DigitSeq, i: int) -> BlockDecomposition:
    scan = RecordScan(1, i)
    a = digit_array(d)
    if a.size == 0:
        raise ValueError("empty digit sequence")
    scan.push(a.reshape(1, -1))
    records = scan.records(0)
    if not records:
        raise InputOutOfRange(f"digit {i} never occurs")
    return BlockDecomposition(i=i, record_blocks=records)


def exponent_estimates(bd: BlockDecomposition, horizon: int) -> ExponentEstimate:
    """Finite-scale exponents from record blocks within the horizon.

    nu_hat_est: min over the tail half of records k (with the next record
    start n_{k+1} known and <= horizon) of (m_k - n_k)/n_{k+1}.
    nu_est: max over the tail half of records with m_k <= horizon of
    (m_k - n_k)/n_k.
    """
    recs = [(n, m) for (n, m) in bd.record_blocks if m <= horizon]
    if len(recs) < 2:
        raise InsufficientBlocks(f"need >= 2 record blocks within horizon, have {len(recs)}")
    nu_est = max((m - n) / n for n, m in recs[len(recs) // 2 :])

    hat_pairs = [
        (recs[k], recs[k + 1][0])
        for k in range(len(recs) - 1)
        if recs[k + 1][0] <= horizon
    ]
    if not hat_pairs:
        raise InsufficientBlocks("no record pair with next start inside horizon")
    tail_hat = hat_pairs[len(hat_pairs) // 2 :]
    nu_hat_est = min((m - n) / nxt for (n, m), nxt in tail_hat)
    return ExponentEstimate(nu_hat_est=nu_hat_est, nu_est=nu_est, k_used=len(recs))


# ---------------------------------------------------------------------------
# exact distance brackets
# ---------------------------------------------------------------------------


def _longest_common_prefix(d: DigitSeq, i: int, lo: int, hi: int) -> int:
    """Longest common prefix of T^n(x)'s digits with (i, i, ...) over the
    shifts lo <= n <= hi, 0 for an empty window: the i-run [s, e) that holds
    n gives e - n.

    Raises Exhausted for fewer than hi + 1 certified digits, and when an
    i-run that meets the window ends at the last digit of a sequence that
    might continue.
    """
    a = digit_array(d)
    if a.size < hi + 1:
        raise Exhausted(f"need at least {hi + 1} certified digits, have {a.size}")
    if lo > hi:
        return 0
    starts, lengths = maximal_runs(a)
    ends = starts + lengths
    held = (a[starts] == i) & (ends > lo) & (starts <= hi)
    if not held.any():
        return 0
    if not d.complete and ends[held][-1] == a.size:
        raise Exhausted("common prefix with target runs past certified digits")
    return int((ends[held] - np.maximum(starts[held], lo)).max())


def common_prefix_with_target(d: DigitSeq, n: int, i: int) -> int:
    """Length m of the maximal common prefix of T^n(x)'s digits with (i,i,...).

    Raises Exhausted when the run of i's reaches the end of the certified
    digits of a sequence that might continue.
    """
    if n < 0:
        raise ValueError("shift must be >= 0")
    return _longest_common_prefix(d, i, n, n)


def distance_bracket(
    d: DigitSeq, n: int, t: QuadraticTarget
) -> Tuple[Fraction, Fraction]:
    """Exact rational bracket (lower, upper) for |T^n(x) - y|.

    With m the common-prefix length of T^n(x) with (i, i, ...):
    lower = |I_m(y)| / (2 (i+2)^2), upper = |I_m(y)|.
    """
    m = common_prefix_with_target(d, n, t.i)
    im = t.cylinder_length(m)
    return im / (2 * (t.i + 2) ** 2), im


@dataclass(frozen=True)
class HitCheck:
    """Outcome of a uniform-approximation hit test over a window [1, N].

    certain: bracket-proved hit (some upper bound < threshold).
    possible: not bracket-excluded (some lower bound < threshold).
    verdict: True / False when both agree, None when indeterminate.
    """

    certain: bool
    possible: bool

    @property
    def verdict(self) -> Optional[bool]:
        if self.certain:
            return True
        if not self.possible:
            return False
        return None


def _threshold_interval(t: QuadraticTarget, N: int, nu_hat: float):
    """Enclosure of |I_N(y)|^{nu_hat} as (lo, hi) Fractions.

    Computed at _THRESHOLD_BITS working precision and widened by a relative
    guard of 2^{-_THRESHOLD_BITS//2}, which dominates the few-ulp error of
    the exp/log chain by hundreds of bits.  mpmath is imported here, on the
    one path that uses it, so that importing cfdim does not load it.
    """
    import mpmath

    length = t.cylinder_length(N)
    with mpmath.workprec(_THRESHOLD_BITS):
        val = mpmath.exp(
            mpmath.mpf(nu_hat)
            * (mpmath.log(mpmath.mpf(length.numerator)) - mpmath.log(mpmath.mpf(length.denominator)))
        )
    man, exp = val.man_exp
    center = Fraction(man) * Fraction(2) ** exp
    guard = Fraction(1, 2 ** (_THRESHOLD_BITS // 2))
    return center * (1 - guard), center * (1 + guard)


def uniform_hit_check(
    d: DigitSeq,
    t: QuadraticTarget,
    N: int,
    nu_hat: float,
) -> HitCheck:
    """Does some n in [1, N] bring the orbit within |I_N(y)|^{nu_hat} of y?

    Decisions are made from the exact distance brackets only; float logs are
    used for screening and every near-threshold comparison is re-done in
    exact arithmetic, so `certain`/`possible` are rigorous.
    """
    nu_hat = float(nu_hat)
    if not nu_hat >= 0:  # NaN too: every comparison with it is False
        raise ValueError("nu_hat must be >= 0")
    if nu_hat == 0:
        # threshold |I_N|^0 = 1 strictly exceeds any distance inside [0,1)
        return HitCheck(certain=True, possible=True)
    # |I_m(y)| strictly decreases in m, so both distance bounds are smallest
    # at the longest common prefix in the window: it alone decides the check
    m = _longest_common_prefix(d, t.i, 1, N)
    if N < 1:  # empty window: no shift to hit with
        return HitCheck(certain=False, possible=False)
    log_upper = t.log_cylinder_length(m)
    log_lower = log_upper - math.log(2 * (t.i + 2) ** 2)
    log_thr = nu_hat * t.log_cylinder_length(N)
    margin = 1e-6
    if abs(log_upper - log_thr) > margin and abs(log_lower - log_thr) > margin:
        return HitCheck(certain=log_upper < log_thr, possible=log_lower < log_thr)
    thr_lo, thr_hi = _threshold_interval(t, N, nu_hat)
    upper = t.cylinder_length(m)
    return HitCheck(certain=upper < thr_lo, possible=upper / (2 * (t.i + 2) ** 2) < thr_hi)
