"""Maximal run-length function R_n and finite-scale liminf/limsup estimators.

R_n(x) is the length of the longest block of equal consecutive partial
quotients among the first n digits.  The level sets of liminf R_n/n and
limsup R_n/n are the run-length fractals this package targets; at finite
scale both limits are estimated by the min/max of R_n/n over a tail window.
`maximal_runs` is the batch scan for runs of equal digits that
`run_profile` and `exponents` share.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .cf_core import DigitSeq, read_digits
from .errors import InputOutOfRange


@dataclass(frozen=True)
class RunProfile:
    """R_1..R_{n_max}: R[n-1] is the length of the longest run of equal
    consecutive digits among the first n."""

    n_max: int
    R: np.ndarray


@dataclass(frozen=True)
class RatioEstimate:
    liminf_est: float
    limsup_est: float
    window: Tuple[int, int]


def digit_array(d: Sequence[int] | DigitSeq) -> np.ndarray:
    """The digits as a numpy integer array (a DigitSeq gives its certified
    digits).  A numpy integer array is taken as it is, and integers are
    packed as int64 words, which casts nothing: any other digit, 2.0 or 2.7,
    sends the whole sequence to cf_core.read_digits."""
    seq = d.digits if isinstance(d, DigitSeq) else d
    if isinstance(seq, np.ndarray) and seq.dtype.kind == "i":
        return seq
    try:
        words = array("q", seq)  # takes integers only (operator.index): TypeError for 2.0
    except TypeError:
        words = array("q", read_digits(seq))
    return np.frombuffer(words, dtype=np.int64)


def maximal_runs(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """0-based starts and lengths of the maximal blocks of equal consecutive
    entries of `a`, left to right.  A 2-D `a` is scanned row by row, as the
    Monte Carlo trackers scan a chain block: no run spans two rows, and the
    starts are row-major flat indices."""
    new_run = np.empty(a.shape, dtype=bool)
    new_run[..., :1] = True
    np.not_equal(a[..., 1:], a[..., :-1], out=new_run[..., 1:])
    starts = np.flatnonzero(new_run)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1:] = a.size - starts[-1:]
    return starts, lengths


def run_profile(d: Sequence[int] | DigitSeq) -> RunProfile:
    """Single left-to-right pass: R_n = max(R_{n-1}, current run length)."""
    a = digit_array(d)
    n = a.size
    if n == 0:
        raise ValueError("empty digit sequence")
    starts, lengths = maximal_runs(a)
    # run length ending at each position: position index minus its run start
    ending = np.arange(1, n + 1, dtype=np.int64) - np.repeat(starts, lengths)
    return RunProfile(n_max=n, R=np.maximum.accumulate(ending))


def ratio_estimates(rp: RunProfile, tail_fraction: float = 0.5) -> RatioEstimate:
    """Min/max of R_n/n over the last `tail_fraction` of the profile.

    These are finite-scale estimators of liminf and limsup R_n/n, not limits;
    the window must span at least one full plateau cycle of R_n to be
    meaningful.
    """
    if not (0 < tail_fraction <= 1):
        raise InputOutOfRange(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    n = rp.n_max
    k_min = n - int(tail_fraction * n) + 1
    if k_min > n:
        raise InputOutOfRange(f"window ({k_min}, {n}) is empty")
    ns = np.arange(k_min, n + 1, dtype=np.float64)
    ratios = rp.R[k_min - 1 :] / ns
    return RatioEstimate(
        liminf_est=float(ratios.min()),
        limsup_est=float(ratios.max()),
        window=(k_min, n),
    )

