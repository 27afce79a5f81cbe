"""Chebyshev-collocation engine for Gauss-map transfer operators.

The weighted operator on the alphabet {1..B} with exponent s acts as

    (L_s f)(x) = sum_{a=1}^{B} (a + x)^{-2s} f(1/(a + x)),  x in [0, 1].

Functions are represented by their values on Chebyshev-Lobatto nodes and
evaluated elsewhere by barycentric interpolation; the inverse branches map
[0,1] into itself, so the collocation matrix of L_s is one contraction of
the branch weights with one cached (B, n, n) array,
ChebyshevGrid.branch_rows(B).

Two consumers:
  * the leading eigenvalue of L_s, by power iteration on its 4th power
    (log of which is the pressure, exactly log B at s = 0), and
  * finite products L_s^f applied to a run-tail seed function, which evaluate
    constrained partition sums with forced trailing digits without
    enumerating the free digits.  Those iterations run in log-space on an
    iterate normalized to 0 at x = 0, so it stays O(1) for any f.  Its shape
    converges to the leading eigenfunction at the rate |lambda_2/lambda_1|
    (about 0.3), and once it stops changing in the last bits (the settling
    depth K, about 20-50 levels) each further application only adds
    log lambda_1.  A product of any length f therefore costs min(f, K)
    applications and keeps min(f, K) + 1 levels.
"""

from __future__ import annotations

import functools
import math
import numbers
from array import array
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .cf_core import log_run_continuant
from .errors import InputOutOfRange, NoConvergence

DEFAULT_DEGREE = 32
MAX_B = 2**12  # largest alphabet bound: its branch rows take 34 MB at the default degree


def check_alphabet(B: int, name: str = "alphabet bound") -> None:
    """The alphabet bound's one range rule: InputOutOfRange unless B is an integer, 1 <= B <= MAX_B."""
    if type(B) is not int and not isinstance(B, numbers.Integral):  # numpy integers are Integral; an int skips the ABC
        raise InputOutOfRange(f"{name} must be an integer, got {B}")
    if not 1 <= B <= MAX_B:
        bound = ">= 1" if B < 1 else f"<= {MAX_B}"
        raise InputOutOfRange(f"{name} must be {bound}, got {B}")


class ChebyshevGrid:
    """Chebyshev-Lobatto nodes on [0,1] with barycentric interpolation, and
    the read-only branch rows up to the largest B asked for, at most MAX_B:
    B (degree + 1)^2 float64s, 1.1 MB at B = 128 and the default degree."""

    def __init__(self, degree: int = DEFAULT_DEGREE):
        if degree < 2:
            raise ValueError("degree must be >= 2")
        self.degree = degree
        j = np.arange(degree + 1)
        self.nodes = 0.5 * (1.0 - np.cos(np.pi * j / degree))
        w = np.ones(degree + 1)
        w[1::2] = -1.0
        w[0] *= 0.5
        w[-1] *= 0.5
        self.weights = w
        self._branch_rows = np.empty((0, degree + 1, degree + 1))

    def interp_matrix(self, points: np.ndarray) -> np.ndarray:
        """Rows of barycentric interpolation weights at the given points."""
        pts = np.asarray(points, dtype=np.float64)
        diff = pts[:, None] - self.nodes
        if diff.all():  # no point on a node
            terms = self.weights / diff
            return terms / terms.sum(axis=1, keepdims=True)
        exact = diff == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = self.weights / diff
            out = terms / terms.sum(axis=1, keepdims=True)
        hit_rows = exact.any(axis=1)
        out[hit_rows] = exact[hit_rows].astype(np.float64)
        return out

    def branch_rows(self, B: int) -> np.ndarray:
        """(B, n, n) array whose block a - 1 is the interpolation rows at the
        branch images 1/(a + nodes), a = 1..B; a view of the cached array.
        B outside check_alphabet's range raises and builds nothing."""
        check_alphabet(B)
        have = self._branch_rows.shape[0]
        if B > have:
            new = [self.interp_matrix(1.0 / (a + self.nodes)) for a in range(have + 1, B + 1)]
            self._branch_rows = np.concatenate([self._branch_rows, new])
            self._branch_rows.flags.writeable = False
        return self._branch_rows[:B]


@functools.cache
def get_grid(degree: int) -> ChebyshevGrid:
    """The shared grid of a degree (one per degree ever asked for)."""
    return ChebyshevGrid(degree)


def transfer_matrix(B: int, s: float, degree: int = DEFAULT_DEGREE) -> np.ndarray:
    """Collocation matrix of L_s: branch rows weighted by (a + x)^{-2s}, summed over a = 1..B.

    numpy's einsum (without `optimize`) adds the branches in order a = 1..B,
    as a loop over the branches would; that order is not a documented
    promise, and test_transfer_matrix_matches_branch_loop pins it."""
    grid = get_grid(degree)
    rows = grid.branch_rows(B)  # checks B before any weight is built
    w = (np.arange(1, B + 1)[:, None] + grid.nodes) ** (-2.0 * s)
    return np.einsum("ax,axy->xy", w, rows)


_EIG_TOL = 1e-12  # relative change of M^4's Rayleigh quotient, three steps running
_EIG_MAXITER = 100_000  # iterations of M^4
_READBACK_TOL = 1e-9  # relative gap of (readback on M)^4 from M^4's eigenvalue; 2000x the largest measured
_MAX_PRESSURE_S = 4.0  # largest s that pressure takes (see there)


def leading_eigenvalue(M: np.ndarray, start: Optional[np.ndarray] = None) -> float:
    """Dominant eigenvalue by power iteration on M^4 = (M M)(M M), read back on M.

    The iterate contracts by |lambda_2/lambda_1| (about 0.30 for L_s) per
    step of M, by 0.0085 per step of M^4: it settles in half the steps.  Once
    M^4's Rayleigh quotient changes by at most _EIG_TOL relative three steps
    running, the settled unit iterate v gives the Rayleigh quotient on M
    itself, not a 4th root, so a negative eigenvalue keeps its sign.  Where
    v is no eigenvector of M (a quarter turn, or eigenvalues +-lambda, which
    plain iteration never settles on) the readback to the 4th power misses
    M^4's eigenvalue by O(1): past _READBACK_TOL the call raises
    NoConvergence.  On transfer matrices the gap measured at most 5e-13, and
    lambda^4 stays in range: lambda <= B <= MAX_B, P >= -14 up to s = 400.

    It starts from a copy of `start`, or from all ones; v is written back
    into `start`, so the next call on a nearby matrix starts close to its
    eigenvector, and a call that raises leaves `start` as it was.  The norm
    is np.linalg.norm's arithmetic, sqrt(w.dot(w)), without its overhead,
    and the iterate is scaled in place, so every iterate keeps its bits.  A
    non-finite norm (a nan or inf in M or in `start`) raises at once."""
    M2 = M @ M
    M4 = M2 @ M2
    v = np.ones(M.shape[0]) if start is None else start.copy()
    lam_prev = np.inf
    stable = 0
    for _ in range(_EIG_MAXITER):
        w = M4 @ v
        nw = math.sqrt(w.dot(w))
        if not math.isfinite(nw):
            raise NoConvergence(f"power iteration reached a non-finite norm {nw}")
        if nw == 0:
            raise NoConvergence("operator annihilated the iterate")
        lam = float(v @ w) / float(v @ v)
        w /= nw
        v = w
        if lam != 0 and abs(lam - lam_prev) <= _EIG_TOL * abs(lam):
            stable += 1
            if stable >= 3:
                lam1 = float(v @ (M @ v)) / float(v @ v)
                if not abs(lam1**4 - lam) <= _READBACK_TOL * abs(lam):
                    raise NoConvergence(f"readback {lam1} on M disagrees with {lam} on M^4")
                if start is not None:
                    start[:] = v
                return lam1
        else:
            stable = 0
        lam_prev = lam
    raise NoConvergence(f"power iteration did not reach rel tol {_EIG_TOL}")


def _check_exponent(s: float) -> None:
    if not 0 <= s <= _MAX_PRESSURE_S:  # NaN too: every comparison with it is False
        bound = f"<= {_MAX_PRESSURE_S}" if s > 0 else "finite and >= 0"
        raise InputOutOfRange(f"s must be {bound}, got {s}")


def pressure(B: int, s: float, start: Optional[np.ndarray] = None) -> float:
    """log of the leading eigenvalue of L_s on {1..B}; the exponent's one range
    rule is 0 <= s <= 4, else InputOutOfRange; `start` as in leading_eigenvalue.
    At s = 0 it is exactly log B: no matrix, `start` untouched, B checked here;
    other paths check B in transfer_matrix.  Up to s = 4.5 the default degree is
    exact to rounding (|P_1(s) + 2 s log phi| <= 7e-15; degree 64 agrees within
    1e-13 at B = 2, 3, 16, 256, 4096); past it both go wrong silently: P_1 is
    0.51 off at s = 5 and 2.9 at s = 8, the degrees 0.23 apart at s = 5."""
    _check_exponent(s)
    if s == 0:
        check_alphabet(B)
        return math.log(B)
    lam = leading_eigenvalue(transfer_matrix(B, s), start)
    if lam <= 0:
        raise NoConvergence(f"non-positive leading eigenvalue {lam}")
    return math.log(lam)


def hurwitz_bounds(s: float, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= zeta(2s, q) = sum_{n >= 0} (n + q)^{-2s} <= hi up to
    rounding, for s > 1/2 and q >= 1: Euler-Maclaurin with one Bernoulli term,

        hi = q^{-2t}/(2t) + q^{-2s}/2 + 2s q^{-2s-1}/12,   t = s - 1/2,
        lo = hi - 2s (2s+1) (2s+2) q^{-2s-3}/720,

    as (n + q)^{-2s} is completely monotone in n, so the remainder has the
    sign of the next term and is at most it.  s - 1/2 is exact in floating
    point, and the pole term is written in t, so nothing cancels near 1/2."""
    t, sigma = s - 0.5, 2.0 * s
    q_sigma = q**-sigma
    hi = q ** (-2.0 * t) / (2.0 * t) + 0.5 * q_sigma + sigma * q_sigma / (12.0 * q)
    return hi - sigma * (sigma + 1.0) * (sigma + 2.0) * q_sigma / (720.0 * q**3), hi


_TAIL_SAMPLES = 257  # points of [0, 1/(B+1)] at which full_pressure_bounds reads v's extremes


@functools.lru_cache(maxsize=8)
def _tail_rows(B: int) -> np.ndarray:
    """Interpolation rows at _TAIL_SAMPLES even points of [0, 1/(B+1)], the
    range of the branches a > B."""
    rows = get_grid(DEFAULT_DEGREE).interp_matrix(np.linspace(0.0, 1.0 / (B + 1), _TAIL_SAMPLES))
    rows.flags.writeable = False
    return rows


def full_pressure_bounds(B: int, s: float, start: Optional[np.ndarray] = None) -> Tuple[float, float]:
    """Lower and upper bounds on the full-alphabet pressure P_inf(s), the log
    leading eigenvalue of L_s summed over every a >= 1, from one eigen-solve
    at the bound B.  s keeps pressure's range rule; at s <= 1/2 both are
    +inf, P_inf's value there, with no matrix.  `start` as in pressure.

    The branches a > B map [0, 1] into [0, 1/(B+1)], where a function is
    close to its value at 0, so M' = transfer_matrix(B, s) + z e_0^T adds
    them as one column at node 0 (x = 0), z = hi of hurwitz_bounds(s, B+1+x).
    With v > 0 its leading eigenvector, v_min and v_max v's extremes on
    [0, 1/(B+1)] and lo <= zeta(2s, B+1+x) <= hi, Collatz-Wielandt at the
    nodes gives (Falk & Nussbaum 2016)

        min (M v + lo v_min)/v  <=  lambda_inf(s)  <=  max (M v + hi v_max)/v.

    This covers the a > B tail at the nodes and the Euler-Maclaurin
    remainder.  It does not cover the ratio between the nodes, and v_min and
    v_max are sampled at _TAIL_SAMPLES points, not proved."""
    _check_exponent(s)
    if s <= 0.5:
        check_alphabet(B)
        return math.inf, math.inf
    z_lo, z_hi = hurwitz_bounds(s, B + 1.0 + get_grid(DEFAULT_DEGREE).nodes)
    M = transfer_matrix(B, s)
    v = np.ones(M.shape[0]) if start is None else start
    M[:, 0] += z_hi
    leading_eigenvalue(M, v)
    tail = _tail_rows(B) @ v
    if not (v.min() > 0 and tail.min() > 0):
        raise NoConvergence(f"leading eigenvector {v.tolist()} is not positive on the tail range")
    Mv = M @ v - z_hi * v[0]  # transfer_matrix(B, s) @ v, without the tail column
    lam_lo = float(((Mv + z_lo * tail.min()) / v).min())
    lam_hi = float(((Mv + z_hi * tail.max()) / v).max())
    if not lam_lo > 0:
        raise NoConvergence(f"non-positive lower eigenvalue bound {lam_lo}")
    return math.log(lam_lo), math.log(lam_hi)


# ---------------------------------------------------------------------------
# log-space finite iteration with a run tail
# ---------------------------------------------------------------------------


def run_tail_logs(i: int, t: int) -> Tuple[float, float]:
    """(log q_t(i..i), q_{t-1}/q_t) via the closed form, stable for huge t."""
    if t == 0:
        return 0.0, 0.0
    lq = log_run_continuant(i, t)
    return lq, math.exp(log_run_continuant(i, t - 1) - lq)


_CDF_CELLS = 256  # cells of the sampler bracket table over r in [0, 1]: 2 (cells + 1) (B - 1) doubles
_CDF_CHUNK = 64  # cell ends per vectorized block of a table build


@dataclass
class SegmentStack:
    """Log-values of the constrained completion sums of one segment.

    level(j) is log G_j at the nodes of the DEFAULT_DEGREE grid, where G_j(r)
    is the sum of (relative continuant)^{-2s} over all completions with j
    free digits left followed by the forced run tail; G_0 is the tail seed.
    `levels` holds j = 0..K, K the settling depth of segment_stack (or `free`
    when the iterate never settled); past K each level adds the per-level
    `step`, log of the operator's leading eigenvalue, at every node.  B and s
    are the alphabet bound and the exponent the stack was built for.
    """

    free: int
    levels: List[np.ndarray]
    step: float
    B: int
    s: float

    def level(self, j: int) -> np.ndarray:
        """log G_j at the grid nodes, for 0 <= j <= free."""
        if not 0 <= j <= self.free:
            raise IndexError(f"level {j} outside 0..{self.free}")
        K = len(self.levels) - 1
        if j <= K:
            return self.levels[j]
        return self.levels[K] + (j - K) * self.step

    def log_total(self) -> float:
        """log of the full segment sum (start state r = 0, all digits free)."""
        return float(self.level(self.free)[0])  # node 0 is r = 0

    def eval_log(self, free_remaining: int, r: float) -> float:
        grid = get_grid(DEFAULT_DEGREE)
        return float(grid.interp_matrix(np.array([r]))[0] @ self.level(free_remaining))

    def digit_cdf(self, j: int, ar: np.ndarray) -> np.ndarray:
        """CDF of the next free digit, with j free digits after it, over
        a = 1..B along the last axis of ar = a + r (a row per state r)."""
        interp = get_grid(DEFAULT_DEGREE).interp_matrix
        with np.errstate(invalid="ignore"):  # a non-finite level gives 0 inf = NaN: raised on below
            logw = -2.0 * self.s * np.log(ar) + (interp((1.0 / ar).ravel()) @ self.level(j)).reshape(ar.shape)
        top = logw.max(axis=-1, keepdims=True)
        if not np.isfinite(top).all():
            # NaN or +inf (max propagates NaN); below, every exp(logw - top) is in [0, 1]
            raise ValueError(f"log-weights {logw.tolist()} with {j} free digits left are not finite")
        w = np.exp(logw - top)
        w /= w.sum(axis=-1, keepdims=True)
        cdf = w.cumsum(axis=-1)
        cdf /= cdf[..., -1:]
        return cdf

    @functools.cached_property
    def cdf_table(self) -> Optional[Tuple[array, array, int, int]]:
        """The digit law's bracket table (lo, hi, cells, draws), built on first
        read; None when free <= K + 1 or levels[K] or the step is not finite.

        lo, hi: array('d') row-major over (cell, boundary b < B - 1); row c <
        cells covers r in [c, c + 1] / cells, row `cells` r = 1.  The first
        `draws` draws of the free part have j > K free digits after them, where
        level(j) = levels[K] + (j - K) step and the shift cancels: up to
        rounding lo_b <= digit_cdf(j, a + r)_b <= hi_b on the cell of r.  One
        margin for all b keeps rows nondecreasing, as bisect needs.  It sums
        curvature, measured: 2 max|second difference|, 16 times the chord error
        max|c''| h^2 / 8 that it estimates (a 16 times finer grid found no
        value outside its cell ends); log-weight rounding, proved to first
        order: 16 (degree + 1) eps M, M = max|levels[K]| + free |step| (each
        log-weight of either computation errs by at most 6.6 (degree + 1) eps M,
        as interpolation rows' absolute sums stay below 3.3, and a CDF value by
        half that); and (B + 3) eps for normalization and cumulative sums."""
        K = len(self.levels) - 1
        level = self.levels[K]
        if self.free <= K + 1 or not (np.isfinite(level).all() and math.isfinite(self.step)):
            return None
        ends = np.empty((_CDF_CELLS + 1, self.B - 1))  # the law at the cell ends, in blocks of rows
        for c0 in range(0, _CDF_CELLS + 1, _CDF_CHUNK):
            ar = np.arange(1, self.B + 1) + np.arange(c0, min(c0 + _CDF_CHUNK, _CDF_CELLS + 1))[:, None] / _CDF_CELLS
            ends[c0 : c0 + len(ar)] = self.digit_cdf(K, ar)[:, :-1]
        size = max(1.0, float(np.abs(level).max()) + self.free * abs(self.step))  # M, the largest level magnitude
        rounding = np.finfo(np.float64).eps * (16.0 * (DEFAULT_DEGREE + 1) * size + self.B + 3)
        margin = 2.0 * np.abs(np.diff(ends, 2, axis=0)).max(initial=0.0) + rounding
        lo = np.vstack([np.minimum(ends[:-1], ends[1:]), ends[-1:]]) - margin
        hi = np.vstack([np.maximum(ends[:-1], ends[1:]), ends[-1:]]) + margin
        return array("d", lo.tobytes()), array("d", hi.tobytes()), _CDF_CELLS, self.free - K - 1


_SETTLE_TOL = 4.0 * np.finfo(np.float64).eps


def segment_stack(B: int, i: int, free: int, tail: int, s: float, keep_levels: bool = True) -> SegmentStack:
    """Iterate the log-space operator on the DEFAULT_DEGREE grid from the
    run-tail seed until its shape settles, for at most `free` levels.

    The iterate is kept normalized: after each step its value at node 0
    (r = 0) is moved into a running offset, summed in double-double with
    math.fsum, so the array stays O(1) however large log G_j grows.  The
    first level K with |h_K - h_{K-1}| <= 4 eps max(1, |h_K|) in sup norm
    is the settling depth: every later step repeats the shape h_K and adds
    the same offset, so levels past K follow in closed form.  A free part
    shorter than the settling depth keeps all its levels.

    `keep_levels` changes nothing: every stack keeps its levels 0..K.
    segment_log_sum passes False, which lets a trace tell its iteration
    from a stack build.
    """
    grid = get_grid(DEFAULT_DEGREE)
    x = grid.nodes
    Cflat = grid.branch_rows(B).reshape(B * x.size, x.size)  # checks B before any (B, n) array
    log_u, v_over_u = run_tail_logs(i, tail)
    h = -2.0 * s * np.log1p(v_over_u * x)  # the seed minus its node-0 value
    hi, lo = -2.0 * s * log_u, 0.0
    levels = [h + hi]
    step = 0.0
    if free:
        W = -2.0 * s * np.log(np.arange(1, B + 1)[:, None] + x)  # (B, n)
        for _ in range(free):
            g = _logsumexp_axis0(W + (Cflat @ h).reshape(B, x.size))
            step = float(g[0])
            h_next = g - step
            total = math.fsum((hi, lo, step))
            hi, lo = total, math.fsum((hi, lo, step, -total))
            levels.append(h_next + hi)
            settled = np.abs(h_next - h).max() <= _SETTLE_TOL * max(1.0, float(np.abs(h_next).max()))
            h = h_next
            if settled:
                break
    return SegmentStack(free=free, levels=levels, step=step, B=B, s=s)


def _logsumexp_axis0(arr: np.ndarray) -> np.ndarray:
    m = arr.max(axis=0)
    return m + np.log(np.exp(arr - m[None, :]).sum(axis=0))


def segment_log_sum(B: int, i: int, free: int, tail: int, s: float) -> float:
    """log of sum over free digit strings of q(free digits + i-run tail)^{-2s}."""
    return segment_stack(B, i, free, tail, s, keep_levels=False).log_total()
