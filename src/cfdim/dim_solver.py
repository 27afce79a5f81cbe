"""Pre-dimensional numbers, pressure roots, and the theorem dimension formulas.

Two independent routes to the same dimension values s(A_B, alpha, tau(i)):

  * enumeration: the n-th pre-dimensional numbers are roots rho of

        sum over free digit strings of (scale * q_total)^{-2 rho} = 1,

    computed by exhaustive vectorized enumeration of the free digits with the
    log-space continuant recursion  log q_{k+1} = log q_k + log(a + r_k),
    r_{k+1} = 1/(a + r_k), and bisection in rho (solve_decreasing_root: a
    regula falsi phase settles the signs of most midpoints without calling F,
    and the result keeps bisection's bits);

  * spectral: the root s of  P_B(s) = 2 s (alpha/(1-alpha)) log tau(i),
    where P_B(s) is the log leading eigenvalue of the transfer operator on
    {1..B} with weight (a+x)^{-2s}.

The 2s coefficient is forced by the large-n balance of the enumeration sums
(the constant-run continuant grows like tau^n, and each summand carries the
full -2 rho power); pressure-equation displays that drop the factor 2 are
measuring the orbit speed through q_n instead of |I_n| ~ q_n^{-2}.

Theorem-level formulas map exponent/run-length parameters onto an
alpha-argument for the B -> infinity dimension value, with the closure
conventions  s(0) = 1  and  s(1) = 1/2  applied exactly at the endpoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from . import transfer
from .cf_core import check_run_digit, log_tau
from .errors import InputOutOfRange, NoConvergence

_ROOT_WIDTH = 1e-12  # bisection width of the enumerated pre-dimensional roots
_SPECTRAL_WIDTH = 1e-8  # bisection width of the spectral roots; dim_full widens its bracket by it
_SIGN_FLOOR = 1e-8  # |F| past which a sign holds further out: 390x the largest measured departure from monotone
_HI_CAP = 64.0  # solve_decreasing_root looks for a sign change up to here
_FALSI_STEPS = 8  # most evaluations before the bisection in solve_decreasing_root; roots use 2-5
_TABLE_LIMIT = 2**20  # most leaves sum_power enumerates; more raise InputOutOfRange

Number = Union[int, float, Fraction]


def to_fraction(x: Number) -> Fraction:
    """Exact rationals pass through; floats are rationalized at 1e-15."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise InputOutOfRange(f"cannot rationalize {x}")
        return Fraction(x).limit_denominator(10**15)
    raise TypeError(f"cannot interpret {x!r} as a rational")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimEstimate:
    value: float
    bracket: Tuple[float, float]
    n_used: Optional[int] = None
    B_used: Optional[int] = None
    method: str = ""
    trace: Tuple[float, ...] = ()

    def __post_init__(self):
        lo, hi = self.bracket
        if not (lo <= self.value + 1e-15 and self.value <= hi + 1e-15):
            raise ValueError(f"value {self.value} lies outside its bracket [{lo}, {hi}]")


@dataclass(frozen=True)
class SumKernelSpec:
    """Shape of one constrained partition sum: `free_length` enumerated
    digits (sum_power takes at most _TABLE_LIMIT = 2^20 strings), a trailing
    run of `tail_i` copies of `tail_digit`, and a log-scale added to log q
    before the -2 rho power."""

    free_length: int
    tail_i: int = 0
    tail_digit: int = 1
    scale_log: float = 0.0

    def __post_init__(self):
        check_run_digit(self.tail_digit)
        if self.free_length < 0 or self.tail_i < 0:
            raise ValueError("invalid kernel spec")


# ---------------------------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------------------------


def _grow_level(logq: np.ndarray, r: np.ndarray, B: int) -> Tuple[np.ndarray, np.ndarray]:
    ar = np.arange(1, B + 1)[:, None] + r  # row a - 1 holds a + r, a-major
    new_r = (1.0 / ar).ravel()
    return np.add(np.log(ar, out=ar), logq, out=ar).ravel(), new_r  # two level-sized arrays at a time


@functools.lru_cache(maxsize=2**23 // _TABLE_LIMIT)  # 8 tables, 64 MB at most
def _log_qtotal(B: int, f: int, tail_digit: int, t: int) -> np.ndarray:
    """log q_total (f free digits, then t copies of tail_digit) over all B^f
    free strings, as one read-only array: an in-place op on a cached table
    raises instead of changing later sums.  The tail is added in place as
    (log q_f + log u) + log1p((v/u) r), the out-of-place expression's
    operations in its order."""
    logq, r = np.zeros(1), np.zeros(1)
    for _ in range(f):
        logq, r = _grow_level(logq, r, B)
    if t:
        log_u, v_over_u = transfer.run_tail_logs(tail_digit, t)
        r *= v_over_u
        np.log1p(r, out=r)
        logq += log_u
        logq += r
    logq.flags.writeable = False
    return logq


def _fits_table(B: int, free: int) -> bool:
    """B^free <= _TABLE_LIMIT (read when called), exact without B^free: B^b > it for B >= 2, b its bit length."""
    return B ** min(free, _TABLE_LIMIT.bit_length()) <= _TABLE_LIMIT


def sum_power(B: int, spec: SumKernelSpec, rho: float) -> float:
    """log of  sum over free strings of (exp(scale_log) * q_total)^(-2 rho).

    Enumerates at most _TABLE_LIMIT (2^20) free strings; more raise
    InputOutOfRange.  _log_qtotal caches the table (the tail digit is no
    part of the key of a table without a tail), so a repeated call sums the
    same table.  The terms -2 rho (scale_log + log q), less their maximum,
    and their exp are computed in place in one fresh array, the out-of-place
    expression's operations in its order.
    """
    transfer.check_alphabet(B)
    if not rho >= 0:  # NaN too: every comparison with it is False
        raise ValueError("rho must be >= 0")
    if not _fits_table(B, spec.free_length):
        raise InputOutOfRange(f"{B}^{spec.free_length} leaves exceed budget {_TABLE_LIMIT}")
    table = _log_qtotal(B, spec.free_length, spec.tail_digit if spec.tail_i else 0, spec.tail_i)
    terms = table + spec.scale_log
    terms *= -2.0 * rho
    m = float(terms.max())
    terms -= m
    np.exp(terms, out=terms)
    return m + math.log(float(terms.sum()))


# ---------------------------------------------------------------------------
# root solving
# ---------------------------------------------------------------------------


def solve_decreasing_root(
    F: Callable[[float], float], width: float, hi: float = 2.0
) -> Tuple[float, Tuple[float, float]]:
    """Bisection root of a strictly decreasing F with F(root) = 0, from
    fewer evaluations of F.

    Returns (midpoint, bracket) of plain bisection to `width` on the first
    sign change among 0, hi, 2 hi, ... <= _HI_CAP; F(0) <= 0 short-circuits
    to 0.  Those depend only on the signs of F at the midpoints, and a point
    p with F(p) > _SIGN_FLOOR settles the sign at every midpoint <= p (with
    F(p) < -_SIGN_FLOOR, at every midpoint >= p).  Regula falsi with
    Anderson-Bjorck scaling (at most _FALSI_STEPS evaluations) and one probe
    each side of its root at 2 _SIGN_FLOOR/|slope| find such points near the
    root, so the bisection calls F only between them.  The result is plain
    bisection's, bit for bit, whenever evaluated F is monotone beyond
    +-_SIGN_FLOOR (F(y) >= F(x) - _SIGN_FLOOR for all y < x), and costs at
    most _FALSI_STEPS + 2 evaluations more.
    """
    lo, f_lo = 0.0, F(0.0)
    if f_lo <= 0:
        return 0.0, (0.0, 0.0)
    f_hi = F(hi)
    while f_hi > 0:
        lo = hi
        hi *= 2
        if hi > _HI_CAP:
            raise NoConvergence(f"no sign change up to rho = {_HI_CAP}")
        f_hi = F(hi)
    if not f_hi < 0:
        # hit a float plateau at 0: the sum has a term pinned at 1 and never
        # drops strictly below it, so no root exists (e.g. order-1 sums)
        raise NoConvergence("sum never drops strictly below 1; no finite root")
    pos, neg = lo, hi  # F > 0 at every midpoint <= pos, F < 0 at every one >= neg
    a, fa, b, fb, side = lo, f_lo, hi, f_hi, 0
    x0, f0, x, fx = lo, f_lo, hi, f_hi
    for _ in range(_FALSI_STEPS):
        c = b - fb * (b - a) / (fb - fa)
        if not a < c < b:
            break
        x0, f0, x, fx = x, fx, c, F(c)
        if fx > 0:
            if side > 0:  # Anderson-Bjorck: shrink the value at the end kept twice running
                fb *= 1.0 - fx / fa if fx < fa else 0.5
            a, fa, side = x, fx, 1
        else:
            if side < 0:
                fa *= 1.0 - fx / fb if fx > fb else 0.5
            b, fb, side = x, fx, -1
        if not abs(fx) > _SIGN_FLOOR:
            break
        pos, neg = (x, neg) if fx > 0 else (pos, x)
    slope = (fx - f0) / (x - x0)
    for p in (x - (fx - 2 * _SIGN_FLOOR) / slope, x - (fx + 2 * _SIGN_FLOOR) / slope) if slope < 0 else ():
        if pos < p < neg:
            fp = F(p)
            if abs(fp) > _SIGN_FLOOR:
                pos, neg = (p, neg) if fp > 0 else (pos, p)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= pos or (mid < neg and F(mid) > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def aitken(values: Sequence[float]) -> float:
    """Aitken delta-squared applied to the last three values."""
    if len(values) < 3:
        return values[-1]
    x0, x1, x2 = values[-3], values[-2], values[-1]
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-15:
        return x2
    return x2 - (x2 - x1) ** 2 / denom


def check_schedule(schedule: Sequence[int], name: str) -> Tuple[int, ...]:
    """The schedule as a tuple.  Raises InputOutOfRange unless it is
    strictly increasing from at least 1."""
    values = tuple(schedule)
    if not values or values[0] < 1 or list(values) != sorted(set(values)):
        raise InputOutOfRange(f"{name} must be strictly increasing from at least 1, got {list(values)}")
    return values


def _aitken_limit(schedule: Tuple[int, ...], raw_at: Callable[[int], float], pad: float, **fields) -> DimEstimate:
    """Aitken limit of raw_at(x) along a checked schedule, clamped to [0, 1];
    the bracket is the last raw value +- (its distance to the extrapolated
    one + pad), clamped to [0, 1] and widened to hold the value."""
    raw = [raw_at(x) for x in schedule]
    extrap, last = aitken(raw), raw[-1]
    r = abs(last - extrap) + pad
    value = min(max(extrap, 0.0), 1.0)
    bracket = (max(min(last - r, value), 0.0), min(max(last + r, value), 1.0))
    return DimEstimate(value, bracket, trace=tuple(raw), **fields)


# ---------------------------------------------------------------------------
# pre-dimensional numbers
# ---------------------------------------------------------------------------


def _solver_inputs(alpha: Number, i: int, B: Optional[int] = None) -> Fraction:
    """alpha as an exact rational in [0,1], once alpha, the run digit i and
    the alphabet bound B (when given) have passed their range rules."""
    af = to_fraction(alpha)
    if not (0 <= af <= 1):
        raise InputOutOfRange(f"alpha = {af} outside [0,1]")
    check_run_digit(i)
    if B is not None:
        transfer.check_alphabet(B)
    return af


def _enumerated_root(B: int, spec: SumKernelSpec, width: float, n: int, method: str) -> DimEstimate:
    """Root rho of sum_power(B, spec, rho) = 0, bisected to `width`."""
    root, bracket = solve_decreasing_root(lambda rho: sum_power(B, spec, rho), width=width)
    return DimEstimate(root, bracket, n_used=n, B_used=B, method=method)


def predim_hat(B: int, alpha: Number, i: int, n: int) -> DimEstimate:
    """Root of  sum (tau^{n alpha/(1-alpha)} q_n)^{-2 rho} = 1  over {1..B}^n."""
    af = _solver_inputs(alpha, i, B)
    if af == 1:
        return DimEstimate(0.0, (0.0, 0.0), n_used=n, B_used=B, method="degenerate")
    spec = SumKernelSpec(free_length=n, tail_digit=i, scale_log=float(af / (1 - af)) * n * log_tau(i))
    return _enumerated_root(B, spec, _ROOT_WIDTH, n, "enumerate-hat")


def predim_s(B: int, alpha: Number, i: int, n: int) -> DimEstimate:
    """Root of  sum q_n(free digits, i, ..., i)^{-2 rho} = 1  with floor(n alpha)
    forced trailing digits."""
    af = _solver_inputs(alpha, i, B)
    if af == 1:
        return DimEstimate(0.0, (0.0, 0.0), n_used=n, B_used=B, method="degenerate")
    tail = int(n * af)  # exact floor: Fraction arithmetic
    spec = SumKernelSpec(free_length=n - tail, tail_i=tail, tail_digit=i)
    return _enumerated_root(B, spec, _ROOT_WIDTH, n, "enumerate-s")


def predim_tilde(B: int, i: int, segment: Tuple[int, int]) -> DimEstimate:
    """Root of the one-segment sum with free digits l - tail_len and a forced
    trailing i-run.

    The free digits are enumerated exactly when they fit one table
    (_fits_table: B^free <= _TABLE_LIMIT = 2^20 leaves), so the bisection
    (width 1e-14) builds it once and every later step sums the cached table.
    A larger free part takes the log-space operator iteration (same sum,
    evaluated as an iterated transfer operator), with a near-machine
    bisection width of 4e-16 so the root residual stays tiny even for very
    long segments.  Each operator evaluation iterates only to the settling
    depth of the operator (a few dozen levels, see transfer.segment_stack)
    and adds log lambda per remaining free digit, so its cost does not grow
    with the segment length.
    """
    check_run_digit(i)
    l_k, tail_len = segment
    if tail_len > l_k or tail_len < 0:
        raise InputOutOfRange("tail length exceeds segment length")
    free = l_k - tail_len
    if _fits_table(B, free):
        return _enumerated_root(B, SumKernelSpec(free, tail_len, i), 1e-14, l_k, "enumerate-tilde")
    root, bracket = solve_decreasing_root(lambda s: transfer.segment_log_sum(B, i, free, tail_len, s), width=4e-16)
    return DimEstimate(root, bracket, n_used=l_k, B_used=B, method="operator-tilde")


def dim_limit(B: int, alpha: Number, i: int, n_schedule: Sequence[int]) -> DimEstimate:
    """Pre-dimensional numbers along an increasing n-schedule plus Aitken
    extrapolation; the bracket is the last raw value +- its distance to the
    extrapolated one."""
    ns = check_schedule(n_schedule, "n_schedule")
    return _aitken_limit(
        ns, lambda n: predim_hat(B, alpha, i, n).value, 0.0, n_used=ns[-1], B_used=B, method="enumerate-limit"
    )


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------


def spectral_pressure(B: int, s: float, start: Optional[np.ndarray] = None) -> float:
    """P_B(s) = transfer.pressure(B, s, start), which keeps the range rules
    of B and s; every root this package solves for lies in [0, 1]."""
    return transfer.pressure(B, s, start)


def spectral_dim(B: int, alpha: Number, i: int) -> DimEstimate:
    """Root of  P_B(s) = 2 s (alpha/(1-alpha)) log tau(i)  by bisection.

    One start vector serves the whole solve: each pressure evaluation's
    power iteration starts from the eigenvector of the one before, which
    cuts the iterations of M^4 by about 17 %.  That and M^4 move pressures
    in their last bits, but the root depends only on the signs of F at the
    bisection midpoints, which solve_decreasing_root settles only where
    |F| > _SIGN_FLOOR; on every root checked the result has the bits of cold
    plain iteration on M (in practice, not by construction).  At alpha = 1
    the finite-alphabet root is exactly 0, as for predim_hat."""
    af = _solver_inputs(alpha, i, B)
    if af == 1:
        return DimEstimate(0.0, (0.0, 0.0), B_used=B, method="degenerate")
    coeff = 2.0 * float(af / (1 - af)) * log_tau(i)
    start = np.ones(transfer.DEFAULT_DEGREE + 1)
    F = lambda s: spectral_pressure(B, s, start) - coeff * s
    # F(1) = P_B(1) - coeff < 0, as lambda_B(1) < 1 for finite B: the sign search stops at hi = 1
    root, bracket = solve_decreasing_root(F, width=_SPECTRAL_WIDTH, hi=1.0)
    return DimEstimate(root, bracket, B_used=B, method="spectral")


DEFAULT_B_SCHEDULE = (16, 32, 64, 128)


def dim_full(alpha: Number, i: int, B_schedule: Sequence[int] = DEFAULT_B_SCHEDULE) -> DimEstimate:
    """Full-alphabet dimension value s(alpha, tau(i)) by B -> infinity
    extrapolation of spectral roots, with the exact closure conventions
    s(0) = 1 and s(1) = 1/2.

    The endpoint values are returned exactly as the labelled limits, with an
    empty trace and no B_used.  Every branch raises InputOutOfRange for
    i < 1.  Away from the endpoints the truncation
    error decays like B^{1-2s}, which is too slow for Aitken extrapolation
    near alpha = 1: there the bracket misses the full-alphabet value (> 1/2).
    At alpha = 8/9, i = 1 it reads [0.2308, 0.4302] against the B = infinity
    root 0.50996.
    """
    af = _solver_inputs(alpha, i)
    if af == 0 or af == 1:
        value = 1.0 if af == 0 else 0.5
        return DimEstimate(value, (value, value), method="convention")
    Bs = check_schedule(B_schedule, "B_schedule")
    return _aitken_limit(
        Bs, lambda B: spectral_dim(B, af, i).value, _SPECTRAL_WIDTH, B_used=Bs[-1], method="spectral-extrapolated"
    )


# ---------------------------------------------------------------------------
# theorem formulas
# ---------------------------------------------------------------------------


def _theorem_param(name: str, v: Optional[Number]) -> Optional[Fraction]:
    """A theorem parameter as an exact rational, or None for +infinity.
    Raises InputOutOfRange when it is missing, negative, -infinity or nan."""
    if v is None:
        raise InputOutOfRange(f"{name} required")
    if v == math.inf:
        return None
    x = to_fraction(v)
    if x < 0:
        raise InputOutOfRange(f"{name} must be >= 0")
    return x


def theorem_params(kind: str) -> Tuple[str, ...]:
    """The parameters that a kind's formula reads (FG and F fix the run
    digit i at 1)."""
    return {
        "U_set": ("nu_hat", "i"),
        "E_hat": ("nu_hat", "i"),
        "E_joint": ("nu_hat", "nu", "i"),
        "nu_level": ("nu", "i"),
        "FG": ("alpha", "beta"),
        "F": ("alpha",),
    }[kind]


def theorem_argument(
    kind: str,
    nu_hat: Optional[Number] = None,
    nu: Optional[Number] = None,
    alpha: Optional[Number] = None,
    beta: Optional[Number] = None,
) -> Optional[Fraction]:
    """The alpha-argument of a theorem's dimension formula, or None on the
    zero branches ("otherwise" cases).  Raises InputOutOfRange outside every
    branch.  The endpoint arguments 0 and 1 stand for the exact values 1 and
    1/2 under the closure convention."""
    if kind in ("U_set", "E_hat"):
        nh = _theorem_param("nu_hat", nu_hat)
        if nh is None or nh > 1:
            return None
        return 4 * nh / (1 + nh) ** 2

    if kind == "E_joint":
        nh, nv = _theorem_param("nu_hat", nu_hat), _theorem_param("nu", nu)
        if nh is None:
            raise InputOutOfRange("nu_hat must be finite")
        if nv is None:  # nu = infinity; the argument is 1 by convention
            return Fraction(1) if nh <= 1 else None
        if nh > nv:
            raise InputOutOfRange("need 0 <= nu_hat <= nu")
        if nv == 0:
            return Fraction(0)
        if nh > nv / (1 + nv):
            return None
        return nv**2 / ((1 + nv) * (nv - nh))

    if kind == "nu_level":
        nv = _theorem_param("nu", nu)
        return Fraction(1) if nv is None else nv / (1 + nv)

    if kind == "FG":
        a, b = _theorem_param("alpha", alpha), _theorem_param("beta", beta)
        if a is None or b is None or not a <= b <= 1:
            raise InputOutOfRange("need 0 <= alpha <= beta <= 1")
        if b == 0:
            return Fraction(0)
        if a > b / (1 + b):
            return None
        return b**2 * (1 - a) / (b - a)

    if kind == "F":
        a = _theorem_param("alpha", alpha)
        if a is None or a > 1:
            raise InputOutOfRange("alpha must lie in [0,1]")
        if a > Fraction(1, 2):
            return None
        return 4 * a * (1 - a)

    raise InputOutOfRange(f"unknown kind {kind!r}")


def theorem_run_digit(kind: str, i: int) -> int:
    """Run digit of a theorem's formula: 1 for the run-length kinds FG and F
    (runs of the digit 1), else i.  Raises InputOutOfRange for i < 1."""
    check_run_digit(i)
    return 1 if kind in ("FG", "F") else i


def theorem_dims(
    kind: str,
    nu_hat: Optional[Number] = None,
    nu: Optional[Number] = None,
    alpha: Optional[Number] = None,
    beta: Optional[Number] = None,
    i: int = 1,
    B_schedule: Sequence[int] = DEFAULT_B_SCHEDULE,
) -> DimEstimate:
    """Piecewise dimension formulas for the uniform/asymptotic exponent and
    run-length level sets.

    kind:
      U_set    - uniform-approximation set, parameter nu_hat in [0,1]
      E_hat    - level set of the uniform exponent (same formula as U_set)
      E_joint  - joint level set of (nu_hat, nu)
      nu_level - level set of the asymptotic exponent, nu in [0, inf]
      FG       - intersection of liminf/limsup run-length level sets (i = 1)
      F        - liminf run-length level set (i = 1)

    The zero branches return exactly 0; every other argument goes to
    dim_full, which closes the endpoints 0 and 1 at exactly 1 and 1/2.
    """
    xi = theorem_argument(kind, nu_hat=nu_hat, nu=nu, alpha=alpha, beta=beta)
    if xi is None:
        return DimEstimate(0.0, (0.0, 0.0), method="piecewise-zero")
    return dim_full(xi, theorem_run_digit(kind, i), B_schedule)
