"""Exact continued-fraction kernels.

Expansion of rationals / quadratic surds / uncertainty-budgeted decimals into
partial quotients, continuant tables p_k, q_k, exact cylinder intervals, the
digit shift realizing the Gauss map, and quadratic targets y = [i, i, ...].

Everything here is exact: rationals are `fractions.Fraction`, surd inputs
integer PQa states, targets `cfdim.surd.Surd`s, continuants big integers.
Floating point appears only in convenience accessors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence, Tuple

from .errors import Exhausted, InputOutOfRange, Overflow
from .surd import Surd, is_square

MAX_DIGIT = 2**63 - 1  # machine-word cap on a single partial quotient


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealInput:
    """A number x in (0,1) given exactly (rational, surd) or with a precision
    budget (decimal string).  kind: "rational" | "surd" | "decimal".

    A surd is the state pqa = (P, Q, D) its PQa expansion starts from: x =
    (P + sqrt(D))/Q, D a positive non-square, Q | D - P^2.  Building one
    checks that state, and 0 < x < 1 in integers, as floor(x) == 0.
    """

    kind: str
    frac: Optional[Fraction] = None
    pqa: Optional[Tuple[int, int, int]] = None
    precision_bits: Optional[int] = None

    def __post_init__(self):
        if self.kind == "surd":
            P, Q, D = self.pqa
            if D <= 0 or is_square(D) or Q == 0 or (D - P * P) % Q:
                raise InputOutOfRange(f"PQa state {self.pqa} needs D a positive non-square, Q != 0 and Q | D - P^2")
            if _surd_floor(P, Q, math.isqrt(D)) != 0:
                raise InputOutOfRange("surd does not lie in (0,1)")

    @staticmethod
    def rational(p: int, q: int) -> "RealInput":
        if q < 1 or not (0 < p < q):
            raise InputOutOfRange(f"rational {p}/{q} not in (0,1)")
        return RealInput(kind="rational", frac=Fraction(p, q))

    @staticmethod
    def surd(u: int, v: int, w: int, d: int) -> "RealInput":
        """(u + v*sqrt(d)) / w, must be irrational and inside (0,1)."""
        if d <= 0 or is_square(d):
            raise InputOutOfRange(f"radicand {d} must be a positive non-square")
        if v == 0 or w == 0:
            raise InputOutOfRange("surd must be irrational with nonzero denominator")
        if v < 0:
            u, v, w = -u, -v, -w
        return RealInput(kind="surd", pqa=(u * abs(w), w * abs(w), v * v * d * w * w))

    @staticmethod
    def decimal_input(s: str, precision_bits: Optional[int] = None) -> "RealInput":
        if precision_bits is not None and precision_bits < 64:
            raise InputOutOfRange("precision budget must be at least 64 bits")
        try:
            v = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputOutOfRange(f"cannot parse decimal of {len(s)} characters starting {s[:32]!r}") from exc
        if not (0 < v < 1):
            raise InputOutOfRange(f"decimal {s} not in (0,1)")
        return RealInput(kind="decimal", frac=v, precision_bits=precision_bits)


@dataclass(frozen=True)
class DigitSeq:
    """Certified partial quotients a_1..a_n.

    `exhausted` is True when no further digit is certified: the rational
    expansion terminated, or the input's uncertainty interval no longer fits
    inside a single cylinder.  `complete` additionally marks sequences whose
    expansion genuinely terminated (rationals), so that a run touching the
    end of the digits is known to end there rather than being uncertain.
    """

    digits: Tuple[int, ...]
    exhausted: bool = False
    complete: bool = False

    def __post_init__(self):
        d = self.digits
        if not d or (min(d) >= 1 and max(d) <= MAX_DIGIT):
            return
        # some digit is out of range: name the first one
        for a in d:
            if a < 1:
                raise ValueError("partial quotients must be >= 1")
            if a > MAX_DIGIT:
                raise Overflow(f"digit {a} exceeds machine word")

    def __len__(self):
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, k):
        return self.digits[k]


def digit_seq(digits: Iterable[int], exhausted: bool = False, complete: bool = False) -> DigitSeq:
    return DigitSeq(tuple(map(int, digits)), exhausted=exhausted, complete=complete)


# ---------------------------------------------------------------------------
# continuants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuantTable:
    """Numerators p_{-1}..p_n and denominators q_{-1}..q_n of the convergents,
    stored with an index offset of 1 (list position k+1 holds index k)."""

    p: Tuple[int, ...]
    q: Tuple[int, ...]

    def pk(self, k: int) -> int:
        return self.p[k + 1]

    def qk(self, k: int) -> int:
        return self.q[k + 1]


def continuants(d: Sequence[int] | DigitSeq) -> ContinuantTable:
    """Run the two-term recursion p_{n+1} = a_{n+1} p_n + p_{n-1} (same for q)
    from p_{-1}=1, q_{-1}=0, p_0=0, q_0=1.  Each digit is converted to int
    first, so numpy integer digits run the big-int recursion instead of
    overflowing a machine word."""
    p0, p1, q0, q1 = 1, 0, 0, 1
    p, q = [p0, p1], [q0, q1]
    for a in map(int, d.digits if isinstance(d, DigitSeq) else d):
        p0, p1 = p1, a * p1 + p0
        q0, q1 = q1, a * q1 + q0
        p.append(p1)
        q.append(q1)
    if len(p) == 2:
        raise ValueError("empty digit sequence")
    return ContinuantTable(tuple(p), tuple(q))


def denominators(digits: Iterable[int], prev: int = 0, cur: int = 1) -> Tuple[int, int]:
    """(q_{n-1}, q_n) of the digits by q_{k+1} = a_{k+1} q_k + q_{k-1}.

    The recursion starts from (q_{-1}, q_0) = (0, 1), or continues from a
    pair (prev, cur) that an earlier call returned for the digits before.
    From (1, 0) = (p_{-1}, p_0) it gives the numerators (p_{n-1}, p_n).
    No digits give the starting pair back.
    """
    for a in digits:
        prev, cur = cur, a * cur + prev
    return prev, cur


def check_run_digit(i: int) -> None:
    """The run digit's one range rule: InputOutOfRange unless i is an integer >= 1, as every digit is."""
    if type(i) is not int and not isinstance(i, numbers.Integral):  # numpy integers are Integral; an int skips the ABC
        raise InputOutOfRange(f"need an integer i, got {i}")
    if i < 1:
        raise InputOutOfRange(f"need i >= 1, got {i}")


def run_continuants(i: int, t: int) -> Tuple[int, int, int]:
    """(q_{t-2}, q_{t-1}, q_t) of the constant run i^t, from q_{-1} = 0, q_0 = 1:
    [[i, 1], [1, 0]]^t = [[q_t, q_{t-1}], [q_{t-1}, q_{t-2}]] by fast doubling
    over the bits of t, (a, b) = (q_n, q_{n-1}) -> (a^2 + b^2, b (2a - i b))
    and a step (i a + b, a).  O(M(q_t) log t) instead of t big-int steps,
    with the integers of the recursion."""
    check_run_digit(i)
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    a, b = 1, 0
    for bit in bin(t)[2:] if t else "":
        a, b = a * a + b * b, b * (2 * a - i * b)
        if bit == "1":
            a, b = i * a + b, a
    return a - i * b, b, a


def run_continuant(i: int, n: int) -> int:
    """q_n(i, ..., i): continuant of a constant run (fast doubling)."""
    return run_continuants(i, n)[2]


def run_continuant_closed_form(i: int, n: int) -> int:
    """Same value via (tau^{n+1} - zeta^{n+1}) / (tau - zeta) in exact surd
    arithmetic; used as an independent cross-check of run_continuants."""
    D = i * i + 4
    tau = Surd(Fraction(i, 2), Fraction(1, 2), D)
    zeta = Surd(Fraction(i, 2), Fraction(-1, 2), D)
    val = (tau ** (n + 1) - zeta ** (n + 1)) / (tau - zeta)
    f = val.as_fraction()
    if f.denominator != 1:
        raise ArithmeticError("closed form did not produce an integer")
    return f.numerator


def log_tau(i: int) -> float:
    """float log tau(i), tau(i) = (i + sqrt(i^2+4))/2 the growth rate of q_n(i, ..., i)."""
    check_run_digit(i)
    return math.log((i + math.sqrt(i * i + 4)) / 2.0)


def log_run_continuant(i: int, n: int) -> float:
    """float log q_n(i, ..., i) via the closed form; avoids bignum logs.

    log q_n = (n+1) log tau + log1p(-(zeta/tau)^{n+1}) - log(tau - zeta),
    with zeta/tau = -1/tau^2 and tau - zeta = sqrt(i^2+4).
    """
    root = math.sqrt(i * i + 4)
    tau = (i + root) / 2.0
    corr = math.log1p(-((-1.0 / tau**2) ** (n + 1))) if n < 600 else 0.0
    return (n + 1) * math.log(tau) + corr - math.log(root)


# ---------------------------------------------------------------------------
# cylinder intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasicInterval:
    """Cylinder of all x sharing a digit prefix, normalized to [left, right).

    length == 1/(q_n (q_n + q_{n-1})) exactly.  Some sources print the
    denominator as q_n (q_n + q_{n+1}); that contradicts the standard bound
    1/(2 q_n^2) <= |I_n| (q_{n+1} > q_n), so the q_{n-1} identity is used and
    verified against the exact endpoints.
    """

    order: int
    digits: Tuple[int, ...]
    left: Fraction
    right: Fraction
    length: Fraction


def basic_interval(d: Sequence[int] | DigitSeq) -> BasicInterval:
    """The cylinder I_n of the digits, from (p_{n-1}, p_n) and (q_{n-1}, q_n).

    Its ends are p_n/q_n and (p_n + p_{n-1})/(q_n + q_{n-1}), and the second
    minus the first is det / D with det = p_{n-1} q_n - p_n q_{n-1} and
    D = q_n (q_n + q_{n-1}).  So right - left = |det| / |D|, and it equals
    length = 1/D exactly when |det| == 1 and D > 0, the integer test made
    here; the sign of det then says which end is the left.  For digits >= 1
    the recursion gives det = (-1)^n and D > 0, so only other digits can fail
    it (ZeroDivisionError, an ArithmeticError, when D == 0).
    """
    digits = tuple(map(int, d.digits if isinstance(d, DigitSeq) else d))
    if not digits:
        raise ValueError("empty digit sequence")
    pn1, pn = denominators(digits, 1, 0)
    qn1, qn = denominators(digits)
    e1 = Fraction(pn, qn)
    e2 = Fraction(pn + pn1, qn + qn1)
    D = qn * (qn + qn1)
    length = Fraction(1, D)
    det = pn1 * qn - pn * qn1
    if (det != 1 and det != -1) or D < 0:
        raise ArithmeticError("cylinder endpoints disagree with 1/(q_n (q_n + q_{n-1}))")
    left, right = (e1, e2) if det > 0 else (e2, e1)
    return BasicInterval(order=len(digits), digits=digits, left=left, right=right, length=length)


def gauss_shift(d: DigitSeq, n: int) -> DigitSeq:
    """Digit sequence of T^n(x): drop the first n partial quotients."""
    if n < 0:
        raise ValueError("shift must be >= 0")
    if len(d.digits) < n + 1:
        raise Exhausted(f"need at least {n + 1} certified digits, have {len(d.digits)}")
    return DigitSeq(d.digits[n:], exhausted=d.exhausted, complete=d.complete)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------


def _euclid(p: int, q: int) -> Iterator[Tuple[int, int]]:
    """Partial quotients of p/q in [0,1) by Euclid on (p, q): a = q // p, then
    (p, q) <- (q mod p, p).  Yields each digit with the numerator left after
    it, which is 0 once the expansion has terminated."""
    while p:
        a, r = divmod(q, p)
        p, q = r, p
        yield a, r


def _expand_rational(x: Fraction, n: int) -> Tuple[Tuple[int, ...], bool]:
    digits, r = [], x.numerator
    for a, r in islice(_euclid(x.numerator, x.denominator), n):
        digits.append(a)
    return tuple(digits), r == 0


def _surd_floor(P: int, Q: int, s: int) -> int:
    """floor((P + sqrt(D))/Q) from s = isqrt(D): P + s < P + sqrt(D) < P + s + 1."""
    return (P + s) // Q if Q > 0 else -((P + s) // -Q) - 1


def _expand_surd_digits(x: RealInput, n: int) -> Tuple[int, ...]:
    """PQa algorithm on (P + sqrt(D))/Q, Q | D - P^2, from the input's state."""
    P, Q, D = x.pqa
    s = math.isqrt(D)
    digits, a = [], 0
    for _ in range(n):
        P = a * Q - P
        Q = (D - P * P) // Q
        a = _surd_floor(P, Q, s)
        digits.append(a)
    return tuple(digits)


def _expand_decimal(x: RealInput, n: int) -> Tuple[Tuple[int, ...], bool]:
    """Certify digits while [v - eps, v + eps] sits strictly inside one cylinder.

    A point lies strictly inside the cylinder of a_1..a_k exactly when its
    expansion starts with a_1..a_k and continues past a_k.  So the certified
    digits are the common prefix of the Euclid expansions of both ends,
    counted while both continue past it; the ends share the denominator
    v.denominator * 2^bits.

    Default budget 4n + 64 bits: an expected ~3.5 bits of information per
    digit plus guard, so uniform samples certify n digits with overwhelming
    probability.
    """
    bits = x.precision_bits if x.precision_bits is not None else 4 * n + 64
    v = x.frac
    den = v.denominator << bits
    lo = (v.numerator << bits) - v.denominator
    hi = (v.numerator << bits) + v.denominator
    if not (0 < lo and hi < den):
        return (), True
    digits = []
    for (a, r), (b, s) in zip(islice(_euclid(lo, den), n), _euclid(hi, den)):
        if a != b or r == 0 or s == 0:
            return tuple(digits), True
        digits.append(a)
    return tuple(digits), False


def expand(x: RealInput, n: int) -> DigitSeq:
    """First n partial quotients of x, with certification semantics per kind.

    Rational inputs give the exact finite expansion (exhausted once it
    terminates); surd inputs always yield n digits; decimal inputs yield the
    certified prefix and exhausted=True if certification stops early.  A
    digit above MAX_DIGIT raises `Overflow` only once it is certified.
    """
    if n < 1:
        raise InputOutOfRange(f"n must be >= 1, got {n}")
    if x.kind == "rational":
        digits, done = _expand_rational(x.frac, n)
        return DigitSeq(digits, exhausted=done, complete=done)
    if x.kind == "surd":
        return DigitSeq(_expand_surd_digits(x, n))
    if x.kind == "decimal":
        digits, ex = _expand_decimal(x, n)
        return DigitSeq(digits, exhausted=ex)
    raise ValueError(f"unknown input kind {x.kind!r}")


# ---------------------------------------------------------------------------
# quadratic targets y = [i, i, ...]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticTarget:
    """The point y = (sqrt(i^2+4) - i)/2 = [i, i, ...], kept exact as a surd;
    q_n(y) grows like tau^n, tau = (i + sqrt(i^2+4))/2 > 1."""

    i: int
    y: Surd

    def cylinder_length(self, m: int) -> Fraction:
        """|I_m(y)| = 1/(q_m (q_m + q_{m-1})) with constant-run continuants."""
        _, qm1, qm = run_continuants(self.i, m)  # ValueError for m < 0
        return Fraction(1, qm * (qm + qm1))

    def log_cylinder_length(self, m: int) -> float:
        """float log |I_m(y)| = -(log q_m + log(q_m + q_{m-1}))."""
        if m == 0:
            return 0.0
        lq, lq1 = log_run_continuant(self.i, m), log_run_continuant(self.i, m - 1)
        return -(lq + _logaddexp(lq, lq1))


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def target(i: int) -> QuadraticTarget:
    check_run_digit(i)
    return QuadraticTarget(i=i, y=Surd(Fraction(-i, 2), Fraction(1, 2), i * i + 4))
