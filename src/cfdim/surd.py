"""Exact arithmetic in real quadratic fields Q(sqrt(D)).

Elements are a + b*sqrt(D) with rational a, b and a fixed non-square D > 1.
All comparisons and floors are exact (integer arithmetic only), which is what
makes surd continued-fraction expansions and distance computations certifiable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rat = Union[int, Fraction]


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _sign_a_plus_b_sqrtD(a: Fraction, b: Fraction, D: int) -> int:
    """Exact sign of a + b*sqrt(D)."""
    if b == 0:
        return (a > 0) - (a < 0)
    if b > 0:
        if a >= 0:
            return 1
        # a < 0: compare b*sqrt(D) with -a, both positive
        lhs = b * b * D
        rhs = a * a
        return (lhs > rhs) - (lhs < rhs)
    # b < 0: flip
    return -_sign_a_plus_b_sqrtD(-a, -b, D)


class Surd:
    """Immutable element a + b*sqrt(D) of the quadratic field Q(sqrt(D))."""

    __slots__ = ("a", "b", "D")

    def __init__(self, a: Rat, b: Rat, D: int):
        if D <= 1 or is_square(D):
            raise ValueError(f"D must be a non-square integer > 1, got {D}")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "D", D)

    def __setattr__(self, *args):
        raise AttributeError("Surd is immutable")

    def _coerce(self, other) -> "Surd":
        if isinstance(other, Surd):
            if other.D != self.D:
                raise ValueError("mixed radicands")
            return other
        return Surd(Fraction(other), 0, self.D)

    def __add__(self, other):
        o = self._coerce(other)
        return Surd(self.a + o.a, self.b + o.b, self.D)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.D)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Surd(
            self.a * o.a + self.b * o.b * self.D,
            self.a * o.b + self.b * o.a,
            self.D,
        )

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        norm = self.a * self.a - self.b * self.b * self.D
        if norm == 0:
            raise ZeroDivisionError("zero norm")
        return Surd(self.a / norm, -self.b / norm, self.D)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "Surd":
        if n < 0:
            return self.inverse() ** (-n)
        result = Surd(1, 0, self.D)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def sign(self) -> int:
        return _sign_a_plus_b_sqrtD(self.a, self.b, self.D)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, Surd):
            return NotImplemented
        return self.D == other.D and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.D if self.b else 0))

    def __lt__(self, other):
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - self._coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - self._coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - self._coerce(other)).sign() >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational surd")
        return self.a

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.D)

    def floor(self) -> int:
        """Exact floor in pure integer arithmetic.

        Writing the value as (A + B sqrt(D))/C with integers A, B and C > 0
        and s = isqrt(B^2 D):  B sqrt(D) lies in [s, s+1) for B > 0 and in
        (-s-1, -s) for B < 0 (irrationality makes the ends strict), and no
        multiple of C can fall inside those unit gaps, so the floor is
        (A + s) // C, respectively (A - s - 1) // C.
        """
        if self.b == 0:
            return math.floor(self.a)
        A = self.a.numerator * self.b.denominator
        B = self.b.numerator * self.a.denominator
        C = self.a.denominator * self.b.denominator
        s = math.isqrt(B * B * self.D)
        if B > 0:
            return (A + s) // C
        return (A - s - 1) // C

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, sqrt{self.D})"
