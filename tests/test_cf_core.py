"""Exact continued-fraction kernel tests."""

import math
import re
import warnings
from fractions import Fraction
from itertools import repeat

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfdim import cf_core
from cfdim.cantor import (
    CantorSpec,
    admissible_children,
    construct_sequences,
    insert_map,
    local_dimension,
    local_dimension_series,
    measure_mass,
    validate_prefix,
)
from cfdim.cf_core import (
    BasicInterval,
    ContinuantTable,
    DigitSeq,
    RealInput,
    basic_interval,
    continuants,
    digit_seq,
    expand,
    gauss_shift,
    denominators,
    read_digits,
    run_continuant,
    run_continuant_closed_form,
    run_continuants,
    target,
)
from cfdim.errors import Exhausted, InputOutOfRange, Overflow
from cfdim.exponents import decompose
from cfdim.runlength import run_profile
from cfdim.surd import Surd

digit_lists = st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=30)


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_surd_sqrt2_minus_1():
    x = RealInput.surd(-1, 1, 1, 2)  # sqrt(2) - 1 = [2, 2, 2, ...]
    d = expand(x, 5)
    assert d.digits == (2, 2, 2, 2, 2)
    assert not d.exhausted


def test_expand_rational_one_third():
    d = expand(RealInput.rational(1, 3), 4)
    assert d.digits == (3,)
    assert d.exhausted and d.complete


def test_expand_rational_five_eighths():
    # hand iteration of x -> 1/x - floor(1/x): 5/8 -> [1,1,1,2]
    d = expand(RealInput.rational(5, 8), 4)
    assert d.digits == (1, 1, 1, 2)
    assert d.exhausted


def test_expand_target_digits_all_i():
    for i in (1, 2, 3, 5):
        t = target(i)
        x = RealInput.surd(-i, 1, 2, i * i + 4)
        assert expand(x, 12).digits == (i,) * 12


def test_expand_rejects_out_of_range():
    with pytest.raises(InputOutOfRange):
        RealInput.rational(3, 2)
    with pytest.raises(InputOutOfRange):
        RealInput.surd(1, 1, 1, 2)  # 1 + sqrt(2) > 1
    with pytest.raises(InputOutOfRange):
        RealInput.decimal_input("1.5")
    # a 5 000-character input that does not parse is named, not repeated
    with pytest.raises(InputOutOfRange, match="^cannot parse decimal of 5000 characters starting '0.111") as exc:
        RealInput.decimal_input("0." + "1" * 4997 + "x")
    assert len(str(exc.value)) < 200


def test_expand_decimal_certifies_prefix():
    # 10 digits of sqrt(2)-1 as a decimal string; high budget certifies many
    s = "0.41421356237309504880168872420969807856967187537694"
    d = expand(RealInput.decimal_input(s), 10)
    assert d.digits == (2,) * 10
    assert not d.exhausted


def test_expand_decimal_exhausts_on_low_budget():
    d = expand(RealInput.decimal_input("0.5", precision_bits=64), 4)
    # 0.5 +- 2^-64 straddles the boundary of the first cylinder
    assert d.exhausted
    assert len(d.digits) <= 1


def test_expand_overflow():
    big = 2**64
    with pytest.raises(Overflow):
        expand(RealInput.rational(1, big), 1)


@pytest.mark.parametrize(
    "digits,error",
    [
        ((3, 0, 2, 2**63), ValueError),
        ((3, 2**63, 2, 0), Overflow),
        ((0,), ValueError),
        ((2**63,), Overflow),
        ((1, 5, -4, 2**70), ValueError),
        ((1, cf_core.MAX_DIGIT, 7), None),
    ],
)
def test_digit_seq_names_first_bad_digit(digits, error):
    # the range screen falls back to the digit loop, so the first bad digit decides
    if error is None:
        assert digit_seq(digits).digits == digits
        return
    with pytest.raises(error):
        digit_seq(digits)


def _certified_prefix(s, bits, n):
    """Longest prefix k <= n of v's digits whose cylinder strictly contains
    [v - 2^-bits, v + 2^-bits]; exhausted when it is shorter than n."""
    v = Fraction(s)
    eps = Fraction(1, 2**bits)
    digits, x = [], v
    while x and len(digits) < n:
        a = math.floor(1 / x)
        digits.append(a)
        x = 1 / x - a
    k = 0
    while k < len(digits):
        b = basic_interval(digits[: k + 1])
        if not (b.left < v - eps and v + eps < b.right):
            break
        k += 1
    return tuple(digits[:k]), k < n


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="0123456789", min_size=1, max_size=60),
    st.sampled_from([None, 64, 80, 200]),
    st.integers(min_value=1, max_value=40),
)
@example("5", 64, 4)
@example("25", 64, 4)
@example("125", 64, 4)
# 2/5 + 2^-64, 1/2 - 2^-64 and 2^-64: an end of the interval is the cylinder's
# end 2/5, the cylinder's end 1/2, or 0
@example("4000000000000000000542101086242752217003726400434970855712890625", 64, 4)
@example("4999999999999999999457898913757247782996273599565029144287109375", 64, 4)
@example("0000000000000000000542101086242752217003726400434970855712890625", 64, 4)
def test_expand_decimal_matches_cylinder_containment(frac_digits, bits, n):
    s = "0." + frac_digits
    assume(Fraction(s) != 0)
    d = expand(RealInput.decimal_input(s, bits), n)
    assert (d.digits, d.exhausted) == _certified_prefix(s, 4 * n + 64 if bits is None else bits, n)


def test_expand_decimal_overflow_only_on_certified_digits():
    # the second digit, 2^65 - 1, is past the machine word but not certified
    d = expand(RealInput.decimal_input("0.4999999999999999999932237364219655972875", precision_bits=100), 3)
    assert d.digits == (2,) and d.exhausted
    # a certified first digit of about 8.1e25 still overflows
    with pytest.raises(Overflow):
        expand(RealInput.decimal_input("0." + "0" * 25 + "12345", precision_bits=200), 3)


# ---------------------------------------------------------------------------
# continuants
# ---------------------------------------------------------------------------


def test_continuants_fibonacci():
    t = continuants([1, 1, 1, 1, 1])
    assert [t.qk(k) for k in range(1, 6)] == [1, 2, 3, 5, 8]


def test_continuants_twos():
    t = continuants([2, 2, 2])
    assert [t.qk(k) for k in range(1, 4)] == [2, 5, 12]


def test_continuants_base_case():
    for a in (1, 2, 7, 100):
        assert continuants([a]).qk(1) == a


@given(digit_lists, st.integers(min_value=0, max_value=40))
def test_denominators_match_continuants(digits, cut):
    t = continuants(digits)
    n = len(digits)
    assert cf_core.denominators(digits) == (t.qk(n - 1), t.qk(n))
    # continuing from the pair of a head gives the pair of the whole
    cut = min(cut, n)
    assert cf_core.denominators(digits[cut:], *cf_core.denominators(digits[:cut])) == (t.qk(n - 1), t.qk(n))
    assert cf_core.denominators(()) == (0, 1)


@given(digit_lists)
def test_determinant_identity(digits):
    t = continuants(digits)
    for k in range(0, len(digits) + 1):
        assert abs(t.pk(k) * t.qk(k - 1) - t.pk(k - 1) * t.qk(k)) == 1


@given(digit_lists)
def test_product_and_growth_bounds(digits):
    t = continuants(digits)
    n = len(digits)
    qn = t.qk(n)
    lo = math.prod(digits)
    hi = math.prod(a + 1 for a in digits)
    assert lo <= qn <= hi
    assert qn * qn >= 2 ** (n - 1)


@given(digit_lists, st.data())
def test_splitting_bounds(digits, data):
    n = len(digits)
    if n < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=n - 1))
    q_all = continuants(digits).qk(n)
    q_head = continuants(digits[:cut]).qk(cut)
    q_tail = continuants(digits[cut:]).qk(n - cut)
    assert q_head * q_tail <= q_all <= 2 * q_head * q_tail


# ---------------------------------------------------------------------------
# basic intervals
# ---------------------------------------------------------------------------


def test_basic_interval_examples():
    b1 = basic_interval([1])
    assert (b1.left, b1.right, b1.length) == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
    b2 = basic_interval([2])
    assert (b2.left, b2.right, b2.length) == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))
    b3 = basic_interval([1, 1])
    assert b3.length == Fraction(1, 6)


@given(digit_lists)
def test_interval_length_identity_and_bounds(digits):
    b = basic_interval(digits)
    t = continuants(digits)
    qn = t.qk(len(digits))
    assert b.right - b.left == b.length
    assert Fraction(1, 2 * qn * qn) <= b.length <= Fraction(1, qn * qn)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=8))
def test_interval_nesting(digits):
    parent = basic_interval(digits)
    for a in (1, 2, 5):
        child = basic_interval(list(digits) + [a])
        assert parent.left <= child.left and child.right <= parent.right


def test_interval_parity_ordering_exhaustive():
    # children of I_n ordered monotonically in the new digit, direction
    # flipping with the parity of n (n even: right-to-left)
    from itertools import product

    for n in range(0, 4):
        for digits in product(range(1, 4), repeat=n):
            children = [basic_interval(list(digits) + [a]) for a in range(1, 5)]
            lefts = [c.left for c in children]
            if n % 2 == 0:
                assert all(lefts[k] > lefts[k + 1] for k in range(len(lefts) - 1))
            else:
                assert all(lefts[k] < lefts[k + 1] for k in range(len(lefts) - 1))
            # pairwise disjoint
            ordered = sorted(children, key=lambda c: c.left)
            assert all(
                ordered[k].right <= ordered[k + 1].left + Fraction(0)
                for k in range(len(ordered) - 1)
            )


@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=12))
def test_reexpansion_identity(digits):
    # expanding a point inside I_n(d) returns d as its first n digits
    b = basic_interval(digits)
    mid = (b.left + b.right) / 2
    d = expand(RealInput.rational(mid.numerator, mid.denominator), len(digits))
    assert d.digits[: len(digits)] == tuple(digits)


# ---------------------------------------------------------------------------
# oracles for the two kernels: the list-append table, and Fraction ends
# ordered by comparison and checked by right - left == length
# ---------------------------------------------------------------------------


def _continuants_oracle(d):
    digits = d.digits if isinstance(d, DigitSeq) else tuple(d)
    if not digits:
        raise ValueError("empty digit sequence")
    p = [1, 0]
    q = [0, 1]
    for a in digits:
        a = int(a)
        p.append(a * p[-1] + p[-2])
        q.append(a * q[-1] + q[-2])
    return ContinuantTable(tuple(p), tuple(q))


def _basic_interval_oracle(d):
    digits = d.digits if isinstance(d, DigitSeq) else tuple(int(a) for a in d)
    t = _continuants_oracle(digits)
    n = len(digits)
    qn, qn1 = t.qk(n), t.qk(n - 1)
    pn, pn1 = t.pk(n), t.pk(n - 1)
    e1 = Fraction(pn, qn)
    e2 = Fraction(pn + pn1, qn + qn1)
    left, right = (e1, e2) if e1 < e2 else (e2, e1)
    length = Fraction(1, qn * (qn + qn1))
    if right - left != length:
        raise ArithmeticError("cylinder endpoints disagree with 1/(q_n (q_n + q_{n-1}))")
    return BasicInterval(order=n, digits=digits, left=left, right=right, length=length)


wide_digit_lists = st.lists(
    st.one_of(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=cf_core.MAX_DIGIT)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(wide_digit_lists)
def test_kernels_match_oracles(digits):
    for d in (digits, tuple(digits), digit_seq(digits)):
        assert continuants(d) == _continuants_oracle(d)
        assert basic_interval(d) == _basic_interval_oracle(d)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=cf_core.MAX_DIGIT), min_size=1, max_size=12))
@example([cf_core.MAX_DIGIT] * 3)
@example([1, cf_core.MAX_DIGIT, 2])
def test_kernels_match_oracles_on_numpy_digits(digits):
    # int64 digits must run the big-int recursion: a product of two of them
    # overflows a machine word
    arr = np.array(digits, dtype=np.int64)
    expected_t, expected_b = _continuants_oracle(digits), _basic_interval_oracle(digits)
    for d in (tuple(arr), arr, DigitSeq(tuple(arr))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert continuants(d) == expected_t
            assert basic_interval(d) == expected_b


def test_kernels_match_oracles_at_order_one():
    for a in (1, 2, 7, 100, cf_core.MAX_DIGIT):
        for d in ([a], (np.int64(a),), digit_seq([a])):
            assert continuants(d) == _continuants_oracle(d)
            assert basic_interval(d) == _basic_interval_oracle(d)
            assert basic_interval(d).order == 1


def _outcome(f, d):
    try:
        return f(d)
    except ArithmeticError as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=8))
@example([0])
@example([1, 0, 1])
def test_basic_interval_matches_oracle_on_any_int_digits(digits):
    # lists and tuples are not range-checked: digits < 1 must give the
    # oracle's interval or its error, never an interval with right < left
    got = _outcome(basic_interval, digits)
    assert got == _outcome(_basic_interval_oracle, digits)
    if isinstance(got, BasicInterval):
        assert got.right - got.left == got.length > 0


def test_basic_interval_rejects_negative_length():
    # det = 1 here, but q_n (q_n + q_{n-1}) = -2: ends 0 and -1/2
    with pytest.raises(ArithmeticError):
        basic_interval([-3, 0])


@pytest.mark.parametrize("d", [[], (), np.array([], dtype=np.int64), DigitSeq(())], ids=["list", "tuple", "array", "DigitSeq"])
def test_kernels_reject_empty_digits(d):
    with pytest.raises(ValueError, match="empty"):
        continuants(d)
    with pytest.raises(ValueError, match="empty"):
        basic_interval(d)


# ---------------------------------------------------------------------------
# the digit reader
# ---------------------------------------------------------------------------


def test_read_digits_reads_integers_and_names_a_non_integer():
    for d in ([1, 2.0, np.int64(3)], np.array([1, 2, 3]), DigitSeq((1, 2, 3)), iter([True, 2, 3]), (1, 2, 3)):
        got = read_digits(d)
        assert got == (1, 2, 3) and all(type(a) is int for a in got)
    assert read_digits([]) == () and read_digits([4, 2.0, 7], 1) == (2, 7)
    for d, start, message in (
        ([2.7], 0, "digit 1 is 2.7, not an integer"),
        ((1, 1, np.float64(1.5), 0.5), 0, "digit 3 is 1.5, not an integer"),
        ([1, 2, 2.5], 2, "digit 3 is 2.5, not an integer"),  # positions count from the start of d
        ([1, "2"], 0, "digit 2 is 2, not an integer"),  # int("2") is 2, but "2" is text
        # digits that int() refuses: ValueError, OverflowError and TypeError of their own
        ([1, float("nan")], 0, "digit 2 is nan, not an integer"),
        ((3, 1, float("-inf")), 1, "digit 3 is -inf, not an integer"),
        ([None], 0, "digit 1 is None, not an integer"),
    ):
        with pytest.raises(InputOutOfRange, match=rf"^{re.escape(message)}$"):
            read_digits(d, start)


_SPEC = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=4))

# every public entry that reads a digit sequence, each through read_digits
DIGIT_READERS = {
    "digit_seq": digit_seq,
    "continuants": continuants,
    "basic_interval": basic_interval,
    "run_profile": run_profile,
    "decompose": lambda d: decompose(d, 1),
    "measure_mass": lambda d: measure_mass(_SPEC, d),
    "admissible_children": lambda d: admissible_children(_SPEC, d),
    "validate_prefix": lambda d: validate_prefix(_SPEC, d),
    "local_dimension": lambda d: local_dimension(_SPEC, d),
    "local_dimension_series": lambda d: local_dimension_series(_SPEC, d),
    "insert_map": lambda d: insert_map(_SPEC, d),
}


@pytest.mark.parametrize("entry", DIGIT_READERS)
@pytest.mark.parametrize("digits, k", [([2.9, 3, 1, 1, 1, 2], 1), ([2, 3, 1, 1.5, 1, 2], 4)])
def test_every_digit_reader_refuses_a_non_integer_digit(entry, digits, k):
    # each entry once read 2.9 as the digit 2, and 1.5 as 1
    with pytest.raises(InputOutOfRange, match=rf"^digit {k} is {digits[k - 1]}, not an integer$"):
        DIGIT_READERS[entry](digits)
    assert DIGIT_READERS[entry]([float(a) for a in (2, 3, 1, 1, 1, 2)]) is not None


def test_a_resumed_mass_names_the_position_in_the_whole_prefix():
    parent = (2, 3, 1, 1, 1, 2)
    measure_mass(_SPEC, parent)
    with pytest.raises(InputOutOfRange, match=r"^digit 7 is 2\.5, not an integer$"):
        measure_mass(_SPEC, parent + (2.5,))
    with pytest.raises(InputOutOfRange, match=r"^digit 7 is 2\.5, not an integer$"):
        admissible_children(_SPEC, parent + (2.5,))


# ---------------------------------------------------------------------------
# run continuants and targets
# ---------------------------------------------------------------------------


def test_run_continuant_examples():
    assert run_continuant(1, 5) == 8
    assert run_continuant(2, 3) == 12
    for i in (1, 2, 3):
        assert run_continuant(i, 0) == 1


def test_run_continuant_closed_form_matches_recursion():
    for i in range(1, 6):
        for n in range(0, 41):
            assert run_continuant(i, n) == run_continuant_closed_form(i, n)


@pytest.mark.parametrize("i", [1, 2, 3, 7])
def test_run_continuants_fast_doubling_matches_recursion(i):
    # the plain recursion q_{k+1} = i q_k + q_{k-1} is the oracle
    def oracle(t):
        q1, q = denominators(repeat(i, t))
        return q - i * q1, q1, q  # q_{t-2} from q_t = i q_{t-1} + q_{t-2}

    for t in list(range(201)) + [9840]:
        assert run_continuants(i, t) == oracle(t)
    assert run_continuants(i, 0) == (1, 0, 1)
    with pytest.raises(ValueError):
        run_continuants(i, -1)
    with pytest.raises(InputOutOfRange, match="need i >= 1, got 0"):
        run_continuants(0, 3)


def _tau_zeta(i):
    """tau(i), zeta(i) = (i +- sqrt(i^2+4))/2 at 256-bit working precision."""
    with mpmath.workprec(256):
        root = mpmath.sqrt(i * i + 4)
        return (i + root) / 2, (i - root) / 2


def test_run_continuant_tau_power_bounds():
    for i in range(1, 6):
        tau = float(_tau_zeta(i)[0])
        for n in range(1, 41):
            q = run_continuant(i, n)
            assert tau**n / 2 <= q <= 2 * tau**n


def test_target_invariants():
    for i in (1, 2, 3, 7):
        t = target(i)
        D = i * i + 4
        prod = Surd(Fraction(i, 2), Fraction(1, 2), D) * Surd(Fraction(i, 2), Fraction(-1, 2), D)  # tau zeta
        assert prod == Fraction(-1)
        tau, zeta = _tau_zeta(i)
        assert float(tau) > 1 > abs(float(zeta))
        # y = [i, i, ...] lies in (0, 1)
        assert t.y.sign() > 0 and (t.y - 1).sign() < 0


def test_target_golden_ratio_values():
    t = target(1)
    assert abs(float(_tau_zeta(1)[0]) - (1 + math.sqrt(5)) / 2) < 1e-15
    assert abs(float(t.y) - ((1 + math.sqrt(5)) / 2 - 1)) < 1e-15


def test_log_run_continuant_matches_exact():
    for i in range(1, 6):
        for n in (0, 1, 2, 5, 40, 599, 600, 2000):
            q = run_continuant(i, n)
            assert cf_core.log_run_continuant(i, n) == pytest.approx(math.log(q), rel=1e-13, abs=1e-13)
        assert cf_core.log_tau(i) == pytest.approx(math.log(float(_tau_zeta(i)[0])), rel=1e-15)


def test_log_cylinder_length_matches_exact():
    t = target(2)
    for m in (1, 3, 10, 50, 200):
        exact = t.cylinder_length(m)
        approx = t.log_cylinder_length(m)
        ref = math.log(exact.numerator) - math.log(exact.denominator) if exact.numerator < 10**300 and exact.denominator < 10**300 else None
        if ref is not None:
            assert abs(approx - ref) < 1e-10


# ---------------------------------------------------------------------------
# gauss shift
# ---------------------------------------------------------------------------


def test_gauss_shift():
    d = digit_seq([2, 2, 2, 2, 2])
    assert gauss_shift(d, 2).digits == (2, 2, 2)
    d2 = digit_seq([1, 3, 5, 7])
    assert gauss_shift(d2, 0).digits == (1, 3, 5, 7)
    assert gauss_shift(d2, 3).digits == (7,)
    with pytest.raises(Exhausted):
        gauss_shift(d2, 4)


def test_randomized_kernel_suite_at_scale():
    # 10^4 random strings: product/growth, splitting, interval identities
    rng = np.random.default_rng(20260809)
    for _ in range(10_000):
        n = int(rng.integers(1, 31))
        digits = [int(a) for a in rng.integers(1, 11, size=n)]
        t = continuants(digits)
        qn = t.qk(n)
        assert math.prod(digits) <= qn <= math.prod(a + 1 for a in digits)
        assert qn * qn >= 2 ** (n - 1)
        assert abs(t.pk(n) * t.qk(n - 1) - t.pk(n - 1) * t.qk(n)) == 1
        if n >= 2:
            cut = int(rng.integers(1, n))
            qh = continuants(digits[:cut]).qk(cut)
            qt = continuants(digits[cut:]).qk(n - cut)
            assert qh * qt <= qn <= 2 * qh * qt


@pytest.mark.parametrize(
    "pqa",
    [
        (0, 3, 5),  # sqrt(5)/3: 3 does not divide 5 - 0^2; it expanded to (2, 4, 4, ...)
        (1, 5, 5),  # 5 does not divide 5 - 1^2, yet floor((1 + sqrt(5))/5) = 0
        (0, 0, 5),  # Q = 0
        (0, 3, 9),  # a square radicand
        (0, 3, 0),
        (1, 3, -8),
    ],
)
def test_surd_state_out_of_range_is_refused_where_built(pqa):
    with pytest.raises(InputOutOfRange, match=r"needs D a positive non-square, Q != 0 and Q \| D - P\^2$"):
        RealInput(kind="surd", pqa=pqa)


def test_surd_state_of_a_valid_pqa_expands_like_its_surd():
    # (0 + sqrt(45))/9 = sqrt(5)/3, and 9 | 45 - 0^2
    assert expand(RealInput(kind="surd", pqa=(0, 9, 45)), 6) == expand(RealInput.surd(0, 1, 3, 5), 6)
    assert expand(RealInput.surd(0, 1, 3, 5), 6).digits == (1, 2, 1, 12, 1, 2)


def test_surd_expansion_cylinder_membership():
    # PQa digits are correct iff the surd lies in the exact cylinder of its
    # certified prefix; membership is decidable exactly in the field
    rng = np.random.default_rng(314)
    checked = 0
    while checked < 200:
        d_rad = int(rng.choice([2, 3, 5, 7, 10, 13]))
        u = int(rng.integers(-30, 31))
        v = int(rng.integers(1, 7))
        w = int(rng.integers(1, 60))
        try:
            x = RealInput.surd(u, v, w, d_rad)
        except InputOutOfRange:
            continue
        digits = expand(x, 9)
        b = basic_interval(digits.digits)
        s = Surd(Fraction(u, w), Fraction(v, w), d_rad)
        assert (s - Fraction(b.left)).sign() >= 0
        assert (s - Fraction(b.right)).sign() < 0
        checked += 1
