"""Block decomposition, exponent estimates, exact distance brackets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfdim.cf_core import RealInput, continuants, digit_seq, expand, target
from cfdim.errors import Exhausted, InputOutOfRange, InsufficientBlocks
from cfdim.exponents import (
    HitCheck,
    _threshold_interval,
    common_prefix_with_target,
    decompose,
    distance_bracket,
    exponent_estimates,
    uniform_hit_check,
)
from cfdim.surd import Surd

digit_lists = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=120)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def test_decompose_example():
    bd = decompose([3, 1, 1, 3, 1, 1, 1, 3], i=1)
    assert bd.record_blocks == ((1, 3), (4, 7))


def test_decompose_all_i_single_block():
    bd = decompose([2] * 9, i=2)
    assert bd.record_blocks == ((0, 9),)


def test_decompose_no_blocks():
    with pytest.raises(InputOutOfRange):
        decompose([2, 3, 4], i=1)


def test_record_selection_skips_non_increasing():
    # runs of lengths 2, 1, 2, 4: records are the first and the length-4 run
    bd = decompose([1, 1, 3, 1, 3, 1, 1, 3, 1, 1, 1, 1], i=1)
    lengths = [m - n for n, m in bd.record_blocks]
    assert lengths == [2, 4]


def _raw_blocks_oracle(digits, i):
    """Oracle: maximal runs of the digit i, by a scan of the positions one by one."""
    raw = []
    pos = 0
    while pos < len(digits):
        if digits[pos] == i:
            start = pos
            while pos < len(digits) and digits[pos] == i:
                pos += 1
            raw.append((start, pos))
        else:
            pos += 1
    return raw


def _select_records_oracle(raw):
    """Oracle: the first block, then each next block strictly longer than the last pick."""
    records = []
    best = 0
    for n, m in raw:
        if not records or m - n > best:
            records.append((n, m))
            best = m - n
    return records


def _digits_from_runs(runs):
    """Digits made of runs (digit, length); equal neighbours merge into one run."""
    return [a for a, length in runs for _ in range(length)]


# run lengths from a small range, so many i-runs tie with the current record
tied_runs = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4)), min_size=1, max_size=60
).map(_digits_from_runs)


@given(st.one_of(digit_lists, tied_runs), st.sampled_from(["list", "int64", "DigitSeq"]))
def test_decompose_matches_oracle(digits, kind):
    if 1 not in digits:
        return
    d = {"list": digits, "int64": np.asarray(digits, dtype=np.int64), "DigitSeq": digit_seq(digits)}[kind]
    a = decompose(d, 1)
    assert a.record_blocks == tuple(_select_records_oracle(_raw_blocks_oracle(digits, 1)))


def test_exponent_estimates_order():
    # designed blocks with known ratios
    digits = []
    pos = 0
    blocks = [(2, 5), (8, 17), (26, 53)]
    for n, m in blocks:
        digits += [3] * (n - pos) + [1] * (m - n)
        pos = m
    digits += [3] * 10
    bd = decompose(digits, 1)
    assert bd.record_blocks == tuple(blocks)
    est = exponent_estimates(bd, horizon=len(digits))
    assert est.k_used == 3
    assert est.nu_hat_est <= est.nu_est


def test_exponent_estimates_insufficient():
    with pytest.raises(InsufficientBlocks):
        exponent_estimates(decompose([1, 1, 1], i=1), horizon=3)


@given(digit_lists)
def test_nu_hat_below_nu(digits):
    if 1 not in digits:
        return
    bd = decompose(digits, 1)
    try:
        est = exponent_estimates(bd, horizon=len(digits))
    except InsufficientBlocks:
        return
    assert est.nu_hat_est <= est.nu_est + 1e-15


def test_random_digits_nu_small():
    rng = np.random.default_rng(42)
    digits = rng.integers(1, 10, size=1_000_000)
    bd = decompose(digits, 1)
    est = exponent_estimates(bd, horizon=digits.size)
    assert est.nu_est <= 0.05


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def _prefix_naive(digits, n, i):
    """Oracle: (common prefix of digits[n:] with (i, i, ...), whether it reaches the last digit)."""
    j = n
    while j < len(digits) and digits[j] == i:
        j += 1
    return j - n, j == len(digits)


# short runs of 1 and 2, so that i-runs often touch the last digit
run_digits = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4)), max_size=12
).map(_digits_from_runs)


@given(run_digits, st.integers(min_value=1, max_value=2), st.booleans())
def test_common_prefix_matches_naive_loop(digits, i, complete):
    d = digit_seq(digits, complete=complete)
    for n in range(-1, len(digits) + 2):
        if n < 0:
            with pytest.raises(ValueError):
                common_prefix_with_target(d, n, i)
            continue
        m, at_end = _prefix_naive(digits, n, i) if n < len(digits) else (0, True)
        if n >= len(digits) or (m and at_end and not complete):
            with pytest.raises(Exhausted):
                common_prefix_with_target(d, n, i)
        else:
            assert common_prefix_with_target(d, n, i) == m


@given(run_digits, st.integers(min_value=1, max_value=2), st.booleans(), st.sampled_from([0.3, 0.5, 1.0, 1.5]))
def test_hit_check_window_matches_naive_loop(digits, i, complete, nu_hat):
    d, t = digit_seq(digits, complete=complete), target(i)
    for N in range(-2, len(digits) + 2):
        prefixes = [_prefix_naive(digits, n, i) for n in range(1, min(N, len(digits) - 1) + 1)]
        if len(digits) < N + 1 or (not complete and any(m and at_end for m, at_end in prefixes)):
            with pytest.raises(Exhausted):
                uniform_hit_check(d, t, N, nu_hat)
        elif N < 1:  # the empty window: no shift, even where an i-run starts at position 0
            assert uniform_hit_check(d, t, N, nu_hat) == HitCheck(certain=False, possible=False)
        else:
            assert uniform_hit_check(d, t, N, nu_hat) == _hit_reference(d, t, N, nu_hat)


def test_hit_check_empty_window_skips_a_run_at_position_zero():
    # the run at 0 is the prefix of T^0(x) = x, which no window [1, N] holds
    t = target(1)
    for complete in (True, False):
        d = digit_seq([1, 1, 1, 2] if complete else [1, 1, 1], complete=complete)
        assert uniform_hit_check(d, t, 0, 0.5) == HitCheck(certain=False, possible=False)
    with pytest.raises(Exhausted):
        uniform_hit_check(digit_seq([1, 1, 1]), t, 1, 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda d, t: distance_bracket(d, 2.5, t),
        lambda d, t: common_prefix_with_target(d, np.float64(1.0), 1),
        lambda d, t: uniform_hit_check(d, t, 4.5, 0.5),
    ],
    ids=["distance_bracket", "common_prefix_with_target", "uniform_hit_check"],
)
def test_shift_and_horizon_must_be_integers(call):
    # distance_bracket(d, 2.5, t) gave the bracket of n = 2, and
    # uniform_hit_check(d, t, 4.5, 0.5) raised TypeError from the float logs
    d = digit_seq([1, 1, 1, 2, 1, 1, 3, 1, 1, 1, 1, 2], complete=True)
    with pytest.raises(InputOutOfRange, match=r"^need an integer (shift n|horizon N), got (2\.5|1\.0|4\.5)$"):
        call(d, target(1))


def test_distance_bracket_upper_example():
    # i = 1, common prefix m = 5: upper = |I_5(y)| = 1/(8*13) = 1/104
    t = target(1)
    d = digit_seq([1, 1, 1, 1, 1, 2, 1], complete=True)
    lo, up = distance_bracket(d, 0, t)
    assert up == Fraction(1, 104)
    assert lo == Fraction(1, 104) / 18


def test_distance_bracket_m0():
    t = target(2)
    d = digit_seq([3, 2, 2], complete=True)
    lo, up = distance_bracket(d, 0, t)
    assert up == Fraction(1)
    assert lo == Fraction(1, 2 * 16)


def test_common_prefix_exhaustion():
    t = target(2)
    d = digit_seq([2, 2, 2])  # might continue
    with pytest.raises(Exhausted):
        common_prefix_with_target(d, 0, 2)
    done = digit_seq([2, 2, 2], complete=True)
    assert common_prefix_with_target(done, 0, 2) == 3


def _orbit_distance_exact(x: Surd, digits, n: int, y: Surd) -> Surd:
    """|T^n(x) - y| in exact field arithmetic (same radicand)."""
    z = x
    for k in range(n):
        z = 1 / z - digits[k]
    diff = z - y
    return abs(diff)


def test_bracket_soundness_exact_random():
    # x in the same quadratic field as y: T^n(x) stays in the field, so the
    # true distance is exactly comparable with the rational bracket
    rng = np.random.default_rng(99)
    for i in (1, 2):
        t = target(i)
        D = i * i + 4
        base = Surd(-int(np.floor((D**0.5))), 1, D)  # sqrt(D) - floor(sqrt(D))
        checked = 0
        trials = 0
        while checked < 500 and trials < 5000:
            trials += 1
            k = int(rng.integers(1, 9))
            prefix = [int(a) for a in rng.integers(1, 6, size=k)]
            # x = [prefix..., then digits of base]: exact field element
            x = base
            for a in reversed(prefix):
                x = 1 / (a + x)
            digits = prefix + _surd_digits(base, 25)
            n = int(rng.integers(0, k + 3))
            m = 0
            j = n
            while j < len(digits) and digits[j] == i:
                m += 1
                j += 1
            if j >= len(digits):
                continue
            d = digit_seq(digits, complete=False)
            try:
                lo, up = distance_bracket(d, n, t)
            except Exhausted:
                continue
            dist = _orbit_distance_exact(x, digits, n, t.y)
            assert (dist - Fraction(lo)).sign() >= 0
            assert (dist - Fraction(up)).sign() < 0
            checked += 1
        assert checked >= 400


def _surd_digits(x: Surd, n: int):
    out = []
    z = x
    for _ in range(n):
        inv = 1 / z
        a = inv.floor()
        out.append(a)
        z = inv - a
    return out


# ---------------------------------------------------------------------------
# hit checks
# ---------------------------------------------------------------------------


def test_hit_check_zero_exponent_always_true():
    t = target(1)
    d = digit_seq([2, 3, 4, 5, 2, 3], complete=True)
    res = uniform_hit_check(d, t, N=3, nu_hat=0.0)
    assert res.verdict is True


def test_hit_check_refuses_a_nan_exponent():
    # NaN compares False with everything, so it must not read as "excluded"
    d = digit_seq([2, 3, 4, 5, 2, 3], complete=True)
    with pytest.raises(ValueError, match="nu_hat must be >= 0"):
        uniform_hit_check(d, target(1), 3, float("nan"))
    # |I_N|^inf = 0: no distance is below it
    assert uniform_hit_check(d, target(1), 3, math.inf) == HitCheck(certain=False, possible=False)


def test_hit_check_monotone_in_exponent():
    t = target(1)
    rng = np.random.default_rng(5)
    digits = [int(a) for a in rng.integers(1, 4, size=400)]
    d = digit_seq(digits, complete=True)
    exps = [0.1, 0.3, 0.5, 0.8, 1.2]
    results = [uniform_hit_check(d, t, N=200, nu_hat=v) for v in exps]
    # once a hit fails at some exponent it cannot succeed at a larger one
    seen_false = False
    for r in results:
        if seen_false:
            assert r.verdict is not True
        if r.verdict is False:
            seen_false = True


def test_hit_check_long_run_hits():
    # a long i-run right at the start gives a very close approach
    t = target(1)
    digits = [1] * 60 + [2] + [3, 2] * 40
    d = digit_seq(digits, complete=True)
    assert uniform_hit_check(d, t, N=20, nu_hat=1.0).verdict is True


def test_hit_check_no_close_approach_fails():
    # digits avoiding i entirely except trivially short runs
    t = target(1)
    digits = [2, 3] * 100
    d = digit_seq(digits, complete=True)
    assert uniform_hit_check(d, t, N=50, nu_hat=1.5).verdict is False


def _hit_reference(d, t, N, nu_hat):
    """Per-n exact decision: any upper bound below the threshold enclosure
    proves a hit, any lower bound below it leaves one possible."""
    thr_lo, thr_hi = _threshold_interval(t, N, nu_hat)
    cylinders = [t.cylinder_length(_prefix_naive(d.digits, n, t.i)[0]) for n in range(1, N + 1)]
    brackets = [(c / (2 * (t.i + 2) ** 2), c) for c in cylinders]
    certain = any(up < thr_lo for _, up in brackets)
    return HitCheck(certain=certain, possible=any(lo < thr_hi for lo, _ in brackets))


def test_hit_check_matches_per_n_exact_reference():
    # exponents placed just above and below the float screen's decision
    # points, the upper and lower distance bounds of the longest run
    rng = np.random.default_rng(21)
    verdicts = set()
    for trial in range(40):
        i = 1 + trial % 2
        t = target(i)
        digits = [int(a) for a in rng.integers(1, 5, size=int(rng.integers(20, 80)))]
        for _ in range(3):
            at = int(rng.integers(0, len(digits)))
            digits[at:at] = [i] * int(rng.integers(1, 12))
        d = digit_seq(digits, complete=True)
        N = int(rng.integers(1, len(digits)))
        m_star = max(_prefix_naive(digits, n, i)[0] for n in range(1, N + 1))
        if m_star == 0:
            continue
        log_upper = t.log_cylinder_length(m_star)
        log_n = t.log_cylinder_length(N)
        for anchor in (log_upper, log_upper - math.log(2 * (i + 2) ** 2)):
            for rel in (1e-12, -1e-12, 1e-8, -1e-8):
                nu_hat = anchor / log_n * (1 + rel)
                got = uniform_hit_check(d, t, N, nu_hat)
                assert got == _hit_reference(d, t, N, nu_hat), (digits, N, nu_hat)
                verdicts.add(got.verdict)
    assert verdicts == {True, False, None}


def test_designed_point_hit_examples():
    # image points of the (1/2, 1) construction: hits at exponents below the
    # designed uniform rate, certified misses well above the asymptotic rate
    from fractions import Fraction

    from cfdim.cantor import CantorSpec, construct_sequences, insert_map, inserted_record_blocks, sample_measure

    spec = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 2), 1, k_max=9), d=4)
    t = target(1)
    d = sample_measure(spec, depth=spec.sp.m[8], seed=77)
    res = insert_map(spec, d.digits)
    recs = inserted_record_blocks(spec, 9)
    N = recs[7][0]  # marker position before run 8: block 7 fully inside
    assert uniform_hit_check(res.digits, t, N=N, nu_hat=0.3).verdict is True
    assert uniform_hit_check(res.digits, t, N=N, nu_hat=1.5).verdict is False
