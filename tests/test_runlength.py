"""Run-length profile and ratio-estimator tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfdim.errors import InputOutOfRange
from cfdim.runlength import RunProfile, maximal_runs, ratio_estimates, run_profile

digit_lists = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=200)


def _run_profile_oracle(digits):
    """Oracle: R_n by checking every (start, length) pair, quadratic."""
    a = [int(x) for x in digits]
    R = np.zeros(len(a), dtype=np.int64)
    for m in range(1, len(a) + 1):
        best = 1
        for i in range(m):
            l = 1
            while i + l < m and a[i + l] == a[i]:
                l += 1
            best = max(best, l)
        R[m - 1] = best
    return R


def test_profile_examples():
    rp = run_profile([1, 2, 2, 3, 2, 2, 2, 1])
    assert rp.R[-1] == 3
    assert run_profile([5]).R[0] == 1
    n = 17
    rp3 = run_profile([4] * n)
    assert list(rp3.R) == list(range(1, n + 1))


def test_profile_invariants_small():
    rp = run_profile([1, 1, 2, 1, 1, 1, 3, 3])
    R = rp.R
    assert R[0] == 1
    assert all(R[k + 1] - R[k] in (0, 1) for k in range(len(R) - 1))
    assert (np.diff(R) >= 0).all()


@given(digit_lists)
def test_maximal_runs_tile_the_digits(digits):
    a = np.asarray(digits)
    starts, lengths = maximal_runs(a)
    assert (np.repeat(a[starts], lengths) == a).all()
    assert (lengths >= 1).all() and (a[starts[1:]] != a[starts[:-1]]).all()


def test_maximal_runs_scan_a_block_row_by_row():
    # the second row continues the first row's last digit but starts its own run
    starts, lengths = maximal_runs(np.array([[1, 1, 2], [2, 2, 2], [2, 3, 3]]))
    assert starts.tolist() == [0, 2, 3, 6, 7] and lengths.tolist() == [2, 1, 3, 1, 2]


@given(digit_lists)
def test_profile_matches_quadratic_oracle(digits):
    assert (run_profile(digits).R == _run_profile_oracle(digits)).all()


def test_profile_matches_oracle_randomized():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        digits = rng.integers(1, 4, size=n)
        assert (run_profile(digits).R == _run_profile_oracle(digits)).all()


def test_ratio_estimates_all_ones():
    rp = run_profile([1] * 500)
    est = ratio_estimates(rp, 0.5)
    assert est.limsup_est == 1.0
    assert est.liminf_est >= 0.99  # min over window attained at its left edge
    assert 0 <= est.liminf_est <= est.limsup_est <= 1


def test_ratio_estimates_window():
    rp = run_profile([1, 2] * 50)
    est = ratio_estimates(rp, 0.25)
    assert est.window == (76, 100)
    for bad in (0.0, 1.5, float("nan")):
        with pytest.raises(InputOutOfRange):
            ratio_estimates(rp, bad)


def test_random_digits_have_vanishing_ratio():
    # i.i.d.-style digits: R_n = Theta(log n), so R_n/n is tiny at n = 10^5
    rng = np.random.default_rng(123)
    digits = rng.integers(1, 10, size=100_000)
    est = ratio_estimates(run_profile(digits), 0.5)
    assert est.limsup_est <= 0.01


def test_ratio_estimates_empty_window():
    rp = run_profile([1, 2] * 5)
    with pytest.raises(InputOutOfRange):
        ratio_estimates(rp, 0.05)
