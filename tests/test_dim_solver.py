"""Dimension solver tests: enumeration kernels, spectral route, theorem formulas."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cfdim import dim_solver as ds
from cfdim import transfer, verify
from cfdim.cf_core import continuants, log_tau
from cfdim.dim_solver import (
    DimEstimate,
    SumKernelSpec,
    aitken,
    dim_full,
    dim_limit,
    predim_hat,
    predim_s,
    predim_tilde,
    spectral_dim,
    spectral_pressure,
    sum_power,
    sum_power_error,
    theorem_argument,
    theorem_dims,
    to_fraction,
)
from cfdim.errors import InputOutOfRange, NoConvergence

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# sum_power
# ---------------------------------------------------------------------------


def _exact_free_sum(B, n, rho2, tail=()):
    """Oracle: exact rational sum of q^(-rho2) over {1..B}^n followed by `tail`,
    with rho2 = 2 rho an integer.  Continuants by the integer recursion, summed
    over the common denominator of the distinct q^rho2."""
    states = [(1, 0)]  # (q_k, q_{k-1}) of every prefix, from (q_0, q_{-1})
    for _ in range(n):
        states = [(a * q + q1, q) for q, q1 in states for a in range(1, B + 1)]
    for a in tail:
        states = [(a * q + q1, q) for q, q1 in states]
    counts = Counter(q for q, _ in states)
    den = math.lcm(*counts) ** rho2
    return Fraction(sum(c * (den // q**rho2) for q, c in counts.items()), den)


def test_sum_power_single_term():
    assert sum_power(1, SumKernelSpec(free_length=3), 0.0) == pytest.approx(0.0, abs=1e-14)


def test_sum_power_exact_small_cases():
    # q_2 over {1,2}^2 is the multiset {2,3,3,5} by the recursion
    # (continuants are symmetric under digit reversal, so q(1,2) = q(2,1) = 3)
    exact = _exact_free_sum(2, 2, 2)
    assert exact == Fraction(1, 4) + Fraction(2, 9) + Fraction(1, 25)
    got = sum_power(2, SumKernelSpec(free_length=2), 1.0)
    assert got == pytest.approx(math.log(float(exact)), abs=1e-12)


def test_sum_power_tail_kernel_exact():
    exact = _exact_free_sum(2, 2, 2, tail=(1, 1))
    got = sum_power(2, SumKernelSpec(free_length=2, tail_i=2, tail_digit=1), 1.0)
    assert got == pytest.approx(math.log(float(exact)), abs=1e-12)


def test_sum_power_monotone_decreasing_in_rho():
    spec = SumKernelSpec(free_length=6, tail_i=3, tail_digit=2, scale_log=0.7)
    vals = [sum_power(3, spec, r) for r in np.linspace(0.05, 2.0, 15)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("rho", [math.nan, -0.5])
def test_sum_power_rejects_nan_and_negative_rho(rho):
    with pytest.raises(ValueError, match="rho must be >= 0"):
        sum_power(2, SumKernelSpec(free_length=3), rho)


def test_sum_power_budget():
    with pytest.raises(InputOutOfRange, match="leaves exceed budget"):
        sum_power(3, SumKernelSpec(free_length=30), 1.0)  # 3^30 leaves
    # one leaf past the table limit: 2^21 leaves
    with pytest.raises(InputOutOfRange, match=r"2\^21 leaves exceed budget 1048576"):
        sum_power(2, SumKernelSpec(free_length=21), 1.0)


def test_table_cache_is_bounded_and_evicts_least_recent():
    info = ds._log_qtotal.cache_info
    size = info().maxsize
    assert size * ds._TABLE_LIMIT <= 2**23  # 64 MB of leaves at most
    ds._log_qtotal.cache_clear()
    specs = [SumKernelSpec(free_length=f, tail_i=f % 2, tail_digit=2) for f in range(1, size + 1)]
    first = {spec: sum_power(2, spec, 0.7) for spec in specs}
    assert info().misses == info().currsize == size
    assert sum_power(2, specs[0], 0.7) == first[specs[0]]  # kept: specs[1] is now the least recent
    assert info().misses == size
    sum_power(2, SumKernelSpec(free_length=3, tail_i=2, tail_digit=3), 0.7)  # pushes out specs[1]
    assert info().currsize == size
    assert sum_power(2, specs[0], 0.7) == first[specs[0]]  # kept
    assert info().misses == size + 1
    assert sum_power(2, specs[1], 0.7) == first[specs[1]]  # evicted: rebuilt
    assert info().misses == size + 2


def _out_of_place_table(B, spec):
    """Reference: the log q_total table grown from the empty string one
    branch digit a at a time into its block of each level, the tail added
    out of place."""
    logq, r = np.zeros(1), np.zeros(1)
    for _ in range(spec.free_length):
        n = logq.size
        new_logq, new_r = np.empty(B * n), np.empty(B * n)
        for k, a in enumerate(range(1, B + 1)):
            ar = a + r
            new_logq[k * n : (k + 1) * n] = logq + np.log(ar)
            new_r[k * n : (k + 1) * n] = 1.0 / ar
        logq, r = new_logq, new_r
    if not spec.tail_i:
        return logq
    log_u, v_over_u = ds.transfer.run_tail_logs(spec.tail_digit, spec.tail_i)
    return logq + log_u + np.log1p(v_over_u * r)


def _sum_power_out_of_place(table, scale_log, rho):
    """Reference: sum_power's arithmetic with a fresh array per operation."""
    terms = -2.0 * rho * (scale_log + table)
    m = float(terms.max())
    return m + math.log(float(np.exp(terms - m).sum()))


@pytest.mark.parametrize(
    "B, spec",
    [
        (3, SumKernelSpec(free_length=12)),
        (2, SumKernelSpec(free_length=20, tail_i=2, tail_digit=1, scale_log=0.2)),  # 2^20 leaves, the limit
        (4, SumKernelSpec(free_length=7, tail_i=1, tail_digit=2)),
        (3, SumKernelSpec(free_length=7, tail_i=3, tail_digit=2, scale_log=0.7)),
        (2, SumKernelSpec(free_length=10, scale_log=-1.3)),
        (5, SumKernelSpec(free_length=2, tail_i=2, tail_digit=3, scale_log=0.3)),
        (4, SumKernelSpec(free_length=4, scale_log=3.3)),
    ],
)
def test_sum_power_bits_match_out_of_place_expression(B, spec):
    # a last-bit change in the terms moves the sum's bits at only a few rho
    # (1-4 of 31 in a scratch mutant), so many rho are checked
    ds._log_qtotal.cache_clear()
    table = _out_of_place_table(B, spec)
    for rho in [0.0, *np.linspace(0.05, 1.5, 40), 0.5, 1.7, 2.0, 4.0]:  # the repeat reads the kept table
        assert sum_power(B, spec, rho) == _sum_power_out_of_place(table, spec.scale_log, rho), rho
        # sum_power takes the maximum term as the least entry's: both roundings are monotone in it
        terms = -2.0 * rho * (spec.scale_log + table)
        assert (float(table.min()) + spec.scale_log) * (-2.0 * rho) == float(terms.max()), rho
    assert ds._log_qtotal.cache_info().misses == 1  # one table per case


def test_sum_power_at_rho_zero_is_the_log_of_the_count():
    # rho = 0 multiplies by -0.0: a term of a negative L + s is +0.0, the others -0.0,
    # and the sum is log N with a + sign whichever zero the maximum is
    for B, spec in ((3, SumKernelSpec(free_length=5)), (1, SumKernelSpec(free_length=0, tail_i=4, tail_digit=2))):
        table = _out_of_place_table(B, spec)
        lo, hi = float(table.min()), float(table.max())
        for s in (0.0, -lo, -0.5 * (lo + hi), -hi, 2.5):
            got = sum_power(B, SumKernelSpec(spec.free_length, spec.tail_i, spec.tail_digit, s), 0.0)
            assert repr(got) == repr(math.log(B**spec.free_length)), (B, s)


def test_cached_chunks_are_read_only_and_unchanged_by_sums():
    ds._log_qtotal.cache_clear()
    specs = (SumKernelSpec(free_length=7, tail_i=2, tail_digit=1), SumKernelSpec(free_length=6, scale_log=0.4))
    keys = ((3, 7, 1, 2), (3, 6, 0, 0))  # (B, free length, tail digit, tail length)
    for spec in specs:
        for rho in (0.0, 0.25, 0.8, 1.5):
            sum_power(3, spec, rho)
    kept = [ds._log_qtotal(*key) for key in keys]
    assert ds._log_qtotal.cache_info().misses == 2
    for table, least, largest in kept:
        assert (least, largest) == (table.min(), table.max())  # cached with the table
        with pytest.raises(ValueError):
            table += 1.0
        with pytest.raises(ValueError):
            np.exp(table, out=table)
    ds._log_qtotal.cache_clear()
    for key, (table, least, largest) in zip(keys, kept):
        assert np.array_equal(ds._log_qtotal(*key)[0], table)
        assert ds._log_qtotal(*key)[1:] == (least, largest)


# ---------------------------------------------------------------------------
# pre-dimensional numbers
# ---------------------------------------------------------------------------


def test_dim_estimate_rejects_value_outside_bracket():
    DimEstimate(0.5, (0.5, 0.5))
    with pytest.raises(ValueError):
        DimEstimate(0.6, (0.4, 0.5))
    with pytest.raises(ValueError):
        DimEstimate(0.3, (0.4, 0.5))


def test_predim_b1_is_zero():
    for n in (2, 5, 9):
        for alpha in (0, Fraction(1, 3), 0.7):
            assert predim_hat(1, alpha, 1, n).value == 0.0
            assert predim_s(1, alpha, 1, n).value == 0.0


def test_predim_hat_matches_brute_force_root():
    # independent mpmath root of the exact sum at B=2, n=10
    qs = [continuants(list(d)).qk(10) for d in itertools.product((1, 2), repeat=10)]
    f = lambda rho: mpmath.fsum(mpmath.mpf(q) ** (-2 * rho) for q in qs) - 1
    ref = float(mpmath.findroot(f, 0.55))
    est = predim_hat(2, 0, 1, 10)
    assert est.value == pytest.approx(ref, abs=1e-10)


def test_predim_hat_root_residual():
    # the returned rho satisfies |log-sum| <= 1e-9 (finite-alphabet equality)
    est = predim_hat(3, Fraction(1, 2), 1, 10)
    scale = float(Fraction(1, 2) / Fraction(1, 2)) * 10 * ds.log_tau(1)
    res = sum_power(3, SumKernelSpec(free_length=10, scale_log=scale), est.value)
    assert abs(res) <= 1e-9


def test_predim_alpha_zero_coincide():
    for B in (2, 3):
        h = predim_hat(B, 0, 1, 9).value
        s = predim_s(B, 0, 1, 9).value
        assert h == s


def test_predim_alpha_one_degenerate():
    est = predim_s(3, 1, 1, 8)
    assert est.value == 0.0 and est.method == "degenerate"
    # every finite-alphabet solver returns the exact root 0 at alpha = 1
    assert predim_hat(3, 1, 1, 8) == DimEstimate(0.0, (0.0, 0.0), n_used=8, B_used=3, method="degenerate")
    assert spectral_dim(3, 1, 2) == DimEstimate(0.0, (0.0, 0.0), B_used=3, method="degenerate")


def test_predim_hat_shares_one_table_across_run_digits():
    # without a tail the run digit only moves the scale, not the table
    ds._log_qtotal.cache_clear()
    for i in (1, 2):
        predim_hat(3, Fraction(1, 2), i, 8)
    assert ds._log_qtotal.cache_info().misses == 1


def test_predim_s_close_to_hat():
    a = predim_s(3, Fraction(1, 2), 1, 12).value
    b = predim_hat(3, Fraction(1, 2), 1, 12).value
    assert abs(a - b) <= 0.05


def test_predim_order_one_has_no_root():
    with pytest.raises(NoConvergence):
        predim_hat(2, 0, 1, 1)


def test_predim_tilde_identities():
    # tail_len = 0 coincides with the hat number at alpha = 0
    t0 = predim_tilde(3, 1, (8, 0)).value
    h0 = predim_hat(3, 0, 1, 8).value
    assert t0 == pytest.approx(h0, abs=1e-11)
    assert predim_tilde(1, 1, (9, 4)).value == 0.0
    # same sum as predim_s(alpha=1/2, n=12)
    t = predim_tilde(3, 1, (12, 6)).value
    s = predim_s(3, Fraction(1, 2), 1, 12).value
    assert t == pytest.approx(s, abs=1e-9)


def test_predim_tilde_operator_backend_agrees(monkeypatch):
    # free = 8 fits a table of 3^9 leaves, free = 10 does not
    cases = []
    for seg, tag in (((20, 12), "enumerate-tilde"), ((30, 20), "operator-tilde")):
        free, tail = seg[0] - seg[1], seg[1]
        spec = SumKernelSpec(free_length=free, tail_i=tail, tail_digit=1)
        e, _ = ds.solve_decreasing_root(lambda rho: sum_power(3, spec, rho), width=1e-14)
        cases.append((seg, tag, free, tail, e))
    monkeypatch.setattr(ds, "_TABLE_LIMIT", 3**9)  # also refuses the 3^10-leaf reference above
    for seg, tag, free, tail, e in cases:
        o, _ = ds.solve_decreasing_root(
            lambda s: ds.transfer.segment_log_sum(3, 1, free, tail, s), width=4e-16
        )
        assert o == pytest.approx(e, abs=1e-10)
        got = predim_tilde(3, 1, seg)
        assert got.method == tag
        assert got.value == (e if tag == "enumerate-tilde" else o)


# ---------------------------------------------------------------------------
# root solving
# ---------------------------------------------------------------------------


def _bisect_oracle(F, width, lo=0.0, hi=2.0, hi_cap=64.0):
    """Oracle: plain bisection, one F call per midpoint."""
    if F(lo) <= 0:
        return 0.0, (0.0, 0.0)
    f_hi = F(hi)
    while f_hi > 0:
        lo, hi = hi, 2 * hi
        if hi > hi_cap:
            raise NoConvergence("no sign change")
        f_hi = F(hi)
    if not f_hi < 0:
        raise NoConvergence("no finite root")
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if F(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), (lo, hi)


def _counted(F):
    calls = []

    def G(x):
        calls.append(x)
        return F(x)

    return G, calls


def _noisy_line(r, eta, amplitude):
    """F(x) = r - x plus deterministic noise of `amplitude`, stating the
    noise bound eta (so a sign floor of _NOISE_FLOOR eta)."""
    return lambda x: r - x + amplitude * math.sin(1e14 * x), {"noise": lambda x: eta}


def _random_roots(rng):
    """(kind, F, width, solver keywords) of seeded random roots of every F kind."""
    for _ in range(10):
        B, i = int(rng.integers(1, 129)), int(rng.integers(1, 4))
        af = Fraction(int(rng.integers(0, 89)), 89)
        coeff = 2.0 * float(af / (1 - af)) * ds.log_tau(i)
        F = lambda s, B=B, coeff=coeff: spectral_pressure(B, s) - coeff * s
        yield "spectral", F, ds._SPECTRAL_WIDTH, {"hi": 1.0}
    for width in (1e-12, 1e-14):
        for _ in range(8):
            B, n = int(rng.integers(2, 5)), int(rng.integers(2, 9))
            tail = int(rng.integers(0, 30))
            spec = SumKernelSpec(n, tail_i=tail, tail_digit=int(rng.integers(1, 4)), scale_log=float(rng.random()) * n)
            noise = lambda rho, B=B, spec=spec: sum_power_error(B, spec, rho)
            yield "sum_power", lambda rho, B=B, spec=spec: sum_power(B, spec, rho), width, {"noise": noise}
    for _ in range(4):
        B, i = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        free, tail = int(rng.integers(15, 3000)), int(rng.integers(1, 9000))
        F = lambda s, B=B, i=i, free=free, tail=tail: ds.transfer.segment_log_sum(B, i, free, tail, s)
        yield "segment", F, 4e-16, {}
    for _ in range(4):
        # a line plus deterministic noise of 2e-9, a fifth of the floor: near the root its signs are noise
        r = float(rng.random())
        yield "noisy", lambda x, r=r: r - x + 2e-9 * math.sin(1e12 * x), 1e-14, {}
    for _ in range(4):
        # noise at a fifth of a proven floor 8 eta, roots up to 3 (past the first hi)
        eta = 4e-14
        F, kw = _noisy_line(3 * float(rng.random()), eta, ds._NOISE_FLOOR * eta / 5)
        yield "noisy-proven", F, 1e-14, kw


def test_solver_returns_plain_bisection_bits_from_fewer_evaluations():
    calls = {"spectral": [], "sum_power": [], "segment": [], "noisy": [], "noisy-proven": []}
    for kind, F, width, kw in _random_roots(np.random.default_rng(20261018)):
        G, new_calls = _counted(F)
        H, old_calls = _counted(F)
        assert ds.solve_decreasing_root(G, width, **kw) == _bisect_oracle(H, width, hi=kw.get("hi", 2.0))
        assert len(new_calls) <= len(old_calls) + ds._FALSI_STEPS + 2
        calls[kind].append((len(new_calls), len(old_calls)))
    spectral = calls["spectral"]
    assert sum(n for n, _ in spectral) / len(spectral) <= 12
    for kind in ("spectral", "sum_power", "segment"):
        assert sum(n for n, _ in calls[kind]) < 0.6 * sum(o for _, o in calls[kind]), kind


def test_noise_past_the_stated_floor_breaks_the_bisection_bits():
    # the noisy-proven kind above with noise 10x the floor it states: the
    # solver then trusts signs that are noise, and its bits leave bisection's
    rng = np.random.default_rng(20261023)
    eta, width = 4e-14, 1e-14
    differ = 0
    for _ in range(8):
        F, kw = _noisy_line(3 * float(rng.random()), eta, 10 * ds._NOISE_FLOOR * eta)
        differ += ds.solve_decreasing_root(F, width, **kw) != _bisect_oracle(F, width)
    assert differ >= 4


@pytest.mark.parametrize("r, doublings", [(3.0, 1), (5.0, 2)])
def test_sign_search_carries_the_value_at_its_lower_end(r, doublings):
    # past the first hi = 2 regula falsi starts from the chord through F(lo),
    # not F(0), so a line costs only the sign search's doublings more than a
    # root below hi (from F(0), 3 - x took 27 evaluations against 21)
    G, calls = _counted(lambda x: r - x)
    assert ds.solve_decreasing_root(G, 1e-12) == _bisect_oracle(lambda x: r - x, 1e-12)
    G_low, calls_low = _counted(lambda x: 1.5 - x)
    ds.solve_decreasing_root(G_low, 1e-12)
    assert len(calls) <= len(calls_low) + doublings


# enumerated tables, tailed and untailed, small enough for mpmath sums
ERROR_TABLES = [
    (2, SumKernelSpec(9)),
    (3, SumKernelSpec(6, tail_i=4, tail_digit=2, scale_log=0.7)),
    (4, SumKernelSpec(5, scale_log=2.9)),
    (5, SumKernelSpec(4, tail_i=9, tail_digit=1)),
    (1, SumKernelSpec(0, tail_i=3, tail_digit=3, scale_log=1.3)),
    (3, SumKernelSpec(7, tail_i=2, tail_digit=1, scale_log=3.3)),
]


def test_sum_power_error_bounds_the_error_against_mpmath():
    # |sum_power - log sum exp(-2 rho (s + L))| over the stored table, at 40
    # digits, stays within an eighth of the proven bound, near the root and away
    for B, spec in ERROR_TABLES:
        L = [mpmath.mpf(float(x)) for x in _out_of_place_table(B, spec)]  # the stored table's bits
        root = ds._enumerated_root(B, spec, 1e-12, 0, "").value
        for rho in (0.0, 0.35, root, 1.0, 2.5, 4.0):
            with mpmath.workdps(40):
                exact = mpmath.log(mpmath.fsum(mpmath.exp(-2 * mpmath.mpf(rho) * (spec.scale_log + x)) for x in L))
                err = abs(sum_power(B, spec, rho) - exact)
            assert err <= sum_power_error(B, spec, rho) / 8, (B, spec, rho, err)
        assert sum_power_error(B, spec, 0.5) < sum_power_error(B, spec, 1.0) < 1e-13  # grows with rho


@pytest.mark.parametrize(
    "B, spec",
    [
        (3, SumKernelSpec(8, scale_log=8 * log_tau(1))),  # predim_hat(3, 1/2, 1, 8)
        (2, SumKernelSpec(8, tail_i=4, tail_digit=2)),  # predim_s(2, 1/3, 2, 12)
        (4, SumKernelSpec(7, tail_i=5, tail_digit=1)),  # predim_tilde(4, 1, (12, 5))
    ],
)
def test_sum_power_is_monotone_beyond_twice_its_error_at_the_root(B, spec):
    # over 1 001 consecutive floats around an enumerated root, evaluated F
    # never rises above an earlier value by more than 2 eta
    root = ds._enumerated_root(B, spec, 1e-12, 0, "").value
    xs = [root]
    for _ in range(500):
        xs = [math.nextafter(xs[0], 0.0), *xs, math.nextafter(xs[-1], math.inf)]
    values = np.array([sum_power(B, spec, x) for x in xs])
    departure = float(np.max(values[1:] - np.minimum.accumulate(values)[:-1]))
    assert departure <= 2 * sum_power_error(B, spec, xs[-1])


def test_solver_crosscheck_sums_fewer_tables(monkeypatch):
    # the enumerated roots' proven floor settles most signs that the 1e-8
    # floor paid a full table pass for: 775 sum_power calls at the fixed floor
    calls = []
    inner = ds.sum_power
    monkeypatch.setattr(ds, "sum_power", lambda B, spec, rho: calls.append(rho) or inner(B, spec, rho))
    verify.solver_crosscheck((3, 6, 12))
    assert len(calls) <= 0.6 * 775


def test_sum_power_error_refuses_what_sum_power_refuses():
    # the floor is read after the refusals, and reading it alone refuses first too
    for B, spec, rho, err, msg in (
        (0, SumKernelSpec(3), 1.0, InputOutOfRange, "alphabet bound"),
        (3, SumKernelSpec(10_000), math.nan, ValueError, "rho must be >= 0"),
        (3, SumKernelSpec(10_000), 1.0, InputOutOfRange, r"^3\^10000 leaves exceed budget 1048576$"),
    ):
        for f in (sum_power, sum_power_error):
            with pytest.raises(err, match=msg):
                f(B, spec, rho)


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------


def test_pressure_single_branch_closed_form():
    # one inverse branch: pressure is -2 s log(phi), the value at the golden
    # fixed point x = 1/(1+x), over pressure's whole range
    for s in np.linspace(0.0, 4.0, 33):
        assert spectral_pressure(1, s) == pytest.approx(-2 * s * math.log(PHI), abs=1e-13), s


def test_pressure_strictly_decreasing_in_s():
    for B in (2, 5):
        vals = [spectral_pressure(B, s) for s in np.linspace(0.05, 1.6, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_pressure_at_zero_is_log_alphabet():
    # L_0 maps constants to B times themselves: P_B(0) = log B is exact
    for B in (1, 2, 3, 7, 128, 4096):
        assert spectral_pressure(B, 0.0) == math.log(B)


def _plain_leading_eigenvalue(M, start=None):
    """Reference: plain power iteration on M from all ones, stopped when the
    Rayleigh quotient changes by at most _EIG_TOL relative three steps
    running; the last unit iterate is written into `start`, if given."""
    v = np.ones(M.shape[0])
    lam_prev = np.inf
    stable = 0
    for _ in range(100_000):
        w = M @ v
        lam = float(v @ w) / float(v @ v)
        v = w / math.sqrt(w.dot(w))
        if lam != 0 and abs(lam - lam_prev) <= transfer._EIG_TOL * abs(lam):
            stable += 1
            if stable >= 3:
                if start is not None:
                    start[:] = v
                return lam
        else:
            stable = 0
        lam_prev = lam
    raise AssertionError("reference iteration did not converge")


def test_pressure_matches_plain_iteration_at_the_ends():
    # far from the roots: the largest alphabet near s = 0; 1e-12 in P is 1e-12
    # relative in the eigenvalue
    for B, s in ((4096, 1e-3), (1, 0.5), (128, 1.0)):
        plain = math.log(_plain_leading_eigenvalue(transfer.transfer_matrix(B, s)))
        assert spectral_pressure(B, s) == pytest.approx(plain, rel=0, abs=1e-12), (B, s)
    # the M^4 readback on a steep eigenfunction, at s = 400: past pressure's range
    M = transfer.transfer_matrix(2, 400.0)
    plain = math.log(_plain_leading_eigenvalue(M))
    assert math.log(transfer.leading_eigenvalue(M)) == pytest.approx(plain, rel=0, abs=1e-12)


def test_spectral_dim_b2_bounded_type_value():
    est = spectral_dim(2, 0, 1)
    assert abs(est.value - 0.5313) <= 5e-4
    assert est.bracket[1] - est.bracket[0] <= 1e-8


def test_spectral_dim_alpha_monotone():
    for B in (2, 4):
        v1 = spectral_dim(B, Fraction(1, 5), 1).value
        v2 = spectral_dim(B, Fraction(2, 5), 1).value
        assert v1 >= v2


def test_spectral_dim_b1_zero():
    # holds by construction: F(0) = P_1(0) = log 1 = 0 exactly, so the solver returns 0
    for alpha in (0, 0.3):
        assert spectral_dim(1, alpha, 1).value == 0.0


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, -0.5])
def test_spectral_pressure_rejects_non_finite_and_negative_s(s):
    # transfer.pressure's range rule: +inf reads "s must be <= 4.0", the rest "finite and >= 0"
    with pytest.raises(InputOutOfRange, match="s must be"):
        spectral_pressure(2, s)


def _cold_spectral_dim(B, alpha, i):
    """Reference: the spectral root with every pressure from plain power
    iteration on M started from all ones, at s = 0 too."""
    af = Fraction(alpha)
    coeff = 2.0 * float(af / (1 - af)) * log_tau(i)
    F = lambda s: math.log(_plain_leading_eigenvalue(transfer.transfer_matrix(B, s))) - coeff * s
    root, bracket = ds.solve_decreasing_root(F, width=ds._SPECTRAL_WIDTH, hi=1.0)
    return DimEstimate(root, bracket, B_used=B, method="spectral")


def test_warm_started_spectral_roots_equal_cold_roots():
    # the warm start, the iteration on M^4 and the exact P(0) move pressures
    # in their last bits; the roots keep the bits of cold plain iteration
    rng = np.random.default_rng(71)
    cases = [(2, 0, 1), (128, Fraction(1, 2), 1), (128, Fraction(3, 4), 3)]
    cases += [(B, alpha, 1) for alpha in (Fraction(1, 3), Fraction(7, 9)) for B in range(1, 41)]
    for _ in range(37):
        q = int(rng.integers(2, 60))
        cases.append((int(rng.integers(1, 129)), Fraction(int(rng.integers(0, q)), q), int(rng.integers(1, 4))))
    for B, alpha, i in cases:
        assert spectral_dim(B, alpha, i) == _cold_spectral_dim(B, alpha, i), (B, alpha, i)


def test_warm_started_dim_full_and_curves_equal_cold(monkeypatch):
    # dim_full's bounds read the eigenvector of one warm-started iteration on
    # M^4 per evaluation; the reference runs plain iteration on M from all
    # ones at every evaluation, which moves the bounds in their last bits
    args = [Fraction(k, 10) for k in range(1, 10)]
    warm_full = [dim_full(a, i) for i in (1, 2) for a in args]
    # the curve points of the README's three `cfdim dim --curve` commands
    grid = [Fraction(k, 22) for k in range(23)]
    curves = [("U_set", "nu_hat", grid), ("nu_level", "nu", [Fraction(k, 4) for k in range(17)]),
              ("F", "alpha", [g / 2 for g in grid])]

    def curve():
        return [theorem_dims(kind, **{param: v}, B_schedule=(8, 16, 32, 64)) for kind, param, vs in curves for v in vs]

    warm_curve = curve()
    monkeypatch.setattr(transfer, "leading_eigenvalue", _plain_leading_eigenvalue)
    assert warm_full == [dim_full(a, i) for i in (1, 2) for a in args]
    assert warm_curve == curve()


def test_spectral_dim_keeps_no_state_between_calls():
    first = spectral_dim(37, Fraction(2, 7), 2)
    for B, alpha in [(5, Fraction(1, 3)), (128, Fraction(9, 10)), (37, Fraction(2, 5))]:
        spectral_dim(B, alpha, 1)
    assert spectral_dim(37, Fraction(2, 7), 2) == first


# ---------------------------------------------------------------------------
# limits and cross-validation
# ---------------------------------------------------------------------------


def test_dim_limit_b1():
    est = dim_limit(1, 0.3, 1, (3, 6, 12))
    assert est.value == 0.0 and all(v == 0.0 for v in est.trace)


def test_dim_limit_b2_alpha0_extrapolation():
    est = dim_limit(2, 0, 1, (3, 6, 12))
    assert 0.525 <= est.value <= 0.537
    # successive raw values drift slowly (empirical Cauchy check)
    diffs = [abs(a - b) for a, b in zip(est.trace, est.trace[1:])]
    assert all(d < 0.06 for d in diffs)


def test_dim_limit_agrees_with_spectral_grid():
    for B in (1, 2, 3):
        for alpha in (0, Fraction(1, 4), Fraction(1, 2)):
            for i in (1, 2):
                e = dim_limit(B, alpha, i, (3, 6, 12))
                s = spectral_dim(B, alpha, i)
                gap = abs(e.value - s.value)
                half_e = (e.bracket[1] - e.bracket[0]) / 2
                half_s = (s.bracket[1] - s.bracket[0]) / 2
                assert gap <= 0.01
                assert gap <= half_e + half_s + 1e-12


@pytest.mark.parametrize("B, n", [(2, 12), (3, 8)])
def test_spectral_dim_lies_in_the_continuant_sandwich(B, n):
    # q(w) q(u) <= q(wu) <= 2 q(w) q(u) gives, with Z_n(rho) the sum of
    # q^{-2 rho} over {1..B}^n and for every n,
    #   (log Z_n(rho) - 2 rho log 2)/n <= P_B(rho) <= log Z_n(rho)/n,
    # so the spectral root lies between two enumerated roots, with no
    # collocation: predim_hat's above it, and below it the root of the same
    # sum with every q doubled
    for alpha, i in itertools.product((Fraction(0), Fraction(1, 4), Fraction(1, 2)), (1, 2)):
        scale = float(alpha / (1 - alpha)) * n * log_tau(i)
        doubled = SumKernelSpec(n, tail_digit=i, scale_log=scale + math.log(2))
        lo = ds.solve_decreasing_root(lambda rho: sum_power(B, doubled, rho), width=1e-12)[1][0]
        hi = predim_hat(B, alpha, i, n).bracket[1]
        s_lo, s_hi = spectral_dim(B, alpha, i).bracket
        assert lo <= s_hi and s_lo <= hi, (alpha, i, (lo, hi), (s_lo, s_hi))


def test_dim_limit_raw_trend_small_steps():
    est = dim_limit(3, Fraction(1, 2), 1, (8, 10, 12))  # 3^14 leaves are past the budget
    diffs = [abs(a - b) for a, b in zip(est.trace, est.trace[1:])]
    assert all(d < 0.02 for d in diffs)


def test_dim_full_conventions():
    assert dim_full(0, 1).value == 1.0
    assert dim_full(1, 1).value == 0.5
    assert dim_full(Fraction(1), 2).value == 0.5
    # the one closure branch: exact value, no B_used, empty trace, as theorem_dims returns it
    assert dim_full(0, 1) == DimEstimate(1.0, (1.0, 1.0), method="convention") == theorem_dims("F", alpha=0)
    assert dim_full(1, 2, (4, 8)) == DimEstimate(0.5, (0.5, 0.5), method="convention")
    assert theorem_dims("nu_level", nu=float("inf")) == DimEstimate(0.5, (0.5, 0.5), method="convention")


def test_dim_full_empty_schedule_raises_input_out_of_range():
    with pytest.raises(InputOutOfRange, match="B_schedule must be strictly increasing"):
        dim_full(Fraction(1, 2), 1, [])
    # the endpoint conventions return before the schedule is read
    assert dim_full(0, 1, []) == dim_full(0, 1)


def test_dim_full_reads_the_last_bound_and_checks_every_one():
    assert dim_full(Fraction(1, 3), 2, (4, 16)) == dim_full(Fraction(1, 3), 2, (16,))
    with pytest.raises(InputOutOfRange, match="alphabet bound must be an integer, got 8.5"):
        dim_full(Fraction(1, 2), 1, (8.5, 16))


def test_dim_limit_empty_schedule_raises_input_out_of_range():
    with pytest.raises(InputOutOfRange, match="n_schedule must be strictly increasing"):
        dim_limit(2, Fraction(1, 4), 1, [])


def test_theorem_dims_empty_schedule_is_not_the_default():
    with pytest.raises(InputOutOfRange, match="B_schedule must be strictly increasing"):
        theorem_dims("E_hat", nu_hat=Fraction(1, 2), B_schedule=[])


def test_dim_full_interior_range_and_monotone():
    vals = []
    for num in (1, 3, 5, 7, 9):
        e = dim_full(Fraction(num, 10), 1)
        w = e.bracket[1] - e.bracket[0]
        assert 0 < e.value <= 1
        assert e.value > 0.5 - w
        vals.append(e.value)
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize(
    "make, clamped",
    [
        (lambda: dim_limit(3, Fraction(1, 3), 1, (3, 6, 9)), None),
        (lambda: dim_limit(5, 0, 1, (2, 3, 4)), 1),  # last + r > 1
    ],
    ids=["limit", "limit-clamped-hi"],
)
def test_limit_bracket_half_width_pads_only_the_spectral_limit(make, clamped):
    # the bracket is trace[-1] +- |trace[-1] - aitken(trace)|, clamped to
    # [0, 1] and widened to hold the value (dim_full's spectral limit has its
    # own enclosure, below)
    e = make()
    last = e.trace[-1]
    r = abs(last - aitken(e.trace))
    assert e.bracket == (max(min(last - r, e.value), 0.0), min(max(last + r, e.value), 1.0))
    if clamped is not None:
        assert not 0.0 <= last + (2 * clamped - 1) * r <= 1.0
        assert e.bracket[clamped] == float(clamped)


# B = infinity roots at i = 1, from mpmath runs (the last from enclosures at B = 128)
FULL_ALPHABET_ROOTS = {
    Fraction(1, 4): 0.890055060700769,
    Fraction(1, 2): 0.757985146934655,
    Fraction(3, 4): 0.595357923928021,
    Fraction(8, 9): 0.509963782090612,
    Fraction(19, 20): 0.5000534327,
}


@pytest.mark.parametrize("B", [16, 32, 64, 128])
def test_dim_full_bracket_encloses_the_full_alphabet_root(B):
    for alpha, root in FULL_ALPHABET_ROOTS.items():
        e = dim_full(alpha, 1, (B,))
        assert e.bracket[0] <= root <= e.bracket[1], (alpha, e)
        assert e.bracket[0] < e.value < e.bracket[1] and e.value == 0.5 * (e.bracket[0] + e.bracket[1])
        assert (e.B_used, e.method, e.trace) == (B, "tail-enclosure", ())


def test_dim_full_brackets_nest_as_the_bound_grows():
    pairs = [(Fraction(k, 10), 1) for k in (1, 3, 5, 7, 9)] + [(Fraction(k, 7), 2) for k in range(1, 6)]
    for alpha, i in pairs:
        (a16, b16), (a128, b128), (a1024, b1024) = (dim_full(alpha, i, (B,)).bracket for B in (16, 128, 1024))
        assert a16 <= a128 <= a1024 <= b1024 <= b128 <= b16, (alpha, i)
        assert b1024 - a1024 < b16 - a16 or b16 - a16 < 2 * ds._SPECTRAL_WIDTH


# ---------------------------------------------------------------------------
# theorem formulas
# ---------------------------------------------------------------------------


def test_theorem_conventions_exact():
    assert theorem_dims("U_set", nu_hat=0).value == 1.0
    assert theorem_dims("U_set", nu_hat=1).value == 0.5
    assert theorem_dims("E_hat", nu_hat=1, i=1).value == 0.5
    assert theorem_dims("F", alpha=0).value == 1.0
    assert theorem_dims("F", alpha=Fraction(1, 2)).value == 0.5
    assert theorem_dims("nu_level", nu=0).value == 1.0
    assert theorem_dims("nu_level", nu=float("inf")).value == 0.5
    assert theorem_dims("E_joint", nu_hat=0, nu=0).value == 1.0
    assert theorem_dims("E_joint", nu_hat=Fraction(1, 2), nu=float("inf")).value == 0.5
    assert theorem_dims("FG", alpha=0, beta=0).value == 1.0
    assert theorem_dims("FG", alpha=Fraction(1, 2), beta=1).value == 0.5


def test_theorem_zero_branches():
    assert theorem_dims("U_set", nu_hat=1.5).value == 0.0
    assert theorem_dims("E_hat", nu_hat=2).value == 0.0
    assert theorem_dims("E_joint", nu_hat=Fraction(2, 3), nu=1).value == 0.0
    assert theorem_dims("E_joint", nu_hat=1.2, nu=float("inf")).value == 0.0
    assert theorem_dims("FG", alpha=Fraction(1, 2), beta=Fraction(3, 5)).value == 0.0
    assert theorem_dims("F", alpha=0.7).value == 0.0


def test_theorem_out_of_range():
    with pytest.raises(InputOutOfRange):
        theorem_dims("U_set", nu_hat=-0.1)
    with pytest.raises(InputOutOfRange):
        theorem_dims("E_joint", nu_hat=2, nu=1)
    with pytest.raises(InputOutOfRange):
        theorem_dims("FG", alpha=0.8, beta=0.5)
    with pytest.raises(InputOutOfRange):
        theorem_dims("F", alpha=1.2)
    with pytest.raises(InputOutOfRange):
        theorem_dims("banana", nu=1)
    for nu_hat in (0, 1):  # the endpoints check the run digit like every interior argument
        with pytest.raises(InputOutOfRange):
            theorem_dims("E_hat", nu_hat=nu_hat, i=0)
    # below theorem_dims the solvers check the run digit too
    for solve in (
        lambda: spectral_dim(4, Fraction(1, 2), 0),
        lambda: predim_hat(3, Fraction(1, 2), 0, 4),
        lambda: dim_full(Fraction(1, 2), 0, (4, 8)),
        lambda: dim_full(0, 0),
        lambda: dim_full(1, 0),
        # before the alpha = 1 shortcut and the kernel spec's own check
        lambda: predim_hat(3, 1, 0, 8),
        lambda: predim_s(3, 1, 0, 8),
        lambda: predim_s(3, Fraction(1, 2), 0, 8),
        lambda: spectral_dim(3, 1, 0),
        lambda: predim_tilde(3, 0, (8, 4)),  # enumerated
        lambda: predim_tilde(3, 0, (40, 4)),  # operator route
    ):
        with pytest.raises(InputOutOfRange, match="need i >= 1, got 0"):
            solve()


RAISE = "raise"
Q = Fraction
# every grid float is exact in binary, so its rationalization is the number itself
ARGUMENT_GRID = [None, -1, 0, Q(1, 4), Q(1, 3), Q(1, 2), Q(9, 10), 1, Q(3, 2), 2, 0.25, 1.5, math.inf, -math.inf]

# the one-parameter kinds, one outcome per ARGUMENT_GRID entry, in order
ONE_PARAMETER_ARGUMENTS = {
    # nu_hat in [0, inf]: 4 nu_hat/(1+nu_hat)^2 up to nu_hat = 1, zero branch above
    "U_set": [RAISE, RAISE, 0, Q(16, 25), Q(3, 4), Q(8, 9), Q(360, 361), 1, None, None, Q(16, 25), None, None, RAISE],
    # nu in [0, inf]: nu/(1+nu), and 1 at nu = inf
    "nu_level": [RAISE, RAISE, 0, Q(1, 5), Q(1, 4), Q(1, 3), Q(9, 19), Q(1, 2), Q(3, 5), Q(2, 3), Q(1, 5), Q(3, 5), 1,
                 RAISE],
    # alpha in [0, 1]: 4 alpha (1-alpha) up to alpha = 1/2, zero branch above
    "F": [RAISE, RAISE, 0, Q(3, 4), Q(8, 9), 1, None, None, RAISE, RAISE, Q(3, 4), RAISE, RAISE, RAISE],
}
ONE_PARAMETER_ARGUMENTS["E_hat"] = ONE_PARAMETER_ARGUMENTS["U_set"]


def _joint_argument(nh, nv):
    """E(nu_hat, nu) on 0 <= nu_hat <= nu <= inf, nu_hat finite."""
    if nh is None or nv is None or not 0 <= nh <= nv or nh == math.inf:
        return RAISE
    if nv == math.inf:
        return 1 if nh <= 1 else None
    nh, nv = Q(nh), Q(nv)
    if nv == 0:
        return 0
    return None if nh > nv / (1 + nv) else nv**2 / ((1 + nv) * (nv - nh))


def _fg_argument(a, b):
    """F(alpha) intersected with G(beta) on 0 <= alpha <= beta <= 1."""
    if a is None or b is None or not 0 <= a <= b <= 1:
        return RAISE
    a, b = Q(a), Q(b)
    if b == 0:
        return 0
    return None if a > b / (1 + b) else b**2 * (1 - a) / (b - a)


@pytest.mark.parametrize("kind", ["U_set", "E_hat", "nu_level", "F", "E_joint", "FG"])
def test_theorem_argument_grid(kind):
    # every pair of grid values in the kind's two parameter slots: a value
    # outside the stated range (missing, negative, -inf, nan, or inf where the
    # range is bounded) raises InputOutOfRange, and +inf reads as infinity
    first, second = ("alpha", "beta") if kind in ("F", "FG") else ("nu_hat", "nu")
    for (j, x), y in itertools.product(enumerate(ARGUMENT_GRID), ARGUMENT_GRID):
        if kind in ONE_PARAMETER_ARGUMENTS:
            if kind == "nu_level":  # the one parameter is nu, in the second slot
                x, y = y, x
            expected = ONE_PARAMETER_ARGUMENTS[kind][j]
        else:
            expected = (_joint_argument if kind == "E_joint" else _fg_argument)(x, y)
        params = {first: x, second: y}
        if expected == RAISE:
            with pytest.raises(InputOutOfRange):
                theorem_argument(kind, **params)
        else:
            got = theorem_argument(kind, **params)
            assert got == expected and (got is None or isinstance(got, Fraction)), (params, got)
    with pytest.raises(InputOutOfRange):
        theorem_argument(kind, **{first: math.nan, second: math.nan})


def test_theorem_interior_calls_solver():
    e = theorem_dims("nu_level", nu=1, i=1, B_schedule=(8, 16, 32))
    # argument nu/(1+nu) = 1/2; same as dim_full(1/2, 1)
    ref = dim_full(Fraction(1, 2), 1, (8, 16, 32))
    assert e.value == pytest.approx(ref.value, abs=1e-12)


def test_minimizer_identities_exact():
    # 4 nh/(1+nh)^2 == nu^2/((1+nu)(nu-nh)) at nu = 2 nh/(1-nh), exact rationals
    for k in range(1, 1000):
        nh = Fraction(k, 1001)
        nu = 2 * nh / (1 - nh)
        lhs = 4 * nh / (1 + nh) ** 2
        rhs = nu**2 / ((1 + nu) * (nu - nh))
        assert lhs == rhs
    # 4 a (1-a) == b^2 (1-a)/(b-a) at b = 2a
    for k in range(1, 1000):
        a = Fraction(k, 2001)
        b = 2 * a
        assert 4 * a * (1 - a) == b**2 * (1 - a) / (b - a)


def test_theorem_consistency_on_minimizers():
    nh = Fraction(1, 3)
    nu = 2 * nh / (1 - nh)
    e1 = theorem_dims("E_hat", nu_hat=nh, B_schedule=(8, 16, 32))
    e2 = theorem_dims("E_joint", nu_hat=nh, nu=nu, B_schedule=(8, 16, 32))
    assert e1.value == pytest.approx(e2.value, abs=1e-12)


def test_to_fraction():
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    assert to_fraction(2) == 2
    assert to_fraction(0.5) == Fraction(1, 2)
    assert abs(float(to_fraction(0.333)) - 0.333) < 1e-15
    with pytest.raises(InputOutOfRange):
        to_fraction(float("inf"))


def test_pressure_matches_partition_sum_growth():
    # the log partition sums grow by P_B(s) per level: an independent
    # consistency check between the enumeration route and the eigenvalue
    for B, s in ((2, 0.6), (3, 0.4)):
        l10 = sum_power(B, SumKernelSpec(free_length=10), s)
        l11 = sum_power(B, SumKernelSpec(free_length=11), s)
        p = spectral_pressure(B, s)
        assert abs((l11 - l10) - p) <= 2e-3
