"""Log-space segment stacks: settling, closed-form extension, anchors."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cfdim import transfer
from cfdim.cantor import construct_sequences
from cfdim.errors import InputOutOfRange, NoConvergence


def _reference_levels(B, i, free, tail, s, degree=transfer.DEFAULT_DEGREE):
    """Plain normalized iteration of all `free` levels: log G_j at the nodes
    for j = 0..free, with the node-0 offsets summed by math.fsum."""
    grid = transfer.get_grid(degree)
    x = grid.nodes
    log_u, v_over_u = transfer.run_tail_logs(i, tail)
    C = np.stack([grid.interp_matrix(1.0 / (a + x)) for a in range(1, B + 1)]).reshape(B * x.size, x.size)
    W = -2.0 * s * np.log(np.arange(1, B + 1, dtype=np.float64)[:, None] + x[None, :])
    h = -2.0 * s * np.log1p(v_over_u * x)
    offsets = [-2.0 * s * log_u]
    out = [h + offsets[0]]
    for _ in range(free):
        arr = W + (C @ h).reshape(B, x.size)
        m = arr.max(axis=0)
        g = m + np.log(np.exp(arr - m[None, :]).sum(axis=0))
        offsets.append(float(g[0]))
        h = g - offsets[-1]
        out.append(h + math.fsum(offsets))
    return out


def _cantor_measure_segments(ks):
    """(free, tail) of segments k of the nu_hat = 1/3, nu = 1 schedule."""
    sp = construct_sequences(Fraction(1, 3), 1, k_max=max(ks))
    return [(sp.n[k - 1] - sp.m[k - 2], sp.m[k - 1] - sp.n[k - 1]) for k in ks]


@pytest.mark.parametrize("B", [2, 3, 5])
@pytest.mark.parametrize("s", [0.25, 0.5, 1.0])
def test_settled_step_is_the_pressure(B, s):
    # past the settling depth each free digit adds log lambda; the leading
    # eigenvalue by power iteration on the collocation matrix is independent
    p = transfer.pressure(B, s)
    for free in (200, 1000):
        d = transfer.segment_log_sum(B, 1, free + 1, 7, s) - transfer.segment_log_sum(B, 1, free, 7, s)
        assert d == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("seg", _cantor_measure_segments(range(3, 9)))
def test_stack_matches_full_depth_reference(seg):
    free, tail = seg
    s = 0.25
    ref = _reference_levels(3, 1, free, tail, s)
    st = transfer.segment_stack(3, 1, free, tail, s)
    K = len(st.levels) - 1
    assert transfer.segment_log_sum(3, 1, free, tail, s) == pytest.approx(ref[free][0], abs=1e-11)
    for j in sorted({0, K // 2, K, K + 1, (K + free) // 2, free}):
        if j <= free:
            np.testing.assert_allclose(st.level(j), ref[j], rtol=0, atol=1e-11)


def test_short_stack_keeps_every_level_exactly():
    # 15 free digits (segment 3) is shorter than the settling depth
    free, tail = _cantor_measure_segments([3])[0]
    st = transfer.segment_stack(3, 1, free, tail, 0.25)
    ref = _reference_levels(3, 1, free, tail, 0.25)
    assert len(st.levels) == free + 1
    for j in range(free + 1):
        assert np.array_equal(st.level(j), ref[j])
    with pytest.raises(IndexError):
        st.level(free + 1)


def test_stack_digit_law_over_a_one_letter_alphabet():
    # one digit: every CDF is [1], and the table has no boundary to bracket
    st = transfer.segment_stack(1, 1, 200, 3, 0.5)
    assert (st.B, st.s) == (1, 0.5)
    assert st.digit_cdf(150, np.array([[1.0], [1.5]])).tolist() == [[1.0], [1.0]]
    lo, hi, cells, draws = st.cdf_table
    assert (len(lo), len(hi), cells, draws) == (0, 0, transfer._CDF_CELLS, 200 - len(st.levels))


@pytest.mark.parametrize("B", [1, 2, 3, 40, 128, 256, 1000])
@pytest.mark.parametrize("s", [0.0, 0.5, 1.0, 2.3])
def test_transfer_matrix_matches_branch_loop(B, s):
    # numpy's einsum "ax,axy->xy" (without `optimize`) adds the branches in
    # order a = 1..B, as this loop does, so the bits agree; einsum does not
    # promise that order, so this pins it
    for degree in (16, 32, 48):
        grid = transfer.get_grid(degree)
        x = grid.nodes
        ref = np.zeros((x.size, x.size))
        for a in range(1, B + 1):
            ref += (a + x)[:, None] ** (-2.0 * s) * grid.interp_matrix(1.0 / (a + x))
        assert np.array_equal(transfer.transfer_matrix(B, s, degree), ref), degree


def test_branch_rows_do_not_depend_on_growth_order():
    small_first = transfer.ChebyshevGrid(transfer.DEFAULT_DEGREE)
    first = small_first.branch_rows(3).copy()
    assert small_first.branch_rows(128).shape == (128, *first.shape[1:])
    large_first = transfer.ChebyshevGrid(transfer.DEFAULT_DEGREE)
    large_first.branch_rows(128)
    for rows in (small_first.branch_rows(3), large_first.branch_rows(3)):
        assert np.array_equal(rows, first)


def test_alphabet_bound_past_the_cap_raises_before_rows_are_built():
    # the rows of B = 2^12 take 34 MB at the default degree; nothing builds more
    grid = transfer.get_grid(transfer.DEFAULT_DEGREE)
    have = grid._branch_rows.shape[0]
    with pytest.raises(InputOutOfRange, match="must be <= 4096, got 4097"):
        transfer.transfer_matrix(2**12 + 1, 0.5)
    assert grid._branch_rows.shape[0] == have


def _leading_eigenvalue_with_norm(M, start=None):
    """Reference: the power iteration on M^4 = (M M)(M M) with np.linalg.norm
    and a fresh w / nw, from all ones or from a copy of `start`, into which
    the last iterate is written on return; the value is that iterate's
    Rayleigh quotient on M."""
    M2 = M @ M
    M4 = M2 @ M2
    v = np.ones(M.shape[0]) if start is None else start.copy()
    lam_prev = np.inf
    stable = 0
    for _ in range(transfer._EIG_MAXITER):
        w = M4 @ v
        lam = float(v @ w) / float(v @ v)
        v = w / np.linalg.norm(w)
        if lam != 0 and abs(lam - lam_prev) <= transfer._EIG_TOL * abs(lam):
            stable += 1
            if stable >= 3:
                if start is not None:
                    start[:] = v
                return float(v @ (M @ v)) / float(v @ v)
        else:
            stable = 0
        lam_prev = lam
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("degree", [16, 32])
def test_leading_eigenvalue_bits_match_norm_iteration(degree):
    rng = np.random.default_rng(20 + degree)
    cases = [(1, 0.5), (128, 1.0)] + [(int(rng.integers(1, 129)), float(rng.uniform(0.5, 1.0))) for _ in range(30)]
    for B, s in cases:
        M = transfer.transfer_matrix(B, s, degree)
        assert transfer.leading_eigenvalue(M) == _leading_eigenvalue_with_norm(M), (B, s)


def test_leading_eigenvalue_warm_start():
    rng = np.random.default_rng(61)
    cases = [(1, 0.5), (2, 0.53), (128, 1.0)] + [(int(rng.integers(1, 129)), float(rng.uniform(0.1, 2.0))) for _ in range(20)]
    for B, s in cases:
        M = transfer.transfer_matrix(B, s)
        cold = transfer.leading_eigenvalue(M)
        start = rng.uniform(0.5, 1.5, M.shape[0])
        mine, ref = start.copy(), start.copy()
        lam = transfer.leading_eigenvalue(M, mine)
        assert lam == pytest.approx(cold, rel=1e-12, abs=0), (B, s)
        # the same bits as the reference from the same start, and the vector
        # written back is its final unit iterate
        assert lam == _leading_eigenvalue_with_norm(M, ref), (B, s)
        assert np.array_equal(mine, ref), (B, s)
        assert np.linalg.norm(mine) == pytest.approx(1.0, abs=1e-15)


def test_leading_eigenvalue_matches_lapack():
    # np.linalg.eigvals (LAPACK's Hessenberg QR) is an independent route to the same eigenvalue
    rng = np.random.default_rng(29)
    for _ in range(30):
        B, s = int(rng.integers(1, 129)), float(rng.uniform(0.1, 2.0))
        M = transfer.transfer_matrix(B, s)
        ev = np.linalg.eigvals(M)
        ref = ev[np.argmax(np.abs(ev))]
        assert ref.imag == 0, (B, s)
        assert transfer.leading_eigenvalue(M) == pytest.approx(ref.real, rel=1e-12, abs=0), (B, s)


def test_leading_eigenvalue_keeps_the_sign_of_a_negative_eigenvalue(monkeypatch):
    # M^4 = diag(16, 1) has eigenvalue 16; the readback on M gives -2, so pressure refuses it
    assert transfer.leading_eigenvalue(np.diag([-2.0, 1.0])) == pytest.approx(-2.0, rel=1e-12)
    monkeypatch.setattr(transfer, "transfer_matrix", lambda B, s: np.diag([-2.0, 1.0]))
    with pytest.raises(NoConvergence, match="non-positive leading eigenvalue -2"):
        transfer.pressure(3, 0.5)


def test_leading_eigenvalue_leaves_start_unchanged_when_it_raises():
    # M^4 of a quarter turn is the identity and M^4 of diag(2, -2) is 16 I,
    # on which the iteration settles at once; the readback on M (0) misses
    # them, as plain iteration on M never settles
    for M in (np.array([[0.0, -1.0], [1.0, 0.0]]), np.diag([2.0, -2.0]), np.array([[1.0, np.nan], [0.0, 1.0]])):
        start = np.array([1.0, 1.0])
        with pytest.raises(NoConvergence):
            transfer.leading_eigenvalue(M, start)
        assert np.array_equal(start, [1.0, 1.0])
    with pytest.raises(NoConvergence):
        transfer.leading_eigenvalue(transfer.transfer_matrix(3, 0.5), np.zeros(transfer.DEFAULT_DEGREE + 1))


@pytest.mark.parametrize("B", [0, 2**12 + 1])
def test_pressure_at_zero_checks_the_alphabet_first(B):
    # P_B(0) = log B needs no matrix, but B outside 1..MAX_B is still refused
    with pytest.raises(InputOutOfRange, match=f"got {B}"):
        transfer.pressure(B, 0.0)


@pytest.mark.parametrize("s", [0.0, 0.5])
def test_pressure_checks_the_alphabet_once(s, monkeypatch):
    # past s = 0 transfer_matrix's branch rows check B; pressure once checked it before them too
    calls = []
    check = transfer.check_alphabet
    monkeypatch.setattr(transfer, "check_alphabet", lambda *args: calls.append(args) or check(*args))
    transfer.pressure(3, s)
    assert calls == [(3,)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_leading_eigenvalue_stops_at_a_non_finite_norm(bad):
    M = transfer.transfer_matrix(3, 0.5)
    M[4, 7] = bad
    t0 = time.perf_counter()
    # an inf meets entries of both signs in M @ M: numpy warns of the nan it makes
    with pytest.raises(NoConvergence, match="non-finite"), np.errstate(invalid="ignore"):
        transfer.leading_eigenvalue(M)
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("B", [2, 3, 16, 256, 4096])
def test_pressure_at_s_4_does_not_move_when_the_degree_doubles(B):
    # degree 64 by the branch loop on a grid of its own: the cached rows of
    # B = 4096 would take 138 MB at that degree
    grid = transfer.ChebyshevGrid(64)
    x = grid.nodes
    M = np.zeros((x.size, x.size))
    for a in range(1, B + 1):
        M += (a + x)[:, None] ** -8.0 * grid.interp_matrix(1.0 / (a + x))
    assert abs(transfer.pressure(B, 4.0) - math.log(transfer.leading_eigenvalue(M))) <= 1e-13


@pytest.mark.parametrize("s", [4.5, 5.0, 400.0])
def test_pressure_past_s_4_raises(s):
    with pytest.raises(InputOutOfRange, match=f"s must be <= 4.0, got {s}"):
        transfer.pressure(2, s)
