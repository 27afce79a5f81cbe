"""Monte Carlo suites, exact lemma suite, solver cross-check, reports."""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from cfdim import exponents, runlength, verify
from cfdim.cf_core import RealInput, expand
from cfdim.errors import InputOutOfRange, InsufficientBlocks, NoConvergence
from cfdim.verify import (
    DIGIT_CAP,
    LebesgueDigitChain,
    McConfig,
    RecordTracker,
    Report,
    RunMaxTracker,
    lemma_suite,
    load_fixtures,
    mc_laws,
    mc_nu_zero,
    mc_runlength,
    sample_digits_decimal,
    solver_crosscheck,
)
from test_exponents import _raw_blocks_oracle, _select_records_oracle


def test_fixtures_present():
    fx = load_fixtures()
    assert "mc_runlength" in fx and "mc_nu_zero" in fx
    lo, hi = fx["mc_runlength"]["mean_bounds"]
    assert lo == pytest.approx(0.40) and hi == pytest.approx(0.60)


# ---------------------------------------------------------------------------
# the exact-law sampler
# ---------------------------------------------------------------------------


def chain_digit_matrix(chain: LebesgueDigitChain, n: int) -> np.ndarray:
    """(samples, n) digit matrix of the chain's next n steps, copied block by block."""
    out = np.empty((chain.samples, n), dtype=np.int64)
    j = 0
    for block in chain.next_digits(n):
        out[:, j:j + block.shape[1]] = block
        j += block.shape[1]
    return out


def sample_digit_matrix(seed: int, samples: int, n: int) -> np.ndarray:
    """(samples, n) digit matrix from the exact-law chain."""
    return chain_digit_matrix(LebesgueDigitChain(seed, samples), n)


def test_first_digit_law():
    M = sample_digit_matrix(5, 40_000, 1)
    for k in (1, 2, 3, 5):
        emp = (M[:, 0] == k).mean()
        exact = 1 / k - 1 / (k + 1)
        sigma = math.sqrt(exact * (1 - exact) / 40_000)
        assert abs(emp - exact) <= 4 * sigma


def test_chain_deterministic_and_stream_independent():
    a = sample_digit_matrix(77, 8, 500)
    b = sample_digit_matrix(77, 8, 500)
    assert (a == b).all()
    # per-sample streams: the first rows of a 3-sample and an 8-sample batch agree
    c = sample_digit_matrix(77, 3, 500)
    assert (a[:3] == c).all()


def _chain_oracle(seed, samples, n):
    # the chain's law step by step: invert u -> (1+r) u / (1 + r u), cap, truncate, r -> 1/(digit + r)
    gens = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))) for k in range(samples)]
    U = np.array([g.random(n) for g in gens])
    r = np.zeros(samples)
    out = np.empty((samples, n), dtype=np.int64)
    for j in range(n):
        u = U[:, j]
        t = np.maximum(u / ((1.0 + r) - u * r), 1e-300)
        d = np.maximum(np.minimum(1.0 / t, float(DIGIT_CAP)).astype(np.int64), 1)
        r = 1.0 / (d + r)
        out[:, j] = d
    return out


@pytest.mark.parametrize("seed", [0, 20260809])
def test_chain_digits_equal_step_oracle(seed):
    n = 2 * verify._CHAIN_CHUNK + 37  # crosses two chunk edges
    assert np.array_equal(sample_digit_matrix(seed, 7, n), _chain_oracle(seed, 7, n))


def test_chain_digits_independent_of_chunk_width(monkeypatch):
    ref = sample_digit_matrix(12, 5, 300)
    monkeypatch.setattr(verify, "_CHAIN_CHUNK", 7)
    assert np.array_equal(sample_digit_matrix(12, 5, 300), ref)


def test_chain_block_valid_until_next_step():
    # a block holds its chunk's digits when it is yielded, and the next chunk
    # reuses its buffer, so a caller reads it before the next next()
    n = 2 * verify._CHAIN_CHUNK + 5
    ref = _chain_oracle(4, 6, n)
    blocks, j = [], 0
    for block in LebesgueDigitChain(4, 6).next_digits(n):
        assert block.dtype == np.int64 and block.shape == (6, min(verify._CHAIN_CHUNK, n - j))
        assert np.array_equal(block, ref[:, j:j + block.shape[1]])
        blocks.append(block)
        j += block.shape[1]
    assert j == n and len(blocks) == 3
    assert all(np.shares_memory(blocks[0], b) for b in blocks[1:])


class _FixedStream:
    """Stands in for a sample's Generator: hands out preset uniforms."""

    def __init__(self, u):
        self.u, self.pos = np.asarray(u, dtype=float), 0

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.u[self.pos:self.pos + out.size]
        self.pos += out.size
        return out


def test_chain_counts_clamped_digits(monkeypatch):
    monkeypatch.setattr(verify, "_CHAIN_CHUNK", 4)
    # u = 0 hits the 1e-300 floor; u = 2^-40 gives a digit above DIGIT_CAP; 2 / DIGIT_CAP sits on the screen
    streams = [[0.5, 0.0, 0.3, 0.7, 0.2, 0.9, 2.0**-40, 0.1, 0.4], [0.1] * 9, [2 / DIGIT_CAP, 0.0] + [0.6] * 7]
    chain = LebesgueDigitChain(0, 3)
    chain._gens = [_FixedStream(u) for u in streams]
    M = chain_digit_matrix(chain, 9)
    assert chain.clamps == np.count_nonzero(M == DIGIT_CAP) == 3
    assert M[0, 1] == M[0, 6] == M[2, 1] == DIGIT_CAP and M[2, 0] < DIGIT_CAP


def test_chain_screen_switches_per_chunk(monkeypatch):
    # chunks of 4: the screen fires in the second chunk only (u = 0, 2^-40 and
    # u = _CLAMP_U itself); the others take the unguarded steps at u just
    # above _CLAMP_U and at the largest uniform 1 - 2^-53
    above, top = np.nextafter(verify._CLAMP_U, 1.0), 1.0 - 2.0**-53
    streams = [
        [0.5, above, 0.3, top, 0.2, 0.0, 0.9, 0.4, above, top, 0.6, 0.1],
        [top, 0.2, above, 0.7, 0.1, 0.3, 2.0**-40, 0.8, 0.5, above, top, 0.25],
        [0.9, 0.6, top, above, verify._CLAMP_U, 0.4, 0.3, 0.2, top, 0.5, above, 0.7],
    ]
    monkeypatch.setattr(verify, "_CHAIN_CHUNK", 4)
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _FixedStream(streams[seq.spawn_key[0]]))
    chain = LebesgueDigitChain(0, 3)
    M = chain_digit_matrix(chain, 12)
    assert np.array_equal(M, _chain_oracle(0, 3, 12))
    assert chain.clamps == np.count_nonzero(M[:, 4:8] == DIGIT_CAP) == np.count_nonzero(M == DIGIT_CAP) == 2


@pytest.mark.parametrize("samples", [1, 7])
@pytest.mark.parametrize("last", [37, 4 * 48, 4 * 48 + 3, 4 * 48 + 4])
def test_chain_lanes_equal_step_oracle(samples, last):
    # at the default chunk: three chunks in lanes, then a last chunk too short
    # for lanes, one in the shortest lanes (48 steps), one that does not split
    # into four equal lanes and runs as one lane, or one in four lanes of 49
    assert verify._CHAIN_LANES == 4 and verify._CHAIN_WARMUP == 48
    n = 3 * verify._CHAIN_CHUNK + last
    chain = LebesgueDigitChain(20260809, samples)
    assert np.array_equal(chain_digit_matrix(chain, n), _chain_oracle(20260809, samples, n))
    assert chain.redone == 0


def test_chain_redoes_a_chunk_whose_seams_miss(monkeypatch):
    # with no warm-up every lane j >= 1 starts from r = 0, which no lane ends at
    # (r = 1 / (digit + r) > 0), so every seam misses and every chunk runs again
    monkeypatch.setattr(verify, "_CHAIN_WARMUP", 0)
    n = 3 * verify._CHAIN_CHUNK + 36  # a last chunk of four equal lanes
    chain = LebesgueDigitChain(3, 5)
    assert np.array_equal(chain_digit_matrix(chain, n), _chain_oracle(3, 5, n))
    assert chain.redone == 4


def test_chain_lanes_count_each_clamp_once(monkeypatch):
    # one screened chunk in lanes of 128 steps: the u = 0 at step 90 of
    # sample 0 lies in lane 1's warm-up window (steps 80..127 of lane 0), the
    # 2^-40 at step 356 of sample 1 in lane 3's (steps 336..383 of lane 2);
    # a warm-up digit is dropped, so each clamp counts once, in its own lane
    assert verify._CHAIN_CHUNK // verify._CHAIN_LANES == 128 and verify._CHAIN_WARMUP == 48
    n = verify._CHAIN_CHUNK
    streams = np.random.default_rng(8).random((3, n))
    streams[0, 90], streams[1, 356] = 0.0, 2.0**-40
    monkeypatch.setattr(np.random, "default_rng", lambda seq: _FixedStream(streams[seq.spawn_key[0]]))
    chain = LebesgueDigitChain(0, 3)
    M = chain_digit_matrix(chain, n)
    assert np.array_equal(M, _chain_oracle(0, 3, n))
    assert chain.redone == 0
    assert chain.clamps == np.count_nonzero(M == DIGIT_CAP) == 2
    assert M[0, 90] == M[1, 356] == DIGIT_CAP


def test_clamp_fraction_check():
    cfg = McConfig(seed=1, samples=4, n_digits=50)
    tracker = RunMaxTracker(4)
    tracker.push(sample_digit_matrix(1, 4, 50))
    tracker.snapshot()
    fx = load_fixtures()
    ok = [c for c in tracker.report(cfg, fx, 0).checks if c.name == "clamp_fraction"]
    bad = [c for c in tracker.report(cfg, fx, 1).checks if c.name == "clamp_fraction"]
    assert ok[0].passed and ok[0].statistic == 0.0 and ok[0].bound == (0.0, 1e-6)
    assert not bad[0].passed and bad[0].statistic == 1 / 200


def test_chain_agrees_with_decimal_pipeline_in_distribution():
    # compare first-two-digit joint frequencies between the exact-law chain
    # and the certified decimal-budget expansion of uniform dyadic samples
    M = sample_digit_matrix(3, 8000, 2)
    rng = np.random.default_rng(3)
    dec = np.array([sample_digits_decimal(rng, 2)[0] for _ in range(8000)])
    for pair in ((1, 1), (1, 2), (2, 1), (3, 1)):
        p_chain = ((M[:, 0] == pair[0]) & (M[:, 1] == pair[1])).mean()
        p_dec = ((dec[:, 0] == pair[0]) & (dec[:, 1] == pair[1])).mean()
        sigma = math.sqrt(max(p_dec, 1e-4) / 8000)
        assert abs(p_chain - p_dec) <= 5 * sigma


def test_decimal_redraw_rate_small():
    rng = np.random.default_rng(10)
    redraws = sum(sample_digits_decimal(rng, 50)[1] for _ in range(300))
    assert redraws / 300 < 0.01


def _sample_digits_via_string(rng, n):
    # the sampler drawn through the exact decimal string of k / 2^bits
    bits = 4 * n + 64
    redraws = 0
    while True:
        k = 0
        for _ in range(-(-bits // 53)):
            k = (k << 53) | int(rng.integers(0, 2**53))
        k &= (1 << bits) - 1
        if k == 0:
            continue
        s = "0." + str(k * 5**bits).zfill(bits)
        d = expand(RealInput.decimal_input(s, precision_bits=bits), n)
        if len(d.digits) >= n:
            return d.digits[:n], redraws
        redraws += 1


@pytest.mark.parametrize("n", [1, 3, 40, 200])
def test_sample_digits_decimal_matches_string_reference(n):
    fast, ref = np.random.default_rng([n, 7]), np.random.default_rng([n, 7])
    for _ in range(20):
        assert sample_digits_decimal(fast, n) == _sample_digits_via_string(ref, n)


def test_sample_digits_decimal_unchanged_at_seed_3():
    for n in (100, 400, 700, 1050):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        assert sample_digits_decimal(rng, n) == _sample_digits_via_string(ref, n)


def test_sample_digits_decimal_redraw_cap(monkeypatch):
    # an expansion that never certifies all n digits used to redraw forever
    def short_expand(x, n):
        d = expand(x, n)
        return dataclasses.replace(d, digits=d.digits[: n - 1])

    monkeypatch.setattr(verify, "_DECIMAL_REDRAW_CAP", 5)
    monkeypatch.setattr(verify, "expand", short_expand)
    with pytest.raises(NoConvergence):
        sample_digits_decimal(np.random.default_rng(0), 12)
    # an expansion that certifies at once is untouched by the cap
    monkeypatch.undo()
    digits, redraws = sample_digits_decimal(np.random.default_rng(0), 12)
    assert len(digits) == 12 and redraws == 0


def test_sample_digits_decimal_past_str_digit_limit():
    # 4 * 1100 + 64 bits: the decimal string of k / 2^bits would exceed
    # Python's 4 300-digit int/str conversion limit
    digits, redraws = sample_digits_decimal(np.random.default_rng(3), 1100)
    assert len(digits) == 1100 and min(digits) >= 1 and redraws >= 0


# ---------------------------------------------------------------------------
# mc suites
# ---------------------------------------------------------------------------


def test_mc_runlength_small_scale():
    rep = mc_runlength(McConfig(seed=2, samples=40, n_digits=20_000))
    assert rep.passed
    assert rep.series[-1]["horizon"] == 20_000
    assert 0.3 <= rep.series[-1]["mean"] <= 0.7


@pytest.mark.parametrize("suite", [mc_runlength, mc_laws])
def test_runlength_law_needs_two_digits(suite):
    with pytest.raises(InputOutOfRange):
        suite(McConfig(seed=1, samples=3, n_digits=1))


@pytest.mark.parametrize("suite", [mc_nu_zero, mc_laws])
def test_nu_law_needs_a_sample_with_an_estimate(suite):
    # five digits of three samples hold too few records for any nu estimate
    with pytest.raises(InputOutOfRange, match="no sample"):
        suite(McConfig(seed=1, samples=3, n_digits=5))


def test_mc_runlength_deterministic():
    a = mc_runlength(McConfig(seed=9, samples=10, n_digits=5_000))
    b = mc_runlength(McConfig(seed=9, samples=10, n_digits=5_000))
    assert a.to_json_dict() == b.to_json_dict()
    c = mc_runlength(McConfig(seed=10, samples=10, n_digits=5_000))
    assert c.series != a.series


def test_mc_nu_zero_small_scale():
    rep = mc_nu_zero(McConfig(seed=2, samples=40, n_digits=20_000))
    fr = [row["exceed_fraction"] for row in rep.series]
    assert fr[-1] <= fr[0] + 0.01
    names = [c.name for c in rep.checks]
    assert "nu_hat_le_nu_violations" in names
    viol = [c for c in rep.checks if c.name == "nu_hat_le_nu_violations"][0]
    assert viol.statistic == 0.0
    # the pilot never ran 20 000 digits: no bound is calibrated there
    top = rep.checks[0]
    assert (top.name, top.bound, top.passed) == ("exceed_fraction_at_uncalibrated_horizon", (0.0, -math.inf), False)


def test_record_tracker_matches_decompose_reference():
    n = 30_000
    M = sample_digit_matrix(99, 25, n)
    chain = LebesgueDigitChain(99, 25)
    tracker = RecordTracker(25, 1)
    for digits in chain.next_digits(n):
        tracker.push(digits)
    for k in range(25):
        got = tracker.estimates(k)
        bd = exponents.decompose(M[k], 1)
        # decompose runs the tracker's scan; the oracle is code of its own
        oracle = tuple(_select_records_oracle(_raw_blocks_oracle(M[k].tolist(), 1)))
        assert tracker.records(k) == bd.record_blocks == oracle
        try:
            ref = exponents.exponent_estimates(bd, n)
        except InsufficientBlocks:
            ref = None
        if ref is None:
            assert got is None
        else:
            assert got.nu_hat_est == ref.nu_hat_est and got.nu_est == ref.nu_est


def test_record_tracker_horizon_without_estimates_has_no_fraction():
    tracker = RecordTracker(2, 1)
    tracker.push(np.full((2, 50), 2))  # no digit 1 yet: no sample has a nu estimate
    tracker.snapshot()
    runs = [d for t in range(1, 12) for d in [1] * t + [2] * 3]  # eleven records of 1
    tracker.push(np.array([runs, runs]))
    tracker.snapshot()
    assert tracker.series[0] == {"horizon": 50, "samples_used": 0}
    assert tracker.series[1]["samples_used"] == 2 and "exceed_fraction" in tracker.series[1]
    rep = tracker.report(McConfig(seed=0, samples=2, n_digits=tracker.pos), LOOSE_FIXTURES)
    # the row without a fraction has no monotone check; the top horizon keeps its own
    assert [c.name for c in rep.checks] == ["exceed_fraction_at_top_horizon", "nu_hat_le_nu_violations"]
    assert rep.series_csv().splitlines()[1] == ",50,0"


# bounds that no pilot calibrated: a one-seed panel whose fraction 1 at the
# horizons that these tests end at gives exceed_bound 1 + 2/1 there
LOOSE_FIXTURES = {
    "mc_runlength": {"mean_bounds": [0.40, 0.60], "trend_slack": 0.05},
    "mc_nu_zero": {"monotone_slack": 1.0},
    "pilot": {"samples": 1, "mc_nu_zero_fractions": {"0": {"149": 1.0, "20000": 1.0}}},
}


def test_exceed_bound_follows_the_pilot_rule_at_each_horizon():
    # the panel's largest fraction at the horizon plus 2/samples; 10^6 keeps
    # the 0.075 calibrated there, and the fixtures store no bound of their own
    fx = load_fixtures()
    assert [verify.exceed_bound(fx, h) for h in (10_000, 100_000, 1_000_000)] == [0.38, 0.175, 0.075]
    assert verify.exceed_bound(fx, 20_000) is None
    assert "exceed_bound" not in fx["mc_nu_zero"]


@pytest.mark.parametrize("seed", load_fixtures()["pilot"]["seeds"])
def test_mc_laws_reproduce_committed_pilot_values(seed):
    # the pilot wrote these 10^4-horizon values with the chain of its day, so
    # equality pins the chain's bits to data that no test oracle produced
    pilot = load_fixtures()["pilot"]
    runs, records = mc_laws(McConfig(seed=seed, samples=pilot["samples"], n_digits=10_000))
    assert runs.series[-1]["mean"] == pilot["mc_runlength_means"][str(seed)]["10000"]
    assert records.series[-1]["exceed_fraction"] == pilot["mc_nu_zero_fractions"][str(seed)]["10000"]


@pytest.mark.parametrize(
    "seed, samples, n, i, fixtures",
    [(5, 20, 10_000, 1, None), (2, 40, 20_000, 1, None), (2, 40, 20_000, 2, LOOSE_FIXTURES)],
)
def test_mc_laws_equal_standalone_suites(seed, samples, n, i, fixtures, monkeypatch):
    cfg = McConfig(seed=seed, samples=samples, n_digits=n)
    if fixtures is not None:  # every suite reads only the package fixtures
        monkeypatch.setattr(verify, "load_fixtures", lambda: fixtures)
    runs, records = mc_laws(cfg, i=i)
    assert runs.to_json_dict() == mc_runlength(cfg).to_json_dict()
    assert records.to_json_dict() == mc_nu_zero(cfg, i=i).to_json_dict()


def test_block_trackers_equal_row_scans_at_every_chunk_edge(monkeypatch):
    monkeypatch.setattr(verify, "_CHAIN_CHUNK", 7)
    n = 300
    made = np.tile([3, 4], (3, n // 2))
    made[0, 4:7] = 1  # a carried run of 1 that ends at the next chunk's first digit, a record
    made[0, 10:21] = 1  # a record that spans the edge at 14
    made[1, :14] = 1  # two whole chunks of 1, carried into a third that starts with a 3
    made[1, 16:18] = 1
    made[1, 20:35] = 1
    made[2, 3:26] = 7  # a run of equal digits over three edges, and no 1 until position 40
    made[2, 40:43] = 1
    M = np.vstack([made, sample_digit_matrix(8, 10, n)])
    runs, records = RunMaxTracker(len(M)), RecordTracker(len(M), 1)
    R = np.array([runlength.run_profile(row).R for row in M])
    for j in range(0, n, verify._CHAIN_CHUNK):
        block = M[:, j:j + verify._CHAIN_CHUNK]
        runs.push(block)
        records.push(block)
        h = j + block.shape[1]
        assert np.array_equal(runs.rmax, R[:, h - 1]), h
        for k, row in enumerate(M[:, :h]):
            ref = exponents.decompose(row, 1).record_blocks if (row == 1).any() else ()
            oracle = tuple(_select_records_oracle(_raw_blocks_oracle(row.tolist(), 1)))
            assert records.records(k) == ref == oracle, (h, k)
    assert records.records(0)[:2] == ((4, 7), (10, 21)) and runs.rmax[2] == 23


class _RowRuns(RunMaxTracker):
    """The run-max tracker fed one digit of every sample at a time."""

    def push(self, digits):
        self.pos += 1
        self.cur = np.where(digits == self.last, self.cur + 1, 1)
        np.maximum(self.rmax, self.cur, out=self.rmax)
        self.last = digits


class _RowRecords(RecordTracker):
    """The record tracker fed one digit of every sample at a time."""

    def push(self, digits):
        isi = digits == self.i
        for k in np.flatnonzero((self.runlen > self.best) & ~isi):
            self._close(k, self.pos, int(self.runlen[k]))
        self.pos += 1
        self.runlen = np.where(isi, self.runlen + 1, 0)


def test_mc_laws_snapshot_mid_chunk_equals_row_reference():
    n = 10_037
    assert 10_000 % verify._CHAIN_CHUNK  # the 10^4 snapshot falls inside a chunk
    cfg = McConfig(seed=21, samples=12, n_digits=n)
    M = sample_digit_matrix(21, 12, n)
    runs, records = _RowRuns(12), _RowRecords(12, 1)
    for h in range(1, n + 1):
        runs.push(M[:, h - 1])
        records.push(M[:, h - 1])
        if h in (10_000, n):
            runs.snapshot()
            records.snapshot()
    fx = load_fixtures()
    got_runs, got_records = mc_laws(cfg)
    assert [row["horizon"] for row in got_runs.series] == [10_000, n]
    assert got_runs.to_json_dict() == runs.report(cfg, fx, int(np.count_nonzero(M == DIGIT_CAP))).to_json_dict()
    assert got_records.to_json_dict() == records.report(cfg, fx).to_json_dict()


def test_run_max_tracker_matches_run_profile():
    n = 3_000
    M = sample_digit_matrix(31, 12, n)
    R = np.array([runlength.run_profile(row).R for row in M])
    tracker = RunMaxTracker(12)
    for h in range(1, n + 1):
        tracker.push(M[:, h - 1:h])
        assert np.array_equal(tracker.rmax, R[:, h - 1]), h
    assert R[:, -1].max() >= 3  # runs longer than one digit were tracked


# ---------------------------------------------------------------------------
# exact suites
# ---------------------------------------------------------------------------


def test_lemma_suite_passes(monkeypatch):
    monkeypatch.setattr(verify, "_LEMMA_STRINGS", 2_000)
    rep = lemma_suite()
    assert rep.passed, [c for c in rep.checks if not c.passed]


_LEMMA_REPORT = (
    '{"checks":[{"bound":[0.0,0.0],"name":"growth_bound_failures","pass":true,"statistic":0.0},'
    '{"bound":[0.0,0.0],"name":"splitting_bound_failures","pass":true,"statistic":0.0},'
    '{"bound":[0.0,0.0],"name":"interval_identity_failures","pass":true,"statistic":0.0},'
    '{"bound":[0.0,0.0],"name":"parity_ordering_failures","pass":true,"statistic":0.0},'
    '{"bound":[0.0,0.0],"name":"run_continuant_closed_form_failures","pass":true,"statistic":0.0}],'
    '"config":{"n_strings":10000,"seed":%d},"series":[],"suite":"lemmas",'
    '"summary":{"failed":0,"passed":5,"total":5}}'
)


@pytest.mark.parametrize("seed", [20260809, 1])
def test_lemma_report_pinned(seed):
    rep = lemma_suite(seed=seed)
    assert json.dumps(rep.to_json_dict(), sort_keys=True, separators=(",", ":")) == _LEMMA_REPORT % seed


def test_lemma_suite_draws_and_kernel_calls(monkeypatch):
    # the strings come from the same rng calls in the same order, and each
    # runs the same kernel calls: the split bound takes q from the two
    # sub-strings' own tables, never from the whole string's
    calls = []
    for name in ("continuants", "basic_interval"):
        kernel = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda d, kernel=kernel, name=name: calls.append((name, tuple(d))) or kernel(d))
    seed, n_strings = 11, 300
    monkeypatch.setattr(verify, "_LEMMA_STRINGS", n_strings)
    lemma_suite(seed=seed)
    rng = np.random.default_rng(seed)
    expected = []
    for _ in range(n_strings):
        n = int(rng.integers(1, 31))
        digits = tuple(int(a) for a in rng.integers(1, 11, size=n))
        expected.append(("continuants", digits))
        if n >= 2:
            cut = int(rng.integers(1, n))
            expected += [("continuants", digits[:cut]), ("continuants", digits[cut:])]
        expected.append(("basic_interval", digits))
    for n in range(6):  # the parity part: the four children, then the parent
        for digits in itertools.product(range(1, 5), repeat=n):
            expected += [("basic_interval", digits + (a,)) for a in range(1, 5)]
            expected += [("basic_interval", digits)] if digits else []
    assert calls == expected


def _lemma_failures(monkeypatch):
    monkeypatch.setattr(verify, "_LEMMA_STRINGS", 300)
    return {c.name: c.statistic for c in lemma_suite(seed=3).checks}


def test_lemma_suite_catches_swapped_ends(monkeypatch):
    kernel = verify.basic_interval
    monkeypatch.setattr(verify, "basic_interval", lambda d: dataclasses.replace(b := kernel(d), left=b.right, right=b.left))
    fails = _lemma_failures(monkeypatch)
    assert fails["interval_identity_failures"] > 0 and fails["parity_ordering_failures"] > 0


def test_lemma_suite_catches_wrong_length(monkeypatch):
    kernel = verify.basic_interval
    monkeypatch.setattr(verify, "basic_interval", lambda d: dataclasses.replace(b := kernel(d), length=b.length * 2))
    assert _lemma_failures(monkeypatch)["interval_identity_failures"] > 0


def test_lemma_suite_catches_wrong_last_denominator(monkeypatch):
    kernel = verify.continuants

    def off_by_one(d):
        t = kernel(d)
        return dataclasses.replace(t, q=t.q[:-1] + (t.q[-1] + 1,))

    monkeypatch.setattr(verify, "continuants", off_by_one)
    assert _lemma_failures(monkeypatch)["growth_bound_failures"] > 0


def test_solver_crosscheck_passes():
    rep = solver_crosscheck()
    assert rep.passed, [c for c in rep.checks if not c.passed]
    anchor = [c for c in rep.checks if c.name == "bounded_type_anchor_B2"][0]
    assert 0.526 <= anchor.statistic <= 0.536


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def test_report_serialization_roundtrip():
    rep = Report(suite="demo", config={"seed": 1})
    rep.add("a", 0.5, 0.0, 1.0)
    rep.add("b", 2.0, 0.0, 1.0)
    d = rep.to_json_dict()
    assert d["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert not rep.passed
    text = json.dumps(d, sort_keys=True)
    assert json.loads(text) == d


def test_report_series_csv():
    rep = Report(suite="demo")
    rep.series.append({"horizon": 10, "mean": 0.5})
    rep.series.append({"horizon": 20, "mean": 0.6})
    csv = rep.series_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "horizon,mean"
    assert len(lines) == 3
