"""Construction, measure, sampling, and insertion-map tests."""

import gc
import math
import os
import pathlib
import subprocess
import sys
import warnings
import weakref
from array import array
from bisect import bisect_left
from fractions import Fraction

import numpy as np
import pytest

from cfdim import cantor, dim_solver, exponents, runlength, transfer
from cfdim.cantor import (
    CantorSpec,
    MeasureContext,
    SeqPair,
    admissible_children,
    construct_sequences,
    construct_sequences_runlength,
    delete_marked,
    insert_map,
    inserted_record_blocks,
    local_dimension,
    local_dimension_series,
    log_int,
    measure_context,
    measure_mass,
    sample_measure,
    validate_prefix,
)
from cfdim.cf_core import continuants, denominators
from cfdim.errors import Inadmissible, InputOutOfRange


@pytest.fixture(scope="module")
def spec13():
    sp = construct_sequences(Fraction(1, 3), 1, k_max=10)
    return CantorSpec(B=3, i=1, sp=sp, d=4)


# ---------------------------------------------------------------------------
# sequence schedules
# ---------------------------------------------------------------------------


def test_construct_sequences_hand_values():
    sp = construct_sequences(Fraction(1, 2), 1, k_max=4)
    assert sp.n[:2] == (2, 8)  # n_2 = floor(2 (2 + 1)) + 2
    assert sp.m[:2] == (5, 17)  # m_2 = floor(2*8) + 1


def test_construct_sequences_nuhat_zero():
    sp = construct_sequences(0, 1, k_max=2)
    assert sp.n[0] == 34  # floor(2 * 2^(2^2)) + 2
    assert sp.m[0] == 69


def test_construct_sequences_ratio_targets():
    nv, nh = Fraction(1), Fraction(1, 3)
    sp = construct_sequences(nh, nv, k_max=14)
    for k in range(9, 13):
        assert abs((sp.m[k] - sp.n[k]) / sp.n[k] - float(nv)) <= 0.05
        assert abs((sp.m[k] - sp.n[k]) / sp.n[k + 1] - float(nh)) <= 0.05


def test_construct_sequences_out_of_range():
    with pytest.raises(InputOutOfRange):
        construct_sequences(Fraction(2, 3), 1)  # nu_hat > nu/(1+nu)
    with pytest.raises(InputOutOfRange):
        construct_sequences(0, 0)


# builds that would not end without a cap run in a child that caps its own address space
_CAPPED_BUILDS = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfdim.cantor import construct_sequences
from cfdim.errors import InputOutOfRange
for build in sys.argv[1:]:
    try:
        eval(build)
        print("returned")
    except InputOutOfRange as exc:
        print("range error:", exc)
"""


def _capped_builds(*builds):
    src = str(pathlib.Path(cantor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_BUILDS, *builds], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_schedule_entries_past_the_bit_cap_raise_before_they_are_built():
    # nu_hat = 0: n_13 has 2^26 bits, n_16 2^32
    assert _capped_builds("construct_sequences(0, 1, k_max=16)") == [
        "range error: k_max = 16 gives a schedule of more than 2^26 bits; lower k_max",
    ]


@pytest.mark.parametrize("k_max", [0, -2])
def test_schedule_without_a_run_is_out_of_range(k_max):
    # an empty schedule has no m_k to sample to or to weigh a mass by
    for build in (lambda: construct_sequences(Fraction(1, 3), 1, k_max=k_max),
                  lambda: construct_sequences(0, 1, k_max=k_max),
                  lambda: construct_sequences_runlength(Fraction(1, 4), Fraction(1, 2), k_max=k_max)):
        with pytest.raises(InputOutOfRange, match="k_max must be >= 1"):
            build()


def test_construct_sequences_runlength_targets():
    sp = construct_sequences_runlength(Fraction(1, 3), Fraction(1, 2), k_max=22)
    for k in range(18, 21):
        assert abs((sp.m[k] - sp.n[k]) / sp.n[k + 1] - 0.5) <= 0.05  # alpha/(1-alpha)
        assert abs((sp.m[k] - sp.n[k]) / sp.m[k] - 0.5) <= 0.05  # beta
    with pytest.raises(InputOutOfRange):
        construct_sequences_runlength(Fraction(1, 2), Fraction(3, 5))  # alpha > beta/(1+beta)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n, m",
    [
        ((0, 5), (2,)),  # unequal counts
        ((0, 5), (2, 5)),  # empty run
        ((0, 2), (3, 6)),  # run overlaps the next one
        ((0, 5), (3, 6)),  # run shorter than its predecessor
    ],
)
def test_seq_pair_rejects_bad_schedules(n, m):
    with pytest.raises(ValueError):
        SeqPair(n, m)


@pytest.mark.parametrize("n_1", [-3, 0])
def test_seq_pair_refuses_a_first_run_start_below_1(n_1):
    # SeqPair((-3,), (2,)) was accepted: measure_mass gave log mass 0.0 at
    # [1, 1] while sample_measure raised; no spec can hold it now
    with pytest.raises(InputOutOfRange, match=rf"^the first run start n_1 must be >= 1, got {n_1}$"):
        SeqPair((n_1,), (2,))


def test_admissible_children(spec13):
    assert admissible_children(spec13, (2, 3)) == (1,)  # inside the first run
    assert admissible_children(spec13, (2, 3, 1, 1, 1)) == (1, 2, 3)  # after m_1
    with pytest.raises(Inadmissible):
        admissible_children(spec13, (2, 3, 2))  # wrong digit inside a run
    with pytest.raises(Inadmissible):
        validate_prefix(spec13, (4,))  # beyond the alphabet bound


def test_cantor_spec_validation(spec13):
    with pytest.raises(InputOutOfRange):
        CantorSpec(B=1, i=1, sp=spec13.sp)
    with pytest.raises(InputOutOfRange):
        CantorSpec(B=3, i=1, sp=spec13.sp, d=3)


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_b1_like_single_path_mass():
    # with B = i+1 = 2 the tree still branches; check the trivial sub-case by
    # forcing the unique all-run path of a narrow spec to keep full mass
    sp = construct_sequences(Fraction(1, 3), 1, k_max=4)
    spec = CantorSpec(B=2, i=1, sp=sp)
    node = measure_mass(spec, ())
    assert node.log_mass == 0.0


def test_root_children_sum_to_one(spec13):
    total = math.fsum(math.exp(measure_mass(spec13, (a,)).log_mass) for a in admissible_children(spec13, ()))
    assert abs(total - 1.0) <= 1e-9


def test_child_sum_consistency_random_nodes(spec13):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        depth = int(rng.integers(0, 726))
        seed = int(rng.integers(1 << 30))
        d = sample_measure(spec13, depth=max(depth, 1), seed=seed, reject_accidental=False)
        prefix = d.digits[:depth]
        parent = measure_mass(spec13, prefix)
        ksum = math.fsum(
            math.exp(measure_mass(spec13, prefix + (a,)).log_mass - parent.log_mass)
            for a in admissible_children(spec13, prefix)
        )
        worst = max(worst, abs(ksum - 1.0))
    assert worst <= 1e-9


def test_measure_stack_levels_stay_bounded(spec13):
    # levels past the settling depth follow in closed form
    st = measure_context(spec13).stack(10)
    assert st.free == spec13.sp.n[9] - spec13.sp.m[8]
    assert len(st.levels) <= 64


def test_measure_context_kept_per_spec(spec13):
    ctx = measure_context(spec13)
    assert measure_context(spec13) is ctx
    # an equal but distinct spec gets its own context, freed with its spec
    equal = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=10), d=4)
    assert equal == spec13
    freed = weakref.ref(measure_context(equal))
    assert freed() is not ctx
    del equal
    gc.collect()
    assert freed() is None


def test_measure_mass_inadmissible(spec13):
    with pytest.raises(Inadmissible):
        measure_mass(spec13, (2, 3, 2))


def test_prefix_past_the_schedule_is_out_of_range():
    spec = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=2))
    assert spec.sp.m[-1] == 23
    d = list(sample_measure(spec, 23, seed=5).digits)
    assert admissible_children(spec, d) == (1, 2, 3)
    measure_mass(spec, d)  # kept, so d + [1] is a child of the kept prefix
    for call in (measure_mass, local_dimension):
        with pytest.raises(InputOutOfRange, match=r"depth 24 .*m_2 = 23"):
            call(spec, d + [1])
    measure_mass(spec, d[:-1])  # not an extension of the kept prefix: walked from the empty state
    with pytest.raises(InputOutOfRange, match=r"depth 25 .*m_2 = 23"):
        measure_mass(spec, d + [2, 3])


# ---------------------------------------------------------------------------
# the kept prefix state
# ---------------------------------------------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """Records, per call of validate_prefix made through the cantor module,
    the positions it checks: those past `start`."""
    seen = []
    real = cantor.validate_prefix

    def counted(spec, prefix, start=0):
        seen.append(tuple(range(start + 1, len(prefix) + 1)))
        return real(spec, prefix, start)

    monkeypatch.setattr(cantor, "validate_prefix", counted)
    return seen


def _kept(spec):
    """The prefix that the spec's context keeps."""
    return measure_context(spec)._kept[0]


def _cold_mass(spec, prefix):
    """measure_mass of prefix walked from the empty state, which keeps it:
    the kept prefix is dropped first."""
    measure_context(spec)._kept = None
    return measure_mass(spec, prefix)


def _parent_depths(sp, k):
    """Depths around segment k: its start, the end of its free part, inside
    its run and its end."""
    m_prev = sp.m[k - 2] if k >= 2 else 0
    n_k, m_k = sp.n[k - 1], sp.m[k - 1]
    return [m_prev, n_k - 1, n_k, n_k + 1, (n_k + m_k) // 2, m_k - 1, m_k]


@pytest.mark.parametrize("B", [3, 4, 5])
def test_child_masses_from_kept_state_equal_cold_masses(spec13, validations, B):
    spec = CantorSpec(B=B, i=1, sp=spec13.sp, d=B + 1)
    sp = spec.sp
    d = sample_measure(spec, depth=sp.m[5], seed=17 + B, reject_accidental=False).digits
    for k in (1, 2, 6):
        for L in _parent_depths(sp, k):
            parent = d[:L]
            node = _cold_mass(spec, parent)
            del validations[:]
            kids = admissible_children(spec, parent)
            hits = [measure_mass(spec, parent + (a,)) for a in kids]
            # nothing past the kept parent, then one position per child
            assert validations == [()] + [(len(parent) + 1,)] * len(kids)
            assert _kept(spec) == parent  # no sibling replaced it
            assert node == _cold_mass(spec, parent)
            for a, hit in zip(kids, hits):
                assert hit == _cold_mass(spec, parent + (a,))
                assert hit.log_mass == _reference_log_mass(spec, parent + (a,))


@pytest.mark.parametrize("B", [3, 4, 5])
def test_masses_resumed_from_a_shallower_kept_prefix_equal_cold_masses(spec13, validations, B):
    spec = CantorSpec(B=B, i=1, sp=spec13.sp, d=B + 1)
    sp = spec.sp
    ctx = measure_context(spec)
    d = sample_measure(spec, depth=sp.m[5], seed=29 + B, reject_accidental=False).digits
    for k in (1, 2, 5):
        m_prev, n_k, m_k = sp.segments[k - 1]
        # before n_k, at n_k, inside the run, at m_k, and in the next segment's free part and run
        ends = (n_k - 1, n_k, n_k + 1, (n_k + m_k) // 2, m_k, m_k + 1, sp.n[k] + 1, sp.m[k])
        for L0 in (m_prev, m_prev + 1, n_k - 2, n_k, n_k + 1, m_k):
            for L in ends:
                if L < L0 + 2:
                    continue
                want = _cold_mass(spec, d[:L])
                _cold_mass(spec, d[:L0])
                del validations[:]
                got = measure_mass(spec, d[:L])
                assert validations == [tuple(range(L0 + 1, L + 1))]  # only the positions past the kept prefix
                assert got == want
                assert got.log_mass == _reference_log_mass(spec, d[:L])
                assert _kept(spec) == d[:L]
    # an inadmissible digit deep in a resumed walk: the cold message, and the state as it was
    for L0, pos, a in ((0, sp.n[1] + 1, 2), (sp.n[0], sp.m[2], 3), (sp.m[0], sp.n[3] - 5, B + 1), (sp.n[2], sp.n[3], 0)):
        bad = _corrupt(d[: sp.m[3]], pos, a)
        want = _reference_validate(spec, bad)
        assert want is not None and f"position {pos} " in want
        with pytest.raises(Inadmissible) as cold:
            _cold_mass(spec, bad)
        _cold_mass(spec, d[:L0])
        before = ctx._kept
        with pytest.raises(Inadmissible) as hit:
            measure_mass(spec, bad)
        assert str(hit.value) == str(cold.value) == want
        assert ctx._kept is before


def test_kept_state_at_the_end_of_the_schedule():
    sp = construct_sequences(Fraction(1, 3), 1, k_max=2)
    spec = CantorSpec(B=3, i=1, sp=sp)
    d = sample_measure(spec, depth=sp.m[-1], seed=4).digits
    for L in (sp.n[-1], sp.m[-1] - 1, sp.m[-1]):
        assert _cold_mass(spec, d[:L]).log_mass == _reference_log_mass(spec, d[:L])
        assert _kept(spec) == d[:L]


def test_inadmissible_child_raises_the_cold_message(spec13, validations):
    sp = spec13.sp
    d = sample_measure(spec13, depth=sp.m[3], seed=5).digits
    for L in (0, sp.n[0] - 1, sp.n[0], sp.n[0] + 1, sp.m[0], sp.n[2] - 1, sp.n[2], sp.m[2] - 1, sp.m[2]):
        parent = d[:L]
        for a in (0, 2, spec13.B + 1):
            child = parent + (a,)
            want = _reference_validate(spec13, child)
            if want is None:
                continue
            with pytest.raises(Inadmissible) as cold:
                _cold_mass(spec13, child)
            _cold_mass(spec13, parent)
            with pytest.raises(Inadmissible) as hit:
                measure_mass(spec13, child)
            assert str(hit.value) == str(cold.value) == want
            # the raising call left the state: a sibling still steps from it
            assert _kept(spec13) == parent
            del validations[:]
            sibling = measure_mass(spec13, parent + (admissible_children(spec13, parent)[0],))
            assert validations == [(), (L + 1,)]
            assert sibling == _cold_mass(spec13, sibling.digits)


def test_raising_cold_call_keeps_the_state(spec13, validations):
    sp = spec13.sp
    d = sample_measure(spec13, depth=sp.m[2], seed=6).digits
    parent = d[: sp.n[1]]
    _cold_mass(spec13, parent)
    with pytest.raises(Inadmissible):
        measure_mass(spec13, _corrupt(d, sp.n[1] + 1, 3))  # a longer prefix, validated past the parent
    with pytest.raises(ValueError):
        measure_mass(spec13, parent + ("x",))  # int() fails on the new digit
    assert _kept(spec13) == parent
    del validations[:]
    child = measure_mass(spec13, parent + (1,))
    assert validations == [(len(parent) + 1,)]
    assert child == _cold_mass(spec13, parent + (1,))


def test_numpy_and_float_children_step_from_kept_state(spec13, validations):
    sp = spec13.sp
    d = sample_measure(spec13, depth=sp.m[2], seed=9).digits
    for L in (0, sp.n[1] - 1, sp.n[1], sp.m[1] - 1, sp.m[1]):
        parent = d[:L]
        want = [_cold_mass(spec13, parent + (a,)) for a in admissible_children(spec13, parent)]
        arr = np.asarray(parent, dtype=np.int64)
        _cold_mass(spec13, arr)
        del validations[:]
        assert admissible_children(spec13, arr) == tuple(w.digits[-1] for w in want)
        for w in want:
            a = w.digits[-1]
            for child in (np.append(arr, a), [float(x) for x in parent] + [float(a)], [*parent, np.int64(a)]):
                got = measure_mass(spec13, child)
                assert got == w and all(type(x) is int for x in got.digits)
        assert validations == [()] + [(L + 1,)] * (3 * len(want))



def test_sample_measure_refuses_a_depth_past_its_cap_before_any_solve(monkeypatch):
    def no_context(spec):
        raise AssertionError("reached measure_context")

    monkeypatch.setattr(cantor, "measure_context", no_context)
    spec = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=15))
    assert spec.sp.m[-1] == 43_046_717
    with pytest.raises(InputOutOfRange, match="cap of 2"):
        sample_measure(spec, depth=2**24 + 1, seed=0)


def test_samples_admissible_and_deterministic(spec13):
    for seed in range(20):
        d = sample_measure(spec13, depth=120, seed=seed)
        validate_prefix(spec13, d.digits)
    a = sample_measure(spec13, depth=400, seed=123)
    b = sample_measure(spec13, depth=400, seed=123)
    assert a.digits == b.digits


def test_sample_depth_guard(spec13):
    with pytest.raises(InputOutOfRange):
        sample_measure(spec13, depth=spec13.sp.m[-1] + 1, seed=0)


def test_sample_measure_refuses_a_negative_depth_before_any_solve(monkeypatch, spec13):
    def no_context(spec):
        raise AssertionError("reached measure_context")

    monkeypatch.setattr(cantor, "measure_context", no_context)
    with pytest.raises(InputOutOfRange, match="depth -5 is negative"):
        sample_measure(spec13, depth=-5, seed=0)


def test_root_frequencies_match_masses(spec13):
    probs = np.array([math.exp(measure_mass(spec13, (a,)).log_mass) for a in (1, 2, 3)])
    N = 10_000
    counts = np.zeros(3)
    for s in range(N):
        d = sample_measure(spec13, depth=1, seed=s, reject_accidental=False)
        counts[d.digits[0] - 1] += 1
    freq = counts / N
    sigma = np.sqrt(probs * (1 - probs) / N)
    assert (np.abs(freq - probs) <= 3 * sigma).all()


def test_sampled_records_reproduce_design(spec13):
    # with accidental-run rejection the record blocks of length >= m_1 - n_1
    # are exactly the designed ones
    c1 = spec13.sp.run_length(1)
    for seed in (1, 2, 3):
        d = sample_measure(spec13, depth=spec13.sp.m[5], seed=seed)
        bd = exponents.decompose(d, 1)
        recs = tuple(b for b in bd.record_blocks if b[1] - b[0] >= c1)
        assert recs == tuple(zip(spec13.sp.n[:6], spec13.sp.m[:6]))  # the designed runs


def test_designed_roundtrip_exponent_estimates(spec13):
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=42)
    bd = exponents.decompose(d, 1)
    est = exponents.exponent_estimates(bd, horizon=len(d))
    assert abs(est.nu_hat_est - 1 / 3) <= 0.1
    assert abs(est.nu_est - 1.0) <= 0.1


# ---------------------------------------------------------------------------
# local dimension
# ---------------------------------------------------------------------------


def test_local_dimension_tracks_solver(spec13):
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=7)
    ld = local_dimension(spec13, d.digits)
    ref = dim_solver.spectral_dim(3, Fraction(3, 4), 1).value  # xi = nu^2/((1+nu)(nu-nu_hat)) = 3/4
    assert abs(ld - ref) <= 0.1


def test_local_dimension_stabilizes(spec13):
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=19)
    series = local_dimension_series(spec13, d.digits)
    vals = [v for (_, v) in series]
    assert all(abs(a - b) < 0.05 for a, b in zip(vals[4:], vals[5:]))


# ---------------------------------------------------------------------------
# insertion map
# ---------------------------------------------------------------------------


def test_insert_map_small_example():
    sp = construct_sequences(Fraction(1, 3), 1, k_max=4)
    spec = CantorSpec(B=3, i=1, sp=sp, d=4)
    x = (2, 3) + (1, 1, 1) + (3, 2, 1, 2, 3, 3)  # up to n_2 = 11
    res = insert_map(spec, x)
    # chunk length 3: marker before the run and before each free chunk
    assert res.digits.digits == (2, 3, 4, 1, 1, 1, 4, 3, 2, 1, 4, 2, 3, 3)
    assert res.marked == (3, 7, 11)
    assert delete_marked(res) == x


def test_insert_map_roundtrip_and_density(spec13):
    def marked_density(res, N):
        return sum(1 for p in res.marked if p <= N) / N

    d = sample_measure(spec13, depth=spec13.sp.m[6], seed=5)
    res = insert_map(spec13, d.digits)
    assert delete_marked(res) == d.digits
    c1 = spec13.sp.run_length(1)
    n_total = len(res.digits)
    assert marked_density(res, n_total) <= 2 / c1
    # density decreases along the block-end schedule
    ends = [m + 1 for m in spec13.sp.m[:7]]
    dens = [marked_density(res, min(e, n_total)) for e in ends]
    assert all(a >= b for a, b in zip(dens[1:], dens[2:]))


def _random_admissible(spec, L, rng):
    return tuple(
        spec.i if bound is None else int(rng.integers(1, bound + 1))
        for pos in range(1, L + 1)
        for bound in [cantor._bound_at(spec, pos)]
    )


def test_delete_marked_matches_set_reference(spec13):
    def reference(res):
        marked = set(res.marked)
        return tuple(a for j, a in enumerate(res.digits.digits, start=1) if j not in marked)

    rng = np.random.default_rng(17)
    sp = spec13.sp
    for L in [0, 1, sp.n[0], sp.n[0] + 1, sp.n[1], sp.n[1] + 1] + [int(L) for L in rng.integers(1, sp.m[4], 40)]:
        res = insert_map(spec13, _random_admissible(spec13, L, rng))
        assert delete_marked(res) == reference(res)
    # adjacent and trailing markers
    res = cantor.InsertResult(digits=cantor.DigitSeq((4, 4, 1, 2, 4, 3, 4)), marked=(1, 2, 5, 7))
    assert delete_marked(res) == reference(res) == (1, 2, 3)


def test_insert_map_rejects_inadmissible(spec13):
    with pytest.raises(Inadmissible):
        insert_map(spec13, (2, 3, 2, 2, 2))


def test_inserted_records_match_pipeline(spec13):
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=9)
    res = insert_map(spec13, d.digits)
    bd = exponents.decompose(res.digits, 1)
    c1 = spec13.sp.run_length(1)
    recs = tuple(b for b in bd.record_blocks if b[1] - b[0] >= c1)
    assert recs == inserted_record_blocks(spec13, 8)


def test_inserted_points_hit_pattern(spec13):
    # image points approach the target below nu_hat and stay away above nu,
    # checked at a block-end horizon
    from cfdim.cf_core import target
    from cfdim.exponents import uniform_hit_check

    t = target(1)
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=31)
    res = insert_map(spec13, d.digits)
    recs = inserted_record_blocks(spec13, 8)
    N = recs[6][0]  # horizon at the marker before run 7: all of block 6 seen
    lo = uniform_hit_check(res.digits, t, N=N, nu_hat=1 / 3 - 0.06)
    hi = uniform_hit_check(res.digits, t, N=N, nu_hat=1.0 + 0.06)
    assert lo.verdict is True
    assert hi.verdict is False


# ---------------------------------------------------------------------------
# run-length profile of image points (the piecewise plateau/growth law)
# ---------------------------------------------------------------------------


def test_runlength_profile_piecewise_formula():
    sp = construct_sequences_runlength(Fraction(1, 3), Fraction(1, 2), k_max=12)
    spec = CantorSpec(B=3, i=1, sp=sp, d=4)
    d = sample_measure(spec, depth=sp.m[8], seed=77)
    res = insert_map(spec, d.digits)
    rp = runlength.run_profile(res.digits)
    recs = inserted_record_blocks(spec, 9)
    n_total = len(res.digits)
    for k in range(1, len(recs) - 1):
        Nk, Mk = recs[k - 1]
        Nk1, Mk1 = recs[k]
        ck = Mk - Nk
        for n in range(Mk, min(Nk1 + ck, n_total) + 1):
            assert rp.R[n - 1] == ck
        for n in range(Nk1 + ck + 1, min(Mk1, n_total) + 1):
            assert rp.R[n - 1] == n - Nk1


def test_runlength_ratio_estimates_from_construction():
    sp = construct_sequences_runlength(Fraction(1, 3), Fraction(1, 2), k_max=12)
    spec = CantorSpec(B=3, i=1, sp=sp, d=4)
    d = sample_measure(spec, depth=min(10_500, sp.m[-1]), seed=13)
    res = insert_map(spec, d.digits)
    prof = runlength.run_profile(res.digits.digits[:10_000])
    est = runlength.ratio_estimates(prof, 0.5)
    assert abs(est.liminf_est - 1 / 3) <= 0.05
    assert abs(est.limsup_est - 1 / 2) <= 0.05


# ---------------------------------------------------------------------------
# references: the per-digit and per-position forms of the warm Cantor path
# ---------------------------------------------------------------------------


def _reference_sample(spec, depth, seed, reject):
    """sample_measure written out digit by digit with Generator.choice."""
    ctx = measure_context(spec)
    rng = np.random.default_rng(seed)
    grid = transfer.get_grid(transfer.DEFAULT_DEGREE)
    B, i = spec.B, spec.i
    a_vec = np.arange(1, B + 1, dtype=np.float64)
    out = []
    k = 1
    while len(out) < depth:
        m_prev, n_k, m_k = spec.sp.segments[k - 1]
        free = n_k - m_prev
        st = ctx.stack(k)
        s = ctx.s_tilde(k).value
        cap = spec.sp.run_length(1) - 1 if k == 1 else spec.sp.run_length(k - 1)
        for _ in range(200):
            part, r, run, ok = [], 0.0, 0, True
            for j in range(free):
                y = 1.0 / (a_vec + r)
                logw = -2.0 * s * np.log(a_vec + r) + grid.interp_matrix(y) @ st.level(free - j - 1)
                w = np.exp(logw - logw.max())
                w /= w.sum()
                a = int(rng.choice(B, p=w)) + 1
                part.append(a)
                r = 1.0 / (a + r)
                if reject:
                    run = run + 1 if a == i else 0
                    if a == i and ((j == 0 and k >= 2) or j == free - 1 or run > cap):
                        ok = False
                        break
            if ok:
                break
        out += part + [i] * (m_k - n_k)
        k += 1
    return tuple(out[:depth])


def _reference_validate(spec, prefix):
    """The digit rule checked position by position; returns the message of
    the first violation, or None."""
    sp = spec.sp
    for pos, a in enumerate(prefix, start=1):
        j = bisect_left(sp.m, pos)
        if j < len(sp.m) and sp.n[j] < pos <= sp.m[j]:  # inside run j + 1
            bound = None
        else:
            bound = spec.B
        if bound is None and a != spec.i:
            return f"position {pos} must carry the run digit {spec.i}, got {a}"
        if bound is not None and not 1 <= a <= bound:
            return f"position {pos} must lie in 1..{bound}, got {a}"
    return None


def _reference_log_mass(spec, prefix):
    """measure_mass from full continuant tables and float(Fraction(q1, q))."""
    ctx = measure_context(spec)

    def s_of(k):
        return ctx.s_tilde(k).value

    def log_q(digits):
        return log_int(continuants(digits).qk(len(digits)))

    digits = tuple(prefix)
    lm, L, k = 0.0, len(digits), 1
    while True:
        m_prev, n_k, m_k = spec.sp.segments[k - 1]
        if L >= m_k:
            lm += -2.0 * s_of(k) * log_q(digits[m_prev:m_k])
            if L == m_k:
                return lm
            k += 1
            continue
        if L <= m_prev:
            return lm
        seg = digits[m_prev:L]
        if L > n_k:
            return lm + -2.0 * s_of(k) * log_q(seg + (spec.i,) * (m_k - L))
        if seg:
            t = continuants(seg)
            q, q1 = t.qk(len(seg)), t.qk(len(seg) - 1)
        else:
            q, q1 = 1, 0
        return lm + (-2.0 * s_of(k) * log_int(q) + ctx.stack(k).eval_log(n_k - L, float(Fraction(q1, q))))


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("reject", [True, False])
def test_sampler_matches_choice_reference(spec13, seed, reject):
    depth = spec13.sp.m[7]
    got = sample_measure(spec13, depth=depth, seed=seed, reject_accidental=reject).digits
    assert got == _reference_sample(spec13, depth, seed, reject)


def test_sampler_matches_choice_reference_b5():
    spec = CantorSpec(B=5, i=2, sp=construct_sequences(Fraction(1, 4), Fraction(1, 2), k_max=8))
    depth = spec.sp.m[5]
    for seed in (3, 11):
        assert sample_measure(spec, depth=depth, seed=seed).digits == _reference_sample(spec, depth, seed, True)


def _segment_stack(spec, k):
    """Segment k's stack built by transfer.segment_stack at the segment's root."""
    m_prev, n_k, m_k = spec.sp.segments[k - 1]
    return transfer.segment_stack(spec.B, spec.i, n_k - m_prev, m_k - n_k, measure_context(spec).s_tilde(k).value)


def _sample_with_stack(spec, k, st, depth):
    """sample_measure(spec, depth, seed 0, no rejection) on a fresh context
    whose segment k reads the stack st."""
    ctx = MeasureContext(spec)
    ctx._stacks[k] = st
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cantor, "measure_context", lambda spec: ctx)
        return sample_measure(spec, depth=depth, seed=0, reject_accidental=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("node", [0, 7])
def test_sampler_raises_on_non_finite_level(spec13, bad, node):
    st = _segment_stack(spec13, 2)
    st.levels[3][node] = bad  # one node of one level read by the free part of segment 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not finite"):
            st.digit_cdf(3, np.arange(1.0, spec13.B + 1))
        with pytest.raises(ValueError, match="not finite"):
            _sample_with_stack(spec13, 2, st, spec13.sp.m[1])


# ---------------------------------------------------------------------------
# the sampler's bracket table
# ---------------------------------------------------------------------------


def _table_spec(B, i):
    return CantorSpec(B=B, i=i, sp=construct_sequences(Fraction(1, 3), 1, k_max=8))


@pytest.mark.parametrize("reject", [True, False])
@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("B", [3, 5, 16])
def test_sampler_table_matches_forced_exact(monkeypatch, B, i, reject):
    # segments 1-3 have free parts no longer than their settling depth (no
    # table), segments 4-7 longer ones; the forced run leaves every cell
    # undecided, so every draw runs the exact path on the same u
    spec = _table_spec(B, i)
    depth = spec.sp.m[6]
    kept = [sample_measure(spec, depth=depth, seed=seed, reject_accidental=reject).digits for seed in (0, 1, 2)]
    stacks = [measure_context(spec).stack(k) for k in range(1, 8)]
    assert all("cdf_table" in vars(st) for st in stacks)  # the sampler read each stack's table
    assert [st.cdf_table is None for st in stacks] == [True] * 3 + [False] * 4
    table = transfer.SegmentStack.cdf_table  # the cached_property itself

    def undecided(self):
        t = table.__get__(self)
        return t and (array("d", [0.0]) * len(t[0]), array("d", [2.0]) * len(t[1]), *t[2:])

    monkeypatch.setattr(transfer.SegmentStack, "cdf_table", property(undecided))
    for seed, digits in zip((0, 1, 2), kept):
        assert sample_measure(spec, depth=depth, seed=seed, reject_accidental=reject).digits == digits


@pytest.mark.parametrize("B, i", [(3, 1), (5, 2), (16, 1)])
def test_cdf_table_encloses_exact_law(B, i):
    spec = _table_spec(B, i)
    rng = np.random.default_rng(B + 10 * i)
    for k in range(4, 9):
        st = _segment_stack(spec, k)
        K = len(st.levels) - 1
        lo, hi, cells, draws = st.cdf_table
        assert (cells, draws) == (transfer._CDF_CELLS, st.free - K - 1)
        lo, hi = (np.array(t).reshape(cells + 1, B - 1) for t in (lo, hi))
        assert (lo < hi).all() and (np.diff(lo, axis=1) >= 0).all() and (np.diff(hi, axis=1) >= 0).all()
        # random states, every cell end, and the states r = 0, 1/(B + 1), 1
        rs = list(rng.random(300)) + [c / cells for c in range(cells + 1)] + [0.0, 1.0 / (B + 1), 1.0]
        for r in rs:
            j = int(rng.integers(K + 1, st.free))
            ar = np.arange(1, B + 1, dtype=np.float64) + float(r)
            cdf = st.digit_cdf(j, ar)[:-1]  # the exact path's CDF
            row = int(r * cells)
            assert (lo[row] <= cdf).all() and (cdf <= hi[row]).all(), (k, r, j)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sampler_raises_on_non_finite_settled_level(spec13, bad):
    # levels[K], which the table and every draw past K read.  At an interior
    # node the unit interpolation row of x = 1 (r = 0) multiplies inf by 0,
    # and that NaN must raise the ValueError with no RuntimeWarning first;
    # the last node (x = 1) is read through the unit row itself
    for node in (3, -1):
        st = _segment_stack(spec13, 5)
        assert st.free > len(st.levels)  # segment 5 has draws past its settling depth
        st.levels[-1][node] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite"):
                st.digit_cdf(st.free - 1, np.arange(1.0, spec13.B + 1))
            with pytest.raises(ValueError, match="not finite"):
                _sample_with_stack(spec13, 5, st, spec13.sp.m[4])
        assert st.cdf_table is None


@pytest.mark.parametrize("B, i", [(3, 1), (5, 2), (16, 1), (16, 2)])
def test_sampler_table_decides_almost_every_draw(monkeypatch, B, i):
    spec = _table_spec(B, i)
    ctx = measure_context(spec)
    depth = spec.sp.m[6]
    sample_measure(spec, depth=depth, seed=99, reject_accidental=False)  # roots, stacks and tables
    stacks = {id(ctx.stack(k)) for k in range(1, 8)}
    exact = []
    level = transfer.SegmentStack.level

    def counted(self, j):
        if id(self) in stacks:  # the exact path reads one level per draw
            exact.append(j > len(self.levels) - 1)
        return level(self, j)

    monkeypatch.setattr(transfer.SegmentStack, "level", counted)
    seeds = range(6)
    for seed in seeds:
        sample_measure(spec, depth=depth, seed=seed, reject_accidental=False)
    fast = len(seeds) * sum(max(0, ctx.stack(k).free - len(ctx.stack(k).levels)) for k in range(1, 8))
    assert fast > 5000
    assert sum(exact) < 0.01 * fast  # undecided draws past the settling depth


def _corrupt(digits, pos, a):
    out = list(digits)
    out[pos - 1] = a
    return tuple(out)


def test_validate_prefix_names_first_bad_position(spec13):
    sp = spec13.sp
    d = sample_measure(spec13, depth=sp.m[7], seed=3).digits
    cases = []
    for k in (1, 7):
        m_prev = sp.m[k - 2] if k >= 2 else 0
        run_pos, free_pos = sp.n[k - 1] + 1, m_prev + 1
        cases += [
            _corrupt(d, run_pos, 2),  # wrong digit in a forced run
            _corrupt(d, free_pos, spec13.B + 1),  # free digit above B
            _corrupt(d, free_pos, 0),  # digit 0
            _corrupt(_corrupt(d, sp.m[k - 1], 3), free_pos, 0),  # two faults: the first one is named
        ]
    for prefix in cases:
        want = _reference_validate(spec13, prefix)
        assert want is not None
        with pytest.raises(Inadmissible) as exc:
            validate_prefix(spec13, prefix)
        assert str(exc.value) == want
    assert _reference_validate(spec13, d) is None
    validate_prefix(spec13, d)
    # with a start, only the positions past it are checked
    bad = _corrupt(_corrupt(d, sp.n[0] + 1, 2), sp.m[4], 3)
    for start in (0, sp.n[0], sp.n[0] + 1, sp.m[3], sp.m[4] - 1):
        with pytest.raises(Inadmissible) as exc:
            validate_prefix(spec13, bad, start)
        assert str(exc.value) == _reference_validate(spec13, d[:start] + bad[start:])
    validate_prefix(spec13, bad, sp.m[4])
    validate_prefix(spec13, bad, len(bad) + 5)


def test_local_dimension_series_matches_pointwise(spec13):
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=21).digits
    for prefix in (d, d[: spec13.sp.m[6] + 40]):
        want = tuple((m, local_dimension(spec13, prefix[:m])) for m in spec13.sp.m if m <= len(prefix))
        assert local_dimension_series(spec13, prefix) == want


def test_measure_mass_matches_continuant_reference(spec13):
    sp = spec13.sp
    d = sample_measure(spec13, depth=sp.m[7], seed=8).digits
    depths = [0, 1, sp.n[0], sp.m[0]]
    for k in (3, 7):
        depths += [sp.m[k - 2] + 5, sp.n[k - 1], sp.n[k - 1] + 3, sp.m[k - 1] - 1, sp.m[k - 1]]
    depths += [sp.n[7], sp.n[7] + 1, sp.m[7] - 1, sp.m[7]]
    for L in depths:
        prefix = d[:L]
        assert measure_mass(spec13, prefix).log_mass == _reference_log_mass(spec13, prefix)


def test_local_dimension_series_matches_continuant_reference(spec13):
    # masses and |I_{m_k}| from full continuant tables through every forced run, to m_8
    d = sample_measure(spec13, depth=spec13.sp.m[7], seed=8).digits
    want = []
    for m in spec13.sp.m[:8]:
        q = continuants(d[:m]).q
        want.append((m, _reference_log_mass(spec13, d[:m]) / -(log_int(q[-1]) + log_int(q[-1] + q[-2]))))
    assert local_dimension_series(spec13, d) == tuple(want)


@pytest.mark.parametrize("B", [3, 5])
def test_local_dimension_series_equals_reference_at_every_boundary(spec13, B):
    # each segment's free block applied to the running pair as one continuant matrix
    spec = CantorSpec(B=B, i=1, sp=spec13.sp, d=B + 1)
    sp = spec.sp
    d = sample_measure(spec, depth=sp.m[6], seed=31 + B, reject_accidental=False).digits
    for end in (sp.m[6], sp.n[6], sp.m[5] + 1):
        want = []
        for m in sp.m:
            if m <= end:
                q = continuants(d[:m]).q
                want.append((m, _reference_log_mass(spec, d[:m]) / -(log_int(q[-1]) + log_int(q[-1] + q[-2]))))
        assert local_dimension_series(spec, d[:end]) == tuple(want)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_run_continuants_compose_onto_any_prefix(i):
    rng = np.random.default_rng(i)
    for t in range(1, 61):
        ctx = MeasureContext(CantorSpec(B=i + 1, i=i, sp=SeqPair((2,), (2 + t,))))
        run = (i,) * t
        q2 = denominators((i,) * (t - 2))[1] if t >= 2 else 0
        assert ctx.run_continuants(1) == (q2, *denominators(run))
        for size in (0, 1, int(rng.integers(2, 40))):
            w = tuple(int(a) for a in rng.integers(1, 12, size))
            assert ctx.through_run(1, *denominators(w)) == denominators(w + run)
            # continued from the pair of earlier digits
            start = denominators(tuple(int(a) for a in rng.integers(1, 12, int(rng.integers(1, 30)))))
            assert ctx.through_run(1, *denominators(w, *start)) == denominators(w + run, *start)


def test_interp_matrix_unit_rows_at_nodes():
    grid = transfer.get_grid(transfer.DEFAULT_DEGREE)
    mid = grid.nodes[grid.degree // 2]  # 0.5 less one ulp
    assert (grid.nodes[0], grid.nodes[-1]) == (0.0, 1.0) and abs(mid - 0.5) < 1e-15
    pts = np.array([0.0, mid, 1.0, 0.5, 0.3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        M = grid.interp_matrix(pts)
        assert np.isfinite(grid.interp_matrix(pts[3:])).all()
    for row, j in zip(M[:3], (0, grid.degree // 2, grid.degree)):
        assert row.tolist() == np.eye(grid.degree + 1)[j].tolist()
    assert np.abs(M[3:].sum(axis=1) - 1.0).max() <= 1e-14
