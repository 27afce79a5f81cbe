"""One range rule per solver input, applied where the input enters, and
one size rule per built object, decided before the object is built.

The run digit i (cf_core.check_run_digit), the alphabet bound B
(transfer.check_alphabet) and the pressure exponent s (transfer.pressure)
each have one check that raises InputOutOfRange.  Every public entry that
takes the input refuses an out-of-range value with that check's message,
before it builds an array, scans digits or walks a chain.  So do the size
rules: a Cantor schedule's bit budget (cantor._schedule), the enumeration
table's leaf budget (dim_solver._fits_table) and the Monte Carlo sample
count (verify.McConfig).
"""

import math
import pathlib
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cfdim import cantor, dim_solver, exponents, transfer, verify
from cfdim.cf_core import log_tau, run_continuants, target
from cfdim.cli import main
from cfdim.dim_solver import SumKernelSpec
from cfdim.errors import InputOutOfRange

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfdim"
HALF = Fraction(1, 2)
SP = cantor.construct_sequences(Fraction(1, 3), 1, k_max=4)
MC = verify.McConfig(seed=1, samples=4, n_digits=100)


@pytest.fixture
def no_chain(monkeypatch):
    """Fail the test if a Monte Carlo digit chain is built."""

    def refuse(*args, **kwargs):
        raise AssertionError("a digit chain was built")

    monkeypatch.setattr(verify, "LebesgueDigitChain", refuse)


RUN_DIGIT_ENTRIES = {
    "predim_hat": lambda i: dim_solver.predim_hat(3, HALF, i, 4),
    "predim_s": lambda i: dim_solver.predim_s(3, HALF, i, 4),
    "predim_tilde": lambda i: dim_solver.predim_tilde(3, i, (8, 4)),
    "spectral_dim": lambda i: dim_solver.spectral_dim(3, HALF, i),
    "dim_full": lambda i: dim_solver.dim_full(HALF, i),
    "theorem_dims": lambda i: dim_solver.theorem_dims("nu_level", nu=1, i=i),
    "log_tau": log_tau,
    "target": target,
    "run_continuants": lambda i: run_continuants(i, 3),
    "decompose": lambda i: exponents.decompose([1, 2, 1, 1], i),
    "mc_nu_zero": lambda i: verify.mc_nu_zero(MC, i),
    "mc_laws": lambda i: verify.mc_laws(MC, i),
    "CantorSpec": lambda i: cantor.CantorSpec(B=3, i=i, sp=SP),
}


@pytest.mark.parametrize("entry", RUN_DIGIT_ENTRIES)
def test_run_digit_below_1_is_refused_with_one_message(entry, no_chain):
    with pytest.raises(InputOutOfRange, match=r"^need i >= 1, got 0$"):
        RUN_DIGIT_ENTRIES[entry](0)


@pytest.mark.parametrize("entry", RUN_DIGIT_ENTRIES)
def test_run_digit_not_an_integer_is_refused_with_one_message(entry, no_chain):
    # i = 1.5 once gave run_continuants(1.5, 3) = (1.5, 3.25, 6.375) and spectral_dim 0.3663
    with pytest.raises(InputOutOfRange, match=r"^need an integer i, got 1\.5$"):
        RUN_DIGIT_ENTRIES[entry](1.5)


def test_numpy_integers_pass_the_run_digit_and_alphabet_rules():
    spec = cantor.CantorSpec(B=np.int64(3), i=np.int32(1), sp=SP)
    assert transfer.segment_stack(np.int16(3), np.int64(2), 5, 3, 0.5).B == 3
    assert log_tau(np.uint8(1)) == log_tau(1) and (spec.B, spec.i) == (3, 1)


ALPHABET_ENTRIES = {
    "transfer_matrix": lambda B: transfer.transfer_matrix(B, 0.5),
    "pressure": lambda B: transfer.pressure(B, 0.5),
    "pressure_at_0": lambda B: transfer.pressure(B, 0.0),
    "spectral_pressure": lambda B: dim_solver.spectral_pressure(B, 0.5),
    "spectral_dim": lambda B: dim_solver.spectral_dim(B, HALF, 1),
    "spectral_dim_degenerate": lambda B: dim_solver.spectral_dim(B, 1, 1),
    "segment_stack": lambda B: transfer.segment_stack(B, 1, 5, 3, 0.5),
    "segment_stack_no_free": lambda B: transfer.segment_stack(B, 1, 0, 3, 0.5),
    "segment_log_sum": lambda B: transfer.segment_log_sum(B, 1, 5, 3, 0.5),
    "sum_power": lambda B: dim_solver.sum_power(B, SumKernelSpec(free_length=1), 0.5),
    "predim_hat": lambda B: dim_solver.predim_hat(B, HALF, 1, 1),
    "CantorSpec": lambda B: cantor.CantorSpec(B=B, i=1, sp=SP),
}


def _peak_bytes_of_refusal(call, match):
    tracemalloc.start()
    try:
        with pytest.raises(InputOutOfRange, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("B", [0, 2**16, 2.5])
@pytest.mark.parametrize("entry", ALPHABET_ENTRIES)
def test_alphabet_bound_out_of_range_is_refused_before_any_array(entry, B):
    # B = 2^16 once asked for 35.6 MB of weights before the cap was checked;
    # B = 2.5 once gave the B = 3 sums, pressure log 2.5 and a TypeError
    match = f"^alphabet bound must be (>= 1|<= 4096|an integer), got {re.escape(str(B))}$"
    peak = _peak_bytes_of_refusal(lambda: ALPHABET_ENTRIES[entry](B), match)
    assert peak < 2**20


@pytest.mark.parametrize("s", [-0.5, math.nan, math.inf, 4.5])
@pytest.mark.parametrize("pressure", [transfer.pressure, dim_solver.spectral_pressure])
def test_pressure_exponent_out_of_range_is_refused(pressure, s):
    with pytest.raises(InputOutOfRange, match=r"^s must be (<= 4\.0|finite and >= 0), got "):
        pressure(2, s)


def test_verify_nu_zero_with_run_digit_0_exits3_before_any_chain(no_chain, capsys):
    assert main(["verify", "--suite", "nu_zero", "--i", "0"]) == 3
    assert capsys.readouterr().err == "range error: need i >= 1, got 0\n"


def test_cantor_with_huge_alphabet_exits3_before_any_array(capsys):
    argv = ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "262144", "--depth-k", "2"]
    tracemalloc.start()
    try:
        assert main(argv) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert capsys.readouterr().err == "range error: alphabet bound must be <= 4096, got 262144\n"


def test_no_second_rule_for_run_digit_alphabet_or_exponent():
    assert not hasattr(dim_solver, "_check_run_digit")
    pattern = re.compile(r"raise ValueError\(.*(\bi must|need i\b|\bB must|\bs must)")
    for path in sorted(SRC.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            assert not pattern.search(line), f"{path.name}:{n}: {line.strip()}"


SCHEDULE_BUILDS = {
    "nu_hat_1/3": lambda k_max: cantor.construct_sequences(Fraction(1, 3), 1, k_max=k_max),
    "nu_hat_0": lambda k_max: cantor.construct_sequences(0, 1, k_max=k_max),
    "runlength": lambda k_max: cantor.construct_sequences_runlength(Fraction(1, 3), HALF, k_max=k_max),
}
SCHEDULE_REFUSAL = "k_max = {} gives a schedule of more than 2^26 bits; lower k_max"


def _result_seconds_and_peak_bytes(call):
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        result = call()
        return result, time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "build,k_max", [("nu_hat_1/3", 10**6), ("runlength", 10**6), ("nu_hat_0", 13), ("nu_hat_0", 16)]
)
def test_schedule_past_the_bit_budget_is_refused_before_it_is_built(build, k_max):
    # the parent built every run: 82 MB at k_max = 20 000 of nu_hat = 1/3, quadratic in k_max
    def refused():
        with pytest.raises(InputOutOfRange, match=f"^{re.escape(SCHEDULE_REFUSAL.format(k_max))}$"):
            SCHEDULE_BUILDS[build](k_max)

    _, seconds, peak = _result_seconds_and_peak_bytes(refused)
    assert seconds < 1.0 and peak < 16 * 2**20


def test_cantor_schedule_past_the_bit_budget_exits3_before_it_is_built(capsys):
    argv = ["cantor", "--nu-hat", "1/3", "--nu", "1", "--k-max", "1000000"]
    rc, seconds, peak = _result_seconds_and_peak_bytes(lambda: main(argv))
    assert rc == 3 and seconds < 1.0 and peak < 16 * 2**20
    assert capsys.readouterr().err == f"range error: {SCHEDULE_REFUSAL.format(10**6)}\n"


@pytest.mark.parametrize("build,k_max", [("nu_hat_0", 12), ("nu_hat_1/3", 5000)])
def test_schedule_within_the_bit_budget_is_built(build, k_max):
    sp = SCHEDULE_BUILDS[build](k_max)
    assert sp.k_max == k_max
    assert sum(entry.bit_length() for entry in sp.n + sp.m) <= cantor._MAX_SCHEDULE_BITS


@pytest.mark.parametrize("limit", [2**20, 3**9])
def test_table_predicate_equals_the_exact_power(limit, monkeypatch):
    # read when called: a test that lowers the limit lowers the predicate's
    monkeypatch.setattr(dim_solver, "_TABLE_LIMIT", limit)
    for B in range(1, 4097):
        for free in range(41):
            assert dim_solver._fits_table(B, free) == (B**free <= limit), (B, free)


@pytest.mark.parametrize("n", [10**4, 10**7])
def test_enumeration_past_the_table_is_refused_without_the_power(n):
    # the parent formatted 3^n into its message: past the int-to-str limit a ValueError
    t0 = time.perf_counter()
    with pytest.raises(InputOutOfRange, match=rf"^3\^{n} leaves exceed budget 1048576$"):
        dim_solver.predim_hat(3, 0, 1, n)
    assert time.perf_counter() - t0 < 0.01


def test_sample_count_past_the_cap_is_refused_before_any_chain(no_chain, capsys):
    # a chunk holds about 9 kB per sample: 10^6 samples once asked for about 9 GB
    verify.McConfig(seed=1, samples=4096, n_digits=2)
    peak = _peak_bytes_of_refusal(
        lambda: verify.McConfig(seed=1, samples=4097, n_digits=2), r"^samples must be <= 4096, got 4097$"
    )
    assert peak < 2**20
    assert main(["verify", "--suite", "runlength", "--samples", "4097", "--n", "2"]) == 3
    assert capsys.readouterr().err == "range error: samples must be <= 4096, got 4097\n"
