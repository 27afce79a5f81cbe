"""CLI behavior: schemas, reproducibility, exit codes, golden files."""

import argparse
import importlib.util
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import cfdim
from cfdim import cli, errors
from cfdim.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
MAKE_GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_goldens.py"
needs_str_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="this Python has no int-to-str digit limit"
)


def run_cli(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_expand_surd(capsys):
    rc, out = run_cli(["expand", "--surd", "sqrt:2", "--n", "10"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["digits"] == [2] * 10
    assert payload["convergents"][0] == {"k": 1, "p": "1", "q": "2"}


def test_expand_rational_exhausted(capsys):
    rc, out = run_cli(["expand", "--rational", "5/8", "--n", "10"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["digits"] == [1, 1, 1, 2]
    assert payload["exhausted"] is True


def test_expand_parse_error(capsys):
    assert main(["expand", "--rational", "nonsense", "--n", "3"]) == 2
    capsys.readouterr()


def test_expand_range_error(capsys):
    assert main(["expand", "--rational", "3/2", "--n", "3"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--decimal", "0.414213562373", "--n", "3", "--precision", "0"],
        ["--decimal", "0.414213562373", "--n", "3", "--precision", "10"],
        ["--rational", ""],
    ],
)
def test_expand_rejects_budget_below_64_bits_and_empty_input(argv, capsys):
    assert main(["expand", *argv]) == 3
    capsys.readouterr()


def test_expand_interval_lengths_match_basic_interval(capsys):
    from cfdim.cf_core import basic_interval

    rng = random.Random(11)
    for _ in range(20):
        q = rng.randint(2, 10 ** rng.randint(1, 80))
        p = rng.randint(1, q - 1)
        rc, out = run_cli(["expand", "--rational", f"{p}/{q}", "--n", "200"], capsys)
        assert rc == 0
        payload = json.loads(out)
        digits = payload["digits"]
        assert [row["k"] for row in payload["intervals"]] == list(range(1, len(digits) + 1))
        for row in payload["intervals"]:
            length = basic_interval(digits[: row["k"]]).length
            assert row["length"] == f"{length.numerator}/{length.denominator}"
            assert row["length_float"] == float(length)


def test_dim_conventions(capsys):
    rc, out = run_cli(["dim", "--kind", "E_hat", "--nu-hat", "1", "--i", "1"], capsys)
    assert rc == 0
    assert json.loads(out)["estimate"]["value"] == 0.5
    rc, out = run_cli(["dim", "--kind", "F", "--alpha", "0.5"], capsys)
    assert json.loads(out)["estimate"]["value"] == 0.5
    rc, out = run_cli(["dim", "--kind", "E_joint", "--nu-hat", "0.9", "--nu", "1"], capsys)
    assert json.loads(out)["estimate"]["value"] == 0.0


def test_dim_curve_b_sweep_nondecreasing(capsys):
    rc, out = run_cli(["dim", "--kind", "nu_level", "--nu", "1", "--i", "1", "--curve", "B=2..6"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,value,lo,hi"
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    assert vals == sorted(vals)


def test_dim_curve_b_sweep_forces_run_digit_one_for_run_length_kinds(capsys):
    # F counts runs of the digit 1, as its non-curve value does, so --i is ignored
    curve = ["dim", "--kind", "F", "--alpha", "1/4", "--curve", "B=2..3"]
    rc1, out1 = run_cli([*curve, "--i", "1"], capsys)
    rc2, out2 = run_cli([*curve, "--i", "2"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert len(out1.strip().split("\n")) == 3


@pytest.mark.parametrize("kind_params", [["nu_level", "--nu", "inf"], ["E_hat", "--nu-hat", "1", "--i", "3"]])
def test_dim_curve_b_sweep_at_argument_one_prints_the_finite_alphabet_root(kind_params, capsys):
    # at argument 1 every finite-alphabet root is exactly 0; only the B = infinity value is 1/2
    rc, out = run_cli(["dim", "--kind", *kind_params, "--curve", "B=2..3"], capsys)
    assert rc == 0
    assert out == "param,value,lo,hi\n2.0,0.0,0.0,0.0\n3.0,0.0,0.0,0.0\n"


@pytest.mark.parametrize("params", [["--nu-hat", "-1", "--curve", "B=3..2"], ["--curve", "B=2..1"]])
def test_dim_curve_b_checks_the_argument_on_an_empty_range(params, capsys):
    # the theorem argument is computed once, before any point, so an empty sweep still checks it
    rc = main(["dim", "--kind", "U_set", *params])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == "" and err.startswith("range error: nu_hat")


@needs_str_digit_limit
def test_expand_prints_integers_past_the_str_digit_limit(capsys):
    # q_n (q_n + q_{n-1}) of sqrt(2) - 1 = [0; 2, 2, ...] passes Python's 4 300-digit limit at n = 5617
    n = 5617
    rc, out = run_cli(["expand", "--surd", "sqrt:2", "--n", str(n)], capsys)
    assert rc == 0
    payload = json.loads(out)
    q_prev, q = 1, 2
    for _ in range(n - 1):
        q_prev, q = q, 2 * q + q_prev
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert len(str(q * (q + q_prev))) > old
        assert payload["convergents"][-1] == {"k": n, "p": str(q_prev), "q": str(q)}
        assert payload["intervals"][-1]["length"] == f"1/{q * (q + q_prev)}"
    finally:
        sys.set_int_max_str_digits(old)


@needs_str_digit_limit
def test_cantor_schedule_too_long_to_print_exits3_before_sampling(monkeypatch, capsys):
    # nu-hat = 0: n_k = 2 * 2^(2^(2k)) + 2 has 4 933 digits at k = 7, five million at k = 12
    base = ["cantor", "--nu-hat", "0", "--nu", "1", "--depth-k", "1"]
    rc, out = run_cli([*base, "--k-max", "6"], capsys)
    assert rc == 0 and json.loads(out)["depth"] == 69

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the schedule was checked")

    monkeypatch.setattr(cli.cantor, "sample_measure", no_sampling)
    for k_max in ([], ["--k-max", "7"]):
        rc = main([*base, *k_max])
        out, err = capsys.readouterr()
        assert rc == 3
        assert out == "" and err.startswith("range error: --k-max")


_CAPPED_CANTOR = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from cfdim.cli import main
sys.exit(main(["cantor", "--nu-hat", "0", "--nu", "1", "--k-max", "16"]))
"""


def test_cantor_schedule_past_the_entry_bit_cap_exits3_before_building_it():
    # n_13 of the nu-hat = 0 schedule has 2^26 bits, n_16 2^32; the child caps its own address space
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CANTOR], capture_output=True, text=True, timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "range error: k_max = 16 gives a schedule of more than 2^26 bits; lower k_max\n"


def test_cantor_depth_past_the_sampler_cap_exits3_before_any_solve(monkeypatch, capsys):
    # --depth-k 3 of this schedule is m_3 = 73 786 976 294 838 206 469 digits
    def no_context(spec):
        raise AssertionError("reached measure_context")

    monkeypatch.setattr(cli.cantor, "measure_context", no_context)
    rc = main(["cantor", "--nu-hat", "0", "--nu", "1", "--k-max", "6", "--depth-k", "3"])
    out, err = capsys.readouterr()
    assert rc == 3
    assert out == "" and err == "range error: depth 73786976294838206469 beyond the sampler's cap of 2^24 digits\n"


def test_cantor_samples_admissible(capsys):
    rc, out = run_cli(
        ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "3",
         "--sample", "5", "--emit-digits", "10000", "--seed", "4"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["samples"]) == 5
    from fractions import Fraction

    from cfdim.cantor import CantorSpec, construct_sequences, validate_prefix

    spec = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=12))
    for row in payload["samples"]:
        validate_prefix(spec, row["digits"])


def test_exponents_roundtrip_with_cantor(tmp_path, capsys):
    from fractions import Fraction

    from cfdim.cantor import CantorSpec, construct_sequences, insert_map, sample_measure

    spec = CantorSpec(B=3, i=1, sp=construct_sequences(Fraction(1, 3), 1, k_max=8), d=4)
    d = sample_measure(spec, depth=spec.sp.m[5], seed=3)
    res = insert_map(spec, d.digits)
    path = tmp_path / "x.digits"
    path.write_text(" ".join(str(a) for a in res.digits.digits))
    rc, out = run_cli(["exponents", "--input", str(path), "--target-i", "1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert abs(payload["nu_hat_est"] - 1 / 3) <= 0.15
    assert abs(payload["nu_est"] - 1.0) <= 0.15


def test_runlength_command(tmp_path, capsys):
    path = tmp_path / "d.digits"
    path.write_text("1 2 2 3 2 2 2 1")
    rc, out = run_cli(["runlength", "--input", str(path), "--emit-profile"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["R_final"] == 3
    assert payload["R"] == [1, 1, 2, 2, 2, 2, 3, 3]


def test_digit_file_bad_token_exit2(tmp_path, capsys):
    path = tmp_path / "d.digits"
    path.write_text("1, 2 x3 2")
    assert main(["runlength", "--input", str(path)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["exponents", "--target-i", "9"],  # the digit 9 never occurs
        ["runlength", "--tail-fraction", "0.01"],  # the tail window of 9 digits is empty
        ["exponents", "--N", "0"],
        ["exponents", "--N", "-5"],
        ["runlength", "--tail-fraction", "0"],
        ["runlength", "--tail-fraction", "1.5"],
        ["runlength", "--tail-fraction", "nan"],
    ],
)
def test_digit_file_range_errors_exit3(argv, tmp_path, capsys):
    path = tmp_path / "d.digits"
    path.write_text("1 2 1 1 2 1 1 1 2")  # three record 1-runs: estimates exist over the whole file
    assert main([*argv, "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("range error: ")


@pytest.mark.parametrize("command", ["runlength", "exponents"])
@pytest.mark.parametrize(
    "text",
    [
        "",  # no digits
        " \t\r\n, ,\n",  # separators only
        "1 2 3 99999999999999999999999 1 1",  # above 2^63 - 1
        "1 2 9223372036854775808 1",  # 2^63, one past the largest int64
        "0 3 2 1 1",  # partial quotients are positive
        "1 2 000 1 1",
    ],
)
def test_digit_file_content_range_errors_exit3(command, text, tmp_path, capsys):
    path = tmp_path / "d.digits"
    path.write_text(text)
    assert main([command, "--input", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("range error: ")


@pytest.mark.parametrize("command", ["runlength", "exponents"])
@pytest.mark.parametrize(
    "text",
    ["1 +5 1", "1 -3 2 1", "0 -3 2 1", "1 2.5 1", "1 1_000 1", "1 1e3 1", "1 x 1", "1 ٣ 1", "1 ３ 1",
     "1\x002 1", "1\xa02 1", "1;2 1"],
    ids=["plus", "minus", "zero-and-minus", "point", "underscore", "exponent", "letter", "arabic-indic-digit",
         "fullwidth-digit", "nul", "no-break-space", "semicolon"],
)
def test_digit_file_bytes_outside_the_grammar_exit2(command, text, tmp_path, capsys):
    path = tmp_path / "d.digits"
    path.write_text(text, encoding="utf-8")
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: ")


def _oracle(text):
    return list(map(int, text.replace(",", " ").split()))


@pytest.mark.parametrize("seed", range(8))
def test_digit_file_reader_matches_int_split_oracle(seed, tmp_path):
    from cfdim.cli import _read_digit_file

    rng = random.Random(seed)
    top = 2**63 - 1
    values = [
        rng.choice([rng.randint(1, 9), rng.randint(1, 10**6), rng.randint(10**17, 10**18 - 1),
                    rng.randint(10**18, top), top - rng.randint(0, 5)])
        for _ in range(rng.randint(1, 300))
    ]
    seps = [" ", "\t", "\r\n", ",", " , ", "\n\n", "\t,\r\n"]
    toks = ["0" * rng.choice([0, 0, 1, 3, 20]) + str(v) for v in values]
    body = "".join(t + rng.choice(seps) for t in toks)
    text = rng.choice(["", " ", "\r\n", ",", "\t"]) + (body if seed % 2 else body.rstrip(" \t\r\n,"))
    path = tmp_path / "d.digits"
    path.write_bytes(text.encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = _read_digit_file(str(path))
    assert a.dtype == np.int64
    assert a.tolist() == _oracle(text) == values


@pytest.mark.parametrize("tok", ["9223372036854775808", "18446744073709551617", "99999999999999999999",
                                 "0009223372036854775808", "1" * 5000])
def test_digit_file_reader_overflow_is_never_clamped(tok, tmp_path):
    from cfdim.cli import _read_digit_file
    from cfdim.errors import Overflow

    path = tmp_path / "d.digits"
    path.write_text(f"1 {tok} 2")
    with pytest.raises(Overflow):
        _read_digit_file(str(path))
    path.write_text(f"1 {'0' * 30}9223372036854775807 2")
    assert _read_digit_file(str(path)).tolist() == [1, 2**63 - 1, 2]


def test_parser_reuse_prints_the_bytes_of_a_fresh_process(tmp_path, capsys):
    # one argparse tree serves every call in a process: no flag or default may leak between calls
    from cfdim.cli import build_parser

    assert build_parser() is build_parser()
    path = tmp_path / "d.digits"
    path.write_text("1 2 1 1 2 1 1 1 2 2 1 1 1 1")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cfdim.__file__).parents[1])}
    for argv in (["runlength", "--emit-profile"], ["runlength"], ["exponents", "--N", "5"], ["exponents"]):
        argv = [*argv, "--input", str(path)]
        rc, out = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "cfdim.cli", *argv], env=env, capture_output=True, text=True)
        assert (rc, out) == (fresh.returncode, fresh.stdout)
        assert rc == 0


@pytest.mark.parametrize("kind,params", [("F", ["--alpha", "1/4"]), ("FG", ["--alpha", "1/4", "--beta", "1/2"])])
def test_dim_run_length_kinds_echo_the_run_digit_they_use(kind, params, capsys):
    argv = ["dim", "--kind", kind, *params]
    rc1, out1 = run_cli([*argv, "--i", "2"], capsys)
    rc2, out2 = run_cli([*argv, "--i", "1"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2
    config = json.loads(out1)["config"]
    assert config["i"] == 1
    rc3, out3 = run_cli(config["argv"], capsys)
    assert rc3 == 0
    assert out3 == out1


DIM_PARAMS = {
    "U_set": ["--nu-hat", "1/2"],
    "E_hat": ["--nu-hat", "1/2"],
    "E_joint": ["--nu-hat", "1/3", "--nu", "1"],
    "nu_level": ["--nu", "1"],
    "FG": ["--alpha", "1/4", "--beta", "1/2"],
    "F": ["--alpha", "1/4"],
}
CANTOR = ["cantor", "--nu-hat", "1/3", "--nu", "1", "--depth-k", "2"]
E_HAT = ["dim", "--kind", "E_hat", "--nu-hat", "1/2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "runlength", "--samples", "0", "--n", "10"],
        ["verify", "--suite", "nu_zero", "--samples", "0", "--n", "10"],
        ["expand", "--rational", "5/8", "--n", "0"],
        ["expand", "--surd", "sqrt:2", "--n", "-1"],
        *(
            ["cantor", "--nu-hat", "1/3", "--nu", "1", "--k-max", "4", "--depth-k", k]
            for k in ("0", "-1", "5")  # 1..k_max is the range
        ),
        *(
            pytest.param(["dim", "--kind", kind, *params, "--i", i, "--B-schedule", "8,16,32"], id=f"dim-{kind}-i{i}")
            for kind, params in DIM_PARAMS.items()
            for i in ("0", "-1")
        ),
        pytest.param(["dim", "--kind", "nu_level", "--nu", "1", "--i", "0", "--curve", "B=2..3"], id="dim-curve-B-i0"),
        pytest.param(["dim", "--kind", "F", "--alpha", "1/4", "--i", "0", "--curve", "alpha=0.1..0.2:2"],
                     id="dim-curve-alpha-i0"),
        pytest.param([*CANTOR, "--i", "0"], id="cantor-i0"),
        pytest.param(["dim", "--kind", "nu_level", "--nu", "1", "--curve", "B=0..2"], id="curve-B-below-1"),
        pytest.param(["dim", "--kind", "nu_level", "--nu", "1", "--curve", "nu=0.1..2:-3"], id="curve-count-below-0"),
        pytest.param(["dim", "--kind", "nu_level", "--nu", "1", "--curve", "B=4097..4097"], id="curve-B-above-cap"),
        pytest.param(["dim", "--kind", "nu_level", "--nu", "1", "--B-schedule", "8,4097"], id="B-schedule-above-cap"),
        pytest.param([*CANTOR, "--sample", "-1"], id="cantor-sample-below-0"),
        pytest.param([*CANTOR, "--emit-digits", "-5"], id="cantor-emit-digits-below-0"),
        pytest.param([*CANTOR, "--seed", "-1"], id="cantor-seed-below-0"),
        pytest.param(["verify", "--suite", "lemmas", "--seed", "-1"], id="verify-seed-below-0"),
        pytest.param(["dim", "--kind", "F", "--alpha", "inf"], id="F-alpha-inf"),
        pytest.param(["dim", "--kind", "FG", "--alpha", "1/4", "--beta", "inf"], id="FG-beta-inf"),
        pytest.param(["dim", "--kind", "U_set", "--nu-hat=-1e999"], id="U_set-nu-hat-minus-inf"),
        pytest.param(["dim", "--kind", "nu_level", "--nu=-1e999"], id="nu_level-nu-minus-inf"),
        pytest.param(["cantor", "--nu-hat", "1/3", "--nu", "inf"], id="cantor-nu-inf"),
        *(
            pytest.param(["expand", "--surd", surd, "--n", "3"], id=f"expand-surd-{surd}")
            for surd in ("sqrt:-3", "sqrt:-3,0,1,1", "sqrt:0", "sqrt:4")  # the radicand must be a positive non-square
        ),
    ],
)
def test_parameter_range_errors_exit3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("range error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--kind", "nu_level", "--nu=-inf"],
        ["dim", "--kind", "U_set", "--nu-hat=-Infinity"],
        ["cantor", "--nu-hat", "1/3", "--nu=-inf", "--depth-k", "2"],
        ["cantor", "--nu-hat=-INF", "--nu", "1", "--depth-k", "2"],
    ],
)
def test_negative_infinity_in_any_spelling_exits3(argv, capsys):
    # -inf was a parse error (exit 2) while -1e999, the same value, was a range error
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("range error: ")


@pytest.mark.parametrize("spelling", ["+inf", "Inf", "INFINITY", "+Infinity"])
@pytest.mark.parametrize("argv", [["dim", "--kind", "U_set", "--nu-hat="], ["dim", "--kind", "nu_level", "--nu="]])
def test_signed_or_capitalized_inf_gives_the_bytes_of_inf(argv, spelling, capsys):
    *head, flag = argv
    assert run_cli([*head, f"{flag}{spelling}"], capsys) == run_cli([*head, f"{flag}inf"], capsys)


def test_negative_infinity_echoes_with_its_sign(capsys):
    # U_set reads no nu, so -inf reaches the echo, which read "inf" before
    rc, out = run_cli(["dim", "--kind", "U_set", "--nu-hat", "0", "--nu=-inf"], capsys)
    assert rc == 0 and json.loads(out)["config"]["nu"] == "-inf"


@pytest.mark.parametrize("value", ["--nu=-inf", "--nu=-1/2", "--alpha=-0.5"])
def test_negative_value_echo_reruns_byte_identical(value, capsys):
    # U_set reads neither value; the echo writes it as one --flag=value token,
    # since argparse reads a separate "-inf" as a flag and exits 2
    rc1, out1 = run_cli(["dim", "--kind", "U_set", "--nu-hat", "0", value], capsys)
    echoed = json.loads(out1)["config"]["argv"]
    assert rc1 == 0 and value in echoed
    assert run_cli(echoed, capsys) == (0, out1)


@pytest.mark.parametrize("surd", ["sqrt:2,1", "sqrt:2,1,1", "sqrt:2,0,1,1,9", "sqrt:2,x"])
def test_expand_surd_field_count_exits2(surd, capsys):
    # sqrt:d or sqrt:d,u,v,w; any other field count is a parse error
    assert main(["expand", "--surd", surd, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: ")


def test_b_schedule_out_of_range_exits3_and_malformed_exits2(capsys):
    for schedule, code in (("8,8,16", 3), ("0,1,2", 3), ("8,x", 2)):  # not increasing, a bound below 1, not an int
        assert main([*E_HAT, "--B-schedule", schedule]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("range error: " if code == 3 else "parse error: ")


@pytest.mark.parametrize(
    "kind, params",
    # the last two never reach the solver: the convention and zero branches
    [*DIM_PARAMS.items(), ("E_hat", ["--nu-hat", "0"]), ("E_hat", ["--nu-hat", "inf"])],
    ids=[*DIM_PARAMS, "E_hat-convention", "E_hat-zero-branch"],
)
def test_b_schedule_checked_for_every_kind(kind, params, capsys):
    assert main(["dim", "--kind", kind, *params, "--B-schedule", "8,8,16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("range error: ")


@pytest.mark.parametrize(
    "kind, params, curve",
    [
        ("nu_level", ["--nu", "1"], "nu-hat=1..2"),
        ("E_hat", ["--nu-hat", "1/2"], "nu=0.1..0.2:2"),
        ("F", ["--alpha", "1/4"], "i=1..2"),  # F fixes the run digit at 1
        ("FG", ["--alpha", "1/4", "--beta", "1/2"], "x=1..2"),
    ],
)
def test_dim_curve_name_outside_the_kind_exits2(kind, params, curve, capsys):
    assert main(["dim", "--kind", kind, *params, "--curve", curve]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: ")


@pytest.mark.parametrize("curve", ["nu=1..", "nu=1", "nu=..2", "nu="])
def test_dim_curve_without_both_endpoints_exits2(curve, capsys):
    assert main(["dim", "--kind", "nu_level", "--nu", "1", "--curve", curve]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("parse error: cannot parse curve")


def test_dim_curve_count_endpoints_parse_like_parameter_flags(capsys):
    # "1/2" reads as --alpha 1/2 does, so both spellings sweep the same points
    curve = ["dim", "--kind", "F", "--B-schedule", "4,8,16", "--curve"]
    rc1, out1 = run_cli([*curve, "alpha=0..1/2:3"], capsys)
    rc2, out2 = run_cli([*curve, "alpha=0..0.5:3"], capsys)
    assert rc1 == rc2 == 0
    assert out1 == out2 and out1.splitlines()[1:4:2] == ["0.0,1.0,1.0,1.0", "0.5,0.5,0.5,0.5"]


def test_dim_curve_count_points_are_exact_rationals(capsys):
    # k/22 as a rational, not as np.linspace's float: 5/22 prints 0.22727272727272727
    rc, out = run_cli(["dim", "--kind", "U_set", "--curve", "nu_hat=0..1:23", "--B-schedule", "4,8"], capsys)
    assert rc == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == [repr(float(Fraction(k, 22))) for k in range(23)]


@pytest.mark.parametrize("count, params", [("1", ["0.5"]), ("0", [])])
def test_dim_curve_count_one_gives_lo_and_zero_gives_none(count, params, capsys):
    rc, out = run_cli(["dim", "--kind", "nu_level", "--curve", f"nu=1/2..4:{count}"], capsys)
    assert rc == 0
    assert [row.split(",")[0] for row in out.splitlines()] == ["param", *params]


@pytest.mark.parametrize("curve", ["nu=1..inf:3", "nu=inf..1:2"])
def test_dim_curve_count_with_an_infinite_endpoint_exits3_before_any_point(curve, monkeypatch, capsys):
    def no_point(*args, **kwargs):
        raise AssertionError("computed a point before the endpoints were checked")

    monkeypatch.setattr(cli.dim_solver, "theorem_dims", no_point)
    assert main(["dim", "--kind", "nu_level", "--curve", curve]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("range error: ")


@pytest.mark.parametrize("curve", ["B=2..3:3", "B=5/2..3:1", "B=2..7/2:4"])
def test_dim_curve_b_with_a_non_integer_point_exits3_before_any_point(curve, monkeypatch, capsys):
    # B=2..3:3 once exited 0 and printed the row of B = 5/2 with the B = 2 value
    def no_point(*args, **kwargs):
        raise AssertionError("computed a point before the points were checked")

    monkeypatch.setattr(cli.dim_solver, "spectral_dim", no_point)
    monkeypatch.setattr(cli.dim_solver, "theorem_dims", no_point)
    assert main(["dim", "--kind", "nu_level", "--nu", "1", "--curve", curve]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "range error: --curve B points must be integers, got 5/2\n"


def test_dim_curve_b_count_over_integers_prints_the_rows_of_the_plain_range(capsys):
    rc, plain = run_cli(["dim", "--kind", "nu_level", "--nu", "1", "--curve", "B=2..6"], capsys)
    rows = plain.splitlines(keepends=True)
    assert rc == 0 and len(rows) == 6
    for curve, want in (("B=2..6:5", rows), ("B=2..6:3", rows[:1] + rows[1::2]), ("B=6..6:1", rows[:1] + rows[-1:])):
        assert run_cli(["dim", "--kind", "nu_level", "--nu", "1", "--curve", curve], capsys) == (0, "".join(want))


@pytest.mark.parametrize(
    "params", [["--nu-hat", "1/3", "--nu", "1", "--k-max", "0"], ["--nu-hat", "1/3", "--nu", "1", "--k-max", "-2"],
               ["--alpha", "1/4", "--beta", "1/2", "--k-max", "0"]],
)
def test_cantor_schedule_without_a_run_exits3(params, capsys):
    assert main(["cantor", *params]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "range error: k_max must be >= 1: the schedule has no run\n"


@pytest.mark.parametrize("flag", ["--d", "--depth"])
def test_unknown_or_abbreviated_flag_exits2(flag, capsys):
    # no prefix matching: neither the removed --d nor --depth is read as --depth-k
    with pytest.raises(SystemExit) as exc:
        main(["cantor", "--nu-hat", "1/3", "--nu", "1", flag, "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_parameter_with_zero_denominator_exits2(capsys):
    # argparse rejects the text before any command runs
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--kind", "F", "--alpha", "1/0"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# the exit code of each package error; None: it propagates out of main (an
# uncaught InsufficientBlocks is the known exit-1 traceback of docs/formats.md)
EXIT_BY_ERROR = {
    errors.InputOutOfRange: 3,
    errors.Overflow: 3,
    errors.Exhausted: 3,
    errors.Inadmissible: 3,
    errors.NoConvergence: 3,
    errors.InsufficientBlocks: None,
}


def test_every_package_error_has_its_exit_code(monkeypatch, capsys):
    # a new error class must be added here, with its exit code, rather than
    # fall through main to a traceback
    assert set(errors.CfdimError.__subclasses__()) == set(EXIT_BY_ERROR)
    for cls, code in EXIT_BY_ERROR.items():
        def fail(*args, cls=cls):
            raise cls("injected")

        monkeypatch.setattr(cli, "expand", fail)
        if code is None:
            with pytest.raises(cls):
                main(["expand", "--rational", "5/8"])
        else:
            assert main(["expand", "--rational", "5/8"]) == code
        assert capsys.readouterr().out == ""


def test_verify_runlength_single_digit_exit3(capsys):
    # R_n / log_phi(n) has no value at n = 1
    assert main(["verify", "--suite", "runlength", "--samples", "3", "--n", "1"]) == 3
    assert capsys.readouterr().out == ""
    rc, out = run_cli(["verify", "--suite", "runlength", "--samples", "3", "--n", "2"], capsys)
    assert rc in (0, 1)
    assert "Infinity" not in out and "NaN" not in out
    assert json.loads(out)["report"]["series"][0]["horizon"] == 2


def test_verify_nu_zero_without_estimates_exit3(capsys):
    # no sample has a nu estimate at n = 1: a fraction over no samples would pass vacuously
    assert main(["verify", "--suite", "nu_zero", "--samples", "3", "--n", "1"]) == 3
    assert capsys.readouterr().out == ""


def test_verify_lemmas_exit_zero(capsys):
    rc, out = run_cli(["verify", "--suite", "lemmas", "--seed", "1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["report"]["summary"]["failed"] == 0


def test_rerun_from_echoed_argv_byte_identical(tmp_path, capsys):
    digits = str(tmp_path / "x.digits")
    pathlib.Path(digits).write_text("1 2 1 1 3 1 1 1 2 1 1 1 1 4")
    # (argv, its echo): every flag in parser order, defaults included; a None value and an off switch are left out
    cases = [
        (["expand", "--rational", "5/8", "--n", "6"], ["expand", "--rational", "5/8", "--n", "6"]),
        (
            ["dim", "--kind", "U_set", "--nu-hat", "1/4", "--i", "1", "--B-schedule", "8,16,32"],
            ["dim", "--kind", "U_set", "--nu-hat", "1/4", "--i", "1", "--B-schedule", "8,16,32"],
        ),
        (
            ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "2", "--sample", "2", "--seed", "9"],
            ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--i", "1", "--depth-k", "2", "--k-max", "12",
             "--sample", "2", "--seed", "9", "--emit-digits", "64"],
        ),
        (["exponents", "--input", digits], ["exponents", "--input", digits, "--target-i", "1"]),
        (
            ["runlength", "--input", digits, "--emit-profile"],
            ["runlength", "--input", digits, "--tail-fraction", "0.5", "--emit-profile"],
        ),
        (
            ["verify", "--suite", "lemmas", "--seed", "1"],
            ["verify", "--suite", "lemmas", "--seed", "1", "--samples", "200", "--n", "1000000", "--i", "1"],
        ),
        (
            ["verify", "--suite", "runlength", "--samples", "5", "--n", "20000"],
            ["verify", "--suite", "runlength", "--seed", "20260809", "--samples", "5", "--n", "20000", "--i", "1"],
        ),
    ]
    for argv, argv_echo in cases:
        rc1, out1 = run_cli(argv, capsys)
        assert rc1 == 0
        echoed = json.loads(out1)["config"]["argv"]
        assert echoed == argv_echo
        rc2, out2 = run_cli(echoed, capsys)
        assert rc2 == 0
        assert out1 == out2


def _golden_cases():
    """The argv of each golden file, as scripts/make_goldens.py lists them."""
    spec = importlib.util.spec_from_file_location("make_goldens", MAKE_GOLDENS)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return list(script.CASES.items())


@pytest.mark.parametrize("name,argv", _golden_cases())
def test_golden_files(name, argv, capsys):
    rc, out = run_cli(argv, capsys)
    assert rc == 0
    path = GOLDEN / f"{name}.json"
    assert path.exists(), f"golden file {path} missing; regenerate with scripts/make_goldens.py"
    assert out == path.read_text()


# the README's dimension curves: the parameter range of their interior rows
# (theorem argument strictly inside (0, 1)), and how many rows fall in it
_CURVE_INTERIORS = {
    "readme_curve_uniform_set": (0.0, 1.0, 21),
    "readme_curve_asymptotic_level": (0.0, math.inf, 16),
    "readme_curve_runlength_liminf": (0.0, 0.5, 21),
}


@pytest.mark.parametrize("name", sorted(_CURVE_INTERIORS))
def test_readme_curve_goldens_hold_full_alphabet_dimensions(name):
    # theorem_dims returns dim_full of the argument unscaled, so an interior
    # row lies in (1/2, 1] and inside its bracket; no curve rises along its parameter
    lines = (GOLDEN / f"{name}.json").read_text().splitlines()
    assert lines[0] == "param,value,lo,hi"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    p_lo, p_hi, count = _CURVE_INTERIORS[name]
    interior = [row for row in rows if p_lo < row[0] < p_hi]
    assert len(interior) == count
    for p, value, lo, hi in interior:
        assert 0.5 < value <= 1.0 and lo <= value <= hi, (p, value, lo, hi)
    assert all(later[1] <= row[1] for row, later in zip(rows, rows[1:]))


_GOLDENS_UNDER_O = """
import importlib.util, io, json, sys
from contextlib import redirect_stdout
spec = importlib.util.spec_from_file_location("make_goldens", sys.argv[1])
script = importlib.util.module_from_spec(spec)
spec.loader.exec_module(script)
out = {}
for name, argv in script.CASES.items():
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = script.main(argv)
    out[name] = [rc, buf.getvalue()]
sys.stdout.write(json.dumps({"debug": __debug__, "cases": out}))
"""


def test_golden_files_under_python_O():
    # every case of scripts/make_goldens.py, run by cli.main in one `python -O -B`
    # process (asserts stripped, no bytecode written), against the pinned files
    proc = subprocess.run(
        [sys.executable, "-O", "-B", "-c", _GOLDENS_UNDER_O, str(MAKE_GOLDENS)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    got = json.loads(proc.stdout)
    assert got["debug"] is False
    assert sorted(got["cases"]) == sorted(p.stem for p in GOLDEN.glob("*.json"))
    for name, (rc, out) in got["cases"].items():
        assert rc == 0, name
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes(), name


def test_verify_past_the_node_budget_exits3(monkeypatch, capsys):
    # the solver suite enumerates up to 3^12 leaves; a smaller budget stops it at sum_power's guard
    monkeypatch.setattr(cfdim.dim_solver, "_TABLE_LIMIT", 10)
    rc = main(["verify", "--suite", "solver"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("range error: ")


def test_every_cli_flag_is_documented():
    root = pathlib.Path(__file__).resolve().parents[1]
    docs = (root / "README.md").read_text() + (root / "docs" / "formats.md").read_text()
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = [
        f"{command} {flag}"
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag not in ("--help", "--version")
        and not re.search(re.escape(flag) + r"(?![\w-])", docs)  # "--n" is not found in "--nu"
    ]
    assert missing == []


def test_verify_failed_check_exit1(capsys):
    # tiny sample/horizon: no pilot calibrated a bound at n = 2 000
    rc = main(["verify", "--suite", "nu_zero", "--samples", "6", "--n", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    payload = json.loads(out)
    assert payload["report"]["summary"]["failed"] >= 1


def test_verify_nu_zero_passes_at_its_own_horizon(capsys):
    # 10^5 has its own pilot bound, 0.175; the 0.075 of 10^6 failed it
    assert main(["verify", "--suite", "nu_zero", "--samples", "200", "--n", "100000"]) == 0
    checks = json.loads(capsys.readouterr().out)["report"]["checks"]
    assert checks[0]["name"] == "exceed_fraction_at_top_horizon" and checks[0]["bound"] == [0.0, 0.175]


def test_verify_csv_series(capsys):
    rc = main(["verify", "--suite", "runlength", "--samples", "5", "--n", "20000", "--seed", "3", "--csv"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "horizon,mean,std"


def test_cantor_local_dim_series(capsys):
    rc = main(
        ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "4",
         "--sample", "1", "--seed", "2", "--local-dim"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    series = payload["samples"][0]["local_dimension"]
    assert [row["depth"] for row in series] == [5, 23, 77, 239]
    assert all(0 < row["value"] < 1 for row in series)
