"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import math
import sys
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cfdim import cantor, dim_solver, exponents, runlength, verify
from cfdim.cantor import (
    CantorSpec,
    admissible_children,
    construct_sequences,
    insert_map,
    inserted_record_blocks,
    local_dimension,
    measure_mass,
    sample_measure,
)
from cfdim.cf_core import continuants, run_continuant, run_continuant_closed_form
from cfdim.dim_solver import dim_full, dim_limit, spectral_dim, theorem_dims
from cfdim.verify import McConfig, lemma_suite, mc_laws, mc_nu_zero, mc_runlength, solver_crosscheck


def _report(k: int, ok: bool, elapsed: float, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {k:2d}: {tag}  ({elapsed:6.1f}s)  {detail}"
    print(line, file=sys.stderr)


@pytest.fixture(scope="module")
def spec13():
    sp = construct_sequences(Fraction(1, 3), 1, k_max=10)
    return CantorSpec(B=3, i=1, sp=sp, d=4)


def test_criterion_1_exact_kernel_suite():
    t0 = time.time()
    rep = lemma_suite(seed=20260809)
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 30
    _report(1, ok, elapsed, f"failures={rep.summary()['failed']}")
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert elapsed < 30


def test_criterion_2_closed_form_continuants():
    t0 = time.time()
    ok = True
    for i in range(1, 6):
        with mpmath.workprec(256):
            tau = float((i + mpmath.sqrt(i * i + 4)) / 2)
        for n in range(0, 41):
            q = run_continuant(i, n)
            ok &= q == run_continuant_closed_form(i, n)
            if n >= 1:
                ok &= tau**n / 2 <= q <= 2 * tau**n
    elapsed = time.time() - t0
    _report(2, ok and elapsed < 5, elapsed)
    assert ok
    assert elapsed < 5


def test_criterion_3_convention_anchors():
    t0 = time.time()
    checks = [
        theorem_dims("U_set", nu_hat=0).value == 1.0,
        theorem_dims("U_set", nu_hat=1).value == 0.5,
        theorem_dims("F", alpha=0).value == 1.0,
        theorem_dims("F", alpha=Fraction(1, 2)).value == 0.5,
        theorem_dims("U_set", nu_hat=Fraction(3, 2)).value == 0.0,
        theorem_dims("E_hat", nu_hat=2).value == 0.0,
        theorem_dims("E_joint", nu_hat=Fraction(3, 4), nu=1).value == 0.0,
        theorem_dims("E_joint", nu_hat=Fraction(3, 2), nu=float("inf")).value == 0.0,
        theorem_dims("FG", alpha=Fraction(1, 2), beta=Fraction(3, 5)).value == 0.0,
        theorem_dims("F", alpha=Fraction(3, 4)).value == 0.0,
    ]
    elapsed = time.time() - t0
    _report(3, all(checks) and elapsed < 1, elapsed, f"{sum(checks)}/{len(checks)} anchors")
    assert all(checks)
    assert elapsed < 1


def test_criterion_4_solver_cross_validation():
    t0 = time.time()
    rep = solver_crosscheck(n_schedule=(3, 6, 12))
    gaps = [c for c in rep.checks if c.name.startswith("gap_")]
    anchor = [c for c in rep.checks if c.name == "bounded_type_anchor_B2"][0]
    elapsed = time.time() - t0
    ok = rep.passed and elapsed < 300
    _report(4, ok, elapsed, f"max gap={max(c.statistic for c in gaps):.4f}, anchor={anchor.statistic:.4f}")
    assert rep.passed, [c for c in rep.checks if not c.passed]
    assert all(c.statistic <= 0.01 for c in gaps)
    assert 0.526 <= anchor.statistic <= 0.536
    assert elapsed < 300


def test_criterion_5_monotone_range_properties():
    t0 = time.time()
    ok = True
    for i in (1, 2):
        prev = None
        for num in range(1, 10):
            e = dim_full(Fraction(num, 10), i)
            width = e.bracket[1] - e.bracket[0]
            ok &= 0 < e.value <= 1
            ok &= all(0 < v <= 1 for v in e.trace)  # finite-B values
            ok &= e.value > 0.5 - width
            if prev is not None:
                ok &= e.value <= prev + 1e-12
            prev = e.value
    elapsed = time.time() - t0
    _report(5, ok and elapsed < 120, elapsed)
    assert ok
    assert elapsed < 120


def test_criterion_6_measure_consistency(spec13):
    t0 = time.time()
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        depth = int(rng.integers(0, spec13.sp.m[4] + 1))
        d = sample_measure(spec13, depth=max(depth, 1), seed=int(rng.integers(1 << 30)), reject_accidental=False)
        prefix = d.digits[:depth]
        parent = measure_mass(spec13, prefix)
        ksum = math.fsum(
            math.exp(measure_mass(spec13, prefix + (a,)).log_mass - parent.log_mass)
            for a in admissible_children(spec13, prefix)
        )
        worst = max(worst, abs(ksum - 1.0))
    root = math.fsum(math.exp(measure_mass(spec13, (a,)).log_mass) for a in admissible_children(spec13, ()))
    root_err = abs(root - 1.0)
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and root_err <= 1e-9 and elapsed < 60
    _report(6, ok, elapsed, f"worst child-sum err={worst:.2e}, root err={root_err:.2e}")
    assert worst <= 1e-9
    assert root_err <= 1e-9
    assert elapsed < 60


def test_criterion_7_construction_roundtrip(spec13):
    t0 = time.time()
    # full pipeline to depth m_10, pushed through the insertion map
    depth = spec13.sp.m[-1]
    d = sample_measure(spec13, depth=depth, seed=20260809)
    res = insert_map(spec13, d.digits)
    bd = exponents.decompose(res.digits, 1)
    c1 = spec13.sp.run_length(1)
    recs = tuple(b for b in bd.record_blocks if b[1] - b[0] >= c1)
    pipeline_ok = recs == inserted_record_blocks(spec13, 10)

    # the record structure of image points is schedule-determined (markers
    # insulate the designed runs), so the k >= 20 estimates follow exactly
    sp24 = construct_sequences(Fraction(1, 3), 1, k_max=24)
    spec24 = CantorSpec(B=3, i=1, sp=sp24, d=4)
    recs24 = inserted_record_blocks(spec24, 24)
    bd24 = exponents.BlockDecomposition(i=1, record_blocks=recs24)
    est = exponents.exponent_estimates(bd24, horizon=recs24[-1][1] + 1)
    est_ok = abs(est.nu_hat_est - 1 / 3) <= 0.1 and abs(est.nu_est - 1.0) <= 0.1 and est.k_used >= 20

    ld = local_dimension(spec13, d.digits[: spec13.sp.m[7]])
    sref = spectral_dim(3, Fraction(3, 4), 1).value  # xi = nu^2/((1+nu)(nu-nu_hat)) = 3/4
    ld_ok = abs(ld - sref) <= 0.1
    elapsed = time.time() - t0
    ok = pipeline_ok and est_ok and ld_ok and elapsed < 300
    _report(
        7, ok, elapsed,
        f"records_exact={pipeline_ok}, est=({est.nu_hat_est:.3f},{est.nu_est:.3f}), "
        f"local_dim={ld:.3f} vs {sref:.3f}",
    )
    assert pipeline_ok
    assert est_ok
    assert ld_ok
    assert elapsed < 300


def test_criterion_8_monte_carlo_laws():
    t0 = time.time()
    fx = verify.load_fixtures()
    cfg = McConfig(seed=20260809, samples=200, n_digits=1_000_000)
    r1, r2 = mc_laws(cfg, i=1)
    mean = r1.series[-1]["mean"]
    mean_ok = 0.40 <= mean <= 0.60 and r1.passed
    frac = r2.series[-1]["exceed_fraction"]
    bound = fx["mc_nu_zero"]["exceed_bound"]
    frac_ok = frac <= bound and r2.passed
    # determinism at reduced scale
    small = McConfig(seed=5, samples=20, n_digits=10_000)
    det_ok = (
        mc_runlength(small).to_json_dict() == mc_runlength(small).to_json_dict()
        and mc_nu_zero(small).to_json_dict() == mc_nu_zero(small).to_json_dict()
    )
    elapsed = time.time() - t0
    ok = mean_ok and frac_ok and det_ok and elapsed < 600
    _report(8, ok, elapsed, f"mean={mean:.4f} in [0.40,0.60]; exceed={frac:.3f} <= {bound}; deterministic={det_ok}")
    assert mean_ok, (mean, [c for c in r1.checks if not c.passed])
    assert frac_ok, (frac, bound, [c for c in r2.checks if not c.passed])
    assert det_ok
    assert elapsed < 600


def test_criterion_9_formula_identities():
    t0 = time.time()
    ok = True
    for k in range(1, 1001):
        nh = Fraction(k, 1001)
        nu = 2 * nh / (1 - nh)
        lhs = 4 * nh / (1 + nh) ** 2
        rhs = nu**2 / ((1 + nu) * (nu - nh))
        ok &= lhs == rhs and abs(float(lhs) - float(rhs)) <= 1e-12
    for k in range(1, 1001):
        a = Fraction(k, 2003)
        b = 2 * a
        lhs = 4 * a * (1 - a)
        rhs = b**2 * (1 - a) / (b - a)
        ok &= lhs == rhs and abs(float(lhs) - float(rhs)) <= 1e-12
    elapsed = time.time() - t0
    _report(9, ok and elapsed < 1, elapsed, "2000 exact grid points")
    assert ok
    assert elapsed < 1


def test_criterion_10_reproducibility(capsys):
    import json
    import pathlib

    from cfdim.cli import main

    t0 = time.time()
    golden_dir = pathlib.Path(__file__).parent / "golden"
    cases = {
        "expand_58": ["expand", "--rational", "5/8", "--n", "6"],
        "dim_Ehat_half": ["dim", "--kind", "E_hat", "--nu-hat", "1/2", "--i", "1", "--B-schedule", "8,16,32"],
        "cantor_k2": ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "2", "--sample", "1", "--seed", "0"],
        "cantor_k7_local": [
            "cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "7", "--sample", "2", "--seed", "5",
            "--local-dim",
        ],
    }
    ok = True
    for name, argv in cases.items():
        rc1 = main(argv)
        out1 = capsys.readouterr().out
        echoed = json.loads(out1)["config"]["argv"]
        rc2 = main(echoed)
        out2 = capsys.readouterr().out
        ok &= rc1 == 0 and rc2 == 0 and out1 == out2
        ok &= out1 == (golden_dir / f"{name}.json").read_text()
    elapsed = time.time() - t0
    _report(10, ok, elapsed, f"{len(cases)} commands byte-identical + golden-pinned")
    assert ok
