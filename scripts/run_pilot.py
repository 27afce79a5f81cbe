#!/usr/bin/env python3
"""Calibration pilot for the Monte Carlo verify suites.

Runs mc_laws (the mc_runlength and mc_nu_zero reports of one chain walk per
seed) across a fixed seed panel at the acceptance scale and writes the
fixture JSON consumed by cfdim.verify.  Derived bounds:

  * run-length mean ratio: the a.e. limit is 1/2; the acceptance window
    [0.40, 0.60] is kept and cross-checked against the panel spread.
  * nu-exceedance fraction at the top horizon: max over the panel plus a
    2/samples margin (the estimator's tail-half indexing keeps slow-decaying
    fluctuation from early lucky runs, so the honest bound sits well above
    an idealized guess).

Usage: python scripts/run_pilot.py [--quick] [--out PATH]
"""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfdim.verify import McConfig, mc_laws  # noqa: E402

SEEDS = [11, 20260809, 42, 7, 123]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="small panel for a fast smoke run")
    ap.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parents[1] / "src/cfdim/data/pilot_fixtures.json"),
    )
    args = ap.parse_args()
    samples = 50 if args.quick else 200
    n_digits = 100_000 if args.quick else 1_000_000

    run_means = {}
    nu_fracs = {}
    for seed in SEEDS:
        cfg = McConfig(seed=seed, samples=samples, n_digits=n_digits)
        r1, r2 = mc_laws(cfg)
        run_means[str(seed)] = {str(row["horizon"]): row["mean"] for row in r1.series}
        nu_fracs[str(seed)] = {str(row["horizon"]): row["exceed_fraction"] for row in r2.series if row["samples_used"]}
        print(f"seed {seed}: runlength means {run_means[str(seed)]}")
        print(f"seed {seed}: nu exceed    {nu_fracs[str(seed)]}")

    top = str(n_digits)
    top_fracs = [v[top] for v in nu_fracs.values()]
    exceed_bound = round(max(top_fracs) + 2.0 / samples, 4)
    fixtures = {
        "pilot": {
            "samples": samples,
            "n_digits": n_digits,
            "seeds": SEEDS,
            "mc_runlength_means": run_means,
            "mc_nu_zero_fractions": nu_fracs,
        },
        "mc_runlength": {"mean_bounds": [0.40, 0.60], "trend_slack": 0.05},
        "mc_nu_zero": {"exceed_bound": exceed_bound, "monotone_slack": 0.01},
    }
    with open(args.out, "w") as fh:
        json.dump(fixtures, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out} (exceed_bound = {exceed_bound})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
