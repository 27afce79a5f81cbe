#!/usr/bin/env python3
"""Regenerate the pinned golden CLI outputs under tests/golden/."""

import io
import pathlib
import sys
from contextlib import redirect_stdout

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from cfdim.cli import main  # noqa: E402

CASES = {
    "expand_58": ["expand", "--rational", "5/8", "--n", "6"],
    "dim_Ehat_half": ["dim", "--kind", "E_hat", "--nu-hat", "1/2", "--i", "1", "--B-schedule", "8,16,32"],
    "cantor_k2": ["cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "2", "--sample", "1", "--seed", "0"],
    "cantor_k7_local": [
        "cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "7", "--sample", "2", "--seed", "5", "--local-dim",
    ],
    # the commands of the README's CLI section that need no input file
    "readme_expand_sqrt2": ["expand", "--surd", "sqrt:2", "--n", "10"],
    "readme_expand_58": ["expand", "--rational", "5/8", "--n", "10"],
    "readme_expand_decimal": ["expand", "--decimal", "0.414213562373", "--n", "8"],
    "readme_dim_Ehat_half": ["dim", "--kind", "E_hat", "--nu-hat", "1/2", "--i", "1"],
    "readme_dim_F_half": ["dim", "--kind", "F", "--alpha", "0.5"],
    "readme_dim_nu_level_curve": ["dim", "--kind", "nu_level", "--nu", "1", "--i", "1", "--curve", "B=2..6"],  # CSV
    "readme_cantor_k8_local": [
        "cantor", "--nu-hat", "1/3", "--nu", "1", "--B", "3", "--depth-k", "8", "--sample", "10", "--local-dim",
    ],
    "readme_verify_lemmas": ["verify", "--suite", "lemmas"],
    # the README's dimension curves, without --out; CSV
    "readme_curve_uniform_set": [
        "dim", "--kind", "U_set", "--curve", "nu_hat=0..1:23", "--B-schedule", "8,16,32,64",
    ],
    "readme_curve_asymptotic_level": [
        "dim", "--kind", "nu_level", "--curve", "nu=0..4:17", "--B-schedule", "8,16,32,64",
    ],
    "readme_curve_runlength_liminf": [
        "dim", "--kind", "F", "--curve", "alpha=0..1/2:23", "--B-schedule", "8,16,32,64",
    ],
}


def run() -> int:
    out_dir = pathlib.Path(__file__).resolve().parents[1] / "tests" / "golden"
    out_dir.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(argv)
        if rc != 0:
            raise RuntimeError(f"{name}: cli exited with {rc}; no golden written")
        (out_dir / f"{name}.json").write_text(buf.getvalue())
        print("wrote", out_dir / f"{name}.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
