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
