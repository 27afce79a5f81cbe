"""cfdim benchmark: cold-process workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Run from the root of a checkout.  Each repetition is a fresh interpreter
(bench/worker.py) running the whole workload once, cold; the run repeats it
for about --seconds and reports medians of times scaled to a reference
machine speed (see _speed_scaled and README.md).  With --trace 0 it prints the
end-to-end metrics of BENCHMARK.json; with --trace 1 it alternates traced and
untraced repetitions and prints the per-layer metrics.  The last stdout line
is the result object; the lines before it record the environment, sample
counts and failed ops.

--self-check runs every workload at tiny sizes, traced and untraced, and
checks the harness: each declared metric is emitted with its unit and no
other, the spans nest inside each other and inside the timed op calls
(tracing.span_problems), the per-layer self times plus the uncovered time add
up to the traced wall time, and the layers a workload bypasses read zero
calls.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
# Times are reported at a reference machine speed: each is multiplied by
# PROBE_REF_S over the probes (fixed reference work, worker.probe) taken
# around it, as if every probe had taken PROBE_REF_S.
PROBE_REF_S = 1.5e-3  # about a probe's time on the 2-core VM this was built on
MIN_PLAIN = 3  # untraced repetitions per --trace 0 run, at least
TIME_LIMIT_S = 170  # the whole run must end within 180 s
# one process, one thread: BLAS pools would let load depend on the core count
ENV_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(ENV_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _environment() -> Dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": ENV_THREADS["OPENBLAS_NUM_THREADS"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _spawn(workload: str, seed: int, traced: bool, tiny: bool, timeout: float) -> Dict:
    workdir = BENCH / ".work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if traced:
        (BENCH / ".out").mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(BENCH / ".out" / f"spans-{workload}-{seed}.npz")]
    if tiny:
        cmd.append("--tiny")
    try:
        t0 = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
        elapsed = time.monotonic() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["elapsed_s"] = elapsed
    res["traced"] = traced
    return res


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> List[Dict]:
    """Fresh-interpreter repetitions for about `seconds`: at least MIN_PLAIN
    untraced ones, or with `trace` at least one traced and one untraced."""
    start = time.monotonic()
    runs: List[Dict] = []
    while True:
        traced = trace and len(runs) % 2 == 0
        runs.append(_spawn(workload, seed, traced, False, TIME_LIMIT_S - (time.monotonic() - start)))
        elapsed = time.monotonic() - start
        longest = max(r["elapsed_s"] for r in runs)
        plain = sum(not r["traced"] for r in runs)
        enough = plain >= 1 and len(runs) >= 2 if trace else plain >= MIN_PLAIN
        if elapsed + longest > TIME_LIMIT_S - 10 or (enough and elapsed + longest > seconds):
            if not enough:
                raise RuntimeError(f"{workload}: a repetition takes {longest:.0f} s; too slow for one run")
            return runs


def _quantile(values: List[float], p: float) -> float:
    """The p-quantile (p a multiple of 0.1) of `values`, as statistics.quantiles gives it."""
    return statistics.quantiles(values, n=10)[round(p * 10) - 1]


def _speed_scaled(r: Dict) -> Dict:
    """One repetition's times at the reference speed.  An op's scale is
    PROBE_REF_S over the median of the probes from the one just before it to
    the one just after it (at least the four nearest); set-up's is over the
    first three probes."""
    p, marks = r["probe_s"], r["probe_marks"]
    scale = []
    for j in range(len(marks) - 1):
        lo, hi = marks[j], marks[j + 1]
        if hi - lo < 3:
            lo, hi = max(0, lo - 1), min(len(p) - 1, hi + 1)
        scale.append(PROBE_REF_S / statistics.median(p[lo:hi + 1]))
    lat = [row[1] * f for row, f in zip(r["ops"], scale)]
    return {
        "lat_ms": [t * 1e3 for t in lat],
        "wall_s": sum(lat),
        "first_op_s": r["first_op_s"] * scale[0],
        "setup_s": r["setup_s"] * PROBE_REF_S / statistics.median(p[:3]),
    }


def end_to_end(runs: List[Dict]) -> Dict[str, float]:
    """Medians over repetitions of the times at reference speed.  Latency
    percentiles are taken per repetition, over its fixed number of ops."""
    scaled = [_speed_scaled(r) for r in runs]
    n_ops = len(runs[0]["ops"])
    out = {
        "setup_s": statistics.median(s["setup_s"] for s in scaled),
        "wall_s": statistics.median(s["wall_s"] for s in scaled),
        "first_op_s": statistics.median(s["first_op_s"] for s in scaled),
        "op_p50_ms": statistics.median(_quantile(s["lat_ms"], 0.5) for s in scaled),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ops_attempted": float(n_ops),
        "ops_passed": statistics.median(sum(row[2] for row in r["ops"]) for r in runs),
    }
    if n_ops >= 100:  # at least ten samples beyond the 90th percentile
        out["op_p90_ms"] = statistics.median(_quantile(s["lat_ms"], 0.9) for s in scaled)
    return out


def per_layer(runs: List[Dict]) -> Dict[str, float]:
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    names = traced[0]["layers"].keys()
    out = {k: statistics.median(r["layers"][k] for r in traced) for k in names}
    # both walls at the reference speed, as the end-to-end wall_s is
    out["trace.overhead_s"] = (statistics.median(_speed_scaled(r)["wall_s"] for r in traced)
                               - statistics.median(_speed_scaled(r)["wall_s"] for r in plain))
    return out


def _spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in _spec()[section]}


def _with_units(values: Dict[str, float], section: str) -> Dict[str, Dict]:
    units = _declared(section)
    if set(values) != set(units):
        raise RuntimeError(f"emitted {section} metrics differ from BENCHMARK.json: "
                           f"missing {sorted(set(units) - set(values))}, extra {sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _summary_lines(workload: str, seed: int, runs: List[Dict]) -> List[str]:
    ops = [row for r in runs for row in r["ops"]]
    walls = " ".join(f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in runs)
    probes = " ".join(f"{statistics.median(r['probe_s']) * 1e3:.3f}" for r in runs)
    lines = [
        f"# {workload} seed={seed}: {len(runs)} repetitions "
        f"({sum(r['traced'] for r in runs)} traced) of {len(runs[0]['ops'])} ops each; "
        f"measured wall_s {walls}; median probe ms {probes}",
    ]
    lines += [f"# span problem: {p}" for r in runs for p in r.get("span_problems", [])]
    lines.append(f"# failed ops per repetition: {[sum(not row[2] for row in r['ops']) for r in runs]}")
    defects: Dict[str, int] = {}
    for row in ops:
        if not row[2]:
            defects[row[3] or "UNEXPECTED"] = defects.get(row[3] or "UNEXPECTED", 0) + 1
    if defects:
        lines.append(f"# failed ops by defect: {json.dumps(defects, sort_keys=True)}")
    unexpected = [f for r in runs for f in r["failures"] if "UNEXPECTED" in f]
    lines += [f"# {f.splitlines()[0]}" for f in unexpected[:5]]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    runs = repetitions(workload, seed, seconds, trace)
    values = per_layer(runs) if trace else end_to_end(runs)
    metrics = _with_units(values, "per_layer" if trace else "end_to_end")
    for line in [f"# env: {json.dumps(_environment(), sort_keys=True)}"] + _summary_lines(workload, seed, runs):
        print(line)
    # Every repetition runs the same ops on the same inputs, so the counts are
    # over the seed's distinct ops, not over repetitions (whose number depends
    # on the machine's speed): an op is failed if it failed in any repetition.
    n_ops = len(runs[0]["ops"])
    if any(len(r["ops"]) != n_ops or [row[0] for row in r["ops"]] != [row[0] for row in runs[0]["ops"]]
           for r in runs):
        raise RuntimeError(f"{workload}: repetitions ran different ops")
    return {
        "correct": all(row[2] or row[3] for r in runs for row in r["ops"]),
        "attempted": n_ops,
        "failed": sum(not all(r["ops"][j][2] for r in runs) for j in range(n_ops)),
        "metrics": metrics,
    }


def self_check() -> int:
    import tracing

    problems = []
    for w in [w["name"] for w in _spec()["workloads"]]:
        plain = _spawn(w, 1, False, True, TIME_LIMIT_S)
        traced = _spawn(w, 1, True, True, TIME_LIMIT_S)
        for section, values in (("end_to_end", end_to_end([plain])), ("per_layer", per_layer([plain, traced]))):
            try:
                _with_units(values, section)
            except RuntimeError as exc:
                problems.append(f"{w}: {exc}")
        layers = traced["layers"]
        problems += [f"{w}: {p}" for p in traced["span_problems"]]
        total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS) + layers["trace.uncovered_s"]
        if abs(total - traced["wall_s"]) > 1e-6 * max(1.0, traced["wall_s"]):
            problems.append(f"{w}: layer self times + uncovered = {total}, traced wall_s = {traced['wall_s']}")
        for metric, bypassed_on in tracing.BYPASSED.items():
            if w in bypassed_on and layers[metric] != 0:
                problems.append(f"{w}: {metric} = {layers[metric]}, expected 0 (layer bypassed)")
        print(f"# self-check {w}: {len(plain['ops'])} ops, traced wall {traced['wall_s']:.3f} s")
    for p in problems:
        print("FAIL", p)
    print("self-check", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in _spec()["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "cfdim" / "__init__.py").is_file():
        sys.stderr.write(f"no cfdim sources under {ROOT / 'src'}: run from a checkout of the repository\n")
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
