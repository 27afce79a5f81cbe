"""One cold run of one workload in a fresh interpreter.

Started by run.py, once per repetition, so that cfdim's process-wide caches
(`_state_cache`, `_qtotal_cache`, `cantor._context_cache`, `transfer._GRIDS`)
start empty, as they do for every CLI invocation.  Prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --spawned-at T --workdir DIR
                            [--trace] [--spans PATH] [--tiny]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import signal
import sys
import time
import traceback
from typing import List

import numpy as np

_PROBE_MATRIX = np.random.default_rng(0).random((48, 48))
_PROBE_INT = 3**12000
PROBE_PERIOD_S = 0.05


def probe() -> float:
    """Time one pass of fixed reference work, about 1.5 ms: an interpreter
    loop, big-int products and small BLAS products, the kinds of work cfdim
    does."""
    t0 = time.perf_counter()
    s = 0
    for i in range(8000):
        s += i * i % 7
    y = _PROBE_INT
    for _ in range(2):
        y = (y * _PROBE_INT) >> 19000
    b = _PROBE_MATRIX
    for _ in range(24):
        b = _PROBE_MATRIX @ b
        b /= b.max()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples the machine's speed while the ops run, so that the runner can
    take it out of the op times (see README.md).  A probe runs before every op
    and, from a SIGALRM timer in this same thread, every `period` seconds
    while the ops run; `inside` sums the probe time spent since the last
    `reset()`, which the worker subtracts from the op it fell in."""

    def __init__(self, period: float):
        self.period = period
        self.times: List[float] = []
        self.inside = 0.0
        self._busy = False
        probe()  # the first pass runs cold; it is not a sample

    def take(self) -> float:
        self._busy = True
        dt = probe()
        self.times.append(dt)
        self._busy = False
        return dt

    def reset(self) -> None:
        self.inside = 0.0

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self.inside += self.take()

    def start(self) -> None:
        if self.period > 0:
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if self.period > 0:
            signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the spans of a traced run here")
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the harness self-check")
    args = ap.parse_args()

    # setup: import cfdim and generate the workload's inputs
    import cfdim
    import workloads

    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    if pathlib.Path(cfdim.__file__).resolve().parent != src / "cfdim":
        sys.stderr.write(f"imported cfdim from {cfdim.__file__}, not from {src}\n")
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.tiny)
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    rows = []
    failures = []
    wall_s = 0.0
    first_op_s = None
    # timer probes would fall inside traced spans, so a traced run probes only between ops
    speed = SpeedProbe(0.0 if tracer is not None else PROBE_PERIOD_S)
    marks = []  # index of the probe taken just before each op
    speed.start()
    for j, op in enumerate(ops):
        marks.append(len(speed.times))
        speed.take()
        if tracer is not None:
            tracer.current_op = j
        speed.reset()
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            dt = time.perf_counter() - t0 - speed.inside
            ok, defect, msg = False, op.known_raise(exc), f"{type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0 - speed.inside
            try:
                op.check(result)
                ok, defect, msg = True, None, ""
            except workloads.Failed as f:
                ok, defect, msg = False, f.defect, str(f)
            except Exception:
                ok, defect, msg = False, None, "check raised:\n" + traceback.format_exc()
        wall_s += dt
        if tracer is not None:
            tracer.op_bounds.append((t0, t0 + dt))
        if first_op_s is None:
            first_op_s = time.perf_counter() - t0 - speed.inside
        rows.append([op.kind, dt, ok, defect])
        if not ok:
            failures.append(f"op {j} ({op.kind}): {defect or 'UNEXPECTED'}: {msg[:300]}")

    marks.append(len(speed.times))
    speed.take()
    speed.stop()
    out = {
        "setup_s": setup_s,
        "probe_s": speed.times,
        "probe_marks": marks,
        "wall_s": wall_s,
        "first_op_s": first_op_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": rows,
        "failures": failures,
    }
    if tracer is not None:
        out["layers"] = tracing.per_layer(tracer, wall_s)
        out["span_problems"] = tracing.span_problems(tracer, wall_s)
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
