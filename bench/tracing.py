"""Span tracing of cfdim, installed from outside the package.

`install()` replaces every name a caller looks up (module attributes, names
re-bound by `from .x import y`, and class methods) with a wrapper that
records a span: name, start, end, parent span and the benchmark op that was
running.  Spans stay in memory; `Tracer.dump` writes them when the worker
exits, and `per_layer` derives the per-layer metrics from them.

A layer is a cfdim module.  A span's self time is its duration minus the time
its child spans cover.  When the spans nest properly (`span_problems`), the
self times of all spans plus the body time that no span covers add up to the
body's wall time.

Unit costs come only from call arguments and return values (hooks below);
each ratio is named with its base (`ns_per_leaf`, `us_per_operator_step`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import math
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np

LAYERS = ("cf_core", "surd", "runlength", "exponents", "dim_solver", "transfer", "cantor", "verify", "cli")

# (module, attribute) pairs; "Class.method" wraps a method on the class.
TARGETS = {
    "cf_core": ["continuants", "expand", "basic_interval", "digit_seq", "gauss_shift", "target",
                "run_continuant", "run_continuant_closed_form"],
    "surd": ["is_square", "Surd.__init__", "Surd.__add__", "Surd.__neg__", "Surd.__sub__",
             "Surd.__rsub__", "Surd.__mul__", "Surd.inverse", "Surd.__truediv__", "Surd.__rtruediv__",
             "Surd.__pow__", "Surd.sign", "Surd.floor", "Surd.as_fraction", "Surd.__lt__", "Surd.__le__",
             "Surd.__gt__", "Surd.__ge__"],
    "transfer": ["transfer_matrix", "leading_eigenvalue", "pressure", "segment_log_sum", "segment_stack",
                 "ChebyshevGrid.interp_matrix"],
    "dim_solver": ["sum_power", "spectral_pressure", "spectral_dim", "predim_tilde", "predim_hat",
                   "predim_s", "dim_limit", "dim_full", "theorem_dims"],
    "cantor": ["sample_measure", "measure_mass", "validate_prefix", "admissible_children",
               "local_dimension", "local_dimension_series", "insert_map", "delete_marked",
               "measure_context", "MeasureContext.s_tilde", "MeasureContext.stack"],
    "exponents": ["decompose", "exponent_estimates", "uniform_hit_check", "distance_bracket"],
    "runlength": ["run_profile", "ratio_estimates"],
    "verify": ["mc_runlength", "mc_nu_zero", "lemma_suite", "solver_crosscheck", "sample_digits_decimal"],
    "cli": ["main"],
}

# Span names whose child spans are root-finder evaluations, and those evaluations.
SOLVES = ("dim_solver.spectral_dim", "dim_solver.predim_tilde", "dim_solver.predim_hat")
EVALS = ("dim_solver.spectral_pressure", "dim_solver.sum_power", "transfer.segment_log_sum")
# Cold per-spec builds inside a sampler call, excluded from its per-digit cost.
CONTEXT_BUILDS = ("cantor.MeasureContext.s_tilde", "cantor.MeasureContext.stack")

# Layers whose calls must read zero on a workload (the "bypassed on" cells).
BYPASSED = {
    "transfer.calls": ("mc_laws", "exact_kernels"),
    "dim_solver.calls": ("mc_laws", "exact_kernels"),
    "cantor.calls": ("dim_sweep", "mc_laws", "exact_kernels"),
    "cf_core.calls": ("dim_sweep", "mc_laws"),
    "surd.calls": ("cantor_measure", "dim_sweep", "mc_laws"),
    "exponents.calls": ("dim_sweep",),
    "runlength.calls": ("cantor_measure", "dim_sweep", "exact_kernels"),
    "verify.chain.steps": ("cantor_measure", "dim_sweep"),
}


class Tracer:
    """In-memory span store: parallel lists indexed by span id."""

    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self._stack: List[int] = []
        self.current_op = -1
        self.op_bounds: List[tuple] = []  # (start, end) of each timed op call, set by the worker
        self.counters: Dict[str, float] = defaultdict(float)
        self._seen_ids: set = set()
        self._seen_refs: list = []  # keeps returned objects alive so ids stay unique

    def intern(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx: int) -> int:
        sid = len(self.start)
        self.name_id.append(name_idx)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def seen_before(self, obj) -> bool:
        """True when this object was returned by an earlier traced call."""
        if id(obj) in self._seen_ids:
            return True
        self._seen_ids.add(id(obj))
        self._seen_refs.append(obj)
        return False

    def dump(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# hooks: counters from call arguments and return values
# ---------------------------------------------------------------------------


def _bound(fn: Callable) -> Callable:
    sig = inspect.signature(fn)

    def args_of(a, k):
        b = sig.bind(*a, **k)
        b.apply_defaults()
        return b.arguments

    return args_of


def _hooks(tr: Tracer) -> Dict[str, Callable]:
    c = tr.counters

    def seq_len(d) -> int:
        return len(d.digits) if hasattr(d, "digits") else len(d)

    def segment_log_sum(args, r):
        c["transfer.operator_steps"] += args["free"]

    def segment_stack(args, r):
        c["transfer.operator_steps"] += args["free"]
        c["transfer.segment_stack.level_bytes"] += sum(level.nbytes for level in r.levels)

    def sum_power(args, r):
        c["dim_solver.sum_power.leaves"] += args["B"] ** args["spec"].free_length

    def continuants(args, r):
        c["cf_core.continuants.digits"] += seq_len(args["d"])

    def expand(args, r):
        c["cf_core.expand.digits"] += len(r.digits)

    def decompose(args, r):
        c["exponents.decompose.digits"] += seq_len(args["d"])

    def run_profile(args, r):
        c["runlength.run_profile.digits"] += r.n_max

    def sample_digits_decimal(args, r):
        c["verify.sample_digits_decimal.redraws"] += r[1]

    def sample_measure(args, r):
        c["cantor.sample_measure.digits"] += len(r.digits)
        # one free-part draw per segment the sampler starts: segments with m_{k-1} < depth
        m = args["spec"].sp.m
        c["cantor.sampler.draws"] += sum(1 for k in range(len(m)) if (m[k - 1] if k else 0) < args["depth"])

    def context_lookup(args, r):
        c["cantor.context.lookups"] += 1
        c["cantor.context.hits"] += tr.seen_before(r)

    return {
        "transfer.segment_log_sum": segment_log_sum,
        "transfer.segment_stack": segment_stack,
        "dim_solver.sum_power": sum_power,
        "cf_core.continuants": continuants,
        "cf_core.expand": expand,
        "exponents.decompose": decompose,
        "runlength.run_profile": run_profile,
        "verify.sample_digits_decimal": sample_digits_decimal,
        "cantor.sample_measure": sample_measure,
        "cantor.measure_context": context_lookup,
        "cantor.MeasureContext.s_tilde": context_lookup,
        "cantor.MeasureContext.stack": context_lookup,
    }


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------


def _wrap(tr: Tracer, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
    idx = tr.intern(name)
    args_of = _bound(fn) if hook else None
    if name == "transfer.segment_stack":
        # keep_levels=False is segment_log_sum's own iteration; only stack
        # builds that keep their levels are spans of their own
        @functools.wraps(fn)
        def stack_wrapper(*a, **k):
            args = args_of(a, k)
            if not args["keep_levels"]:
                return fn(*a, **k)
            sid = tr.open(idx)
            try:
                r = fn(*a, **k)
            finally:
                tr.close(sid)
            hook(args, r)
            return r

        return stack_wrapper

    @functools.wraps(fn)
    def wrapper(*a, **k):
        sid = tr.open(idx)
        try:
            r = fn(*a, **k)
        finally:
            tr.close(sid)
        if hook is not None:
            hook(args_of(a, k), r)
        return r

    return wrapper


def _wrap_chain(tr: Tracer, next_digits: Callable) -> Callable:
    """Time the Monte Carlo digit generator per next() as `verify.chain` spans."""
    idx = tr.intern("verify.chain")
    c = tr.counters

    @functools.wraps(next_digits)
    def wrapper(self, steps):
        gen = next_digits(self, steps)
        while True:
            sid = tr.open(idx)
            try:
                digits = next(gen)
            except StopIteration:
                return
            finally:
                tr.close(sid)
            c["verify.chain.steps"] += 1
            c["verify.chain.digits"] += self.samples
            yield digits

    return wrapper


class _RedrawCounter(logging.Handler):
    """Counts sampler redraws from the `cfdim.cantor` DEBUG records."""

    def __init__(self, counters):
        super().__init__(logging.DEBUG)
        self.counters = counters

    def emit(self, record):
        if "redrawn" in record.msg:
            self.counters["cantor.sampler.redraws"] += record.args[1]


def install(tr: Tracer) -> None:
    """Wrap every TARGETS entry wherever a cfdim module holds a reference to it."""
    import cfdim.cli  # noqa: F401  (imports every module)
    from cfdim import verify

    modules = [m for n, m in sys.modules.items() if n.startswith("cfdim.") and m is not None]
    hooks = _hooks(tr)
    for layer, attrs in TARGETS.items():
        mod = importlib.import_module(f"cfdim.{layer}")
        for attr in attrs:
            name = f"{layer}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                w = _wrap(tr, fn, name, hooks.get(name))
                for k, v in list(cls.__dict__.items()):
                    if v is fn:  # aliases such as __radd__ = __add__
                        setattr(cls, k, w)
                continue
            fn = getattr(mod, attr)
            w = _wrap(tr, fn, name, hooks.get(name))
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is fn:
                        setattr(m, k, w)
    chain = verify.LebesgueDigitChain
    chain.next_digits = _wrap_chain(tr, chain.__dict__["next_digits"])
    log = logging.getLogger("cfdim.cantor")
    log.setLevel(logging.DEBUG)
    log.addHandler(_RedrawCounter(tr.counters))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def per_layer(tr: Tracer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced body (see BENCHMARK.json for units)."""
    n = len(tr.start)
    name_id = np.array(tr.name_id, dtype=np.int64)
    start = np.array(tr.start)
    end = np.array(tr.end)
    parent = np.array(tr.parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_t = dur - covered
    names = tr.names
    span_layer = [names[i].split(".")[0] for i in range(len(names))]
    layer_of = np.array([LAYERS.index(span_layer[i]) for i in name_id], dtype=np.int64) if n else np.zeros(0, int)

    by_name_self = np.zeros(len(names))
    by_name_calls = np.zeros(len(names))
    np.add.at(by_name_self, name_id, self_t)
    np.add.at(by_name_calls, name_id, 1)

    def self_s(name: str) -> float:
        return float(by_name_self[tr._name_ids[name]]) if name in tr._name_ids else 0.0

    def calls(name: str) -> float:
        return float(by_name_calls[tr._name_ids[name]]) if name in tr._name_ids else 0.0

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    c = tr.counters
    out: Dict[str, float] = {}

    # layer totals: self time, and calls entering the layer from outside it
    parent_layer = np.where(has_parent, layer_of[np.where(has_parent, parent, 0)], -1)
    for li, layer in enumerate(LAYERS):
        mine = layer_of == li
        out[f"{layer}.self_s"] = float(self_t[mine].sum())
        out[f"{layer}.calls"] = float(np.count_nonzero(mine & (parent_layer != li)))
    out["trace.wall_s"] = wall_s
    out["trace.uncovered_s"] = wall_s - float(dur[~has_parent].sum())

    # transfer
    for f in ("segment_log_sum", "segment_stack", "transfer_matrix", "leading_eigenvalue"):
        out[f"transfer.{f}.calls"] = calls(f"transfer.{f}")
        out[f"transfer.{f}.self_s"] = self_s(f"transfer.{f}")
    out["transfer.interp_matrix.calls"] = calls("transfer.ChebyshevGrid.interp_matrix")
    out["transfer.interp_matrix.self_s"] = self_s("transfer.ChebyshevGrid.interp_matrix")
    out["transfer.operator_steps"] = c["transfer.operator_steps"]
    out["transfer.us_per_operator_step"] = ratio(
        self_s("transfer.segment_log_sum") + self_s("transfer.segment_stack"), c["transfer.operator_steps"], 1e6
    )
    out["transfer.segment_stack.level_bytes"] = c["transfer.segment_stack.level_bytes"]

    # dim_solver
    out["dim_solver.sum_power.calls"] = calls("dim_solver.sum_power")
    out["dim_solver.sum_power.self_s"] = self_s("dim_solver.sum_power")
    out["dim_solver.sum_power.leaves"] = c["dim_solver.sum_power.leaves"]
    out["dim_solver.sum_power.ns_per_leaf"] = ratio(
        self_s("dim_solver.sum_power"), c["dim_solver.sum_power.leaves"], 1e9
    )
    solve_ids = {tr._name_ids[s]: s for s in SOLVES if s in tr._name_ids}
    eval_ids = {tr._name_ids[e] for e in EVALS if e in tr._name_ids}
    evals = defaultdict(int)
    for sid in range(n):
        p = parent[sid]
        if name_id[sid] in eval_ids and p >= 0 and name_id[p] in solve_ids:
            evals[solve_ids[name_id[p]]] += 1
    for s in SOLVES:
        short = s.split(".")[1]
        out[f"dim_solver.{short}.calls"] = calls(s)
        out[f"dim_solver.{short}.self_s"] = self_s(s)
        out[f"dim_solver.{short}.evals_per_solve"] = ratio(evals[s], calls(s))
    out["dim_solver.dim_full.calls"] = calls("dim_solver.dim_full")
    out["dim_solver.dim_full.self_s"] = self_s("dim_solver.dim_full")

    # cantor
    out["cantor.sample_measure.self_s"] = self_s("cantor.sample_measure")
    out["cantor.sample_measure.digits"] = c["cantor.sample_measure.digits"]
    out["cantor.sample_measure.us_per_digit"] = ratio(
        _sampler_time(tr, name_id, parent, dur), c["cantor.sample_measure.digits"], 1e6
    )
    out["cantor.sampler.redraws"] = c["cantor.sampler.redraws"]
    draws = c["cantor.sampler.draws"]
    out["cantor.sampler.accept_ratio"] = ratio(draws, draws + c["cantor.sampler.redraws"])
    for f in ("measure_mass", "validate_prefix", "local_dimension", "insert_map"):
        out[f"cantor.{f}.calls"] = calls(f"cantor.{f}")
        out[f"cantor.{f}.self_s"] = self_s(f"cantor.{f}")
    out["cantor.context.hit_ratio"] = ratio(c["cantor.context.hits"], c["cantor.context.lookups"])

    # cf_core
    for f in ("continuants", "expand", "basic_interval"):
        out[f"cf_core.{f}.calls"] = calls(f"cf_core.{f}")
        out[f"cf_core.{f}.self_s"] = self_s(f"cf_core.{f}")
    out["cf_core.continuants.digits"] = c["cf_core.continuants.digits"]
    out["cf_core.expand.digits"] = c["cf_core.expand.digits"]

    # exponents / runlength
    out["exponents.decompose.self_s"] = self_s("exponents.decompose")
    out["exponents.decompose.ns_per_digit"] = ratio(self_s("exponents.decompose"), c["exponents.decompose.digits"], 1e9)
    for f in ("exponent_estimates", "uniform_hit_check"):
        out[f"exponents.{f}.calls"] = calls(f"exponents.{f}")
        out[f"exponents.{f}.self_s"] = self_s(f"exponents.{f}")
    out["runlength.run_profile.self_s"] = self_s("runlength.run_profile")
    out["runlength.run_profile.ns_per_digit"] = ratio(
        self_s("runlength.run_profile"), c["runlength.run_profile.digits"], 1e9
    )

    # verify
    out["verify.chain.steps"] = c["verify.chain.steps"]
    out["verify.chain.self_s"] = self_s("verify.chain")
    out["verify.chain.ns_per_digit"] = ratio(self_s("verify.chain"), c["verify.chain.digits"], 1e9)
    for f in ("mc_runlength", "mc_nu_zero", "lemma_suite"):
        out[f"verify.{f}.self_s"] = self_s(f"verify.{f}")
    out["verify.sample_digits_decimal.calls"] = calls("verify.sample_digits_decimal")
    out["verify.sample_digits_decimal.redraws"] = c["verify.sample_digits_decimal.redraws"]

    # cli
    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_s("cli.main")
    return out


def span_problems(tr: Tracer, wall_s: float, max_uncovered: float = 0.1) -> List[str]:
    """Properties the spans of a traced body must have, so that their self
    times are a partition of the timed op calls: every span closed with
    self time >= 0, every child inside its parent, every root span inside the
    op call it was opened in, and the uncovered time between 0 and
    `max_uncovered` of the wall time.  Returns what does not hold."""
    eps = 1e-6
    start, end = np.array(tr.start), np.array(tr.end)
    parent, op = np.array(tr.parent, dtype=np.int64), np.array(tr.op, dtype=np.int64)
    names = [tr.names[i] for i in tr.name_id]
    problems = []
    if np.isnan(end).any():
        problems.append(f"{int(np.isnan(end).sum())} spans never closed")
    dur = end - start
    covered = np.zeros(len(start))
    child = parent >= 0
    np.add.at(covered, parent[child], dur[child])
    for sid in np.flatnonzero(dur - covered < -eps)[:3]:
        problems.append(f"span {names[sid]} has self time {dur[sid] - covered[sid]:.3g} s")
    p = parent[child]
    outside = (start[child] < start[p] - eps) | (end[child] > end[p] + eps)
    for sid in np.flatnonzero(child)[outside][:3]:
        problems.append(f"span {names[sid]} lies outside its parent {names[parent[sid]]}")
    roots = np.flatnonzero(~child)
    bounds = np.array(tr.op_bounds).reshape(-1, 2)
    for sid in roots:
        j = op[sid]
        if not (0 <= j < len(bounds) and bounds[j, 0] - eps <= start[sid] and end[sid] <= bounds[j, 1] + eps):
            problems.append(f"root span {names[sid]} lies outside the timed call of op {j}")
            break
    uncovered = wall_s - float(dur[roots].sum())
    if not -eps <= uncovered <= max_uncovered * wall_s:
        problems.append(f"uncovered time {uncovered:.4g} s is not within [0, {max_uncovered:g} x {wall_s:.4g} s]")
    return problems


def _sampler_time(tr: Tracer, name_id, parent, dur) -> float:
    """Time of sample_measure spans minus the segment-root and stack builds
    they trigger (the outermost such builds below each sampler span)."""
    if "cantor.sample_measure" not in tr._name_ids:
        return 0.0
    sm = tr._name_ids["cantor.sample_measure"]
    builds = {tr._name_ids[b] for b in CONTEXT_BUILDS if b in tr._name_ids}
    total = float(dur[name_id == sm].sum())
    for sid in np.flatnonzero(np.isin(name_id, list(builds))):
        p = parent[sid]
        while p >= 0 and name_id[p] != sm and name_id[p] not in builds:
            p = parent[p]
        if p >= 0 and name_id[p] == sm:
            total -= dur[sid]
    return total
