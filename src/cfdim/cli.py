"""Command-line front end.

Every command echoes its full effective configuration inside the JSON output
(no timestamps), so re-running the canonical argv from the echo reproduces
byte-identical output.  Exit codes: 0 ok, 1 check failed, 2 parse error,
3 range error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import __version__, cantor, dim_solver, exponents, runlength, transfer, verify
from .cf_core import MAX_DIGIT, RealInput, continuants, expand
from .errors import Exhausted, Inadmissible, InputOutOfRange, NoConvergence, Overflow

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_RANGE = 3


def _stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _emit_text(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, args) -> None:
    """Write the payload as one JSON line, with the command's config echo under "config"."""
    _emit_text(_stable_json({"config": _config_echo(args), **payload}) + "\n", args)


def _frac_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _parse_param(s: str):
    if "/" in s:
        p, q = map(int, s.split("/"))
        if not q:
            raise ValueError(f"zero denominator in {s!r}")
        return Fraction(p, q)
    if "." in s or "e" in s.lower() or s.lstrip("+-").lower() in ("inf", "infinity"):
        return float(s)  # a decimal, or infinity of either sign in any letter case
    return int(s)


_NOT_ECHOED = ("command", "fn", "out", "csv")  # the command, its handler, and the flags that only route output


def _config_echo(args) -> dict:
    """The command and every flag of its parsed namespace but --out and --csv,
    with `argv`, the canonical command line that re-runs it.

    The flags come in parser order: argparse sets each subparser default in
    the order the actions were added and parsed values overwrite them in
    place, set_defaults(fn=...) comes last, and the subparser's namespace is
    copied into the main one after `command`.  cmd_dim reassigns args.i in
    place before it echoes, which keeps its position.
    """
    cfg = {"command": args.command, "schema_version": SCHEMA_VERSION, "version": __version__}
    argv = [args.command]
    for f, v in vars(args).items():
        if f in _NOT_ECHOED:
            continue
        if isinstance(v, Fraction):
            echoed = _frac_str(v)
        elif isinstance(v, float) and math.isinf(v):
            echoed = "inf" if v > 0 else "-inf"  # strict JSON has no Infinity literal
        else:
            echoed = v
        cfg[f.replace("_", "-")] = echoed
        if v is None:
            continue
        flag = "--" + f.replace("_", "-")
        if isinstance(v, bool):
            if v:
                argv.append(flag)
        else:  # one token for "-...", which argparse would read as a flag
            argv.extend([f"{flag}={echoed}"] if str(echoed).startswith("-") else [flag, str(echoed)])
    cfg["argv"] = argv
    return cfg


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def _parse_real_input(args) -> RealInput:
    given = [x for x in (args.rational, args.surd, args.decimal) if x is not None]
    if len(given) != 1 or not given[0]:
        raise InputOutOfRange("give exactly one non-empty value of --rational, --surd, --decimal")
    if args.rational is not None:
        p, q = args.rational.split("/")
        return RealInput.rational(int(p), int(q))
    if args.surd is not None:
        # "sqrt:d,u,v,w" encodes (u + v*sqrt(d))/w; "sqrt:d" means sqrt(d)-floor
        body = args.surd
        if body.startswith("sqrt:"):
            body = body[5:]
        parts = [int(x) for x in body.split(",")]
        if len(parts) not in (1, 4):
            raise ValueError(f"cannot parse surd {args.surd!r}: need sqrt:d or sqrt:d,u,v,w, got {len(parts)} fields")
        if len(parts) == 1:
            d = parts[0]
            # isqrt needs d >= 0; RealInput.surd rejects a radicand below 1 itself
            return RealInput.surd(-math.isqrt(max(d, 0)), 1, 1, d)
        d, u, v, w = parts
        return RealInput.surd(u, v, w, d)
    return RealInput.decimal_input(args.decimal, args.precision)


def cmd_expand(args) -> int:
    x = _parse_real_input(args)
    d = expand(x, args.n)
    payload = {"digits": list(d.digits), "exhausted": d.exhausted}
    if d.digits:
        t = continuants(d)
        ks = range(1, len(d.digits) + 1)
        # str(Decimal(v)) prints every digit; str(v) stops at Python's int-to-str digit limit
        payload["convergents"] = [{"k": k, "p": str(Decimal(t.pk(k))), "q": str(Decimal(t.qk(k)))} for k in ks]
        # |I_k| = 1/(q_k (q_k + q_{k-1})), as basic_interval gives it
        denoms = [t.qk(k) * (t.qk(k) + t.qk(k - 1)) for k in ks]
        payload["intervals"] = [
            {"k": k, "length": f"1/{Decimal(m)}", "length_float": 1 / m} for k, m in zip(ks, denoms)
        ]
    _emit(payload, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dim
# ---------------------------------------------------------------------------


def _parse_curve(spec: str, kind: str):
    """name=lo..hi[:count] -> (name, values); integer step for int endpoints.
    The name is B or a parameter of the kind's formula.  With a count the
    endpoints are parameter values, as the parameter flags read them, and the
    points are the exact rationals lo + k (hi - lo)/(count - 1), k < count,
    made as they are read; count 1 gives lo.  An infinite endpoint, or a B
    point above transfer.MAX_B or not an integer, raises InputOutOfRange
    before any point."""
    name, _, rng = spec.partition("=")
    names = ("B",) + dim_solver.theorem_params(kind)
    if name not in names:
        raise ValueError(f"--curve parameter {name!r} is not one of {', '.join(names)} for --kind {kind}")
    lo, _, rest = rng.partition("..")
    hi, _, count = rest.partition(":")
    if not lo or not hi:
        raise ValueError(f"cannot parse curve {spec!r}: need both endpoints, name=lo..hi[:count]")
    if count:
        n = int(count)
        if n < 0:
            raise InputOutOfRange(f"curve point count must be >= 0, got {count}")
        a, b = (dim_solver.to_fraction(_parse_param(x)) for x in (lo, hi))
        step = (b - a) / max(n - 1, 1)
        vals = (a + step * k for k in range(n))
        bad = [v for v in (a, a + step)[:n] if v.denominator != 1]  # all points are integers iff these are
        if name == "B" and bad:
            raise InputOutOfRange(f"--curve B points must be integers, got {bad[0]}")
    else:
        a, b = int(lo), int(hi)
        vals = range(a, b + 1)
    if name == "B":
        transfer.check_alphabet(int(max(a, b)), "--curve B")
    return name, vals


def _estimate_payload(e: dim_solver.DimEstimate) -> dict:
    return {
        "value": e.value,
        "bracket": [e.bracket[0], e.bracket[1]],
        "method": e.method,
        "n_used": e.n_used,
        "B_used": e.B_used,
        "trace": list(e.trace),
    }


def cmd_dim(args) -> int:
    args.i = dim_solver.theorem_run_digit(args.kind, args.i)  # echo the run digit the formulas use
    kw = dict(nu_hat=args.nu_hat, nu=args.nu, alpha=args.alpha, beta=args.beta, i=args.i)
    if args.B_schedule:
        kw["B_schedule"] = dim_solver.check_schedule([int(b) for b in args.B_schedule.split(",")], "--B-schedule")
        transfer.check_alphabet(kw["B_schedule"][-1], "--B-schedule")
    if args.curve:
        name, vals = _parse_curve(args.curve, args.kind)
        if name == "B":
            # sweep the finite-alphabet value of the theorem's argument, checked before any point
            xi = dim_solver.theorem_argument(args.kind, nu_hat=args.nu_hat, nu=args.nu, alpha=args.alpha, beta=args.beta)
        rows = []
        for v in vals:
            if name != "B":
                e = dim_solver.theorem_dims(args.kind, **{**kw, name: v})
            elif xi is None:
                e = dim_solver.theorem_dims(args.kind, **kw)
            else:
                e = dim_solver.spectral_dim(int(v), xi, args.i)
            rows.append((v, e.value, e.bracket[0], e.bracket[1]))
        lines = ["param,value,lo,hi"] + [f"{float(p)!r},{v!r},{lo!r},{hi!r}" for p, v, lo, hi in rows]
        _emit_text("\n".join(lines) + "\n", args)
        return EXIT_OK
    e = dim_solver.theorem_dims(args.kind, **kw)
    _emit({"estimate": _estimate_payload(e)}, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# cantor / exponents / runlength / verify
# ---------------------------------------------------------------------------


def _build_spec(args) -> cantor.CantorSpec:
    if args.alpha is not None and args.beta is not None:
        sp = cantor.construct_sequences_runlength(args.alpha, args.beta, k_max=args.k_max)
    else:
        if args.nu_hat is None or args.nu is None:
            raise InputOutOfRange("give --nu-hat and --nu, or --alpha and --beta")
        sp = cantor.construct_sequences(args.nu_hat, args.nu, k_max=args.k_max)
    return cantor.CantorSpec(B=args.B, i=args.i, sp=sp)


def cmd_cantor(args) -> int:
    for flag in ("sample", "seed", "emit_digits"):
        if getattr(args, flag) < 0:
            raise InputOutOfRange(f"--{flag.replace('_', '-')} must be >= 0, got {getattr(args, flag)}")
    spec = _build_spec(args)
    # the schedule prints as JSON integers, which int's digit limit (Python >= 3.10.7) bounds; m_k > n_k
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(spec.sp.m) >= 10**limit:
        raise InputOutOfRange(f"--k-max {args.k_max} gives schedule entries of more than {limit} digits; lower --k-max")
    if not 1 <= args.depth_k <= spec.sp.k_max:
        raise InputOutOfRange(f"--depth-k must lie in 1..{spec.sp.k_max} (--k-max), got {args.depth_k}")
    depth = spec.sp.m[args.depth_k - 1]
    samples = []
    for s in range(args.sample):
        d = cantor.sample_measure(spec, depth=depth, seed=args.seed + s)
        row = {"seed": args.seed + s, "digits": d.digits[: args.emit_digits]}
        if args.local_dim:
            series = cantor.local_dimension_series(spec, d.digits)
            row["local_dimension"] = [{"depth": m, "value": v} for m, v in series]
        samples.append(row)
    _emit({"schedule": {"n": spec.sp.n, "m": spec.sp.m}, "depth": depth, "samples": samples}, args)
    return EXIT_OK


_DIGIT_FILE_BYTES = b"0123456789 \t\n\v\f\r,"


def _read_digit_file(path: str) -> np.ndarray:
    """The partial quotients of a digit file as an int64 array.

    The grammar and the exit code of each error are in docs/formats.md.  A
    token's value is summed over its place values in numpy, one place at a
    time over the tokens that reach it, up to 10^17; a token longer than 18
    characters may exceed 2^63 - 1 and is read exactly by `int` instead.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    bad = data.translate(None, _DIGIT_FILE_BYTES)
    if bad:
        raise ValueError(
            f"{path}: byte {bad[:1]!r} at offset {data.index(bad[:1])} is not an ASCII digit, whitespace or ','"
        )
    raw = np.frombuffer(data, dtype=np.uint8)
    # first and one-past-last offsets of each token, alternating; every separator sorts below b"0"
    bounds = np.flatnonzero(np.diff(raw >= ord("0"), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size == 0:
        raise InputOutOfRange(f"{path}: the digit file holds no digits")
    lengths = ends - starts
    a = np.subtract(raw[ends - 1], ord("0"), dtype=np.int64)
    reach, place = np.flatnonzero(lengths > 1), 1
    while reach.size and place < 18:
        a[reach] += np.subtract(raw[ends[reach] - 1 - place], ord("0"), dtype=np.int64) * 10**place
        place += 1
        reach = reach[lengths[reach] > place]
    for k in np.flatnonzero(lengths > 18).tolist():
        token = data[starts[k] : ends[k]].lstrip(b"0") or b"0"
        if len(token) > 19 or int(token) > MAX_DIGIT:
            raise Overflow(f"{path}: digit {k + 1} exceeds 2^63 - 1")
        a[k] = int(token)
    if not a.all():
        raise InputOutOfRange(f"{path}: digit {int(a.argmin()) + 1} is 0, but partial quotients are positive")
    return a


def cmd_exponents(args) -> int:
    digits = _read_digit_file(args.input)
    horizon = len(digits) if args.N is None else args.N
    if horizon < 1:
        raise InputOutOfRange(f"--N must be >= 1, got {horizon}")
    bd = exponents.decompose(digits, args.target_i)
    est = exponents.exponent_estimates(bd, horizon=horizon)
    payload = {
        "nu_hat_est": est.nu_hat_est,
        "nu_est": est.nu_est,
        "k_used": est.k_used,
        "record_blocks": bd.record_blocks,
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_runlength(args) -> int:
    digits = _read_digit_file(args.input)
    prof = runlength.run_profile(digits)
    est = runlength.ratio_estimates(prof, args.tail_fraction)
    payload = {
        "n_max": prof.n_max,
        "R_final": int(prof.R[-1]),
        "liminf_est": est.liminf_est,
        "limsup_est": est.limsup_est,
        "window": list(est.window),
    }
    if args.emit_profile:
        payload["R"] = prof.R.tolist()
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise InputOutOfRange(f"--seed must be >= 0, got {args.seed}")
    if args.suite == "lemmas":
        rep = verify.lemma_suite(seed=args.seed)
    elif args.suite == "solver":
        rep = verify.solver_crosscheck()
    else:  # the Monte Carlo suites; argparse admits no other name
        cfg = verify.McConfig(seed=args.seed, samples=args.samples, n_digits=args.n)
        rep = verify.mc_runlength(cfg) if args.suite == "runlength" else verify.mc_nu_zero(cfg, i=args.i)
    if args.csv:
        _emit_text(rep.series_csv(), args)
    else:
        _emit({"report": rep.to_json_dict()}, args)
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Exits 2 on a parse error.  Takes no abbreviated flags, so a removed
    flag such as `cantor --d` is refused instead of read as `--depth-k`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command tree, built once per process: parse_args leaves it unchanged."""
    p = _Parser(prog="cfdim", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", help="write output to a file instead of stdout")

    e = sub.add_parser("expand", help="continued-fraction expansion with exact convergents")
    e.add_argument("--rational", help='p/q, e.g. "5/8"')
    e.add_argument("--surd", help='"sqrt:d" for sqrt(d) mod 1, or "sqrt:d,u,v,w" for (u+v*sqrt(d))/w')
    e.add_argument("--decimal", help="decimal string in (0,1)")
    e.add_argument("--n", type=int, default=10)
    e.add_argument("--precision", type=int, default=None, help="decimal precision budget in bits")
    add_common(e)
    e.set_defaults(fn=cmd_expand)

    d = sub.add_parser("dim", help="dimension values of the piecewise theorem formulas")
    d.add_argument("--kind", required=True, choices=["U_set", "E_hat", "E_joint", "nu_level", "FG", "F"])
    d.add_argument("--nu-hat", dest="nu_hat", type=_parse_param, default=None)
    d.add_argument("--nu", type=_parse_param, default=None)
    d.add_argument("--alpha", type=_parse_param, default=None)
    d.add_argument("--beta", type=_parse_param, default=None)
    d.add_argument("--i", type=int, default=1)
    d.add_argument("--B-schedule", dest="B_schedule", default=None, help="comma-separated increasing bounds")
    d.add_argument("--curve", default=None, help='sweep spec, e.g. "nu=0.1..2.0:20" or "B=2..6"')
    add_common(d)
    d.set_defaults(fn=cmd_dim)

    c = sub.add_parser("cantor", help="sample constrained-run Cantor constructions")
    c.add_argument("--nu-hat", dest="nu_hat", type=_parse_param, default=None)
    c.add_argument("--nu", type=_parse_param, default=None)
    c.add_argument("--alpha", type=_parse_param, default=None)
    c.add_argument("--beta", type=_parse_param, default=None)
    c.add_argument("--B", type=int, default=3)
    c.add_argument("--i", type=int, default=1)
    c.add_argument("--depth-k", dest="depth_k", type=int, default=6, help="sample to the k-th block boundary")
    c.add_argument("--k-max", dest="k_max", type=int, default=12)
    c.add_argument("--sample", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--emit-digits", dest="emit_digits", type=int, default=64, help="digits echoed per sample")
    c.add_argument("--local-dim", dest="local_dim", action="store_true")
    add_common(c)
    c.set_defaults(fn=cmd_cantor)

    x = sub.add_parser("exponents", help="record blocks and exponent estimates of a digit file")
    x.add_argument("--input", required=True, help="whitespace/comma separated digit file")
    x.add_argument("--target-i", dest="target_i", type=int, default=1)
    x.add_argument("--N", type=int, default=None)
    add_common(x)
    x.set_defaults(fn=cmd_exponents)

    r = sub.add_parser("runlength", help="maximal run-length profile and ratio estimates")
    r.add_argument("--input", required=True)
    r.add_argument("--tail-fraction", dest="tail_fraction", type=float, default=0.5)
    r.add_argument("--emit-profile", dest="emit_profile", action="store_true")
    add_common(r)
    r.set_defaults(fn=cmd_runlength)

    v = sub.add_parser("verify", help="property suites and Monte Carlo laws")
    v.add_argument("--suite", required=True, choices=["lemmas", "solver", "runlength", "nu_zero"])
    v.add_argument("--seed", type=int, default=20260809)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--n", type=int, default=1_000_000)
    v.add_argument("--i", type=int, default=1)
    v.add_argument("--csv", action="store_true", help="emit the horizon series as CSV")
    add_common(v)
    v.set_defaults(fn=cmd_verify)

    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputOutOfRange, Overflow, Exhausted, Inadmissible) as exc:
        sys.stderr.write(f"range error: {exc}\n")
        return EXIT_RANGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except NoConvergence as exc:
        sys.stderr.write(f"no convergence: {exc}\n")
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
