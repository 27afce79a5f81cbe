"""Checks on the package source itself."""

import ast
import importlib
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cfdim"


def test_no_assert_statements_in_package():
    # `python -O` strips asserts, so invariants must raise real errors
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted([*SRC.rglob("*.py"), *(ROOT / "scripts").rglob("*.py")])
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/cfdim or scripts: {found}"


# numpy and mpmath are the declared dependencies; scipy is installed in some
# environments but not declared, so nothing may import it
ALLOWED_IMPORTS = set(sys.stdlib_module_names) | {"numpy", "mpmath", "cfdim"}


def _foreign_imports(paths):
    """path:line module of every absolute import outside ALLOWED_IMPORTS."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.partition(".")[0] not in ALLOWED_IMPORTS]
    return found


def test_imports_are_stdlib_or_declared():
    found = _foreign_imports(sorted([*SRC.rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]))
    assert not found, f"imports of undeclared packages in src/cfdim or scripts: {found}"


def test_import_guard_catches_an_undeclared_package(tmp_path):
    mutant = tmp_path / "mutant.py"
    mutant.write_text("import math\n\ndef f():\n    from scipy.linalg import eig\n    import numpy.linalg, scipy\n")
    assert _foreign_imports([mutant]) == ["mutant.py:4 scipy.linalg", "mutant.py:5 scipy"]


def _stack_layout_reads(paths):
    """path:line attr of every read of .levels or .step and every call of get_grid."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("levels", "step"):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Call) and "get_grid" in (getattr(node.func, n, None) for n in ("attr", "id")):
                found.append(f"{path.name}:{node.lineno} get_grid()")
    return found


def test_only_transfer_reads_a_stack_layout():
    # a segment stack's levels 0..K on the default grid and its per-level
    # step are transfer.SegmentStack's own: others ask it for levels, the
    # digit law (digit_cdf) and its bracket table (cdf_table)
    found = _stack_layout_reads(sorted(p for p in SRC.rglob("*.py") if p.name != "transfer.py"))
    assert not found, f"reads of a segment stack's layout outside transfer.py: {found}"


def test_stack_layout_guard_catches_a_read(tmp_path):
    mutant = tmp_path / "mutant.py"
    mutant.write_text("def f(st, t):\n    return st.levels[-1], st.step + t.get_grid(32).degree\n")
    assert _stack_layout_reads([mutant]) == ["mutant.py:2 .levels", "mutant.py:2 .step", "mutant.py:2 get_grid()"]


DICT_FACTORIES = {"dict", "OrderedDict", "defaultdict"}


def _is_dict(value) -> bool:
    if isinstance(value, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        return name in DICT_FACTORIES
    return False


def test_no_module_level_dicts():
    # a module-level dict is a cache that nothing evicts; caches go through
    # functools (lru_cache, cache)
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_dict(value):
                found += [f"{path.name}:{node.lineno} {t.id}" for t in targets if isinstance(t, ast.Name)]
    assert not found, f"module-level dicts in src/cfdim: {found}"


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_script_imports(path):
    # a script that imports a removed or renamed cfdim name fails here; its
    # __main__ guard keeps it from running
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location(f"_script_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved


def test_cantor_import_leaves_mpmath_unloaded():
    # only the exact threshold of uniform_hit_check needs mpmath, and it imports
    # it there; a fresh process per module shows what its import pulls in
    for module in ("cfdim.cantor", "cfdim.cli"):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, {module}; print('mpmath' in sys.modules)"],
            capture_output=True, text=True, check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        )
        assert proc.stdout == "False\n", module


def _tracing_targets():
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("bench/tracing.py defines no TARGETS")


def test_bench_tracing_targets_resolve():
    # the traced benchmark wraps these names; one that no longer resolves
    # breaks `bench/run.py --trace 1` and `--self-check`
    missing = []
    for layer, attrs in _tracing_targets().items():
        mod = importlib.import_module(f"cfdim.{layer}")
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            scope = vars(getattr(mod, owner)) if owner else vars(mod)
            if not callable(scope.get(name)):
                missing.append(f"{layer}.{attr}")
    assert not missing, f"bench/tracing.py TARGETS that cfdim no longer defines: {missing}"


# arguments that bench/tracing.py's hooks read by name from the bound call;
# keep_levels tells segment_stack's own builds from segment_log_sum's iteration
TRACED_ARGUMENTS = {
    ("cf_core", "continuants"): ("d",),
    ("exponents", "decompose"): ("d",),
    ("dim_solver", "sum_power"): ("B", "spec"),
    ("transfer", "segment_stack"): ("free", "keep_levels"),
    ("transfer", "segment_log_sum"): ("free",),
    ("cantor", "sample_measure"): ("spec", "depth"),
}


@pytest.mark.parametrize("target", sorted(TRACED_ARGUMENTS), ids=".".join)
def test_bench_tracing_hook_arguments_exist(target):
    layer, name = target
    params = inspect.signature(getattr(importlib.import_module(f"cfdim.{layer}"), name)).parameters
    missing = [a for a in TRACED_ARGUMENTS[target] if a not in params]
    assert not missing, f"bench/tracing.py reads {missing} of cfdim.{layer}.{name}"


def test_bench_self_check_passes():
    # span nesting, layer self times that sum to the traced wall time, and
    # the zero cells of tracing.BYPASSED are checked only by the self-check
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--self-check"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0 and proc.stdout.splitlines()[-1] == "self-check PASS", proc.stdout + proc.stderr


def test_bench_tracing_run_profile_result_has_n_max():
    # the tracer counts run_profile's digits from the result's n_max
    from cfdim.runlength import run_profile

    assert run_profile([1, 2, 2]).n_max == 3
