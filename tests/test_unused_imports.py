import ast
from pathlib import Path

import pytest

import attnpaths

PACKAGE = Path(attnpaths.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROOT = PACKAGE.parent.parent
# the readers that justify a public function: the package itself, the
# benchmark, and the acceptance suite's guarantees
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) + [
    ROOT / "tests" / "test_acceptance.py"]
# defaulted parameters that no reader passes yet, each with the reason it stays
UNPASSED_ALLOWED = {
    "analysis.prune_heads(renormalize)": "ROADMAP item 3 gives prune_heads a pipeline caller",
}


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that its code never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _scipy_imports(source: str) -> list[int]:
    """Lines of every scipy import in the module, function-local ones included."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(m.split(".")[0] == "scipy" for m in modules):
            lines.append(node.lineno)
    return sorted(lines)


def _private_imports(source: str) -> list[str]:
    """Underscore names the module takes from another attnpaths module: names
    imported from it, and attributes read off a module imported as a whole."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "attnpaths"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{alias.name} (line {node.lineno})")
                elif node.module in (None, "attnpaths"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


def _public_definitions(source: str) -> list[str]:
    """Names of the module's public top-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def _names_read(source: str) -> set[str]:
    """Every name the source reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each defaulted parameter of the
    module's public top-level functions; keyword-only ones have position None."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        found += [(node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
        found += [(node.name, arg.arg, None) for arg, default in
                  zip(node.args.kwonlyargs, node.args.kw_defaults) if default is not None]
    return found


def _arguments_passed(source: str) -> set[tuple[str, str | int]]:
    """(callee, keyword or position) for every argument of every call in the
    source, the callee being the called name or attribute; a *args splat
    passes "*", every position, and a **kwargs splat "**", every keyword."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            passed |= {(callee, "*" if isinstance(arg, ast.Starred) else i)
                       for i, arg in enumerate(node.args)}
            passed |= {(callee, kw.arg or "**") for kw in node.keywords}
    return passed


def _unpassed(defaulted: list, passed: set) -> list[str]:
    """The defaulted parameters that no call passes, by keyword or by position."""
    unpassed = []
    for fn, param, pos in defaulted:
        ways = {(fn, param), (fn, "**")}
        if pos is not None:
            ways |= {(fn, pos), (fn, "*")}
        if not ways & passed:
            unpassed.append(f"{fn}({param})")
    return unpassed


def test_detector_flags_an_unused_import():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)", "c (line 2)"]


def test_detector_flags_a_scipy_import():
    source = ("import os, scipy.linalg\nfrom . import scipy\n"
              "def f():\n    from scipy.optimize import minimize\n    import scipy as sp\n")
    assert _scipy_imports(source) == [1, 4, 5]


def test_detector_flags_a_private_cross_module_import():
    source = ("from __future__ import annotations\nfrom os import _exit\n"
              "from .solver import _x, pd_inverse\nfrom . import fileio\n"
              "def f():\n    from attnpaths.model import _y as y\n"
              "    return fileio._write, fileio.write_json, fileio.__name__\n")
    assert _private_imports(source) == ["_x (line 3)", "_y (line 6)", "fileio._write (line 7)"]


def test_detector_flags_an_unread_public_definition():
    source = ("class A:\n    pass\ndef f():\n    return A\ndef g():\n    pass\n"
              "def _h():\n    pass\ndef k():\n    pass\nk = 1\n")
    read = _names_read(source) | _names_read("import m\nm.f()\nm.g = 1\n")
    assert [n for n in _public_definitions(source) if n not in read] == ["g", "k"]


def test_detector_flags_a_default_no_call_passes():
    source = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
              "def g(a=1, b=2):\n    pass\ndef _h(a=1):\n    pass\n")
    calls = "f(0, 1, e=5)\nm.g(*xs)\n"
    assert _unpassed(_defaulted_parameters(source), _arguments_passed(calls)) == [
        "f(c)", "f(d)"]
    assert _unpassed(_defaulted_parameters(source), _arguments_passed("f(0, **kw)\n")) == [
        "g(a)", "g(b)"]


def test_every_default_parameter_is_passed_by_a_reader():
    # a defaulted parameter of a public function stays only if the package, the
    # benchmark or an acceptance guarantee passes it, by keyword or by position
    passed = set().union(*(_arguments_passed(p.read_text()) for p in READERS))
    unpassed = [f"{path.stem}.{name}" for path in MODULES
                for name in _unpassed(_defaulted_parameters(path.read_text()), passed)]
    assert sorted(unpassed) == sorted(UNPASSED_ALLOWED)


def test_every_public_definition_has_a_reader():
    # a public function or class stays only if the package, the benchmark or an
    # acceptance guarantee reads it; test-only references live under tests/
    read = set().union(*(_names_read(p.read_text()) for p in READERS))
    unread = [f"{path.name}: {name}" for path in MODULES
              for name in _public_definitions(path.read_text()) if name not in read]
    assert unread == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_scipy_imports(path):
    # the package runs on numpy alone; scipy is a test-only oracle
    assert _scipy_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_another_module(path):
    # a helper that a second module needs is public, like solver.pd_inverse,
    # which the predictor calls
    assert _private_imports(path.read_text()) == []


def test_public_names_are_listed():
    # a new public name lands only together with an edit here
    assert sorted(attnpaths.__all__) == sorted([
        "analysis", "data", "kernel", "model", "paths", "predictor", "sampler", "solver",
        "path_heads", "Readout",
        "PathFeatureMatrix", "compute_features", "path_features", "path_pair_gram",
        "total_kernel", "kernel_blocks", "kernel_task_alignment",
        "OrderParameterSet", "SolverConfig", "SolveTrace", "SolverFailure",
        "action", "action_gradient", "solve_saddle",
        "PredictorReport", "SweepResult", "predictor_mean", "predictor_variance",
        "classification_accuracy", "evaluate_predictor", "temperature_sweep",
        "head_scores", "prune_heads",
        "HmcTaskConfig", "SequenceDataset", "state_vectors", "sample_hidden_chain",
        "gen_hmc_dataset", "build_good_heads", "build_random_head", "build_hmc_attention",
        "HmcConfig", "PosteriorSamples", "log_posterior", "leapfrog", "run_hmc", "hmc_sample",
        "empirical_order_parameter", "empirical_predictor",
    ])
    assert len(attnpaths.__all__) == 49
