"""The import contract: each process imports only what it runs.

A sweep cell, a benchmark set-up or ``repro --help`` starts a fresh
interpreter, and for short cells its imports are most of the start-up
time.  So the package ``__init__`` modules of ``repro.experiments``,
``repro.telemetry`` and ``repro.staticdep`` load their names on first
access, and the issue loop, which every simulation runs, is imported
with the simulator so that forked workers inherit it compiled.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

#: the experiment runners' modules, which only ``repro experiment`` runs
RUNNER_MODULES = {
    "repro.experiments.figures",
    "repro.experiments.tables",
    "repro.experiments.slicewarm",
    "repro.experiments.spectaint",
    "repro.experiments.staticdep",
}


def loaded_modules(code):
    """The names in ``sys.modules`` after *code* runs in a fresh interpreter."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def harness_imports():
    """The ``repro`` modules the benchmark harness imports."""
    tree = ast.parse((ROOT / "perfbench" / "harness.py").read_text())
    return sorted(
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
    )


#: what neither a benchmark set-up nor the CLI's parser may load
UNWANTED = RUNNER_MODULES | {
    "repro.multiscalar.sanitizer",
    "repro.telemetry.prometheus",
    "repro.telemetry.ledger",
    "http.server",
}
UNWANTED_PACKAGES = ("repro.staticdep", "repro.oracle")


def unwanted(modules):
    return sorted(m for m in modules if m in UNWANTED or m.startswith(UNWANTED_PACKAGES))


def test_benchmark_setup_loads_the_issue_loop_and_no_unrelated_subsystem():
    imports = harness_imports()
    assert "repro.experiments.executor" in imports and "repro.multiscalar" in imports
    modules = loaded_modules("\n".join("import %s" % name for name in imports))
    assert {"repro.multiscalar.batched", "repro.frontend.columns"} <= modules
    assert unwanted(modules) == []


def test_cli_parser_loads_no_runner_analysis_or_exporter():
    modules = loaded_modules("import repro.cli\nrepro.cli._build_parser()")
    assert unwanted(modules) == []


def test_experiment_ids_match_the_runners():
    from repro.experiments import ALL_EXPERIMENTS, EXPERIMENT_IDS

    assert EXPERIMENT_IDS == tuple(ALL_EXPERIMENTS)


def test_cli_fail_on_choices_match_the_linter():
    from repro.cli import FAIL_ON_CHOICES
    from repro.staticdep.lint import FAIL_ON_CHOICES as LINT_FAIL_ON_CHOICES

    assert FAIL_ON_CHOICES == LINT_FAIL_ON_CHOICES


def test_lazy_names_load_their_module_once():
    modules = loaded_modules(
        "import repro.telemetry as t\n"
        "server = t.MetricsServer\n"
        "assert t.MetricsServer is server and 'MetricsServer' in vars(t)\n"
        "from repro.experiments import sweep\n"
        "from repro.staticdep import lint"
    )
    assert {"repro.telemetry.prometheus", "repro.experiments.sweeps",
            "repro.staticdep.lint"} <= modules
    assert "repro.telemetry.ledger" not in modules
    assert not modules & RUNNER_MODULES


@pytest.mark.parametrize("package", ["repro.experiments", "repro.staticdep", "repro.telemetry"])
def test_lazy_names_match_their_type_checking_imports(package):
    """A lazy package declares each name twice: in an import that only
    type checkers run and in the name -> module map it loads from."""
    path = ROOT / "src" / Path(*package.split(".")) / "__init__.py"
    guard = next(
        node for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING"
    )
    imported = {
        alias.name: node.module[len(package) + 1:]
        for node in guard.body
        if isinstance(node, ast.ImportFrom) and node.module.startswith(package + ".")
        for alias in node.names
    }
    assert imported == importlib.import_module(package)._LAZY

