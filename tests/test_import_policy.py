"""Import policy: each entry point loads only the code it runs.

A boot of ``repro serve`` (and of every shard worker it spawns) or of the
engine pays for every module it imports, so the serving and engine paths
must not load SciPy or the analysis, experiment and attack code.  The
packages export their public names lazily (:mod:`repro._lazy`); these tests
pin both sides of that: what stays unloaded on the hot entry points, and
that the public API still resolves in full.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Module prefixes no serving or engine entry point may load.
FORBIDDEN = ("scipy", "repro.analysis", "repro.experiments", "repro.attacks")

_RUN_TRIALS = """
import numpy as np
from repro.engine import run_trials
from repro.rng import derive_rngs
values = np.floor(np.random.default_rng(3).pareto(1.5, size=400) * 20 + 1)
for variant in ("alg1", "alg2", "retr", "em"):
    for chunk_n in (None, 100):
        run_trials(variant, values, [0.1, 1.0], 5, 2, thresholds=20.0,
                   rng=derive_rngs(3, 2, variant), chunk_n=chunk_n)
"""

ENTRY_POINTS = {
    "cli": "import repro.cli",
    "server": "import repro.service.runtime.server",
    "shard": "import repro.service.runtime.shard",
    "store": "import repro.service.store",
    "engine-run_trials": _RUN_TRIALS,
}

#: Library modules a ``repro serve`` boot never runs; the serving entry
#: points reach their packages only through the lazy export tables.
SERVE_UNUSED = (
    "repro.core.epsilon_delta",
    "repro.core.retraversal",
    "repro.mechanisms.geometric",
    "repro.queries.stream",
    "repro.data.histograms",
    "repro.data.loaders",
)

SERVE_ENTRY_POINTS = ("cli", "server", "shard", "store")

LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.queries",
    "repro.mechanisms",
    "repro.engine",
    "repro.metrics",
    "repro.analysis",
    "repro.service",
    "repro.service.runtime",
)


def loaded_modules(code: str) -> list:
    """Names in ``sys.modules`` after *code* runs in a fresh interpreter."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_loads_no_scipy_analysis_or_experiments(entry):
    modules = loaded_modules(ENTRY_POINTS[entry])
    assert any(m.startswith("repro.") for m in modules)
    leaked = [m for m in modules if m.startswith(FORBIDDEN)]
    assert leaked == [], f"{entry} imports {leaked[:10]}"


@pytest.mark.parametrize("entry", SERVE_ENTRY_POINTS)
def test_serve_boot_skips_unused_library_modules(entry):
    modules = set(loaded_modules(ENTRY_POINTS[entry]))
    loaded = [m for m in SERVE_UNUSED if m in modules]
    assert loaded == [], f"{entry} imports {loaded}"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__ and len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        value = getattr(module, name)
        assert not isinstance(value, types.ModuleType), name
        assert name in dir(module)
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        getattr(module, "not_exported")


def test_star_import_binds_all_of_repro():
    import repro

    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["__version__"] == repro.__version__
    assert namespace["StandardSVT"] is importlib.import_module("repro.core").StandardSVT


def test_privacy_report_reachable_from_metrics():
    import repro.metrics
    from repro.metrics.privacy import privacy_report

    assert repro.metrics.privacy_report is privacy_report
    report = repro.metrics.privacy_report(
        "alg1", [2.0, -10.0], [3.0, -11.0], epsilon=1.0, c=1)
    assert not report.violated
