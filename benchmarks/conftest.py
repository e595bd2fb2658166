"""Shared configuration for the benchmark harness.

Each bench module regenerates one of the paper's evaluation artifacts
(DESIGN.md §3 maps experiment ids E1-E7 to modules).  Benches both *time* the
harness (pytest-benchmark) and *print* the regenerated rows/series, so a
``pytest benchmarks/ --benchmark-only -s`` run doubles as the reproduction
record.

Scale knobs (the full paper configuration takes hours on the AOL-size
dataset):

* ``REPRO_BENCH_SCALE``  — dataset scale factor, default 0.05
* ``REPRO_BENCH_TRIALS`` — trials per (method, c) cell, default 5
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.config import ExperimentConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "5"))


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    """The shared reduced-size configuration for Figure 4/5 benches."""
    return ExperimentConfig(
        datasets=("BMS-POS", "Kosarak", "AOL", "Zipf"),
        c_values=(25, 50),
        trials=BENCH_TRIALS,
        dataset_scale=BENCH_SCALE,
    )


def emit(title: str, body: str) -> None:
    """Print a labeled reproduction artifact (visible with -s)."""
    bar = "=" * max(len(title), 20)
    print(f"\n{bar}\n{title}\n{bar}\n{body}")


def pytest_sessionfinish(session, exitstatus):
    """Flush recorded measurements to the BENCH_*.json artifacts.

    Each record goes to the path its ``REPRO_BENCH_RECORD*`` variable names
    (CI sets them all; point one into ``benchmarks/`` to update a committed
    record).  Without one it goes to a temp directory, so a plain test run
    leaves the tree unchanged.
    """
    import tempfile

    from benchmarks import record

    scratch = os.path.join(tempfile.gettempdir(), "repro-bench")
    for flush, variable, default in (
        (record.flush, "REPRO_BENCH_RECORD", record.DEFAULT_PATH),
        (record.flush_service, "REPRO_BENCH_RECORD_SERVICE", record.DEFAULT_SERVICE_PATH),
        (record.flush_outofcore, "REPRO_BENCH_RECORD_OUTOFCORE",
         record.DEFAULT_OUTOFCORE_PATH),
        (record.flush_server, "REPRO_BENCH_RECORD_SERVER", record.DEFAULT_SERVER_PATH),
        (record.flush_audit, "REPRO_BENCH_RECORD_AUDIT", record.DEFAULT_AUDIT_PATH),
    ):
        path = os.environ.get(variable)
        if not path:
            os.makedirs(scratch, exist_ok=True)
            path = os.path.join(scratch, os.path.basename(default))
        written = flush(path)
        if written:
            print(f"\nbenchmark record written: {written}")
