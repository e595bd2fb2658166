"""Machine-readable benchmark results: the ``BENCH_*.json`` artifacts.

The enforced speedup benches (``test_bench_engine.py`` /
``test_bench_retraversal.py``) call :func:`record` with their measurements
and the service bench (``test_bench_service.py``) calls
:func:`record_service`; a session-finish hook in ``benchmarks/conftest.py``
flushes everything to ``BENCH_*.json`` files: where the
``REPRO_BENCH_RECORD*`` variables point (CI uploads them as build
artifacts), else into a temp directory, so a test run never rewrites the
committed records.

Schema (version 1)::

    {
      "schema": 1,
      "python": "3.12.1",
      "platform": "Linux-...",
      "peak_rss_kb": 123456,            # process-wide high-water mark
      "results": {
        "<variant>": {
          "speedup": 17.3,              # engine vs streaming wall clock
          "trials_per_sec": 4200.0,     # engine throughput
          "streaming_ms": 81.2,
          "engine_ms": 4.7,
          "trials": 20, "n": 4000, "c": 25,
          "peak_rss_kb": 120000         # high-water mark when recorded
        }, ...
      }
    }
"""

from __future__ import annotations

import json
import os
import platform
import resource
from typing import Dict, Optional

__all__ = [
    "record",
    "record_service",
    "record_outofcore",
    "record_server",
    "record_audit",
    "flush",
    "flush_service",
    "flush_outofcore",
    "flush_server",
    "flush_audit",
    "peak_rss_kb",
    "DEFAULT_PATH",
    "DEFAULT_SERVICE_PATH",
    "DEFAULT_OUTOFCORE_PATH",
    "DEFAULT_SERVER_PATH",
    "DEFAULT_AUDIT_PATH",
]

DEFAULT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_engine.json")
DEFAULT_SERVICE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_service.json")
DEFAULT_OUTOFCORE_PATH = os.path.join(os.path.dirname(__file__), "BENCH_outofcore.json")
DEFAULT_SERVER_PATH = os.path.join(os.path.dirname(__file__), "BENCH_server.json")
DEFAULT_AUDIT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_audit.json")

_RESULTS: Dict[str, dict] = {}
_SERVICE_RESULTS: Dict[str, dict] = {}
_OUTOFCORE_RESULTS: Dict[str, dict] = {}
_SERVER_RESULTS: Dict[str, dict] = {}
_AUDIT_RESULTS: Dict[str, dict] = {}


def peak_rss_kb() -> int:
    """The process's peak resident set size, in kilobytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalize to kB.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # pragma: no cover - platform-specific
        peak //= 1024
    return int(peak)


def record(variant: str, **fields) -> None:
    """Record one variant's benchmark result for the end-of-session flush."""
    _RESULTS[str(variant)] = {**fields, "peak_rss_kb": peak_rss_kb()}


def record_service(name: str, **fields) -> None:
    """Record one service-bench measurement (workload name -> fields)."""
    _SERVICE_RESULTS[str(name)] = {**fields, "peak_rss_kb": peak_rss_kb()}


def record_outofcore(name: str, **fields) -> None:
    """Record one out-of-core bench measurement (config name -> fields).

    Unlike the other recorders, the interesting peak RSS here is the
    *subprocess* high-water mark the bench measured itself — callers pass it
    in ``fields`` (``peak_rss_kb``) so the parent pytest process's footprint
    does not pollute the memory-cap evidence.
    """
    _OUTOFCORE_RESULTS[str(name)] = dict(fields)


def record_server(name: str, **fields) -> None:
    """Record one concurrent-server bench measurement (req/s, shed rate,
    latency percentiles vs the closed-loop baseline)."""
    _SERVER_RESULTS[str(name)] = {**fields, "peak_rss_kb": peak_rss_kb()}


def record_audit(name: str, **fields) -> None:
    """Record one auditing bench measurement (trials/sec against a live
    server, canary-mixture throughput tax)."""
    _AUDIT_RESULTS[str(name)] = {**fields, "peak_rss_kb": peak_rss_kb()}


def _write(results: Dict[str, dict], path: str) -> str:
    payload = {
        "schema": 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "peak_rss_kb": peak_rss_kb(),
        "results": dict(sorted(results.items())),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def flush(path: Optional[str] = None) -> Optional[str]:
    """Write all recorded engine results to JSON; returns the path (None if empty).

    The destination is *path*, the ``REPRO_BENCH_RECORD`` environment
    variable, or ``benchmarks/BENCH_engine.json``.
    """
    if not _RESULTS:
        return None
    return _write(_RESULTS, path or os.environ.get("REPRO_BENCH_RECORD") or DEFAULT_PATH)


def flush_service(path: Optional[str] = None) -> Optional[str]:
    """Write the service-bench results (requests/sec, batch occupancy,
    latency percentiles) to ``BENCH_service.json`` (or
    ``REPRO_BENCH_RECORD_SERVICE`` / *path*)."""
    if not _SERVICE_RESULTS:
        return None
    return _write(
        _SERVICE_RESULTS,
        path or os.environ.get("REPRO_BENCH_RECORD_SERVICE") or DEFAULT_SERVICE_PATH,
    )


def flush_outofcore(path: Optional[str] = None) -> Optional[str]:
    """Write the out-of-core results (n, tiles, peak RSS, trials/sec) to
    ``BENCH_outofcore.json`` (or ``REPRO_BENCH_RECORD_OUTOFCORE`` / *path*)."""
    if not _OUTOFCORE_RESULTS:
        return None
    return _write(
        _OUTOFCORE_RESULTS,
        path or os.environ.get("REPRO_BENCH_RECORD_OUTOFCORE") or DEFAULT_OUTOFCORE_PATH,
    )


def flush_server(path: Optional[str] = None) -> Optional[str]:
    """Write the concurrent-server results (req/s, shed rate, p50/p99,
    closed-loop ratio) to ``BENCH_server.json`` (or
    ``REPRO_BENCH_RECORD_SERVER`` / *path*)."""
    if not _SERVER_RESULTS:
        return None
    return _write(
        _SERVER_RESULTS,
        path or os.environ.get("REPRO_BENCH_RECORD_SERVER") or DEFAULT_SERVER_PATH,
    )


def flush_audit(path: Optional[str] = None) -> Optional[str]:
    """Write the auditing results (trials/sec, bound values, canary-mixture
    throughput ratio) to ``BENCH_audit.json`` (or
    ``REPRO_BENCH_RECORD_AUDIT`` / *path*)."""
    if not _AUDIT_RESULTS:
        return None
    return _write(
        _AUDIT_RESULTS,
        path or os.environ.get("REPRO_BENCH_RECORD_AUDIT") or DEFAULT_AUDIT_PATH,
    )
