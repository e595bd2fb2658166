"""The engine-sweep workload: Section 5's top-c selection, run in-process.

A researcher reproducing Fig. 5 waits for ``run_trials`` over SVT (alg1,
alg2), SVT with retraversal and the exponential mechanism on a heavy-tailed
score vector, on an epsilon grid, with the dense and the tiled executor.
One call of ``run_trials`` covers one (variant, executor) pair over the
whole grid; the sweep repeats rounds of the eight calls for the run's
seconds.

On this workload the serving metrics are taken over those calls: a
request is one ``run_trials`` call, ``lat_*.lo`` are over dense calls and
``lat_*.hi`` over tiled calls, and ``max_rate_qps`` is score queries
examined per second.  ``setup_s`` is a fresh interpreter's time to import
the engine, build the scores and finish a first cell (median of five);
``recovery_s`` is the median of seven more such starts, because the engine
keeps no state and a crashed sweep simply starts again.

Run as a script it computes just that first cell (``--first-cell SEED``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import numpy as np

N = 100_000
C = 50
EPSILONS = (0.05, 0.1, 0.2, 0.5, 1.0)
VARIANTS = ("alg1", "alg2", "retr", "em")
TRIALS = 6
CHUNK_N = N // 4


def scores(seed: int) -> Tuple[np.ndarray, float]:
    """Heavy-tailed scores and the paper's threshold for c (mean of the
    c-th and (c+1)-th highest)."""
    rng = np.random.default_rng([seed, 2])
    values = np.floor(rng.pareto(1.5, size=N) * 20 + 1)
    top = np.sort(values)[::-1]
    return values, float(top[C - 1] + top[C]) / 2.0


def first_cell(seed: int):
    from repro.engine import run_trials

    values, threshold = scores(seed)
    return run_trials("alg1", values, EPSILONS[0], C, 1, thresholds=threshold,
                      rng=seed)


def call(variant: str, values, threshold: float, seed: int, round_no: int,
         tiled: bool):
    from repro.engine import run_trials
    from repro.rng import derive_rngs

    # Per-trial streams make dense and tiled results bit-identical.
    rngs = derive_rngs(seed, TRIALS, "perfbench", variant, round_no)
    return run_trials(variant, values, list(EPSILONS), C, TRIALS,
                      thresholds=threshold, rng=rngs,
                      chunk_n=CHUNK_N if tiled else None)


def same(dense: dict, tiled: dict) -> bool:
    return all(
        np.array_equal(dense[e].selection, tiled[e].selection)
        and np.array_equal(dense[e].ser, tiled[e].ser)
        and np.array_equal(dense[e].fnr, tiled[e].fnr)
        for e in dense
    )


def in_unit_interval(result: dict) -> bool:
    return all(
        np.all((b.ser >= 0) & (b.ser <= 1)) and np.all((b.fnr >= 0) & (b.fnr <= 1))
        for b in result.values()
    )


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def sweep(seed: int, seconds: float, checks, min_rounds: int = 1) -> List[dict]:
    """Rounds of the eight calls until *seconds* have passed.

    Returns one record per round: call latencies (ms) keyed by
    (variant, tiled), and the round's cells, queries examined, and wall and
    CPU seconds in calls.
    """
    values, threshold = scores(seed)
    rounds: List[dict] = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        record = {"latencies": {}, "cells": 0, "examined": 0, "busy": 0.0, "cpu": 0.0}
        for variant in VARIANTS:
            results = {}
            for tiled in (False, True):
                t0, c0 = time.perf_counter(), time.process_time()
                result = call(variant, values, threshold, seed, len(rounds), tiled)
                elapsed = time.perf_counter() - t0
                record["busy"] += elapsed
                record["cpu"] += time.process_time() - c0
                record["latencies"][(variant, tiled)] = elapsed * 1e3
                record["cells"] += TRIALS * len(EPSILONS)
                record["examined"] += int(sum(int(b.processed.sum())
                                              for b in result.values()))
                results[tiled] = result
                checks.expect(in_unit_interval(result),
                              f"{variant} SER/FNR outside [0, 1]")
            if not rounds:
                checks.expect(same(results[False], results[True]),
                              f"{variant}: dense and tiled results differ")
        rounds.append(record)
    return rounds


def _per_round(rounds: List[dict], tiled: bool, q: float) -> float:
    """Median over rounds of the round's q-th percentile call latency."""
    return float(np.median([
        np.percentile([r["latencies"][(v, tiled)] for v in VARIANTS], q)
        for r in rounds
    ]))


def restart_time(root: Path, seed: int) -> float:
    """A fresh interpreter's time to import the engine, build the scores
    and finish the first cell."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--first-cell", str(seed)],
        check=True, env=env, stdout=subprocess.DEVNULL, timeout=120,
    )
    return time.perf_counter() - t0


def run_untraced(seed: int, seconds: float, root: Path, checks):
    """The gated metrics: medians of five (set-up) and seven (recovery)
    fresh starts, and cells per CPU second over every round."""
    setups = [restart_time(root, seed) for _ in range(5)]
    rounds = sweep(seed, seconds, checks, min_rounds=2)
    metrics = {
        "setup_s": float(np.median(setups)),
        "recovery_s": float(np.median([restart_time(root, seed) for _ in range(7)])),
        "peak_rss_mb": peak_rss_mb(),
        "trials_per_s": (sum(r["cells"] for r in rounds)
                         / sum(r["cpu"] for r in rounds)),
    }
    calls = 2 * len(VARIANTS) * len(rounds)
    print(f"engine detail: rounds {len(rounds)}, calls {calls}, "
          f"cells {sum(r['cells'] for r in rounds)}")
    return metrics, calls


def run_traced(seed: int, seconds: float, checks):
    """Untraced rounds for the call latencies, then traced rounds with
    ``exec.run_sharded`` wrapped to count chunks; per-variant call times
    are the benchmark's own spans around ``run_trials``."""
    sys.path.insert(0, str(Path(__file__).parent / "hook"))
    import spanhooks
    from repro.engine import exec as engine_exec

    t0 = time.perf_counter()
    first_cell(seed)
    setup_plain = time.perf_counter() - t0
    plain = sweep(seed, seconds / 2, checks)
    rec = spanhooks.Recorder()
    spanhooks.wrap(engine_exec, "run_sharded", "exec.run_sharded", rec,
                   after=lambda start, args, result: rec.add("exec.chunks", start,
                                                             len(args[1])))
    t0 = time.perf_counter()
    first_cell(seed)
    setup_traced = time.perf_counter() - t0
    traced = sweep(seed, seconds / 2, checks)
    metrics = {
        "lat_p50_ms.lo": _per_round(plain, False, 50),
        "lat_p99_ms.lo": _per_round(plain, False, 99),
        "lat_p50_ms.hi": _per_round(plain, True, 50),
        "lat_p99_ms.hi": _per_round(plain, True, 99),
        "max_rate_qps": float(np.median([r["examined"] / r["busy"] for r in plain])),
    }
    for variant in VARIANTS:
        for tiled, prefix in ((False, "trials"), (True, "tiled")):
            metrics[f"{prefix}.{variant}_ms"] = float(np.mean(
                [r["latencies"][(variant, tiled)] for r in traced]))
    chunks = rec.arrays().get("exec.chunks")
    metrics["exec.chunks"] = float(chunks[:, 1].mean()) if chunks is not None else 0.0
    metrics["client.p50_ms"] = _per_round(traced, False, 50)
    metrics["trace.overhead_p50_ms"] = metrics["client.p50_ms"] - metrics["lat_p50_ms.lo"]
    metrics["trace.overhead_p99_ms"] = (_per_round(traced, False, 99)
                                        - metrics["lat_p99_ms.lo"])
    metrics["trace.overhead_setup_s"] = setup_traced - setup_plain
    calls = 2 * len(VARIANTS) * (len(traced) + len(plain))
    return metrics, calls


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--first-cell":
        first_cell(int(sys.argv[2]))
    else:
        sys.exit("usage: engine_sweep.py --first-cell SEED")
