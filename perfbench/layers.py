"""Per-layer metrics: spans from the hooks plus the server's own histograms.

Every workload reports the same per-layer set (``PER_LAYER``); a layer the
workload does not exercise reads 0 (the store on an in-memory server, the
router on a single process, the service on the engine sweep).  The set
opens with the latencies and the max rate: end-to-end metrics that the
traced run reports but no bound gates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import numpy as np

#: name -> unit, in BENCHMARK.json order.
PER_LAYER: Dict[str, str] = {
    # End-to-end, but reported rather than gated (they track host steal).
    "lat_p50_ms.lo": "ms",
    "lat_p99_ms.lo": "ms",
    "lat_p50_ms.hi": "ms",
    "lat_p99_ms.hi": "ms",
    "max_rate_qps": "1/s",
    "server.decode_us": "us",
    "server.ingest_us": "us",
    "server.ingress_wait_ms": "ms",
    "server.encode_ms": "ms",
    "server.send_ms": "ms",
    "server.drain_ms": "ms",
    "server.queries_per_drain": "count",
    "server.shed": "count",
    "shard.route_us": "us",
    "shard.hop_ms": "ms",
    "shard.skew": "ratio",
    "batcher.submit_us": "us",
    "batcher.cohorts": "count",
    "engine.execute_ms": "ms",
    "engine.rows_per_gate": "count",
    "engine.history_rate": "ratio",
    "gate.kernel_ms": "ms",
    "manager.open_us": "us",
    "manager.evict_us": "us",
    "session.fires_per_kq": "count",
    "audit.records_per_kq": "count",
    "store.flush_ms": "ms",
    "store.fsync_ms": "ms",
    "store.collect_ms": "ms",
    "store.events_per_flush": "count",
    "store.wal_bytes_per_q": "B",
    "store.checkpoint_ms": "ms",
    "recovery.restore_ms": "ms",
    "trials.alg1_ms": "ms",
    "trials.alg2_ms": "ms",
    "trials.retr_ms": "ms",
    "trials.em_ms": "ms",
    "tiled.alg1_ms": "ms",
    "tiled.alg2_ms": "ms",
    "tiled.retr_ms": "ms",
    "tiled.em_ms": "ms",
    "exec.chunks": "count",
    "client.p50_ms": "ms",
    "trace.attribution": "ratio",
    "trace.overhead_p50_ms": "ms",
    "trace.overhead_p99_ms": "ms",
    "trace.overhead_setup_s": "s",
    "gen.lag_ms": "ms",
    "gen.selftest_qps": "1/s",
}

#: The tracer's disjoint request stages (``stage_ms{stage=...}``).
STAGES = ("ingress_wait", "cohort_form", "gate_exec", "respond_encode",
          "store_flush", "send")


def server_counters(srv) -> dict:
    """The server's ``metrics`` snapshot (merged across shards)."""
    conn = srv.connect()
    try:
        return conn.call({"op": "metrics"})
    finally:
        conn.close()


def load_spans(spans_dir: Path) -> Dict[str, np.ndarray]:
    """Every process's spans, concatenated per name: rows of (start, value)."""
    merged: Dict[str, list] = {}
    for path in sorted(spans_dir.glob("spans-*.npz")):
        with np.load(path) as data:
            for key in data.files:
                merged.setdefault(key.replace("__", "."), []).append(data[key])
    return {name: np.concatenate(parts) for name, parts in merged.items()}


def window_p50(before: dict, after: dict, key: str) -> float:
    """p50 of histogram *key* over the observations between two snapshots,
    interpolated within buckets as the server's own quantiles are."""
    hb = before["histograms"].get(key)
    ha = after["histograms"].get(key)
    if ha is None:
        return 0.0
    bounds = [b for b in ha["buckets"] if b != "+inf"]
    counts = np.array([ha["buckets"][b] - (hb["buckets"][b] if hb else 0)
                       for b in [*bounds, "+inf"]], dtype=float)
    total = counts.sum()
    if total <= 0:
        return 0.0
    edges = [0.0, *map(float, bounds)]
    rank = 0.5 * total
    seen = 0.0
    for index, count in enumerate(counts):
        if count and seen + count >= rank:
            lo = edges[index]
            hi = edges[index + 1] if index + 1 < len(edges) else lo
            return lo + (hi - lo) * (rank - seen) / count
        seen += count
    return edges[-1]


def _delta(before: dict, after: dict, name: str) -> float:
    return float(after["counters"].get(name, 0) - before["counters"].get(name, 0))


def service_layers(spans_dir: Path, window: Tuple[float, float], before: dict,
                   after: dict, sat_after: dict, client_phase, spec) -> Dict[str, float]:
    """Per-layer metrics of the traced ``hi`` phase (``window``), plus the
    drain width reached in the saturation burst that follows it."""
    spans = load_spans(spans_dir)
    a, b = window

    def rows(name: str) -> np.ndarray:
        arr = spans.get(name)
        if arr is None:
            return np.empty((0, 2))
        return arr[(arr[:, 0] >= a) & (arr[:, 0] <= b)]

    def mean(name: str, scale: float) -> float:
        r = rows(name)
        return float(r[:, 1].mean() * scale) if len(r) else 0.0

    queries = (_delta(before, after, "answered_total")
               + _delta(before, after, "rejected_total"))
    sat_queries = (_delta(after, sat_after, "answered_total")
                   + _delta(after, sat_after, "rejected_total"))
    sat_drains = _delta(after, sat_after, "drains_total")
    out: Dict[str, float] = {
        "server.decode_us": mean("server.decode", 1e6),
        "server.ingest_us": mean("server.ingest", 1e6),
        "server.ingress_wait_ms": window_p50(before, after, 'stage_ms{stage="ingress_wait"}'),
        "server.encode_ms": window_p50(before, after, 'stage_ms{stage="respond_encode"}'),
        "server.send_ms": window_p50(before, after, 'stage_ms{stage="send"}'),
        "server.drain_ms": window_p50(before, after, "drain_latency_ms"),
        "server.queries_per_drain": sat_queries / sat_drains if sat_drains else 0.0,
        "server.shed": _delta(before, sat_after, "shed_total"),
        "batcher.submit_us": mean("batcher.submit", 1e6),
        "engine.execute_ms": mean("engine.execute", 1e3),
        "gate.kernel_ms": mean("gate.kernel", 1e3),
        "manager.open_us": mean("manager.open", 1e6),
        "manager.evict_us": mean("manager.evict", 1e6),
        "store.flush_ms": mean("store.flush", 1e3),
        "store.checkpoint_ms": mean("store.checkpoint", 1e3),
    }
    gates = rows("engine.gates")[:, 1].sum()
    attempted = rows("engine.attempted")[:, 1].sum()
    executes = len(rows("engine.execute"))
    out["batcher.cohorts"] = float(gates / executes) if executes else 0.0
    out["engine.rows_per_gate"] = float(rows("engine.rows")[:, 1].sum() / gates) if gates else 0.0
    out["engine.history_rate"] = (float(rows("engine.history")[:, 1].sum() / attempted)
                                  if attempted else 0.0)
    kq = queries / 1e3
    out["session.fires_per_kq"] = (_delta(before, after, "db_accesses_total") / kq
                                   if kq else 0.0)
    out["audit.records_per_kq"] = len(rows("audit.record")) / kq if kq else 0.0

    # store: only flushes that wrote something fsync.
    flush = rows("store.flush")
    events = rows("store.events")[:, 1]
    fsync = rows("store.fsync")[:, 1]
    wrote = events > 0
    if wrote.any():
        out["store.fsync_ms"] = float(fsync[wrote].mean() * 1e3)
        out["store.collect_ms"] = float((flush[wrote, 1] - fsync[wrote]).mean() * 1e3)
        out["store.events_per_flush"] = float(events[wrote].mean())
    else:
        out["store.fsync_ms"] = out["store.collect_ms"] = out["store.events_per_flush"] = 0.0
    out["store.wal_bytes_per_q"] = (float(rows("store.wal_bytes")[:, 1].sum() / queries)
                                    if queries else 0.0)
    restore = spans.get("recovery.restore")
    out["recovery.restore_ms"] = float(restore[:, 1].mean() * 1e3) if restore is not None else 0.0

    # runtime.shard: router parse + ring lookup; hop = client minus worker span.
    client_p50 = client_phase.p(50)
    if spec.shards > 1:
        out["shard.route_us"] = mean("shard.parse", 1e6) + mean("shard.ring", 1e6)
        out["shard.hop_ms"] = client_p50 - window_p50(before, after, "request_span_ms")
        answered = [_delta(before, after, f'answered_total{{shard="{k}"}}')
                    + _delta(before, after, f'rejected_total{{shard="{k}"}}')
                    for k in range(spec.shards)]
        out["shard.skew"] = max(answered) / min(answered) if min(answered) else 0.0
    else:
        out["shard.route_us"] = out["shard.hop_ms"] = out["shard.skew"] = 0.0

    stage_sum = sum(window_p50(before, after, f'stage_ms{{stage="{s}"}}') for s in STAGES)
    out["trace.attribution"] = stage_sum / client_p50 if client_p50 else 0.0
    return out


def complete(metrics: Dict[str, float]) -> dict:
    """The per-layer result: every metric by name with its unit, 0 if unused."""
    return {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()}
