"""The concurrent service runtime.

:mod:`repro.service.runtime.server` — the asyncio JSONL ingestion server
(TCP + stdio transports, bounded-queue admission control with typed
``overloaded`` shedding, a single drain loop feeding the batcher, graceful
shutdown); :mod:`repro.service.runtime.metrics` — the live observability
layer (thread-safe counters/histograms/gauges, a process-RSS /
available-memory sampler whose ``memory_probe`` re-plans ``max_bytes="auto"``
runs mid-flight, and the AIMD drain-window controller);
:mod:`repro.service.runtime.shard` — the sharded multi-process runtime
(N single-shard worker processes behind a consistent-hash ingress router,
merged admin plane, per-shard durable state and recovery).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".metrics": (
        "AdaptiveDrainPolicy",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "RssSampler",
        "metric_key",
        "parse_metric_key",
    ),
    ".server": ("PROTOCOL", "IngressQueue", "RuntimeServer", "ServerConfig", "parse_request_line"),
    ".shard": (
        "HashRing",
        "ShardedServer",
        "ShardWorker",
        "merge_histogram_snapshots",
        "merge_snapshots",
    ),
})
