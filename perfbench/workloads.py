"""The four workloads and why each exists.

The ``lo``/``hi`` rates are fixed: about 20% and 50% of the knee (the
highest rate meeting p99 <= 100 ms) measured on the parent commit with this
benchmark.  They are never moved, so later commits are compared at the same
offered load.
"""

from serving import ServingSpec

ALL = {
    # Per-line wire handling dominates: one JSON line per query.
    "scalar-steady": ServingSpec(
        name="scalar-steady", kind="scalar", tenants=256,
        lo_qps=3700.0, hi_qps=9250.0),
    # Store, gate and bookkeeping dominate: 64-query lines to many live
    # tenants (flush cost scales with live sessions), with tenants closed
    # and replaced so firings, spends, audit records and WAL events are a
    # large share of the work.
    "block-churn-durable": ServingSpec(
        name="block-churn-durable", kind="block", tenants=512,
        lo_qps=1900.0, hi_qps=4650.0, durable=True, churn=0.2,
        fixed_share=0.4),
    # The only workload through the router hop, the unix-socket IPC and the
    # per-shard drains.
    "block-shard2": ServingSpec(
        name="block-shard2", kind="block", tenants=256,
        lo_qps=60000.0, hi_qps=150000.0, shards=2),
    # The experiment engine alone (no service layer): see engine_sweep.py.
    "engine-sweep": None,
}
