"""Multi-tenant SVT query service.

The paper's Section-3.4 online-answering pattern — "answer many queries for
``eps_svt + c * eps_answer``" — scaled from one session to many tenants:

* :mod:`repro.service.session` — one tenant's interactive session: the
  corrected-SVT gate state (threshold noise, firing count), a
  :class:`~repro.accounting.budget.BudgetLedger`, and the answer-history
  estimator;
* :mod:`repro.service.manager` — :class:`SessionManager`: opens, indexes,
  and seeds sessions per tenant over one shared private dataset;
* :mod:`repro.service.audit` — the append-only audit log of every budget
  spend and database release, plus post-hoc verification (accounting replay
  and an exact :mod:`repro.analysis.verifier` bridge);
* :mod:`repro.service.batcher` — :class:`RequestBatcher`: FIFO queueing and
  (epsilon, threshold, c, variant) cohort grouping of pending queries;
* :mod:`repro.service.engine` — :class:`ServiceEngine` /
  :class:`SVTQueryService` / :class:`ServiceClient`: cross-session batched
  execution through :func:`repro.engine.gate.gate_block`, with a
  ``per-session`` stream mode that is bit-identical to driving every
  session's streaming loop independently;
* :mod:`repro.service.workload` — the closed-loop Zipf workload generator
  and throughput/latency harness behind ``repro load-test`` and the
  enforced service benchmark;
* :mod:`repro.service.runtime` — the concurrent runtime: the asyncio JSONL
  ingestion server (TCP + stdio, bounded-queue backpressure with typed
  ``overloaded`` shedding) and the live metrics/adaptive-drain subsystem;
* :mod:`repro.service.store` — crash-safe durability: the crc-framed
  JSONL write-ahead log + SQLite snapshot store beneath the manager,
  ledgers, and audit log, with replay-on-boot recovery
  (:func:`restore_service`) and a :class:`FaultInjector` crash harness.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".session": ("LaneAnswer", "OnlineAnswer", "Session"),
    ".audit": ("AuditLog", "AuditRecord", "gate_mechanism_spec", "verify_audit"),
    ".batcher": ("QueuedRequest", "RequestBatcher"),
    ".engine": ("DrainResult", "ServiceClient", "ServiceEngine", "SVTQueryService"),
    ".manager": ("SessionManager",),
    ".workload": ("LoadStats", "Workload", "WorkloadSpec", "generate_workload"),
    ".store": ("DurableStore", "StoreConfig", "FaultInjector", "RecoveryInfo", "restore_service"),
})
