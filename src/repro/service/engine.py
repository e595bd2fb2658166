"""Cross-session batched execution, the service facade, and the sync client.

The throughput problem: a query-at-a-time ``Session.answer`` loop spends
microseconds of interpreter overhead per request — scalar Laplace draws,
attribute lookups, dataclass construction — which caps a multi-tenant server
at a few hundred thousand requests per second per core no matter how cheap
the math is.  The engine removes the loop the same way
:mod:`repro.engine.trials` removed it for Monte-Carlo trials: collect the
pending queries of *many* sessions, group them into cohorts (sessions with
identical ``(epsilon, threshold, c, svt_fraction, sensitivity, monotonic)``
configuration), and answer each cohort with block noise draws and one
vectorized comparison via :func:`repro.engine.gate.gate_block`.  Per-request
Python survives only where the data is irreducibly scalar: gate firings
(at most c per session, ever) and rejections.

Two execution modes, mirroring the trial engine's shared/per-trial split:

* ``mode="shared"`` (default, the throughput path) — one service-level
  generator supplies all noise.  Each cohort is answered in *speculative
  passes*: every pending request is gated at once under the current session
  states; because a session's state only changes when its gate **fires**,
  almost every row commits on the first pass, and only the rows queued
  *behind* a firing are re-gated under the updated history (their
  speculative draws are discarded — discarded independent noise does not
  change the output distribution, the same argument
  :func:`repro.core.svt.run_svt_batch` makes for post-halt draws).  This is
  the segmented-rescan idiom of the Alg. 2 / SVT-ReTr kernels applied to
  sessions instead of trials.  Estimates for the whole pass come from one
  composite-key lookup (``session * n + item`` against the <= c released
  answers per session) plus a per-session running mean — no per-row
  estimator calls.
* ``mode="per-session"`` — every session draws from its own stream, one
  head-of-queue row per session per round.  This is **bit-identical** to
  driving each session's streaming loop independently (enforced by the
  service test suite): same draws in the same per-session order, same
  ledger, same audit trail, same served values.

The :class:`SVTQueryService` facade wires manager + batcher + engine
together; :class:`ServiceClient` is the synchronous per-tenant view whose
``ask`` is exactly the single-session streaming loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
# np.unique (the shared-mode drain) imports numpy.ma on its first call, which
# takes ~40 ms; load it at boot so that the first drain does not pay it.
import numpy.ma  # noqa: F401

from repro.data.scores import ScoreSource
from repro.engine.gate import gate_block
from repro.exceptions import InvalidParameterError, ReproError
from repro.rng import RngLike, derive_rng, ensure_rng
from repro.service.audit import AuditLog
from repro.service.batcher import BlockRequest, DrainBatch, RequestBatcher
from repro.service.manager import SessionManager
from repro.service.session import (
    EXHAUSTED_MESSAGE as _EXHAUSTED_MSG,
    OnlineAnswer,
    QueryLike,
    Session,
)

__all__ = ["DrainResult", "ServiceEngine", "SVTQueryService", "ServiceClient"]

_MODES = ("shared", "per-session")


@dataclass
class DrainResult:
    """Columnar outcome of one drain, aligned with expansion (ticket) order.

    Rejected requests (exhausted session, over-sensitive query, unknown
    item) have ``ok=False``, a NaN value, and their error message in
    ``errors``; everything else mirrors :class:`OnlineAnswer` fields.
    ``block_rows`` records the width of every vectorized gate call — the
    batch-occupancy signal the load harness reports.
    """

    tickets: np.ndarray
    values: np.ndarray
    from_history: np.ndarray
    query_index: np.ndarray
    ok: np.ndarray
    errors: List[Optional[str]]
    passes: int = 0
    block_rows: List[int] = field(default_factory=list)
    #: Wall time spent inside the vectorized gate kernels for this drain —
    #: the ``gate_kernel_ms`` sub-span the request tracer reports under
    #: ``gate_exec``.
    gate_ms: float = 0.0

    def __len__(self) -> int:
        return int(self.tickets.size)

    @property
    def mean_block_rows(self) -> float:
        """Mean rows per vectorized gate call (batch occupancy)."""
        return float(np.mean(self.block_rows)) if self.block_rows else 0.0

    def answers(self) -> List[Optional[OnlineAnswer]]:
        """Per-request :class:`OnlineAnswer` objects (None where rejected)."""
        out: List[Optional[OnlineAnswer]] = []
        for i in range(len(self)):
            if self.ok[i]:
                out.append(
                    OnlineAnswer(
                        value=float(self.values[i]),
                        from_history=bool(self.from_history[i]),
                        query_index=int(self.query_index[i]),
                    )
                )
            else:
                out.append(None)
        return out


class _Out:
    """Mutable response columns shared by the execution strategies."""

    def __init__(self, size: int) -> None:
        self.tickets = np.empty(size, dtype=np.int64)
        self.values = np.full(size, np.nan)
        self.from_history = np.zeros(size, dtype=bool)
        self.query_index = np.full(size, -1, dtype=np.int64)
        self.ok = np.zeros(size, dtype=bool)
        self.errors: List[Optional[str]] = [None] * size
        self.passes = 0
        self.block_rows: List[int] = []
        self.gate_ms = 0.0

    def reject(self, row: int, message: str) -> None:
        self.errors[row] = message

    def result(self) -> DrainResult:
        return DrainResult(
            tickets=self.tickets,
            values=self.values,
            from_history=self.from_history,
            query_index=self.query_index,
            ok=self.ok,
            errors=self.errors,
            passes=self.passes,
            block_rows=self.block_rows,
            gate_ms=self.gate_ms,
        )


class _SessPending:
    """One session's pending queries for a drain, in submission order.

    ``pieces`` interleaves block segments and scalar runs; :meth:`finalize`
    decides fast (pure item arrays, default estimator, shared supports) vs
    generic (anything else) and produces the corresponding representation.
    """

    __slots__ = ("session", "pieces", "fast_eligible")

    def __init__(self, session: Session, fast_eligible: bool) -> None:
        self.session = session
        self.pieces: List[tuple] = []  # ("block", row0, items) | ("scalar", row, query)
        self.fast_eligible = fast_eligible

    def finalize(self):
        """``(rows, items)`` arrays for fast sessions, else a scalar list."""
        if self.fast_eligible and len(self.pieces) == 1 and self.pieces[0][0] == "block":
            _kind, row0, items = self.pieces[0]
            return np.arange(row0, row0 + items.size, dtype=np.int64), items, None
        if self.fast_eligible and all(
            kind == "block" or isinstance(payload2, (int, np.integer))
            for kind, _payload1, payload2 in self.pieces
        ):
            rows_parts: List[np.ndarray] = []
            items_parts: List[np.ndarray] = []
            scalar_rows: List[int] = []
            scalar_items: List[int] = []

            def flush_scalars():
                if scalar_rows:
                    rows_parts.append(np.asarray(scalar_rows, dtype=np.int64))
                    items_parts.append(np.asarray(scalar_items, dtype=np.int64))
                    scalar_rows.clear()
                    scalar_items.clear()

            for kind, a, b in self.pieces:
                if kind == "block":
                    flush_scalars()
                    rows_parts.append(np.arange(a, a + b.size, dtype=np.int64))
                    items_parts.append(b)
                else:
                    scalar_rows.append(a)
                    scalar_items.append(int(b))
            flush_scalars()
            return (
                np.concatenate(rows_parts) if len(rows_parts) != 1 else rows_parts[0],
                np.concatenate(items_parts) if len(items_parts) != 1 else items_parts[0],
                None,
            )
        generic: List[Tuple[int, QueryLike]] = []
        for kind, a, b in self.pieces:
            if kind == "block":
                generic.extend((a + off, int(item)) for off, item in enumerate(b))
            else:
                generic.append((a, b))
        return None, None, generic


def _backend_size(backend) -> int:
    """Item count of a session backend (dense vector or lazy source)."""
    if backend is None:
        return 0
    if isinstance(backend, ScoreSource):
        return int(backend.n)
    return int(backend.size)


def _backend_gather(backend, items: np.ndarray) -> np.ndarray:
    """True supports at *items* — fancy-indexed dense, or block-grouped
    :meth:`~repro.data.scores.ScoreSource.take` for a lazy backend (no
    per-cohort dense copy of a 2.3M-item universe is ever pinned)."""
    if isinstance(backend, ScoreSource):
        return backend.take(items)
    return backend[items]


def _cumcount(group_ids: np.ndarray, num_groups: int):
    """Per-row ordinal within its group plus per-group counts (stable order)."""
    counts = np.bincount(group_ids, minlength=num_groups)
    order = np.argsort(group_ids, kind="stable")
    nonzero = counts > 0
    starts = np.cumsum(counts) - counts
    ordinal_sorted = np.arange(group_ids.size) - np.repeat(starts[nonzero], counts[nonzero])
    ordinal = np.empty(group_ids.size, dtype=np.int64)
    ordinal[order] = ordinal_sorted
    return ordinal, counts


class ServiceEngine:
    """Executes drained request batches against their sessions."""

    def __init__(self, rng: RngLike = None, mode: str = "shared") -> None:
        if mode not in _MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}; known: {_MODES}")
        self.mode = mode
        self._rng = ensure_rng(rng)

    @property
    def rng(self) -> np.random.Generator:
        """The shared-mode noise source (persisted by the durable store)."""
        return self._rng

    @rng.setter
    def rng(self, value: np.random.Generator) -> None:
        self._rng = value

    def execute(self, batch: DrainBatch) -> DrainResult:
        """Answer every request of *batch*; columns follow expansion order."""
        out = _Out(batch.size)
        if batch.size:
            if self.mode == "shared":
                self._execute_shared(batch, out)
            else:
                self._execute_per_session(batch, out)
        return out.result()

    # ------------------------------------------------------------------
    # Entry normalization (shared by both modes).
    # ------------------------------------------------------------------
    @staticmethod
    def _normalize(batch: DrainBatch):
        """Per-session pending queues (submission order), the ticket column,
        and the shared support vector fast rows are eligible against.

        Batcher entries arrive in ticket order over a dense range, so the
        ticket column is one arange and row index == ticket - base.
        """
        tickets = np.arange(
            batch.base_ticket, batch.base_ticket + batch.size, dtype=np.int64
        )
        per_session: Dict[int, _SessPending] = {}
        order: List[_SessPending] = []
        cursor = 0
        # The shared support backend (dense vector or lazy ScoreSource):
        # sessions on any other backend (or with a custom estimator) take
        # the generic path.
        shared_supports = None
        for entry in batch.entries:
            backend = entry.session._backend
            if backend is not None:
                shared_supports = backend
                break
        for entry in batch.entries:
            s = entry.session
            record = per_session.get(id(s))
            if record is None:
                record = _SessPending(
                    s,
                    fast_eligible=(
                        s._estimator is None
                        and shared_supports is not None
                        and s._backend is shared_supports
                    ),
                )
                per_session[id(s)] = record
                order.append(record)
            if isinstance(entry, BlockRequest):
                record.pieces.append(("block", cursor, entry.queries))
                cursor += len(entry)
            else:
                record.pieces.append(("scalar", cursor, entry.query))
                if not isinstance(entry.query, (int, np.integer)):
                    record.fast_eligible = False
                cursor += 1
        return order, tickets, shared_supports

    # ------------------------------------------------------------------
    # Shared mode: speculative cohort passes.
    # ------------------------------------------------------------------
    def _execute_shared(self, batch: DrainBatch, out: _Out) -> None:
        records, tickets, shared_supports = self._normalize(batch)
        out.tickets = tickets
        cohorts: Dict[tuple, List[_SessPending]] = {}
        for record in records:
            cohorts.setdefault(record.session.cohort_key, []).append(record)
        for members in cohorts.values():
            self._run_cohort_shared(members, shared_supports, out)

    def _run_cohort_shared(
        self,
        members: List[_SessPending],
        supports: Optional[np.ndarray],
        out: _Out,
    ) -> None:
        sessions = [m.session for m in members]
        first = sessions[0]
        threshold = first.threshold
        nu_scale = first.nu_scale
        answer_scale = first.answer_scale
        num_sess = len(sessions)
        rho_by_sess = np.fromiter((s.rho for s in sessions), dtype=float, count=num_sess)
        # *supports* is the backend fast eligibility was decided against in
        # _normalize: every fast session satisfies ``_backend is supports``,
        # so gathering truths from it can never read another backend's data.
        n_items = _backend_size(supports)

        # Fast rows: concatenated per-session arrays (session-contiguous,
        # submission order within each session — the only order the
        # speculative cut needs).  Generic rows: per-row (row, query) lists.
        # Session/row columns come from two np.repeat/np.arange passes over
        # the per-part lengths rather than per-session array constructions.
        rows_parts: List[np.ndarray] = []
        items_parts: List[np.ndarray] = []
        part_sidx: List[int] = []
        part_len: List[int] = []
        generic: List[Tuple[int, int, QueryLike]] = []  # (row, sess_idx, query)
        for sidx, member in enumerate(members):
            rows_arr, items_arr, generic_list = member.finalize()
            if generic_list is None:
                rows_parts.append(rows_arr)
                items_parts.append(items_arr)
                part_sidx.append(sidx)
                part_len.append(items_arr.size)
            else:
                generic.extend((row, sidx, q) for row, q in generic_list)
        if rows_parts:
            f_rows = np.concatenate(rows_parts)
            f_items = np.concatenate(items_parts)
            f_sess = np.repeat(
                np.asarray(part_sidx, dtype=np.int64), np.asarray(part_len)
            )
            # Out-of-range items are *poison* rows: they ride the speculative
            # cut (forced ⊥, no commit) and are rejected only once reached,
            # so a session that exhausts first reports exhaustion for them —
            # the same error precedence as the streaming loop.
            f_poison = (f_items < 0) | (f_items >= n_items)
            safe_items = np.where(f_poison, 0, f_items)
            f_truths = np.where(f_poison, 0.0, _backend_gather(supports, safe_items))
            f_codes = f_sess * n_items + safe_items
        else:
            f_rows = f_sess = f_items = np.empty(0, dtype=np.int64)
            f_poison = np.empty(0, dtype=bool)
            f_truths = np.empty(0)
            f_codes = np.empty(0, dtype=np.int64)

        f_pend = np.arange(f_rows.size)
        while f_pend.size or generic:
            out.passes += 1
            # Only sessions with still-pending rows pay any per-pass cost:
            # later passes touch just the few sessions behind a firing.
            sess_of = f_sess[f_pend]
            active = np.unique(sess_of)
            # Exhausted sessions reject their remaining rows up front.
            halted_active = [int(i) for i in active if sessions[i]._halted]
            if halted_active or any(sessions[sidx]._halted for _r, sidx, _q in generic):
                halted_by_sess = np.zeros(num_sess, dtype=bool)
                halted_by_sess[halted_active] = True
                halted_rows = halted_by_sess[sess_of]
                for p in f_pend[halted_rows]:
                    out.reject(int(f_rows[p]), _EXHAUSTED_MSG)
                f_pend = f_pend[~halted_rows]
                sess_of = f_sess[f_pend]
                active = np.unique(sess_of)
                kept_generic = []
                for row, sidx, q in generic:
                    if sessions[sidx]._halted:
                        out.reject(row, _EXHAUSTED_MSG)
                    else:
                        kept_generic.append((row, sidx, q))
                generic = kept_generic

            # Fast estimates in one composite-key pass: the <= c released
            # answers per session override the session's running mean.
            means = np.zeros(num_sess)
            rel_codes: List[int] = []
            rel_vals: List[float] = []
            for sidx in active:
                s = sessions[sidx]
                if s.history:
                    means[sidx] = s._release_sum / len(s.history)
                    base_code = int(sidx) * n_items
                    for key, val in s._last_release.items():
                        if isinstance(key, int):
                            rel_codes.append(base_code + key)
                            rel_vals.append(val)
            est = means[sess_of]
            if rel_codes:
                rel_codes_arr = np.asarray(rel_codes, dtype=np.int64)
                rel_order = np.argsort(rel_codes_arr)
                rel_codes_arr = rel_codes_arr[rel_order]
                rel_vals_arr = np.asarray(rel_vals)[rel_order]
                codes = f_codes[f_pend]
                pos = np.searchsorted(rel_codes_arr, codes)
                pos_clip = np.minimum(pos, rel_codes_arr.size - 1)
                hit = rel_codes_arr[pos_clip] == codes
                est = np.where(hit, rel_vals_arr[pos_clip], est)
            tru = f_truths[f_pend]

            # Generic rows resolve one by one (Query objects, custom
            # estimators) — the price of generality, paid only by those rows.
            # Resolve failures become poison rows too: rejected only when
            # the cut reaches them, with the resolve error as the message.
            g_rows: List[int] = []
            g_sess: List[int] = []
            g_est: List[float] = []
            g_tru: List[float] = []
            g_meta: List[Optional[Tuple[object, QueryLike]]] = []
            g_msgs: List[Optional[str]] = []
            for row, sidx, q in generic:
                s = sessions[sidx]
                g_rows.append(row)
                g_sess.append(sidx)
                try:
                    key, truth = s.resolve(q)
                except ReproError as exc:
                    g_est.append(0.0)
                    g_tru.append(0.0)
                    g_meta.append(None)
                    g_msgs.append(str(exc))
                    continue
                g_est.append(s.estimate(key, q))
                g_tru.append(truth)
                g_meta.append((key, q))
                g_msgs.append(None)

            total = f_pend.size + len(g_rows)
            if total == 0:
                break
            poison = np.concatenate(
                [
                    f_poison[f_pend],
                    np.asarray([m is not None for m in g_msgs], dtype=bool),
                ]
            ) if g_rows else f_poison[f_pend]
            if g_rows:
                sess_of = np.concatenate([sess_of, np.asarray(g_sess, dtype=np.int64)])
                est = np.concatenate([est, np.asarray(g_est)])
                tru = np.concatenate([tru, np.asarray(g_tru)])
                all_rows = np.concatenate([f_rows[f_pend], np.asarray(g_rows, dtype=np.int64)])
            else:
                all_rows = f_rows[f_pend]

            t_gate = time.perf_counter()
            block = gate_block(
                np.abs(est - tru),
                threshold,
                rho_by_sess[sess_of],
                nu_scale,
                answer_scale,
                tru,
                rng=self._rng,
                fault=sessions[0].gate_fault if sessions else None,
            )
            out.gate_ms += (time.perf_counter() - t_gate) * 1e3
            out.block_rows.append(total)

            # Sequential-consistency cut: within each session accept rows up
            # to and including its first firing; everything behind a firing
            # re-runs next pass under the updated history.  (Positions are
            # session-contiguous and submission-ordered per session, so the
            # within-session comparison is sound; different sessions never
            # interact.)  Poison rows never fire or commit.
            above = block.above & ~poison
            positions = np.arange(total)
            first_fire = np.full(num_sess, total, dtype=np.int64)
            np.minimum.at(first_fire, sess_of[above], positions[above])
            accepted = positions <= first_fire[sess_of]
            acc_poison = accepted & poison
            if acc_poison.any():
                nf_now = f_pend.size
                for p in positions[acc_poison]:
                    if p < nf_now:
                        item = int(f_items[f_pend[p]])
                        out.reject(
                            int(all_rows[p]),
                            f"item {item} outside the backend's {n_items} items",
                        )
                    else:
                        out.reject(int(all_rows[p]), g_msgs[p - nf_now])
                accepted_commit = accepted & ~poison
            else:
                accepted_commit = accepted

            acc_sess = sess_of[accepted_commit]
            ordinal, counts = _cumcount(acc_sess, num_sess)
            with_rows = np.nonzero(counts)[0]
            served = np.zeros(num_sess, dtype=np.int64)
            for sidx in with_rows:
                served[sidx] = sessions[sidx]._served
            acc_rows = all_rows[accepted_commit]
            out.query_index[acc_rows] = served[acc_sess] + ordinal
            out.ok[acc_rows] = True
            for sidx in with_rows:
                sessions[sidx]._served += int(counts[sidx])

            above_acc = above[accepted_commit]
            below_rows = acc_rows[~above_acc]
            out.values[below_rows] = est[accepted_commit][~above_acc]
            out.from_history[below_rows] = True

            nf = f_pend.size
            for p in positions[accepted_commit][above_acc]:
                row = int(all_rows[p])
                s = sessions[sess_of[p]]
                if p < nf:
                    key: object = int(f_items[f_pend[p]])
                    query: QueryLike = key
                else:
                    key, query = g_meta[p - nf]
                s.commit_release(
                    key, query, float(tru[p]), float(block.released[p]),
                    index=int(out.query_index[row]),
                )
                out.values[row] = block.released[p]
                out.from_history[row] = False

            f_pend = f_pend[~accepted[:nf]]
            # generic aligns 1:1 with the tail of the block.
            generic = [g for g, acc in zip(generic, accepted[nf:]) if not acc]

    # ------------------------------------------------------------------
    # Per-session mode: head-of-queue rounds, bit-identical to streaming.
    # ------------------------------------------------------------------
    def _execute_per_session(self, batch: DrainBatch, out: _Out) -> None:
        records, tickets, _supports = self._normalize(batch)
        out.tickets = tickets
        queues: List[deque] = []
        for record in records:
            queue: deque = deque()
            for kind, a, b in record.pieces:
                if kind == "block":
                    queue.extend((a + off, int(item)) for off, item in enumerate(b))
                else:
                    queue.append((a, b))
            queues.append(queue)
        sessions = [record.session for record in records]

        while True:
            round_rows: List[tuple] = []
            for s, queue in zip(sessions, queues):
                while queue:
                    if s._halted:
                        row, _query = queue.popleft()
                        out.reject(row, _EXHAUSTED_MSG)
                        continue
                    row, query = queue[0]
                    try:
                        key, truth = s.resolve(query)
                    except ReproError as exc:
                        out.reject(row, str(exc))
                        queue.popleft()
                        continue
                    estimate = s.estimate(key, query)
                    round_rows.append((row, s, key, query, truth, estimate, queue))
                    break
            if not round_rows:
                break
            out.passes += 1
            k = len(round_rows)
            truths = np.fromiter((r[4] for r in round_rows), dtype=float, count=k)
            ests = np.fromiter((r[5] for r in round_rows), dtype=float, count=k)
            t_gate = time.perf_counter()
            block = gate_block(
                np.abs(ests - truths),
                np.fromiter((r[1].threshold for r in round_rows), dtype=float, count=k),
                np.fromiter((r[1].rho for r in round_rows), dtype=float, count=k),
                np.fromiter((r[1].nu_scale for r in round_rows), dtype=float, count=k),
                np.fromiter((r[1].answer_scale for r in round_rows), dtype=float, count=k),
                truths,
                rng=[r[1].rng for r in round_rows],
                fault=round_rows[0][1].gate_fault,
            )
            out.gate_ms += (time.perf_counter() - t_gate) * 1e3
            out.block_rows.append(k)
            for p, (row, s, key, query, truth, estimate, queue) in enumerate(round_rows):
                index = s.next_index()
                if block.above[p]:
                    noisy = float(block.released[p])
                    s.commit_release(key, query, truth, noisy, index=index)
                    out.values[row] = noisy
                    out.from_history[row] = False
                else:
                    out.values[row] = estimate
                    out.from_history[row] = True
                out.query_index[row] = index
                out.ok[row] = True
                queue.popleft()


class SVTQueryService:
    """The full service: session manager + request batcher + batch engine."""

    def __init__(
        self,
        dataset,
        seed: RngLike = None,
        mode: str = "shared",
        audit: Optional[AuditLog] = None,
        gate_fault: Optional[str] = None,
    ) -> None:
        self.manager = SessionManager(
            dataset, seed=seed, audit=audit, gate_fault=gate_fault
        )
        self.batcher = RequestBatcher()
        self.engine = ServiceEngine(rng=derive_rng(seed, "service-noise"), mode=mode)

    @property
    def audit(self) -> AuditLog:
        return self.manager.audit

    def open_session(self, tenant: str, **config) -> Session:
        return self.manager.open_session(tenant, **config)

    def evict(self, tenant: str) -> float:
        """Close one tenant's session, releasing its unspent budget."""
        return self.manager.evict(tenant)

    def expire(self, now=None):
        """Evict every TTL-elapsed session; returns the evicted tenants."""
        return self.manager.expire(now)

    def submit(self, tenant: str, query: QueryLike) -> int:
        """Queue one query for the next drain; returns its ticket."""
        return self.batcher.submit(self.manager.session(tenant), query)

    def submit_many(self, tenant: str, queries) -> np.ndarray:
        """Queue an array of item-index queries; returns their tickets."""
        return self.batcher.submit_array(self.manager.session(tenant), queries)

    def drain(self) -> DrainResult:
        """Answer every pending request in one cross-session batch."""
        return self.engine.execute(self.batcher.drain())

    def answer(self, tenant: str, query: QueryLike) -> OnlineAnswer:
        """The synchronous path: serve one query through the streaming loop."""
        return self.manager.session(tenant).answer(query)

    def client(self, tenant: str) -> "ServiceClient":
        return ServiceClient(self, tenant)

    def sessions(self) -> Iterator[Session]:
        return iter(self.manager)


class ServiceClient:
    """A tenant's synchronous view of the service.

    ``ask`` answers immediately through the session's streaming loop —
    exactly the :class:`~repro.interactive.online.OnlineQueryAnswerer`
    semantics; ``submit`` queues for the next batched drain instead.
    """

    def __init__(self, service: SVTQueryService, tenant: str) -> None:
        self._service = service
        self.tenant = str(tenant)

    @property
    def session(self) -> Session:
        return self._service.manager.session(self.tenant)

    def ask(self, query: QueryLike) -> OnlineAnswer:
        return self._service.answer(self.tenant, query)

    def submit(self, query: QueryLike) -> int:
        return self._service.submit(self.tenant, query)
