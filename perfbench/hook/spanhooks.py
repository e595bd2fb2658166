"""Spans recorded around calls into the program's public functions.

The benchmark measures each layer from outside: it replaces a function or
method by a wrapper that stamps ``time.perf_counter()`` around the original
call and keeps ``(start, duration)`` pairs in memory, plus named per-call
values (events per flush, rows per gate call, ...).  ``perf_counter`` reads
``CLOCK_MONOTONIC`` on Linux, so a span's start can be compared with the
load generator's clock in another process and cut to a measured window.

Nothing in ``src/`` is edited: uninstalled, the program runs unchanged.
"""

from __future__ import annotations

import atexit
import functools
import os
import signal
import time
from array import array
from typing import Callable, Dict, Optional

import numpy as np

_perf = time.perf_counter


class Recorder:
    """In-memory spans and values, written out once at process exit."""

    def __init__(self) -> None:
        self.series: Dict[str, array] = {}

    def add(self, name: str, start: float, value: float) -> None:
        buf = self.series.get(name)
        if buf is None:
            buf = self.series[name] = array("d")
        buf.append(start)
        buf.append(value)

    def arrays(self) -> Dict[str, np.ndarray]:
        return {name: np.frombuffer(buf, dtype=float).reshape(-1, 2).copy()
                for name, buf in self.series.items()}

    def dump(self, path: str) -> None:
        np.savez(path, **{name.replace(".", "__"): arr
                          for name, arr in self.arrays().items()})


def wrap(owner, attr: str, name: str, rec: Recorder,
         after: Optional[Callable] = None) -> None:
    """Replace ``owner.attr`` by a timed wrapper recording span *name*.

    ``after(start, args, result)`` may record extra values per call.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = _perf()
        result = fn(*args, **kwargs)
        rec.add(name, start, _perf() - start)
        if after is not None:
            after(start, args, result)
        return result

    setattr(owner, attr, timed)


def install_service(out_dir: str) -> Recorder:
    """Wrap the service layers; spans go to ``out_dir/spans-<pid>.npz``."""
    from repro.service import audit, batcher, engine, manager
    from repro.service.runtime import server, shard
    from repro.service.store import sqlite

    rec = Recorder()
    # runtime.server: wire decode (inside ingest) and the whole ingest.
    wrap(server, "parse_request_line", "server.decode", rec)
    wrap(server.RuntimeServer, "ingest_line", "server.ingest", rec)
    wrap(server, "restore_service", "recovery.restore", rec)
    # runtime.shard: the router's parse plus its ring lookup.
    wrap(shard, "parse_request_line", "shard.parse", rec)
    wrap(shard.HashRing, "shard_for", "shard.ring", rec)
    # batcher, service engine, gate kernel.
    wrap(batcher.RequestBatcher, "submit", "batcher.submit", rec)
    wrap(batcher.RequestBatcher, "submit_block", "batcher.submit", rec)

    def after_execute(start, args, result) -> None:
        rec.add("engine.gates", start, len(result.block_rows))
        rec.add("engine.rows", start, float(sum(result.block_rows)))
        rec.add("engine.attempted", start, len(result))
        rec.add("engine.history", start, float(np.count_nonzero(result.from_history)))

    wrap(engine.ServiceEngine, "execute", "engine.execute", rec, after_execute)
    wrap(engine, "gate_block", "gate.kernel", rec)
    # manager / session bookkeeping / audit trail.
    wrap(manager.SessionManager, "open_session", "manager.open", rec)
    wrap(manager.SessionManager, "evict", "manager.evict", rec)
    wrap(audit.AuditLog, "record", "audit.record", rec)

    # store: flush (its fsync read from the store's own stats), WAL bytes,
    # checkpoints (automatic ones included).
    def after_flush(start, args, events) -> None:
        rec.add("store.events", start, events)
        rec.add("store.fsync", start, args[0].stats["last_fsync_ms"] / 1e3 if events else 0.0)

    wrap(sqlite.DurableStore, "flush", "store.flush", rec, after_flush)
    wrap(sqlite.DurableStore, "_checkpoint_locked", "store.checkpoint", rec)

    crc_line = sqlite._crc_line

    def counted_crc_line(events):
        line = crc_line(events)
        rec.add("store.wal_bytes", _perf(), len(line))
        return line

    sqlite._crc_line = counted_crc_line

    # At exit, or on SIGUSR1 (before the benchmark SIGKILLs a server).
    path = os.path.join(out_dir, f"spans-{os.getpid()}")
    atexit.register(rec.dump, path)
    signal.signal(signal.SIGUSR1, lambda *_: rec.dump(path))
    return rec
