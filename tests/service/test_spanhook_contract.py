"""The names the traced benchmark wraps stay where it wraps them.

``perfbench/hook/spanhooks.py`` times each service layer from outside by
replacing module-level attributes: ``server.parse_request_line``,
``server.restore_service``, ``shard.parse_request_line``,
``engine.gate_block``, ``sqlite._crc_line`` and methods such as
``DurableStore._checkpoint_locked``.  It also reads
``DurableStore.stats["last_fsync_ms"]`` and counts the ``int`` that
``DurableStore.flush`` returns.  A refactor that moves one of those names
(say, an import pushed into a function) leaves the traced benchmark run
broken while every other test passes; this test installs the hooks,
unedited, against ``src/`` and drives a durable boot, a flush, a
checkpoint and a recovery through them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_DRIVER = """
import json, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
import spanhooks

rec = spanhooks.install_service(sys.argv[2])
from repro.service import engine
from repro.service.runtime import server, shard
from repro.service.store import sqlite

hooked = {
    "server.parse_request_line": server.parse_request_line,
    "server.restore_service": server.restore_service,
    "server.RuntimeServer.ingest_line": server.RuntimeServer.ingest_line,
    "shard.parse_request_line": shard.parse_request_line,
    "shard.HashRing.shard_for": shard.HashRing.shard_for,
    "engine.gate_block": engine.gate_block,
    "engine.ServiceEngine.execute": engine.ServiceEngine.execute,
    "sqlite.DurableStore.flush": sqlite.DurableStore.flush,
    "sqlite.DurableStore._checkpoint_locked": sqlite.DurableStore._checkpoint_locked,
}
unwrapped = [name for name, fn in hooked.items() if not hasattr(fn, "__wrapped__")]
if sqlite._crc_line.__name__ != "counted_crc_line":
    unwrapped.append("sqlite._crc_line")

config = server.ServerConfig(state_dir=sys.argv[3], seed=5, mode="per-session")
supports = np.linspace(1000.0, 10.0, 64)
srv = server.RuntimeServer(supports, config)
srv.ingest_line(json.dumps({"op": "open", "tenant": "a", "epsilon": 1.0,
                            "threshold": 600, "c": 4}), None)
srv.service.submit_many("a", np.array([0, 3, 9]))
srv.service.drain()
flushed = srv.store.flush()
fsync_ms = srv.store.stats["last_fsync_ms"]
srv.store.checkpoint()
srv.close_store()
rebooted = server.RuntimeServer(supports, config)
rebooted.close_store()
print(json.dumps({
    "unwrapped": unwrapped,
    "flush_type": type(flushed).__name__,
    "flushed": flushed,
    "fsync_ms": fsync_ms,
    "recovered": rebooted.recovery is not None,
    "series": sorted(rec.series),
}))
"""


def test_spanhooks_install_and_record_every_service_layer(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    env.pop("PERFBENCH_SPANS", None)
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER, str(REPO / "perfbench" / "hook"),
         str(tmp_path), str(tmp_path / "state")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])

    assert result["unwrapped"] == []
    assert result["flush_type"] == "int" and result["flushed"] > 0
    assert isinstance(result["fsync_ms"], float)
    assert result["recovered"]
    # Each span below is recorded only if the program calls the wrapped
    # attribute, not a reference it bound before the hooks went in.
    assert {
        "server.decode", "server.ingest", "manager.open", "engine.execute",
        "gate.kernel", "audit.record", "store.flush", "store.events",
        "store.fsync", "store.wal_bytes", "store.checkpoint", "recovery.restore",
    } <= set(result["series"])
    # The recorder dumps its spans at exit.
    assert list(tmp_path.glob("spans-*.npz"))
