"""Open-loop load generator: one process, one connection, two threads.

Requests are sent on a precomputed schedule whatever the server does, so a
stalled server builds a queue instead of slowing the client down (no
coordinated omission).  Each request is timed from the moment it was *due*,
not from when the sender got round to it, and how late the sender ran is
reported separately as ``gen_lag``.

The receiver thread only timestamps raw ``recv`` chunks; responses are
parsed after the clock stops, so JSON decoding never competes with the
measurement.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Responses that count as failed requests (plus a missing response).
FAILED_TYPES = frozenset({"error", "overloaded", "unavailable"})


@dataclass
class Phase:
    """The outcome of one scheduled burst of requests."""

    offered_qps: float
    sent: int  # request lines
    latencies_ms: np.ndarray  # per answered request line, from its due time
    answered_queries: int  # queries inside answered lines
    failed: int  # request lines with a failed or missing response
    lag_ms: np.ndarray  # per request line: send time minus due time
    tail_mean_ms: float  # mean latency of the last quarter of the lines
    aborted: bool  # sending stopped early: the backlog grew past the cap
    steal: float  # share of this machine's CPU time the host stole meanwhile
    malformed: List[bytes] = field(default_factory=list)  # unmatched/short

    def p(self, q: float) -> float:
        if self.latencies_ms.size == 0:
            return float("inf")
        return float(np.percentile(self.latencies_ms, q))

    def p99_with_failures(self) -> float:
        """The p99 with every failed request counted as missing the limit."""
        if self.failed * 100 > self.sent:
            return float("inf")
        lat = np.concatenate([self.latencies_ms, np.full(self.failed, np.inf)])
        return float(np.percentile(lat, 99)) if lat.size else float("inf")


class Connection:
    """A TCP connection with a background receiver that stamps chunks."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass

    def call(self, payload: dict, timeout: float = 30.0) -> dict:
        """One synchronous request/response round trip (control ops)."""
        self.sock.sendall(json.dumps(payload).encode() + b"\n")
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buf:
            if time.monotonic() > deadline:
                raise TimeoutError(f"no response to {payload.get('op')!r}")
            self.sock.settimeout(max(deadline - time.monotonic(), 0.01))
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def run(
        self,
        lines: Sequence[bytes],
        due_s: np.ndarray,
        queries_per_line: np.ndarray,
        offered_qps: float,
        abort_backlog_s: Optional[float] = None,
        wait_s: float = 30.0,
    ) -> Phase:
        """Send *lines* at ``t0 + due_s`` and collect one response each.

        Every request line carries an integer ``id`` equal to its index in
        *lines*; a response is matched by that id.  With *abort_backlog_s*,
        sending stops once more requests are outstanding than that many
        seconds of the offered rate (the step has clearly failed, and a
        deeper backlog would only delay the next step).  Waits at most
        *wait_s* after the last send; what is still missing then counts as
        failed.
        """
        n = len(lines)
        chunks: List[bytes] = []
        stamps: List[float] = []
        received = [0]
        target = [n]
        stop = threading.Event()
        sock = self.sock
        sock.settimeout(0.05)

        def receive() -> None:
            while not stop.is_set() and received[0] < target[0]:
                try:
                    chunk = sock.recv(1 << 20)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                stamps.append(time.perf_counter())
                chunks.append(chunk)
                received[0] += chunk.count(b"\n")

        receiver = threading.Thread(target=receive, name="loadgen-recv")
        receiver.start()
        send_at = np.empty(n)
        max_outstanding = (
            None if abort_backlog_s is None
            else max(abort_backlog_s * n / max(float(due_s[-1]), 1e-3), 8.0)
        )
        aborted = False
        steal0 = steal_ticks()
        t0 = time.perf_counter() + 0.02
        sent = 0
        try:
            while sent < n:
                now = time.perf_counter() - t0
                k = int(np.searchsorted(due_s, now, side="right"))
                if k > sent:
                    sock.sendall(b"".join(lines[sent:k]))
                    send_at[sent:k] = time.perf_counter() - t0
                    sent = k
                    if max_outstanding is not None and sent - received[0] > max_outstanding:
                        aborted = True
                        break
                    continue
                # Sleep, never spin: on a 2-CPU box a spinning sender takes
                # the CPU the server needs, which costs more than waking late.
                time.sleep(min(due_s[sent] - now, 0.005))
            target[0] = sent
            receiver.join(wait_s)
        finally:
            stop.set()
            receiver.join(5.0)
            sock.settimeout(None)
        steal1 = steal_ticks()

        # The clock has stopped: split chunks into lines, stamp each line
        # with the arrival time of the chunk that completed it, then parse.
        arrival: Dict[int, float] = {}
        failed_ids = set()
        answered = 0
        bad: List[bytes] = []
        carry = b""
        for stamp, chunk in zip(stamps, chunks):
            parts = (carry + chunk).split(b"\n")
            carry = parts.pop()
            for raw in parts:
                msg = json.loads(raw)
                rid = msg.get("id")
                if not isinstance(rid, int) or not 0 <= rid < sent or rid in arrival:
                    bad.append(raw[:200])
                    continue
                arrival[rid] = stamp - t0
                kind = msg.get("type")
                if kind in FAILED_TYPES:
                    failed_ids.add(rid)
                elif kind == "answers":
                    answered += int(msg["count"])
                    if (int(msg["count"]) != int(queries_per_line[rid])
                            or not _block_complete(msg)):
                        bad.append(raw[:200])
                elif kind == "answer":
                    answered += 1
        self._buf = carry
        ok_ids = np.array(sorted(set(arrival) - failed_ids), dtype=np.int64)
        lat = (np.array([arrival[i] for i in ok_ids.tolist()]) - due_s[ok_ids]) * 1e3
        tail = 0.0
        if lat.size >= 4:
            tail = float(lat[-(lat.size // 4):].mean())
        return Phase(
            offered_qps=offered_qps,
            sent=sent,
            answered_queries=answered,
            latencies_ms=lat,
            failed=len(failed_ids) + sent - len(arrival),
            lag_ms=(send_at[:sent] - due_s[:sent]) * 1e3,
            tail_mean_ms=tail,
            aborted=aborted,
            steal=(steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1),
            malformed=bad,
        )


def _block_complete(msg: dict) -> bool:
    """A block answer carries exactly ``count`` values."""
    if "values_b64" in msg:
        return len(base64.b64decode(msg["values_b64"])) == 8 * int(msg["count"])
    return len(msg.get("values", ())) == int(msg["count"])


def steal_ticks():
    """(stolen, total) CPU ticks of this machine from ``/proc/stat``.

    Steal is time a virtual CPU was ready to run while the host ran
    something else: on a shared host it, more than the program, moves
    wall-clock latencies.
    """
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return fields[7], sum(fields)


def poisson_schedule(rng: np.random.Generator, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from start) of *count* Poisson arrivals at *rate*."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def self_test(lines_per_s: float, line: bytes, seconds: float = 0.3) -> float:
    """Offer *line* into a local socket pair at *lines_per_s*; returns the
    rate the sender actually kept up with (lines per second).

    The sink thread stands in for a server that answers instantly, so this
    bounds what the generator itself can offer on this machine.
    """
    a, b = socket.socketpair()
    count = max(int(lines_per_s * seconds), 1)
    done = threading.Event()

    def sink() -> None:
        b.settimeout(0.05)
        while not done.is_set():
            try:
                if not b.recv(1 << 20):
                    return
            except socket.timeout:
                continue
            except OSError:
                return

    thread = threading.Thread(target=sink, name="loadgen-selftest")
    thread.start()
    try:
        due = np.arange(count) / lines_per_s
        t0 = time.perf_counter()
        sent = 0
        while sent < count:
            now = time.perf_counter() - t0
            k = int(np.searchsorted(due, now, side="right"))
            if k > sent:
                a.sendall(line * (k - sent))
                sent = k
            else:
                time.sleep(0.0002)
        elapsed = time.perf_counter() - t0
    finally:
        done.set()
        a.close()
        thread.join(5.0)
        b.close()
    return count / max(elapsed, 1e-9)


def lag_summary(phases: Sequence[Phase]) -> Optional[float]:
    lags = [p.lag_ms for p in phases if p.lag_ms.size]
    if not lags:
        return None
    return float(np.percentile(np.concatenate(lags), 99))
