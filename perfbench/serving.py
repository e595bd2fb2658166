"""The serving workloads: open-loop load against a real ``repro serve``.

An untraced run (``--trace 0``) measures what stays steady on a shared
host and is gated:

1. set-up: spawn the server five times (three with shard workers, whose
   boots take longer and vary less), each until its first answer; the
   last one serves the load;
2. one burst opening every tenant's session, then a warm phase at ``hi``,
   excluded, so tenant histories are filled (the steady state);
3. alternating ``lo`` and ``hi`` sub-phases at the fixed rates (Poisson,
   open loop), over which the server's CPU time per answered query is
   taken;
4. the output checks (``sessions``, per-shard counts), peak RSS, then seven
   (five with shard workers) SIGKILL-and-reboot cycles with the same arguments (``recovery_s``); the
   durable workload checks that every live session comes back.

The traced run (``--trace 1``) measures the latencies at the fixed rates
and the max-rate ladder on an untraced server, then repeats the warm and
``hi`` phases on a traced server (``--trace`` plus the span hooks), so the
difference between the two is the tracing overhead, and reports the
per-layer metrics from the traced ``hi`` phase.
"""

from __future__ import annotations

import base64
import json
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import layers
from loadgen import Phase, lag_summary, poisson_schedule, self_test
from server import Server

#: The latency limit: p99 from each request's due time.
LIMIT_P99_MS = 100.0
#: A run whose sends were later than this at p99 is flagged.
GEN_BEHIND_MS = 10.0
#: The lo and hi phases are each split into this many alternating parts.
SUBPHASES = 12
BLOCK = 64
EPSILON = 1.0
ITEMS = 2000


@dataclass(frozen=True)
class ServingSpec:
    name: str
    kind: str  # "scalar" or "block"
    tenants: int
    lo_qps: float  # about 20% of the parent's knee, fixed
    hi_qps: float  # about 50% of the parent's knee, fixed
    shards: int = 1
    durable: bool = False
    churn: float = 0.0  # chance that a request line is preceded by a close
    #: Share of the run's seconds spent in each of the lo and hi phases.
    #: Block lines are few per second on the slow durable path, so it spends
    #: longer there to give its p99 enough samples.
    fixed_share: float = 0.25


class Traffic:
    """Seeded request stream: Zipf tenants with Zipf-weighted working sets.

    Each tenant revisits a small working set of items (where the service
    answers from history) and sometimes explores a uniform item.  With
    ``churn``, a tenant slot is now and then closed and its next query goes
    to a fresh tenant name, so sessions open, spend and close all the time.
    """

    def __init__(self, spec: ServingSpec, seed: int) -> None:
        self.spec = spec
        self.rng = np.random.default_rng([seed, 1])
        tp = np.arange(1, spec.tenants + 1, dtype=float) ** -1.1
        self.tenant_p = tp / tp.sum()
        ip = np.arange(1, ITEMS + 1, dtype=float) ** -1.2
        self.working = self.rng.choice(ITEMS, size=(spec.tenants, 8), p=ip / ip.sum())
        self.generation = np.zeros(spec.tenants, dtype=np.int64)
        self.opened = np.zeros(spec.tenants, dtype=bool)

    def prime(self):
        """One scalar query per tenant slot, all due at once: every live
        session exists before the warm phase (the store's flush cost grows
        with live sessions, so the steady state starts with all of them)."""
        lines = [_line({"op": "query", "id": t, "tenant": f"t{t}g{self.generation[t]}",
                        "item": int(self.working[t, 0])})
                 for t in range(self.spec.tenants)]
        self.opened[:] = True
        return lines, np.zeros(len(lines)), np.ones(len(lines))

    def _items(self, tenant: int, count: int) -> np.ndarray:
        rng = self.rng
        repeat = rng.random(count) < 0.9
        slot = rng.integers(0, 8, size=count)
        explore = rng.integers(0, ITEMS, size=count)
        return np.where(repeat, self.working[tenant, slot], explore).astype("<i8")

    def phase(self, qps: float, seconds: float):
        """Lines, due times and queries per line for one phase, plus a
        ``commit(sent)`` that advances the tenant state by the lines that
        were actually sent (an aborted phase sends only a prefix)."""
        spec = self.spec
        per_line = BLOCK if spec.kind == "block" else 1
        count = max(int(qps * seconds / per_line), 1)
        due = poisson_schedule(self.rng, qps / per_line, count)
        tenants = self.rng.choice(spec.tenants, size=count, p=self.tenant_p)
        churn = self.rng.random(count) < spec.churn
        generation = self.generation.copy()
        opened = self.opened.copy()
        lines: List[bytes] = []
        dues: List[float] = []
        queries: List[int] = []
        states = []
        for i in range(count):
            if churn[i]:
                # Close a tenant drawn like the queries (hot tenants churn
                # too), and only one whose session exists by then: queried
                # in an earlier phase or earlier on this connection.
                slot = int(self.rng.choice(spec.tenants, p=self.tenant_p))
                if opened[slot]:
                    lines.append(_line({"op": "close", "id": len(lines),
                                        "tenant": f"t{slot}g{generation[slot]}"}))
                    dues.append(due[i])
                    queries.append(0)
                    generation[slot] += 1
                    opened[slot] = False
                    states.append((slot, generation[slot], False))
            t = int(tenants[i])
            name = f"t{t}g{generation[t]}"
            opened[t] = True
            if spec.kind == "block":
                items = self._items(t, BLOCK)
                lines.append(_line({
                    "op": "query_block", "id": len(lines), "tenant": name, "bin": True,
                    "items_b64": base64.b64encode(items.tobytes()).decode()}))
            else:
                lines.append(_line({"op": "query", "id": len(lines), "tenant": name,
                                    "item": int(self._items(t, 1)[0])}))
            dues.append(due[i])
            queries.append(per_line)
            states.append((t, generation[t], True))

        def commit(sent: int) -> None:
            for slot, gen, is_open in states[:sent]:
                self.generation[slot] = gen
                self.opened[slot] = is_open

        return lines, np.array(dues), np.array(queries), commit


def _line(payload: dict) -> bytes:
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode()


class Checks:
    """Output checks; every failure is kept with its reason."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


class Run:
    """State of one serving run: the generator, the checks, the phases."""

    def __init__(self, spec: ServingSpec, seed: int, root: Path, work: Path) -> None:
        self.spec = spec
        self.seed = seed
        self.root = root
        self.work = work
        self.traffic = Traffic(spec, seed)
        self.checks = Checks()
        self.phases: List[Phase] = []
        self.primed = 0
        self.scores_path = work / "scores.txt"
        rng = np.random.default_rng([seed, 0])
        supports = np.sort(np.floor(rng.pareto(1.2, size=ITEMS) * 100 + 1))[::-1]
        self.scores_path.write_text("\n".join(str(int(s)) for s in supports) + "\n")
        self.threshold = 0.6 * float(supports[0])

    def server_args(self, state: Optional[Path]) -> List[str]:
        args = [str(self.scores_path), "--threshold", repr(self.threshold),
                "--epsilon", repr(EPSILON), "--seed", str(self.seed)]
        if self.spec.shards > 1:
            args += ["--shards", str(self.spec.shards)]
        if state is not None:
            args += ["--state-dir", str(state)]
        return args

    def new_server(self, name: str, traced: bool = False,
                   spans: Optional[Path] = None) -> Server:
        state = self.work / f"state-{name}" if self.spec.durable else None
        return Server(self.root, self.work, self.server_args(state), name,
                      traced=traced, spans_dir=spans)

    # -- load phases -----------------------------------------------------
    def phase(self, srv: Server, qps: float, seconds: float,
              abort: bool = False) -> Phase:
        """One open-loop phase on a fresh connection.

        Each request line is answered exactly once (or counted as failed),
        and block answers carry as many items as the block asked for.
        """
        lines, due, queries, commit = self.traffic.phase(qps, seconds)
        conn = srv.connect()
        try:
            result = conn.run(lines, due, queries, qps,
                              abort_backlog_s=0.5 if abort else None)
        finally:
            conn.close()
        commit(result.sent)
        self.settle(srv)
        self.checks.expect(not result.malformed,
                           f"unmatched or short responses: {result.malformed[:3]}")
        self.phases.append(result)
        return result

    def prime(self, srv: Server) -> None:
        """Open every tenant's session (a burst, not measured)."""
        lines, due, queries = self.traffic.prime()
        conn = srv.connect()
        try:
            result = conn.run(lines, due, queries, 0.0)
        finally:
            conn.close()
        self.checks.expect(result.failed == 0 and not result.malformed,
                           f"priming failed for {result.failed} tenants")
        self.primed = result.answered_queries

    def settle(self, srv: Server, timeout: float = 30.0) -> None:
        """Wait until the server has drained everything admitted."""
        conn = srv.connect()
        try:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                gauges = conn.call({"op": "metrics"})["gauges"]
                if gauges.get("ingress_depth", 0) == 0:
                    return
                time.sleep(0.02)
        finally:
            conn.close()
        self.checks.expect(False, "server did not drain its backlog")

    def step(self, srv: Server, rate: float, step_s: float) -> bool:
        """One ladder step.  A miss is confirmed by a second attempt at the
        same rate, so one transient stall does not end the search."""
        for _ in range(2):
            if self.passes(self.phase(srv, rate, step_s, abort=True)):
                return True
        return False

    def passes(self, phase: Phase) -> bool:
        return (phase.failed == 0 and not phase.aborted
                and phase.p99_with_failures() <= LIMIT_P99_MS
                and phase.tail_mean_ms <= LIMIT_P99_MS)

    def max_rate(self, srv: Server, step_s: float) -> Tuple[float, int]:
        """Highest offered rate meeting the limit; returns (rate, steps)."""
        factor = 1.3
        rate = self.spec.hi_qps
        good: Optional[float] = None
        bad: Optional[float] = None
        steps = 0
        while steps < 12 and (good is None or bad is None):
            steps += 1
            if self.step(srv, rate, step_s):
                good = rate
                rate *= factor
            else:
                bad = rate
                rate /= factor
        if good is None:
            return 0.0, steps
        if bad is not None:
            for _ in range(3):
                mid = float(np.sqrt(good * bad))
                steps += 1
                if self.step(srv, mid, step_s):
                    good = mid
                else:
                    bad = mid
        return good, steps

    # -- checks and state ------------------------------------------------
    def sessions(self, srv: Server) -> Dict[str, dict]:
        conn = srv.connect()
        try:
            view = conn.call({"op": "sessions", "limit": 1 << 20})
        finally:
            conn.close()
        return {s["tenant"]: s for s in view["sessions"]}

    def check_sessions(self, sessions: Dict[str, dict]) -> None:
        over = [t for t, s in sessions.items() if s["spent"] > s["epsilon"] + 1e-9]
        self.checks.expect(not over, f"sessions spent more than epsilon: {over[:5]}")

    def check_shard_counts(self, srv: Server) -> None:
        conn = srv.connect()
        try:
            counters = conn.call({"op": "metrics"})["counters"]
        finally:
            conn.close()
        per_shard = [counters.get(f'answered_total{{shard="{k}"}}', 0)
                     + counters.get(f'rejected_total{{shard="{k}"}}', 0)
                     for k in range(self.spec.shards)]
        # Every answered query reached the client: the boot's ready probe,
        # the priming burst and every answered line of every phase.
        client = sum(p.answered_queries for p in self.phases) + self.primed + 1
        self.checks.expect(sum(per_shard) == client,
                           f"per-shard answered {per_shard} sum to {sum(per_shard)}, "
                           f"client received {client}")


def _quiet_median(phases: List[Phase], q: float) -> float:
    """Median q-th percentile latency over the third of *phases* during
    which the host stole the least CPU time: a busy neighbour then moves a
    few sub-phases and not the result."""
    quiet = sorted(phases, key=lambda p: p.steal)[:max(len(phases) // 3, 1)]
    return float(np.median([p.p(q) for p in quiet]))


def _budget(spec: ServingSpec, seconds: float) -> Dict[str, float]:
    fixed = spec.fixed_share * seconds
    # About ten ladder phases: the climb, three bisections, some retries.
    return {"warm": 0.1 * seconds, "lo": fixed, "hi": fixed,
            "step": 0.04 * seconds}


def _fixed_rates(run: Run, srv: Server, budget: Dict[str, float]):
    """Warm phase, then alternating lo and hi sub-phases at the fixed
    rates; returns both lists and the server CPU seconds they took."""
    run.prime(srv)
    run.phase(srv, run.spec.hi_qps, budget["warm"])
    los: List[Phase] = []
    his: List[Phase] = []
    cpu0 = srv.cpu_seconds()
    for _ in range(SUBPHASES):
        los.append(run.phase(srv, run.spec.lo_qps, budget["lo"] / SUBPHASES))
        his.append(run.phase(srv, run.spec.hi_qps, budget["hi"] / SUBPHASES))
    return los, his, srv.cpu_seconds() - cpu0


def _check_generator(run: Run, selftest: float) -> None:
    per_line = BLOCK if run.spec.kind == "block" else 1
    top = max(p.offered_qps for p in run.phases) / per_line
    run.checks.expect(selftest >= 2 * top,
                      f"generator self-test offered {selftest:.0f} lines/s, under "
                      f"twice the top rate offered ({top:.0f} lines/s)")


def _report(run: Run, extra: dict) -> None:
    lag = lag_summary(run.phases[1:])
    extra.update({"gen_lag_p99_ms": lag, "limit_p99_ms": LIMIT_P99_MS,
                  "lo_qps": run.spec.lo_qps, "hi_qps": run.spec.hi_qps})
    print("serving detail:", json.dumps(extra, default=float))
    if lag is not None and lag > GEN_BEHIND_MS:
        print(f"WARNING: the generator fell behind (send lag p99 {lag:.1f} ms)")
    for p in run.phases:
        print(f"  phase {p.offered_qps:10.0f} q/s  lines {p.sent:6d}  p50 {p.p(50):8.2f}  "
              f"p99 {p.p(99):8.2f}  failed {p.failed}  aborted {p.aborted}  "
              f"lag99 {float(np.percentile(p.lag_ms, 99)) if p.sent else 0:7.2f}  "
              f"steal {100 * p.steal:5.1f}%  pass {run.passes(p)}")


def run_untraced(spec: ServingSpec, seed: int, seconds: float, root: Path,
                 work: Path) -> Tuple[dict, Checks, int, int]:
    """The gated end-to-end metrics: set-up, recovery, memory and the
    server CPU each answered query costs at the fixed rates."""
    run = Run(spec, seed, root, work)
    budget = _budget(spec, seconds)
    checks = run.checks
    selftest = self_test(_selftest_lines(spec), _selftest_line(spec))
    setup_boots, recovery_boots = (3, 5) if spec.shards > 1 else (5, 7)
    setups = []
    srv = None
    for k in range(setup_boots):
        if srv is not None:
            srv.stop()
        srv = run.new_server(f"boot{k}")
        setups.append(srv.start())
    try:
        los, his, cpu = _fixed_rates(run, srv, budget)
        before = run.sessions(srv)
        run.check_sessions(before)
        if spec.shards > 1:
            run.check_shard_counts(srv)
        peak_rss = srv.peak_rss_mb()
        # Crash-reboot cycles on the same arguments (and state dir); each
        # reboot must bring back every live session unchanged.
        recoveries = []
        for _ in range(recovery_boots):
            srv.kill()
            srv = run.new_server(srv.name)
            recoveries.append(srv.start())
            if spec.durable:
                recovered = srv.recovered_sessions()
                checks.expect(recovered == len(before),
                              f"reboot recovered {recovered} of {len(before)} sessions")
                after = run.sessions(srv)
                lost = [t for t in before if t not in after
                        or abs(after[t]["spent"] - before[t]["spent"]) > 1e-12]
                checks.expect(not lost, f"sessions lost or changed by recovery: {lost[:5]}")
    finally:
        srv.stop()

    _check_generator(run, selftest)
    _report(run, {"gen_selftest_lines_per_s": selftest,
                  "samples.lo": sum(p.latencies_ms.size for p in los),
                  "samples.hi": sum(p.latencies_ms.size for p in his)})
    metrics = {
        "setup_s": float(np.median(setups)),
        "recovery_s": float(np.median(recoveries)),
        "peak_rss_mb": peak_rss,
        "trials_per_s": sum(p.answered_queries for p in los + his) / max(cpu, 1e-3),
    }
    fixed = los + his
    return metrics, checks, sum(p.sent for p in fixed), sum(p.failed for p in fixed)


def _selftest_line(spec: ServingSpec) -> bytes:
    traffic = Traffic(spec, 0)
    lines = traffic.phase(1.0, 1.0)[0]
    return lines[0]


def _selftest_lines(spec: ServingSpec) -> float:
    # Four times the top of the ladder this run could reach from hi.
    per_line = BLOCK if spec.kind == "block" else 1
    return 4 * spec.hi_qps * 1.3 ** 6 / per_line


def run_traced(spec: ServingSpec, seed: int, seconds: float, root: Path,
               work: Path) -> Tuple[dict, Checks, int, int]:
    """Latencies and the max rate on an untraced server, then the same warm
    and hi phases on a traced one; the per-layer metrics."""
    run = Run(spec, seed, root, work)
    budget = _budget(spec, seconds)
    checks = run.checks
    selftest = self_test(_selftest_lines(spec), _selftest_line(spec))
    plain = run.new_server("plain")
    setup_plain = plain.start()
    try:
        los, his, _ = _fixed_rates(run, plain, budget)
        rate, steps = run.max_rate(plain, budget["step"])
    finally:
        plain.stop()
    checks.expect(rate > 0, f"no ladder step met the limit (p99 <= {LIMIT_P99_MS} ms)")
    _check_generator(run, selftest)
    _report(run, {"gen_selftest_lines_per_s": selftest, "ladder_steps": steps,
                  "samples.lo": sum(p.latencies_ms.size for p in los),
                  "samples.hi": sum(p.latencies_ms.size for p in his)})

    spans_dir = work / "spans"
    spans_dir.mkdir(exist_ok=True)
    traced = run.new_server("traced", traced=True, spans=spans_dir)
    setup_traced = traced.start()
    reboot = None
    try:
        run.prime(traced)
        run.phase(traced, spec.hi_qps, budget["warm"])
        before = layers.server_counters(traced)
        t0 = time.perf_counter()
        hi = run.phase(traced, spec.hi_qps, budget["hi"])
        window = (t0, time.perf_counter())
        after = layers.server_counters(traced)
        run.phase(traced, 3 * spec.hi_qps, min(1.0, budget["hi"]), abort=True)
        sat_after = layers.server_counters(traced)
        sessions = run.sessions(traced)
        run.check_sessions(sessions)
        if spec.durable:
            # Dump the spans, then crash it and time the traced reboot.
            os.kill(traced.proc.pid, signal.SIGUSR1)
            _wait_for(spans_dir / f"spans-{traced.proc.pid}.npz")
            traced.kill()
            reboot = run.new_server("traced", traced=True, spans=spans_dir)
            reboot.start()
            checks.expect(reboot.recovered_sessions() == len(sessions),
                          "traced reboot did not recover every session")
    finally:
        traced.stop()
        if reboot is not None:
            reboot.stop()

    metrics = layers.service_layers(
        spans_dir, window, before, after, sat_after, hi, spec)
    plain_p50 = float(np.median([p.p(50) for p in his]))
    plain_p99 = float(np.median([p.p(99) for p in his]))
    metrics.update({
        "lat_p50_ms.lo": _quiet_median(los, 50), "lat_p99_ms.lo": _quiet_median(los, 99),
        "lat_p50_ms.hi": _quiet_median(his, 50), "lat_p99_ms.hi": _quiet_median(his, 99),
        "max_rate_qps": rate,
        "trace.overhead_p50_ms": hi.p(50) - plain_p50,
        "trace.overhead_p99_ms": hi.p(99) - plain_p99,
        "trace.overhead_setup_s": setup_traced - setup_plain,
        "gen.lag_ms": lag_summary([hi]) or 0.0,
        "gen.selftest_qps": selftest,
        "client.p50_ms": hi.p(50),
    })
    fixed = los + his + [hi]
    return metrics, checks, sum(p.sent for p in fixed), sum(p.failed for p in fixed)


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
