"""Spawning, probing and stopping the real ``repro serve`` process."""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from loadgen import Connection

_LISTEN = re.compile(rb"listening on ([0-9.]+):(\d+)")
_RECOVERED = re.compile(rb"recovered (\d+) sessions")


class Server:
    """One ``python -m repro.cli serve --tcp --port 0`` child process.

    ``traced`` starts it with ``--trace`` and with the benchmark's span
    hooks on ``sys.path`` (see ``hook/sitecustomize.py``), which every
    Python process of the server loads, shard workers included.
    """

    def __init__(self, root: Path, work: Path, args: List[str], name: str,
                 traced: bool = False, spans_dir: Optional[Path] = None) -> None:
        self.root = root
        self.work = work
        self.args = list(args)
        self.name = name
        self.traced = traced
        self.spans_dir = spans_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.log_path = work / f"{name}.stderr"

    def env(self) -> dict:
        env = dict(os.environ)
        paths = [str(self.root / "src")]
        if self.traced:
            paths.insert(0, str(self.root / "perfbench" / "hook"))
            env["PERFBENCH_SPANS"] = str(self.spans_dir)
        else:
            env.pop("PERFBENCH_SPANS", None)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # Shard workers listen on unix sockets under a mkdtemp directory;
        # keep it inside the checkout unless the path would pass the
        # 107-byte sun_path limit (the socket is "repro-shards-XXXXXXXX/sK").
        tmp = self.work / "tmp"
        if len(str(tmp)) + 40 < 107:
            tmp.mkdir(exist_ok=True)
            env["TMPDIR"] = str(tmp)
        env.pop("REPRO_STORE_FAULT", None)
        env.pop("REPRO_GATE_FAULT", None)
        return env

    def start(self, timeout: float = 60.0) -> float:
        """Spawn and wait for the first answered query; returns seconds."""
        argv = [sys.executable, "-m", "repro.cli", "serve", *self.args,
                "--tcp", "--port", "0"]
        if self.traced:
            argv.append("--trace")
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=log, env=self.env(), cwd=self.work,
            )
        try:
            self._wait_ready(t0 + timeout)
        except BaseException:
            self.kill()
            raise
        return time.perf_counter() - t0

    def _wait_ready(self, deadline: float) -> None:
        while True:
            match = _LISTEN.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(2))
                break
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server {self.name} did not start:\n"
                                   + self.log_path.read_text(errors="replace")[-2000:])
            time.sleep(0.005)
        conn = self.connect()
        try:
            reply = conn.call({"op": "query", "tenant": "__ready__", "item": 0,
                               "id": -1})
        finally:
            conn.close()
        if reply.get("type") != "answer":
            raise RuntimeError(f"server {self.name} first query failed: {reply}")

    def connect(self) -> Connection:
        assert self.port is not None
        return Connection("127.0.0.1", self.port)

    def pids(self) -> List[int]:
        """The server process and every process below it (shard workers
        and their resource tracker)."""
        if self.proc is None:
            return []
        return [self.proc.pid, *descendants(self.proc.pid)]

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the server and its shard workers."""
        total_kb = 0
        for pid in self.pids():
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            except OSError:
                pass
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """CPU time of every thread of the server and its shard workers,
        from ``schedstat`` (nanoseconds, not clock ticks)."""
        total = 0
        for pid in self.pids():
            for stat in Path(f"/proc/{pid}/task").glob("*/schedstat"):
                try:
                    total += int(stat.read_text().split()[0])
                except (OSError, IndexError, ValueError):
                    pass  # the thread ended meanwhile
        return total / 1e9

    def recovered_sessions(self) -> Optional[int]:
        match = _RECOVERED.search(self.log_path.read_bytes())
        return None if match is None else int(match.group(1))

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful SIGTERM; falls back to SIGKILL.  Returns the exit code
        once the server and every process it started have ended."""
        if self.proc is None:
            return 0
        family = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        code = self.proc.returncode
        wait_gone(family, grace=15.0)
        return code

    def kill(self) -> None:
        """SIGKILL the whole server (router and workers) and reap it."""
        if self.proc is None:
            return
        family = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(30.0)
        wait_gone(family, grace=0.0)


def become_subreaper() -> None:
    """Adopt every orphaned descendant of this process (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that shard workers outliving their
    router stay visible here and can be waited for by :func:`reap_all`."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def descendants(pid: int) -> List[int]:
    """Every live or unreaped process below *pid*, parents first."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for children in Path(f"/proc/{parent}/task").glob("*/children"):
            try:
                kids = [int(k) for k in children.read_text().split()]
            except (OSError, ValueError):
                continue  # the thread ended meanwhile
            found += kids
            frontier += kids
    return found


def wait_gone(pids: List[int], grace: float) -> None:
    """Wait up to *grace* seconds for *pids* to end, SIGKILL what is left,
    and reap each one this process has adopted."""
    pending = set(pids)
    deadline = time.monotonic() + grace
    hard_deadline = deadline + 30.0
    while pending and time.monotonic() < hard_deadline:
        for pid in list(pending):
            if not _alive(pid):
                _reap(pid)
                pending.discard(pid)
            elif time.monotonic() >= deadline:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if pending:
            time.sleep(0.01)


def reap_all(grace: float = 15.0) -> None:
    """Stop and reap every process below this one, adopted orphans too."""
    for _ in range(10):
        family = descendants(os.getpid())
        if not family:
            return
        wait_gone(family, grace)


def _reap(pid: int) -> None:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass  # not ours: its own parent (or init) reaps it


def _alive(pid: int) -> bool:
    """True while *pid* runs (a zombie awaiting its reaper has ended)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")
