"""One benchmark run: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, from the root of a checkout.

``--trace 0`` prints every end-to-end metric (tracing off); ``--trace 1``
prints every per-layer metric from a traced run.  Output checks run in
both modes; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is non-zero when a check failed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

#: name -> unit, in BENCHMARK.json order.  Only metrics that stay steady
#: on a shared host are gated; the latencies and the max rate move with the
#: CPU time the host steals and are reported by the traced run (README.md).
END_TO_END = {
    "setup_s": "s",
    "recovery_s": "s",
    "peak_rss_mb": "MB",
    "trials_per_s": "1/s",
}


def provenance(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    try:
        quota = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        quota = "unknown"
    sha, dirty = "none", None

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()

    try:
        # Only this checkout's own repository, not one enclosing it.
        if Path(git("rev-parse", "--show-toplevel")).resolve() == ROOT:
            sha = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain"))
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": quota,
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # SIGTERM unwinds like an exception, so every server started is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The generator's sender wakes on a sub-millisecond schedule; the default
    # 5 ms GIL switch interval would make it late behind the receiver.
    sys.setswitchinterval(0.0005)

    import layers
    import loadgen
    import server
    import serving
    import workloads

    if args.workload not in workloads.ALL:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.ALL)}", file=sys.stderr)
        return 2
    print("provenance:", json.dumps(provenance(args.seed)))
    steal0 = loadgen.steal_ticks()
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    checks = serving.Checks()
    t0 = time.perf_counter()
    # Shard workers and the like that outlive their parent are adopted
    # here, so that none is left running when this run ends.
    server.become_subreaper()
    try:
        spec = workloads.ALL[args.workload]
        if spec is None:
            import engine_sweep

            if args.trace:
                metrics, calls = engine_sweep.run_traced(args.seed, args.seconds, checks)
            else:
                metrics, calls = engine_sweep.run_untraced(args.seed, args.seconds,
                                                           ROOT, checks)
            attempted, failed = calls, 0
        else:
            runner = serving.run_traced if args.trace else serving.run_untraced
            metrics, checks, attempted, failed = runner(
                spec, args.seed, args.seconds, ROOT, work)
    finally:
        server.reap_all()
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass
    steal1 = loadgen.steal_ticks()
    print(f"wall: {time.perf_counter() - t0:.1f} s; CPU time stolen by the "
          f"host: {100 * (steal1[0] - steal0[0]) / max(steal1[1] - steal0[1], 1):.1f}%")

    if args.trace:
        result_metrics = layers.complete(metrics)
    else:
        result_metrics = {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in END_TO_END.items()}
    for name, entry in result_metrics.items():
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']}")
        # JSON has no infinity: a metric that could not be measured (say, a
        # phase with no answer at all) fails the run instead.
        if not math.isfinite(entry["value"]):
            checks.expect(False, f"{name} could not be measured")
            entry["value"] = 0.0
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({"correct": checks.ok, "attempted": int(attempted),
                      "failed": int(failed), "metrics": result_metrics}))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
