"""Benchmark of the parabolic verifier, run from the root of a checkout.

    python3 bench/run.py --workload verify|graphs|queries --seed N \
        --seconds S --trace 0|1 [--scale full|tiny]

One process, one closed-loop client, no threads.  Set-up time is measured
first: several fresh interpreters each importing the package from src/.
The workload then runs against the package imported from src/, and its
answers are checked against independent paths outside the timed regions.
Workload times are reported in reference seconds, corrected for the host's
drifting speed by calibrations sampled during each timed segment
(common.Speed); the wall figures are printed as well.  Set-up time is wall
time.

With --trace 0 the last line of stdout is a JSON object whose metrics are
the end-to-end metrics of BENCHMARK.json; with --trace 1 the public functions
of every module are traced and the metrics are the per-layer ones.  The
lines before it give a machine fingerprint and the workload's metrics under
their descriptive names.  --scale tiny runs the same code at toy sizes, for
the smoke test.  The exit code is 2 when the checkout has no package.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import time

import workload_graphs
import workload_queries
import workload_verify
from common import Outcome, Speed, median, tail
from tracing import Tracer, graph_bytes, layer_metrics

WORKLOADS = {"verify": workload_verify, "graphs": workload_graphs, "queries": workload_queries}
SETUP_RUNS = 15


def _fingerprint(root: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def _setup_seconds(root: str, runs: int) -> float:
    """Median wall time from starting a fresh interpreter to `import parabolic` done."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import parabolic"], cwd=root, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return median(times)


def _load_oracles(root: str):
    spec = importlib.util.spec_from_file_location("oracles", os.path.join(root, "tests", "oracles.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    for need in (os.path.join(src, "parabolic", "__init__.py"), os.path.join(root, "tests", "oracles.py")):
        if not os.path.isfile(need):
            print(f"bench: {need} not found; run from the root of a checkout", file=sys.stderr)
            return 2
    sys.path.insert(0, src)
    import parabolic

    if not os.path.abspath(parabolic.__file__).startswith(src + os.sep):
        print(f"bench: imported {parabolic.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    oracles = _load_oracles(root)

    # the import above compiled the package, so set-up excludes bytecode compilation
    setup_s = _setup_seconds(root, SETUP_RUNS if args.scale == "full" else 3)
    print("fingerprint " + json.dumps(_fingerprint(root), sort_keys=True))

    workload = WORKLOADS[args.workload]
    outcome = Outcome(speed=Speed(workload.PROBE))
    tracer = None
    if args.trace:
        # spans leave out the speed samples, like the end-to-end times
        tracer = Tracer(clock=outcome.speed.now)
        tracer.install()
    outcome.speed.start()
    try:
        workload.run(
            parabolic, oracles, outcome, args.seed, args.seconds, args.scale, tracer
        )
    finally:
        outcome.speed.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    p50 = median(outcome.latencies) * 1e3
    p_tail, label = tail(outcome.latencies)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_tail_ms": (p_tail * 1e3, "ms"),
        "throughput_per_s": (outcome.throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    named = dict(outcome.named)
    named["samples"] = (len(outcome.latencies), f"count (tail = {label})")
    named["wall.latency_p50_ms"] = (median(outcome.wall) * 1e3, "ms")
    named["speed_factor"] = (median(outcome.speed.factors), "reference s per wall s")
    named["failed_frac"] = (outcome.failed / outcome.attempted, f"{outcome.failed}/{outcome.attempted}")
    for name, (value, unit) in {**end_to_end, **named}.items():
        print(f"metric {name} = {value} {unit}")
    for note in outcome.notes:
        print(f"failure {note}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end
    else:
        metrics = layer_metrics(tracer)
        bytes_per_vertex = 0.0
        if tracer.largest_build is not None:
            # rebuilt untraced after the run: retained bytes per vertex of the
            # largest graph this workload built
            _, builder, arg = tracer.largest_build
            g = getattr(parabolic, builder)(arg)
            bytes_per_vertex = graph_bytes(g) / len(g)
            del g
        metrics["schreier.bytes_per_vertex"] = (bytes_per_vertex, "B")
        for name in ("latency_p50_ms", "latency_tail_ms", "throughput_per_s"):
            metrics[f"traced.{name}"] = end_to_end[name]
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
