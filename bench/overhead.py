"""Tracing overhead per workload: traced minus untraced end-to-end figures.

    python3 bench/overhead.py [--seed N] [--seconds S] [--scale full|tiny]

Runs bench/run.py untraced and traced on each workload with the same seed,
and prints the untraced value, the traced value (the traced.* per-layer
metrics) and their difference for latency_p50_ms, latency_tail_ms and
throughput_per_s.  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
METRICS = ("latency_p50_ms", "latency_tail_ms", "throughput_per_s")


def _metrics(workload: str, trace: int, args) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["metrics"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    for workload in ("verify", "graphs", "queries"):
        plain = _metrics(workload, 0, args)
        traced = _metrics(workload, 1, args)
        for name in METRICS:
            a = plain[name]["value"]
            b = traced[f"traced.{name}"]["value"]
            print(f"{workload} {name}: untraced {a:.6g} traced {b:.6g} "
                  f"difference {b - a:+.6g} ({(b - a) / a:+.1%}) {plain[name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
