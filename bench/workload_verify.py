"""`verify`: the reproduction run, `run_verification()` at default parameters,
in a closed loop with one client.  Calls repeat until --seconds have passed
and at least MIN_CALLS were made, so the median always rests on the same
number of samples at full size.

Every call must pass all its checks and serialize to a report byte-identical
to the golden report captured from the seed (golden/).  The input does not
depend on the seed.  Each call is its own timed segment, scaled by the host
speed sampled during it (common.Speed).
"""

from __future__ import annotations

import gc
import os
import time

from common import Outcome, median

# the host speed probe that tracks this workload (common.Speed)
PROBE = "bfs"

_HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CALLS = 3
PARAMS = {"full": {}, "tiny": {"n_max": 20, "q_max": 12, "depth": 5, "sweep_len": 5}}
GOLDEN = {
    "full": os.path.join(_HERE, "golden", "verification_default.json"),
    "tiny": os.path.join(_HERE, "golden", "verification_tiny.json"),
}


def run(P, oracles, out: Outcome, seed: int, seconds: float, scale: str, tracer) -> None:
    with open(GOLDEN[scale], encoding="utf-8") as fh:
        golden = fh.read()
    params = PARAMS[scale]
    deadline = time.perf_counter() + seconds
    while True:
        out.attempted += 1
        gc.collect()  # every call starts from the same heap state
        out.speed.open()
        t0 = out.speed.now()
        try:
            report = P.run_verification(**params)
        except Exception as exc:
            report = None
            error = f"{type(exc).__name__}: {exc}"
        t1 = out.speed.now()
        out.wall.append(t1 - t0)
        out.settle()
        if report is None:
            out.fail(f"run_verification raised {error}")
        elif not report.all_passed:
            out.fail(f"checks failed: {report.summary()}")
        elif report.to_json() != golden:
            out.fail("report differs from the golden report")
        # the traced run makes exactly one call, so its counts repeat exactly
        if tracer is not None or (time.perf_counter() >= deadline and out.attempted >= MIN_CALLS):
            break
    out.throughput = len(out.latencies) / sum(out.latencies)
    out.named["verify_s"] = (median(out.latencies), "s")
