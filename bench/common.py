"""Shared pieces of the benchmark: host-speed calibration, the outcome
record, order statistics and word generators.

Generated words are plain strings over "UVuv" (lowercase = inverse).  The
expected answers for them come from the letter-by-letter reference action in
tests/oracles.py, never from the library under test.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from array import array
from dataclasses import dataclass, field

_INVERSE = {"U": "u", "u": "U", "V": "v", "v": "V"}

# (U^-1 V)^2 fixes every point (n, 1 - n) of the line x + y = 1
LINE_LOOP = "uVuV"


# The speed of a shared host drifts by up to 2x within minutes, and wall
# times drift with it.  So the host's speed is sampled while a run is timed,
# by a fixed pure-Python probe that never calls the library, and each time
# is reported in reference seconds: wall seconds * the probe's REFERENCE_S /
# the probe's mean time during the same timed segment.  REFERENCE_S is the
# probe's median time on the 2-vCPU Intel Xeon host the benchmark was
# defined on, so reference seconds read as wall seconds there.  There are
# two probes, because compute-bound and memory-bound work drift apart:
# "bfs" tracks run_verification() and CLI requests, "chase" tracks reads of
# graphs far larger than the CPU caches.
REFERENCE_S = {"bfs": 0.0047, "chase": 0.0051}
BFS_MODULUS = 53
CHASE_SIZE = 1 << 22
CHASE_STEPS = 20000
# seconds between two speed samples
SAMPLE_S = 0.2
# wall seconds of short operations in one timed segment
SEGMENT_S = 1.0


def bfs_probe() -> float:
    """Wall seconds of one breadth-first search of the orbit of (0, 1) mod
    BFS_MODULUS under (x, y) -> (x +- 2y, y), (x, y +- 2x): dicts, tuples and
    small ints, like the library's own orbit searches.  The garbage
    collector is off meanwhile: a collection would time the workload's heap,
    not the host."""
    p = BFS_MODULUS
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    seen = {(0, 1)}
    todo = [(0, 1)]
    for x, y in todo:
        for nx, ny in ((x + 2 * y, y), (x - 2 * y, y), (x, y + 2 * x), (x, y - 2 * x)):
            key = (nx % p, ny % p)
            if key not in seen:
                seen.add(key)
                todo.append(key)
    t1 = time.perf_counter()
    if enabled:
        gc.enable()
    return t1 - t0


_chain: array | None = None


def chase_probe() -> float:
    """Wall seconds of CHASE_STEPS dependent reads through a 16 MB array
    that holds one full-period cycle i -> (a i + c) mod CHASE_SIZE, so each
    read lands far from the last: the host's memory latency."""
    global _chain
    if _chain is None:
        n = CHASE_SIZE
        _chain = array("I", ((1664525 * i + 1013904223) & (n - 1) for i in range(n)))
    chain = _chain
    t0 = time.perf_counter()
    i = 0
    for _ in range(CHASE_STEPS):
        i = chain[i]
    return time.perf_counter() - t0


PROBES = {"bfs": bfs_probe, "chase": chase_probe}


class Speed:
    """Host speed, sampled while a workload runs.

    Between start() and stop() a SIGALRM interval timer runs the probe
    every SAMPLE_S seconds, in the main thread between bytecodes, so no
    thread is started.  now() is a clock that leaves out the time the
    samples took.  close() ends a timed segment and returns its factor from
    wall to reference seconds, from the samples taken since the segment
    began.
    """

    def __init__(self, probe: str):
        self.probe = PROBES[probe]
        self.reference_s = REFERENCE_S[probe]
        self.probe()  # builds the chase array before anything is timed
        self.samples: list[float] = []
        self.factors: list[float] = []
        self._stolen = 0.0
        self._mark = 0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        self._stolen += time.perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return time.perf_counter() - self._stolen

    def open(self) -> None:
        """Begin a timed segment after untimed work."""
        self._mark = len(self.samples)

    def close(self) -> float:
        """End a timed segment and return its factor.  A segment shorter
        than SAMPLE_S may hold no sample; then one is taken now."""
        taken = self.samples[self._mark:] or [self.probe()]
        self._mark = len(self.samples)
        factor = self.reference_s / (sum(taken) / len(taken))
        self.factors.append(factor)
        return factor


@dataclass
class Outcome:
    """What one workload run did.  wall holds wall seconds per timed
    operation, leaving out speed sampling, and latencies the same in
    reference seconds; throughput is work items per reference second, as
    the workload defines them."""

    speed: Speed
    attempted: int = 0
    failed: int = 0
    wall: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    throughput: float = 0.0
    # descriptive per-workload metric names, printed for people: (value, unit)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def settle(self) -> None:
        """Close the timed segment holding the operations not yet converted
        to reference seconds."""
        if len(self.latencies) < len(self.wall):
            factor = self.speed.close()
            self.latencies.extend(s * factor for s in self.wall[len(self.latencies):])


def median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail(xs: list[float]) -> tuple[float, str]:
    """The highest of p99 and p90 with at least ten samples beyond it
    (nearest rank); returns (value, label).  With fewer than 20 samples no
    tail percentile can be estimated, and the median stands in for it."""
    s = sorted(xs)
    n = len(s)
    for p in (99, 90):
        idx = math.ceil(p * n / 100) - 1
        if n - idx - 1 >= 10:
            return s[idx], f"p{p}"
    return median(s), "p50"


def inverse(text: str) -> str:
    return text[::-1].swapcase()


def free_reduce(text: str) -> str:
    out: list[str] = []
    for c in text:
        if out and out[-1] == _INVERSE[c]:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


def random_reduced(rng, length: int) -> str:
    out: list[str] = []
    for _ in range(length):
        c = rng.choice("UVuv")
        while out and c == _INVERSE[out[-1]]:
            c = rng.choice("UVuv")
        out.append(c)
    return "".join(out)


def random_runs(rng, letters: int) -> str:
    """A reduced word of `letters` letters made of single-letter runs of up
    to 30 letters, the shape caret notation is meant for."""
    out: list[str] = []
    size = 0
    last = ""
    while size < letters:
        c = rng.choice([x for x in "UVuv" if x != last and x != _INVERSE.get(last)])
        k = min(rng.randint(1, 30), letters - size)
        out.append(c * k)
        size += k
        last = c
    return "".join(out)


def witness_text(n: int) -> str:
    """A word sending (0, 0) to (n, 1 - n), from the recurrences
    V^(2n) (n, 1-n) = (-n, 1+n) and U^(-2n-2) (-n, 1+n) = (n+2, -n-1)."""
    if n == 0:
        return "U"
    if n == 1:
        return "V"
    if n < 0:
        return "v" * (-2 * n) + witness_text(-n)
    return "u" * (2 * n - 2) + witness_text(2 - n)


def origin_loop(n: int) -> str:
    """A word fixing the origin: go to (n, 1 - n), loop there, come back."""
    w = witness_text(n)
    return inverse(w) + LINE_LOOP + w


def caret_form(rng, text: str) -> str:
    """Write text in caret notation: each maximal run as c^k, as the inverse
    letter with a negative exponent, or (for single letters) bare."""
    tokens = []
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] == text[i]:
            j += 1
        c, k = text[i], j - i
        r = rng.random()
        if k == 1 and r < 0.4:
            tokens.append(c)
        elif r < 0.7:
            tokens.append(f"{c}^{k}")
        else:
            tokens.append(f"{_INVERSE[c]}^-{k}")
        i = j
    return " ".join(tokens)
