"""Per-layer tracing for the benchmark, done entirely from outside the library.

`Tracer.install()` rebinds public functions of the `parabolic` modules (and
`_orbit_mod_q`, the orbit BFS whose repeats are counted) with wrappers that
record one span per call: name, start, end and parent span.
Every module attribute bound to the original function is rebound, so calls
through names that other modules imported are traced too.  Spans are kept
in flat arrays in memory; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gc
import sys
from array import array
from collections import defaultdict


def _arg0_len(args, kwargs, result):
    return len(args[0])


def _result_len(args, kwargs, result):
    return len(result)


# (module, attribute, span name, counter name, counter function).  Counter
# functions see the call's arguments and result; witness_sweep is a generator
# and is handled by _wrap_generator.
TARGETS = (
    ("parabolic.words", "parse", "words.parse", "letters", _result_len),
    ("parabolic.words", "concat", "words.concat", "letters", _result_len),
    ("parabolic.linear", "freeness_sweep", "linear.freeness_sweep", "words",
     lambda a, k, r: r.words_checked),
    ("parabolic.linear", "cocycle", "linear.cocycle", None, None),
    ("parabolic.action", "witness_word", "action.witness", "letters", lambda a, k, r: len(r.word)),
    ("parabolic.action", "witness_sweep", "action.witness", "letters", None),
    ("parabolic.action", "act", "action.act", "letters", _arg0_len),
    ("parabolic.schreier", "_orbit_mod_q", "schreier.orbit_mod_q", "states",
     lambda a, k, r: len(r[0])),
    ("parabolic.schreier", "build_ball", "schreier.build_ball", "vertices", _result_len),
    ("parabolic.schreier", "build_mod_q", "schreier.build_mod_q", "vertices", _result_len),
    ("parabolic.schreier", "core_exact", "schreier.core_exact", None, None),
    ("parabolic.schreier", "certified_core", "schreier.certified_core", None, None),
    ("parabolic.schreier", "spanning_tree_generators", "schreier.spanning_tree_generators",
     "words", _result_len),
    ("parabolic.schreier", "trace", "schreier.trace", None, None),
    ("parabolic.ranks", "stabilizer_index", "ranks.stabilizer_index", None, None),
    ("parabolic.ranks", "membership", "ranks.membership", None, None),
    ("parabolic.ranks", "smith_normal_form", "ranks.smith_normal_form", None, None),
    ("parabolic.cli", "main", "cli.main", None, None),
    ("parabolic.cli", "run_verification", "cli.run_verification", None, None),
)

# span names whose first argument is recorded, to count distinct inputs
_DISTINCT_ARG = {"schreier.orbit_mod_q"}


class Tracer:
    def __init__(self, clock):
        # seconds, monotonic; run.py passes a clock that leaves out speed sampling
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # largest graph built: (vertices, builder attribute, argument)
        self.largest_build: tuple[int, str, int] | None = None

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def _wrap(self, orig, name, counter, count):
        nid = self._name_id(name)
        key = f"{name}.{counter}"
        distinct = self.distinct[name] if name in _DISTINCT_ARG else None
        builder = orig.__name__ if name in ("schreier.build_ball", "schreier.build_mod_q") else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = self._begin(nid)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                self.counters[key] += count(args, kwargs, result)
            if distinct is not None:
                distinct.add(args[0])
            if builder is not None and (
                self.largest_build is None or len(result) > self.largest_build[0]
            ):
                self.largest_build = (len(result), builder, args[0])
            return result

        return wrapper

    def _wrap_generator(self, orig, name, counter):
        # one span per produced item; the final next() that only exhausts the
        # generator is not a call, unless it made traced calls of its own
        nid = self._name_id(name)
        key = f"{name}.{counter}"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            it = orig(*args, **kwargs)
            while True:
                idx = self._begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    self._finish(idx)
                    if len(self.start) == idx + 1:
                        for arr in (self.span_name, self.parent, self.start, self.end):
                            arr.pop()
                    return
                except BaseException:
                    self._finish(idx)
                    raise
                self._finish(idx)
                self.counters[key] += len(item.word)
                yield item

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "parabolic" or n.startswith("parabolic.")]
        for mod_name, attr, name, counter, count in TARGETS:
            self._name_id(name)
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if attr == "witness_sweep":
                wrapper = self._wrap_generator(orig, name, counter)
            else:
                wrapper = self._wrap(orig, name, counter, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, orig))
        if self.missing:
            print(f"trace: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            dur = self.end[i] - self.start[i]
            rec["calls"] += 1
            rec["s"] += dur
            rec["self_s"] += dur - child[i]
        return out


# Per-layer metrics, read by suffix: .calls, .s (inclusive seconds) and
# .self_s come from the spans, .useful_ratio is distinct inputs over calls,
# and any other suffix is a counter recorded by the wrapper.
LAYER_METRICS = (
    "words.parse.calls", "words.parse.s", "words.parse.letters",
    "words.concat.calls", "words.concat.s", "words.concat.letters",
    "linear.freeness_sweep.s", "linear.freeness_sweep.words",
    "linear.cocycle.calls", "linear.cocycle.s",
    "action.witness.calls", "action.witness.s", "action.witness.letters",
    "action.act.calls", "action.act.s", "action.act.letters",
    "schreier.orbit_mod_q.calls", "schreier.orbit_mod_q.s", "schreier.orbit_mod_q.states",
    "schreier.orbit_mod_q.useful_ratio",
    "schreier.build_ball.s", "schreier.build_ball.vertices",
    "schreier.build_mod_q.s", "schreier.build_mod_q.vertices",
    "schreier.core_exact.s", "schreier.certified_core.s",
    "schreier.spanning_tree_generators.s", "schreier.spanning_tree_generators.words",
    "schreier.trace.calls", "schreier.trace.s",
    "ranks.stabilizer_index.calls", "ranks.stabilizer_index.self_s",
    "ranks.membership.calls", "ranks.membership.s",
    "ranks.smith_normal_form.s",
    "cli.main.calls", "cli.main.self_s",
    "cli.run_verification.self_s",
)


def graph_bytes(root) -> int:
    """Bytes retained by an object graph: sys.getsizeof summed over every
    object reachable from root through gc referents, each counted once.
    Types are skipped, so class objects and modules are not counted."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The LAYER_METRICS values, as (value, unit)."""
    totals = tracer.totals()
    out: dict[str, tuple[float, str]] = {}
    for metric in LAYER_METRICS:
        name, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = (totals[name]["calls"], "count")
        elif kind in ("s", "self_s"):
            out[metric] = (totals[name][kind], "s")
        elif kind == "useful_ratio":
            calls = totals[name]["calls"]
            out[metric] = (len(tracer.distinct[name]) / calls if calls else 0.0, "ratio")
        else:
            out[metric] = (tracer.counters.get(metric, 0), "count")
    return out
