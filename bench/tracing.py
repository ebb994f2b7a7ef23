"""Span recording around avmkit's layers, installed from outside the program.

`install` rebinds each public layer function at the module attribute its
caller looks up, and substitutes a recording subclass for the BDD manager the
symbolic engine instantiates. Every wrapper records one span (id, name, CLI
call id, parent span, start, end, self time) plus the counts it can read from
the call, and nothing is written until the run ends. A layer's self time is
its span minus the time covered by its child spans.
"""

import importlib
import inspect
import json
import re
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions rebound there; the span is named after the module that
# defines the function, so `cli.check_mapping` records as `coupled.check_mapping`.
LAYER_FUNCTIONS = {
    "avmkit.cli": ("parse_model", "check_mapping", "check_approach_alignment",
                   "check_synchronization", "to_kripke", "check_explicit",
                   "check_symbolic", "witness"),
    "avmkit.dsl": ("parse_ctl",),
    "avmkit.ctl": ("normalize",),
    "avmkit.coupled": ("enumerate_simple_paths", "reachable_states"),
}

_CONTROL_PATHS = re.compile(r"checked (\d+) control path")


def _count_parse_model(counts, result, args, kwargs):
    text = args[0] if args else kwargs["text"]
    counts["dsl.input_bytes"] += len(text.encode("utf-8"))


def _count_sync(counts, result, args, kwargs):
    for finding in result.findings:
        match = _CONTROL_PATHS.search(finding.detail)
        if finding.code == "control-paths" and match:
            counts["coupled.sync_control_paths"] += int(match.group(1))


def _count_paths(counts, result, args, kwargs):
    counts["lts.simple_paths"] += len(result)


def _count_kripke(counts, result, args, kwargs):
    counts["checker.kripke_states"] += len(result.states)
    counts["checker.kripke_edges"] += len(result.relation)


def _count_sat(counts, result, args, kwargs):
    counts["checker.sat_states"] += len(result)


COUNTERS = {
    "dsl.parse_model": _count_parse_model,
    "coupled.check_synchronization": _count_sync,
    "lts.enumerate_simple_paths": _count_paths,
    "checker.to_kripke": _count_kripke,
    "checker.check_explicit": _count_sat,
    "checker.check_symbolic": _count_sat,
}


def histogram_median(histogram: Counter) -> float:
    """The median, in seconds, of self times kept as {nanoseconds: spans}."""
    n = sum(histogram.values())
    low_rank, high_rank = (n - 1) // 2, n // 2
    seen, low, high = 0, None, 0
    for high in sorted(histogram):
        seen += histogram[high]
        if low is None and seen > low_rank:
            low = high
        if seen > high_rank:
            break
    return (low + high) / 2e9 if n else 0.0


class Tracer:
    """In-memory span store.

    Layer spans are kept one by one. BDD method spans, up to ~10^6 per CLI
    call, are kept summed per (CLI call, parent span, method). Self times of
    every span also go into a per-name histogram of nanoseconds, from which
    the medians are read.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.summed = defaultdict(lambda: [0, 0.0, 0.0])
        self.self_ns: dict[str, Counter] = defaultdict(Counter)
        self.counts: Counter = Counter()
        self.call_id = 0
        self._next_span = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._active: Counter = Counter()
        self._managers: list = []
        self._node_count = None

    def wrap(self, span_name: str, fn, counter=None, summed=False):
        """A function that records a span around each call of `fn`. A call
        made while a span of the same name is open (recursion through the
        rebound name) counts as part of that span."""
        histogram = self.self_ns[span_name]
        calls_key = span_name + "_calls"

        def traced(*args, **kwargs):
            if self._active[span_name]:
                return fn(*args, **kwargs)
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span, 0.0]
            self._stack.append(frame)
            self._active[span_name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._active[span_name] -= 1
                self._stack.pop()
                own = end - start - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                histogram[round(own * 1e9)] += 1
                self.counts[calls_key] += 1
                if summed:
                    entry = self.summed[(self.call_id, parent, span_name)]
                    entry[0] += 1
                    entry[1] += end - start
                    entry[2] += own
                else:
                    self.spans.append((span, span_name, self.call_id, parent, start, end, own))
            if counter is not None:
                counter(self.counts, result, args, kwargs)
            return result

        return traced

    def recording_manager(self, base):
        """A subclass of `base` that times every public method under
        `bdd.<method>` and counts the managers created."""
        tracer = self
        namespace = {}
        for attr, fn in inspect.getmembers(base, inspect.isfunction):
            if not attr.startswith("_"):
                namespace[attr] = self.wrap(f"bdd.{attr}", fn, summed=True)

        def __init__(mgr, *args, **kwargs):
            base.__init__(mgr, *args, **kwargs)
            tracer.counts["bdd.managers"] += 1
            tracer._managers.append(mgr)

        namespace["__init__"] = __init__
        self._node_count = base.node_count
        return type("RecordingBddManager", (base,), namespace)

    def end_call(self) -> None:
        """Closes one CLI call: adds the node counts of the managers it made
        and lets them go."""
        for mgr in self._managers:
            self.counts["bdd.nodes"] += self._node_count(mgr)
        self._managers.clear()
        self.call_id += 1

    def median_self_time(self, span_name: str) -> float:
        return histogram_median(self.self_ns.get(span_name, Counter()))

    def write(self, path, meta: dict) -> None:
        doc = {
            **meta,
            "span_fields": ["id", "name", "call", "parent", "start", "end", "self"],
            "spans": self.spans,
            "summed_fields": ["call", "parent", "name", "count", "total", "self"],
            "summed": [[*key, *value] for key, value in self.summed.items()],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)


def install(tracer: Tracer) -> list[str]:
    """Rebinds the layer functions and the BDD manager to recording versions.
    Returns the names it could not find, so a renamed layer shows up in the
    output instead of silently reading zero."""
    missing = []
    for module_name, attrs in LAYER_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(module, attr, tracer.wrap(span_name, fn, COUNTERS.get(span_name)))
    checker = importlib.import_module("avmkit.checker")
    checker.BddManager = tracer.recording_manager(checker.BddManager)
    return missing
