"""Layer spans for the traced benchmark run.

Every fringelab module imports names from the modules below it. For a
traced run those imported functions are replaced, in the importing
module's namespace, by wrappers that time each call and attribute it
to the layer that defines the function. The benchmark's own calls into
the package go through the same wrappers (see ``make_api``), so every
call that crosses a layer boundary is one span.

Spans are aggregated in memory per (layer, function) as they close:
call count, inclusive time, and self time (inclusive time minus the
time of the spans it directly contains). A layer's self time is the sum
over its functions. Nothing inside ``src/`` is modified on disk.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from collections import defaultdict
from types import SimpleNamespace

#: The modules of the package, lowest layer first.
LAYERS = ("config", "wavefield", "composite", "measurement", "montecarlo",
          "experiments", "io", "analysis", "cli")

#: Classes whose construction is a unit of work worth a span. Other
#: classes (per-event records, value objects) stay unwrapped: their cost
#: belongs to the function that builds them.
WRAPPED_CLASSES = {("montecarlo", "EventLog")}

#: (layer, function) entry points the benchmark calls directly.
ENTRY_POINTS = (
    ("cli", "main"),
    ("experiments", "run_experiment"),
    ("experiments", "fringe_window"),
    ("config", "parse_config"),
    ("config", "build_preset"),
    ("config", "serialize_config"),
    ("analysis", "histogram"),
    ("analysis", "visibility"),
)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_samples(counts, args, kwargs, result):
    counts["montecarlo.samples"] += int(getattr(result, "size", 1))


def _count_run(counts, args, kwargs, result):
    counts["experiments.events_logged"] += len(result)


def _count_binned(counts, args, kwargs, result):
    counts["analysis.events_binned"] += int(result.total) + int(result.n_dropped)


def _count_written(counts, args, kwargs, result):
    counts["io.bytes_written"] += _file_size(args[1] if len(args) > 1 else kwargs["path"])


def _count_read(counts, args, kwargs, result):
    counts["io.bytes_read"] += _file_size(args[0] if args else kwargs["path"])


#: Work counters recorded at span close, keyed by (layer, function).
COUNTERS = {
    ("montecarlo", "sample_positions"): _count_samples,
    ("montecarlo", "sample_position"): _count_samples,
    ("experiments", "run_experiment"): _count_run,
    ("analysis", "histogram"): _count_binned,
    ("io", "write_events_csv"): _count_written,
    ("io", "write_histogram_csv"): _count_written,
    ("io", "write_metrics_csv"): _count_written,
    ("io", "write_histogram_pgm"): _count_written,
    ("io", "read_events_csv"): _count_read,
}


class Tracer:
    """In-memory span aggregates for one traced run."""

    def __init__(self) -> None:
        self._stack: list[float] = []
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.inclusive: dict[tuple[str, str], float] = defaultdict(float)
        self.self_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        key = (layer, name)
        counter = COUNTERS.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self.calls[key] += 1
                self.inclusive[key] += elapsed
                self.self_time[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every cross-layer function import in the package."""
        if self._originals:
            return
        for module_name in LAYERS:
            module = importlib.import_module(f"fringelab.{module_name}")
            for attr, value in list(vars(module).items()):
                owner = getattr(value, "__module__", None) or ""
                if not owner.startswith("fringelab."):
                    continue
                layer = owner.split(".", 1)[1]
                if layer == module_name or layer not in LAYERS:
                    continue
                if not (inspect.isfunction(value) or (layer, attr) in WRAPPED_CLASSES):
                    continue
                self._originals.append((module, attr, value))
                setattr(module, attr, self.wrap(layer, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    def layer_self(self, layer: str) -> float:
        return sum(t for (lay, _), t in self.self_time.items() if lay == layer)

    def layer_inclusive(self, layer: str, names=None) -> float:
        return sum(t for (lay, fn), t in self.inclusive.items()
                   if lay == layer and (names is None or fn in names))

    def layer_calls(self, layer: str, names=None) -> int:
        return sum(c for (lay, fn), c in self.calls.items()
                   if lay == layer and (names is None or fn in names))


def make_api(tracer: Tracer | None = None) -> SimpleNamespace:
    """The package entry points the workloads call, traced or not."""
    api = {}
    for layer, name in ENTRY_POINTS:
        fn = getattr(importlib.import_module(f"fringelab.{layer}"), name)
        api[name] = fn if tracer is None else tracer.wrap(layer, name, fn)
    return SimpleNamespace(**api)
