"""fringelab benchmark: one workload per run, end to end or layer by layer.

    python3 bench/run.py --workload cli_roundtrip --seed 1 --seconds 20 --trace 0

Workloads: cli_roundtrip, weak_screen, sweep_small (see README.md here).
The package is imported from ../src of this file; nothing is installed.
The run sets up the workload several times (setup_s is the median),
repeats the workload's fixed pass for --seconds of wall time, times a
fixed reference kernel after every set-up and pass to gauge the host's
speed at that moment, and reports medians over the passes in nominal
seconds (README.md says why). It checks the outputs outside the timed
region, and prints one line per metric,
a JSON line with the full record, and as its last line a JSON result:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes
and reports the per-layer metrics. Exits 2 when the package sources
are missing.
"""

from __future__ import annotations

import os

# single-threaded numerics: the machine this was tuned on has 2 cores,
# shared with the benchmark's own Python thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SETUP_REPS = 15

#: Seconds one reference_kernel() call takes at the nominal host speed:
#: about its median on the 2-vCPU Xeon this benchmark was tuned on.
REF_NOMINAL_S = 6.0e-3
REF_REPS = 5
_REF_VALUES = np.random.default_rng(0).random(4000)

END_TO_END_UNITS = {
    "particles_per_s": "1/s",
    "simulate_s": "s",
    "analyze_s": "s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
#: Printed and recorded with the end-to-end metrics but not bounded: the
#: first is 0 on a correct build, the second varies with the seed by design.
REPORT_UNITS = {"error_rate": "1", "visibility_abs_err": "1"}

IO_WRITERS = {"write_events_csv", "write_histogram_csv", "write_metrics_csv", "write_histogram_pgm"}


def layer_unit(name: str) -> str:
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_event"):
        return "B/event"
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "B"
    return "count"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; git is not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fringelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


class _RefRecord:
    __slots__ = ("x", "y", "port")

    def __init__(self, x, y, port):
        self.x = x
        self.y = y
        self.port = port


def reference_kernel() -> float:
    """Fixed work in the package's mix that uses none of the package.

    A pure-Python float loop building rows with f-strings, CSV-style
    parsing of rows with split and float, small numpy calls, and a loop
    that builds and filters small record objects.
    """
    acc = 0
    for i in range(2000):
        x = math.sin(i * 0.001) * 1.5 + (i % 7)
        acc += len(f"{i},{x:.6f},{'x' if i & 1 else 'y'}")
    text = "".join(f"{i},{x!r},{'x' if i & 1 else 'y'}\n" for i, x in enumerate(_REF_VALUES[:1000].tolist()))
    total = 0.0
    for line in text.splitlines():
        _, value, port = line.split(",")
        total += float(value) * (port == "x")
    counts, _ = np.histogram(_REF_VALUES, bins=64, range=(0.0, 1.0))
    kept = []
    for r in _REF_VALUES[2000:].tolist():
        record = _RefRecord(r * 2.0 - 1.0, math.cos(r), "x" if r < 0.5 else None)
        if record.port is not None and record.x > -0.9:
            kept.append(record)
    return acc + total + float(np.cos(_REF_VALUES * 3.0).sum()) + int(counts.max()) + len(kept)


def host_scale() -> float:
    """Nominal over current time of the reference kernel (median of REF_REPS).

    Multiplying a time measured just before by this factor gives nominal
    seconds: what it would have taken at the nominal host speed.
    """
    times = []
    for _ in range(REF_REPS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return REF_NOMINAL_S / statistics.median(times)


def fresh_import():
    """Drop every fringelab module and import the package again."""
    for name in [m for m in sys.modules if m == "fringelab" or m.startswith("fringelab.")]:
        del sys.modules[name]
    import fringelab.cli  # noqa: F401  imports every layer
    return spans.make_api()


def set_up(workload_cls, seed: int, workdir: Path):
    """Import, config build and warm-up, SETUP_REPS times; the last one is kept.

    Returns each set-up's measured seconds and its host_scale.
    """
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        api = fresh_import()
        workload = workload_cls(seed, workdir)
        workload.warm_up(api)
        elapsed = time.perf_counter() - start
        times.append((elapsed, host_scale()))
    return api, workload, times


def timed_passes(workload, api, seconds: float, tracer=None):
    """Repeat the pass for `seconds` of wall time; returns (untraced, traced)."""
    traced_api = spans.make_api(tracer) if tracer is not None else None
    untraced, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or (tracer is not None and not traced):
        use_trace = tracer is not None and len(traced) < len(untraced)
        gc.collect()
        if use_trace:
            tracer.install()
            try:
                res = workload.run_pass(traced_api)
            finally:
                tracer.uninstall()
        else:
            res = workload.run_pass(api)
        res.host_scale = host_scale()
        if untraced:
            res.outputs = None  # only the first pass is checked in full; the rest by fingerprint
        (traced if use_trace else untraced).append(res)
    return untraced, traced


def best_of_passes(passes, side: str) -> np.ndarray:
    """Each step's fastest time over the passes (every pass repeats the same steps)."""
    return np.min([getattr(res, side) for res in passes], axis=0)


def end_to_end(workload, untraced, setup_times, peak_rss_mb, scaled=True):
    """Medians over the passes, in nominal seconds unless scaled is False."""

    def scale(res):
        return res.host_scale if scaled else 1.0

    def per_pass(side):
        return statistics.median(sum(getattr(res, side)) * scale(res) for res in untraced)

    pooled = np.concatenate([np.asarray(res.steps_s) * scale(res) for res in untraced])
    return {
        "particles_per_s": workload.particles_per_pass / per_pass("steps_s"),
        "simulate_s": per_pass("simulate_s"),
        "analyze_s": per_pass("analyze_s"),
        "step_p50_ms": float(np.median(pooled)) * 1e3,
        "step_tail_ms": float(np.percentile(pooled, workload.tail_percentile)) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }


def per_layer(tracer, untraced, traced, bytes_per_event):
    """Per-pass means of the traced passes' span aggregates."""
    n = len(traced)
    inc, calls, counts = tracer.layer_inclusive, tracer.layer_calls, tracer.counts
    write_s = inc("io", IO_WRITERS) / n
    read_s = inc("io", {"read_events_csv"}) / n
    histogram_s = inc("analysis", {"histogram"}) / n
    m = {
        "io.write_s": write_s,
        "io.read_s": read_s,
        "io.bytes_written": counts["io.bytes_written"] / n,
        "io.bytes_read": counts["io.bytes_read"] / n,
        "io.write_mb_per_s": counts["io.bytes_written"] / n / write_s / 1e6 if write_s > 0 else 0.0,
        "io.read_mb_per_s": counts["io.bytes_read"] / n / read_s / 1e6 if read_s > 0 else 0.0,
        "experiments.run_s": inc("experiments", {"run_experiment"}) / n,
        "experiments.runs": calls("experiments", {"run_experiment"}) / n,
        "experiments.events_logged": counts["experiments.events_logged"] / n,
        "experiments.rss_bytes_per_event": bytes_per_event,
        "montecarlo.sample_s": inc("montecarlo", {"sample_positions", "sample_position"}) / n,
        "montecarlo.samples": counts["montecarlo.samples"] / n,
        "montecarlo.eventlog_s": inc("montecarlo", {"EventLog"}) / n,
        "measurement.weak_screen_s": inc("measurement", {"weak_screen_interact"}) / n,
        "measurement.weak_screen_calls": calls("measurement", {"weak_screen_interact"}) / n,
        "measurement.signal_s": inc("measurement", {"measured_signal"}) / n,
        "measurement.modulate_s": inc("measurement", {"coincidence_modulate"}) / n,
        # a profile build is the composite state's own spans, or measured_signal
        # evaluating it under the measurement-mediated convention
        "composite.profile_s": (inc("composite") + inc("measurement", {"measured_signal"})) / n,
        "composite.profile_calls": calls("composite", {"two_slit_composite"}) / n,
        "wavefield.intensity_s": inc("wavefield") / n,
        "config.parse_s": inc("config") / n,
        "config.parse_calls": calls("config", {"parse_config", "build_preset"}) / n,
        "analysis.histogram_s": histogram_s,
        "analysis.metrics_s": inc("analysis") / n - histogram_s,
        "analysis.events_binned": counts["analysis.events_binned"] / n,
    }
    self_sum = 0.0
    for layer in spans.LAYERS:
        m[f"{layer}.self_s"] = tracer.layer_self(layer) / n
        self_sum += m[f"{layer}.self_s"]
    m["trace.wall_s"] = float(best_of_passes(traced, "steps_s").sum())
    m["trace.untraced_wall_s"] = float(best_of_passes(untraced, "steps_s").sum())
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    m["trace.unattributed_s"] = statistics.fmean(res.wall_s for res in traced) - self_sum
    return m


def memory_per_event(workload, api) -> float:
    """Peak Python heap during the workload's probe run, per logged event."""
    config, n, seed = workload.memory_probe(api)
    tracemalloc.start()
    try:
        log = api.run_experiment(config, n, seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / len(log)


def zero_calls(workload, tracer) -> list[str]:
    """Wrapped functions the workload should reach that recorded no call."""
    return [f"{layer}.{name}" for layer, name in workload.expected_calls if tracer.calls[(layer, name)] == 0]


def tally(passes, found) -> tuple[int, int]:
    """(attempted, failed) over the passes' operations and the checks."""
    attempted = sum(res.attempted for res in passes) + len(found)
    failed = sum(res.failed for res in passes) + sum(not c.ok for c in found)
    return attempted, failed


def correctness(workload, api, untraced, traced, workdir):
    """All checks, outside the timed region. Returns (checks, visibility error)."""
    first = untraced[0]
    try:
        found, vis_err = workload.check(api, first)
    except Exception as exc:  # a broken output must count as a failure, not end the run
        found, vis_err = [checks.Check("workload outputs", False, f"{type(exc).__name__}: {exc}")], float("nan")
    for i, res in enumerate(untraced[1:] + traced, start=2):
        found.append(checks.Check(f"pass {i} repeats pass 1", res.fingerprint == first.fingerprint, ""))
    found.extend(checks.replay_gate(workdir))
    return found, vis_err


def run(args) -> dict:
    workload_cls = workloads.WORKLOADS[args.workload]
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        api, workload, setups = set_up(workload_cls, args.seed, workdir)
        tracer = spans.Tracer() if args.trace else None
        untraced, traced = timed_passes(workload, api, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        found, vis_err = correctness(workload, api, untraced, traced, workdir)
        bytes_per_event = memory_per_event(workload, api) if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    setup_times = [t * scale for t, scale in setups]
    attempted, failed = tally(passes, found)
    for res in passes:
        for err in res.errors[:3]:
            print(err, file=sys.stderr)
    n_steps = sum(len(res.steps_s) for res in untraced)
    scales = [res.host_scale for res in passes]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "particles_per_pass": workload.particles_per_pass,
        "particles_sent": workload.particles_per_pass * len(passes),
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "steps": n_steps,
        "step_tail_percentile": workload.tail_percentile,
        "steps_beyond_tail": int(n_steps * (1.0 - workload.tail_percentile / 100.0)),
        "setup_runs_s": setup_times,
        "host_scale": {"min": min(scales), "median": statistics.median(scales), "max": max(scales)},
        "checks": len(found),
        "failed_checks": [f"{c.name}: {c.detail}" for c in found if not c.ok],
    }
    if args.trace:
        values = per_layer(tracer, untraced, traced, bytes_per_event)
        units = {name: layer_unit(name) for name in values}
        record["zero_call_wrappers"] = zero_calls(workload, tracer)
        for name in record["zero_call_wrappers"]:
            print(f"warning: wrapped {name} recorded no calls on {args.workload}", file=sys.stderr)
    else:
        values = end_to_end(workload, untraced, setup_times, peak_rss_mb)
        units = END_TO_END_UNITS
        record["measured"] = end_to_end(workload, untraced, [t for t, _ in setups], peak_rss_mb, scaled=False)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    report = {"error_rate": {"value": failed / attempted, "unit": REPORT_UNITS["error_rate"]},
              "visibility_abs_err": {"value": vis_err, "unit": REPORT_UNITS["visibility_abs_err"]}}
    record["metrics"] = metrics
    record["report"] = report

    for name, m in {**metrics, **report}.items():
        print(f"{args.workload:14s} {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**50:
        parser.error("--seed must lie in [0, 2**50)")
    if not (SRC / "fringelab" / "__init__.py").is_file():
        print(f"bench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
