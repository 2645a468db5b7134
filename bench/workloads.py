"""The three benchmark workloads.

Each workload repeats one fixed pass of work, built from the seed, so
every pass of a run sends the same particles and must produce the same
outputs. A pass is a list of timed steps; the benchmark keeps each
step's wall time and splits it into the side that produces event logs
(simulate) and the side that reads and analyzes them (analyze).

Why these three: see README.md in this directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import Check

TWO_PI = 2.0 * math.pi


@dataclass
class PassResult:
    """Timings of one pass, one entry per step in pass order.

    host_scale turns the pass's measured seconds into nominal seconds;
    the benchmark sets it right after the pass (run.host_scale).
    """

    simulate_s: list[float] = field(default_factory=list)
    analyze_s: list[float] = field(default_factory=list)
    host_scale: float = 1.0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    fingerprint: object = None
    outputs: object = None

    @property
    def steps_s(self) -> list[float]:
        return [s + a for s, a in zip(self.simulate_s, self.analyze_s)]

    @property
    def wall_s(self) -> float:
        return sum(self.simulate_s) + sum(self.analyze_s)

    def add_step(self, simulate: float, analyze: float) -> None:
        self.simulate_s.append(simulate)
        self.analyze_s.append(analyze)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


def _seed_for(seed: int, index: int) -> int:
    return seed * 1000 + index


class CliRoundtrip:
    """simulate -> analyze -> eraser(0, 1) through fringelab.cli.main."""

    name = "cli_roundtrip"
    tail_percentile = 75.0
    chains = ("young_baseline", "eraser_modulation")
    simulate_only = ("mz_with_bs2",)
    expected_calls = (
        ("cli", "main"), ("experiments", "run_experiment"), ("io", "write_events_csv"),
        ("io", "read_events_csv"), ("montecarlo", "sample_positions"), ("montecarlo", "EventLog"),
        ("measurement", "measured_signal"), ("measurement", "coincidence_modulate"),
        ("analysis", "histogram"), ("analysis", "compute_metrics"), ("analysis", "visibility"),
        ("config", "build_preset"), ("composite", "noise_averaged_pattern"),
        ("wavefield", "single_slit_intensity"), ("wavefield", "mz_port_intensity"),
    )

    def __init__(self, seed: int, workdir: Path, events: int = 10_000, check_events: int = 100_000):
        self.seed = seed
        self.workdir = workdir
        self.events = events
        self.check_events = check_events
        self.presets = self.chains + self.simulate_only

    @property
    def particles_per_pass(self) -> int:
        return self.events * len(self.presets)

    def _paths(self, preset: str, root: Path) -> dict[str, Path]:
        return {
            "events": root / f"{preset}.csv",
            "hist": root / f"{preset}_hist.csv",
            "metrics": root / f"{preset}_metrics.csv",
            "eraser0": root / f"{preset}_eraser0.csv",
            "eraser1": root / f"{preset}_eraser1.csv",
        }

    def _commands(self, events: int, root: Path):
        """(side, argv) for one pass, in the order a user runs them."""
        for preset in self.presets:
            p = self._paths(preset, root)
            yield "simulate", ["simulate", "--preset", preset, "--events", str(events),
                               "--seed", str(self.seed), "--out", str(p["events"])]
            if preset not in self.chains:
                continue
            yield "analyze", ["analyze", "--events", str(p["events"]),
                              "--out-hist", str(p["hist"]), "--out-metrics", str(p["metrics"])]
            for gamma in ("0", "1"):
                yield "analyze", ["eraser", "--events", str(p["events"]), "--gamma", gamma,
                                  "--out", str(p[f"eraser{gamma}"])]

    def memory_probe(self, api):
        return api.build_preset(self.chains[0]), self.events, self.seed

    def warm_up(self, api) -> None:
        root = self.workdir / "warmup"
        root.mkdir(exist_ok=True)
        for _, argv in self._commands(1000, root):
            with contextlib.redirect_stdout(io.StringIO()):
                api.main(argv)

    def run_pass(self, api) -> PassResult:
        res = PassResult()
        stdout = io.StringIO()
        clock = time.perf_counter
        for side, argv in self._commands(self.events, self.workdir):
            res.attempted += 1
            start = clock()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = api.main(argv)
            except Exception:
                code = None
                res.errors.append(traceback.format_exc())
            elapsed = clock() - start
            if side == "simulate":
                res.add_step(elapsed, 0.0)
            else:
                res.add_step(0.0, elapsed)
            if code != 0:
                res.fail(f"{argv[0]} {argv[2]} exited {code}")
        digest = hashlib.sha256(stdout.getvalue().encode())
        for preset in self.presets:
            for path in self._paths(preset, self.workdir).values():
                if path.exists():
                    digest.update(path.read_bytes())
        res.fingerprint = digest.hexdigest()
        return res

    def check(self, api, first: PassResult) -> tuple[list[Check], float]:
        """The timed outputs, then one untimed chain at check_events.

        The visibility gate needs histograms of at least
        checks.VISIBILITY_MIN_EVENTS, more than a timed command sends, so
        the same commands run once more at full size for it.
        """
        found, _ = self._check_outputs(api, self.workdir, self.events)
        root = self.workdir / "full"
        root.mkdir(exist_ok=True)
        for _, argv in self._commands(self.check_events, root):
            with contextlib.redirect_stdout(io.StringIO()):
                code = api.main(argv)
            found.append(Check(f"full-size {argv[0]} {argv[2]} exits 0", code == 0, f"exited {code}"))
        full, errors = self._check_outputs(api, root, self.check_events)
        return found + full, max(errors)

    def _check_outputs(self, api, root: Path, events: int) -> tuple[list[Check], list[float]]:
        from fringelab.analysis import FringeHistogram

        found: list[Check] = []
        errors: list[float] = []
        for preset in self.presets:
            p = self._paths(preset, root)
            config = api.build_preset(preset)
            lines = p["events"].read_text(encoding="utf-8").splitlines()
            found.append(Check(f"{preset} event count", len(lines) == events + 1,
                               f"{len(lines) - 1} rows for {events} particles"))
            if preset in self.simulate_only:
                n_x = sum(1 for line in lines[1:] if line.split(",")[3] == "x")
                found.append(checks.within_sigma(f"{preset} port x", n_x, events,
                                                 checks.port_x_fraction(config)))
                continue
            closed = checks.closed_form_visibility(config)
            # the gate bins the logged positions on the estimator-friendly
            # fringe_window; analyze's whole-range binning can pick up noise
            # extrema in the sparse tails (V off by 0.22 at seed 105), so its
            # figures go into visibility_abs_err only
            xs = [float(line.split(",")[2]) for line in lines[1:]]
            n_bins, value_range = api.fringe_window(config)
            found.extend(checks.visibility_checks(
                f"{preset} logged visibility", FringeHistogram.from_values(xs, n_bins, value_range), closed))
            joint = checks.read_histogram_csv(p["hist"])
            errors.append(checks.visibility_error(joint, closed))
            eraser1 = checks.read_histogram_csv(p["eraser1"])
            errors.append(checks.visibility_error(eraser1, closed))
            same = np.allclose(eraser1.counts, joint.counts, rtol=0, atol=1e-6)
            found.append(Check(f"{preset} eraser gamma=1 keeps the joint histogram", same, ""))
            washed = checks.estimated_visibility(checks.read_histogram_csv(p["eraser0"]))
            errors.append(washed)
            found.append(Check(f"{preset} eraser gamma=0 washes out", washed < checks.WASHOUT_VISIBILITY,
                               f"V {washed:.4f}"))
            metrics = dict(line.split(",", 1) for line in p["metrics"].read_text(encoding="utf-8").splitlines()[1:])
            expect_d = "1.0," if preset == "eraser_modulation" else ",no which-way records"
            found.append(Check(f"{preset} distinguishability", metrics["distinguishability"] == expect_d,
                               metrics["distinguishability"]))
        return found, errors


class WeakScreen:
    """run_experiment on mz_weak_screen, then port counts and a scatter histogram."""

    name = "weak_screen"
    tail_percentile = 90.0
    preset = "mz_weak_screen"
    steps_per_pass = 20
    scatter_bins = 96
    expected_calls = (
        ("experiments", "run_experiment"), ("measurement", "weak_screen_interact"),
        ("measurement", "midline_profile"), ("montecarlo", "EventLog"), ("analysis", "histogram"),
        ("wavefield", "crossing_intensity"), ("wavefield", "mz_port_intensity"),
    )

    def __init__(self, seed: int, workdir: Path, events_per_step: int = 5_000):
        self.seed = seed
        self.events_per_step = events_per_step
        self.config = None
        self.window = None

    @property
    def particles_per_pass(self) -> int:
        return self.events_per_step * self.steps_per_pass

    def memory_probe(self, api):
        return self.config, self.events_per_step, _seed_for(self.seed, 0)

    def warm_up(self, api) -> None:
        self.config = api.build_preset(self.preset)
        region = self.config.geometry.crossing_region
        # half-bin shift puts the scatter fringe extrema on bin centers
        shift = self.config.beam.wavelength / 32.0
        self.window = (region.x_min - shift, region.x_max - shift)
        self._step(api, 1000, self.seed)

    def _step(self, api, n: int, seed: int):
        log = api.run_experiment(self.config, n, seed)
        mid = time.perf_counter()
        ports = [e.mz_port for e in log.events if e.mz_port is not None]
        h = api.histogram(log, "scatter_projection", self.scatter_bins, self.window)
        return mid, (len(log), len(ports), ports.count("x"), h)

    def run_pass(self, api) -> PassResult:
        res = PassResult()
        summaries = []
        clock = time.perf_counter
        for i in range(self.steps_per_pass):
            res.attempted += 1
            start = clock()
            try:
                mid, summary = self._step(api, self.events_per_step, _seed_for(self.seed, i))
            except Exception:
                res.fail(traceback.format_exc())
                res.add_step(clock() - start, 0.0)
                continue
            res.add_step(mid - start, clock() - mid)
            summaries.append(summary)
        res.outputs = summaries
        digest = hashlib.sha256()
        for logged, transmitted, port_x, h in summaries:
            digest.update(f"{logged},{transmitted},{port_x},{h.n_dropped};".encode() + h.counts.tobytes())
        res.fingerprint = digest.hexdigest()
        return res

    def check(self, api, first: PassResult) -> tuple[list[Check], float]:
        screen = self.config.weak_screen
        sent = self.events_per_step * len(first.outputs)
        logged = sum(s[0] for s in first.outputs)
        transmitted = sum(s[1] for s in first.outputs)
        port_x = sum(s[2] for s in first.outputs)
        merged = first.outputs[0][3]
        for s in first.outputs[1:]:
            merged = merged + s[3]
        scattered = int(merged.total) + merged.n_dropped
        found = [
            Check("every step ran", len(first.outputs) == self.steps_per_pass, f"{len(first.outputs)} steps"),
            Check("logged = transmitted + scattered", logged == transmitted + scattered,
                  f"{logged} vs {transmitted} + {scattered}"),
            checks.within_sigma("scattered fraction", scattered, sent, screen.scatter_fraction),
            checks.within_sigma("transmitted fraction", transmitted, sent, screen.transmittance),
            checks.within_sigma("absorbed fraction", sent - logged, sent, screen.absorb_fraction),
            checks.within_sigma("port x fraction", port_x, transmitted, checks.port_x_fraction(self.config)),
        ]
        closed = checks.crossing_visibility(self.config)
        found.extend(checks.visibility_checks("scatter visibility", merged, closed))
        return found, checks.visibility_error(merged, closed)


class SweepSmall:
    """Many parse_config(overrides) + run_experiment steps of a few hundred events."""

    name = "sweep_small"
    # p99 of these 2-ms steps follows bursts on the host: in 3 of 10 runs
    # it read 7-11 ms against 4 ms in the rest
    tail_percentile = 90.0
    sweeps = (
        ("young_baseline", "detector_overlap", 0.0, 1.0),
        ("young_random_phase", "noise.high", 0.5, TWO_PI),
        ("eraser_modulation", "geometry.slit_width", 1e-6, 3e-6),
    )
    steps_per_sweep = 20
    expected_calls = (
        ("config", "parse_config"), ("experiments", "run_experiment"), ("experiments", "fringe_window"),
        ("composite", "two_slit_composite"), ("composite", "noise_averaged_pattern"),
        ("analysis", "histogram"), ("analysis", "visibility"), ("wavefield", "transport_phase"),
        ("montecarlo", "sample_positions"), ("measurement", "measured_signal"),
    )

    def __init__(self, seed: int, workdir: Path, events_per_step: int = 200):
        self.seed = seed
        self.events_per_step = events_per_step
        self.plan = []

    @property
    def particles_per_pass(self) -> int:
        return self.events_per_step * len(self.plan)

    def memory_probe(self, api):
        text, key, value = self.plan[0]
        return api.parse_config(text, overrides={key: repr(value)}), self.events_per_step, _seed_for(self.seed, 0)

    def warm_up(self, api) -> None:
        self.plan = []
        for preset, key, lo, hi in self.sweeps:
            text = api.serialize_config(api.build_preset(preset))
            for value in np.linspace(lo, hi, self.steps_per_sweep).tolist():
                self.plan.append((text, key, value))
        for text, key, value in self.plan[::self.steps_per_sweep]:
            self._step(api, text, key, value, self.seed)

    def _step(self, api, text: str, key: str, value: float, seed: int):
        config = api.parse_config(text, overrides={key: repr(value)})
        log = api.run_experiment(config, self.events_per_step, seed)
        mid = time.perf_counter()
        n_bins, value_range = api.fringe_window(config)
        h = api.histogram(log, "screen_x", n_bins, value_range)
        v = api.visibility(h)
        return mid, (config, len(log), h, v)

    def run_pass(self, api) -> PassResult:
        res = PassResult()
        outputs = []
        clock = time.perf_counter
        for i, (text, key, value) in enumerate(self.plan):
            res.attempted += 1
            start = clock()
            try:
                mid, out = self._step(api, text, key, value, _seed_for(self.seed, i))
            except Exception:
                res.fail(traceback.format_exc())
                res.add_step(clock() - start, 0.0)
                continue
            res.add_step(mid - start, clock() - mid)
            outputs.append((key, value) + out)
        res.outputs = outputs
        digest = hashlib.sha256()
        for _, _, _, n, h, v in outputs:
            digest.update(f"{n},{h.n_dropped},{v.value!r};".encode() + h.counts.tobytes())
        res.fingerprint = digest.hexdigest()
        return res

    def check(self, api, first: PassResult) -> tuple[list[Check], float]:
        found = [Check("every step ran", len(first.outputs) == len(self.plan), f"{len(first.outputs)} steps")]
        errors = []
        for key, value, config, n, h, v in first.outputs:
            target = config
            for part in key.split("."):
                target = getattr(target, part)
            found.append(Check(f"{key}={value!r} applied", target == value, f"config holds {target!r}"))
            found.append(Check(f"{key}={value!r} binned", n == self.events_per_step
                               and int(h.total) + h.n_dropped == n, f"{n} events"))
            errors.append(checks.visibility_error(h, checks.closed_form_visibility(config)))
        return found, max(errors)


WORKLOADS = {w.name: w for w in (CliRoundtrip, WeakScreen, SweepSmall)}
