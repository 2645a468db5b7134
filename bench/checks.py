"""Output checks shared by the workloads: golden digests and statistics.

The byte-replay gate regenerates every preset's event CSV at a fixed
(events, seed) with one and with three random streams and compares the
SHA-256 of each file with the digests recorded in golden_digests.json.
The statistical checks hold on any seed: counts must fall within five
binomial standard deviations of their expectation, and visibilities
estimated from large histograms must sit near the closed form.

Run ``python3 bench/checks.py`` to print the current digests as JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_digests.json"
GATE_EVENTS = 2000
GATE_SEED = 7
GATE_STREAMS = (1, 3)

#: Visibility tolerance for fringe_window histograms holding at least
#: VISIBILITY_MIN_EVENTS. At 1e5 events the error on the presets stays
#: below 0.009 over 40 seeds; smaller histograms, and the CLI's whole-range
#: binning, are reported in visibility_abs_err but not gated.
VISIBILITY_TOLERANCE = 0.03
VISIBILITY_MIN_EVENTS = 50_000

#: Below this the modulated gamma=0 histogram counts as washed out.
WASHOUT_VISIBILITY = 0.05


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def within_sigma(name: str, observed: int, trials: int, p: float, k: float = 5.0) -> Check:
    """Binomial count within k standard deviations of trials * p."""
    expected = trials * p
    sigma = math.sqrt(trials * p * (1.0 - p))
    gap = abs(observed - expected)
    return Check(name, gap <= k * sigma, f"{observed} vs {expected:.1f} (sigma {sigma:.2f})")


def port_x_fraction(config) -> float:
    """Analytic probability that an interferometer particle leaves by port x."""
    from fringelab.wavefield import mz_port_intensity

    ix = mz_port_intensity(config.geometry, config.beam, "x")
    iy = mz_port_intensity(config.geometry, config.beam, "y")
    return ix / (ix + iy)


def closed_form_visibility(config) -> float:
    """Fringe contrast of the config's analytic screen pattern.

    Evaluated without the diffraction envelope over two fringe periods
    around the center, which is the contrast the overlap law predicts.
    """
    from fringelab.analysis import profile_visibility
    from fringelab.experiments import pattern_profile

    g = config.geometry
    period = config.beam.wavelength * g.screen_distance / g.slit_separation
    x = np.linspace(-period, period, 513)
    return profile_visibility(pattern_profile(config, x, include_envelope=False))


def crossing_visibility(config) -> float:
    """Contrast of the weak screen's midline intensity, closed form."""
    from fringelab.analysis import profile_visibility
    from fringelab.wavefield import crossing_intensity

    region = config.geometry.crossing_region
    x = np.linspace(region.x_min, region.x_max, 4097)
    return profile_visibility(crossing_intensity(config.geometry, config.beam, x, region.midline_y))


def estimated_visibility(h) -> float:
    """Estimator value, with a flagged (fringeless) histogram read as 0."""
    from fringelab.analysis import visibility

    v = visibility(h)
    return v.value if v.present else 0.0


def visibility_error(h, closed_form: float) -> float:
    return abs(estimated_visibility(h) - closed_form)


def visibility_checks(name: str, h, closed_form: float) -> list[Check]:
    """Visibility error gate; empty for histograms too small to gate."""
    if h.total < VISIBILITY_MIN_EVENTS:
        return []
    err = visibility_error(h, closed_form)
    return [Check(name, err <= VISIBILITY_TOLERANCE, f"|V - {closed_form:.4f}| = {err:.4f}")]


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def current_digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of each preset's events CSV at the gate's (events, seed)."""
    from fringelab.config import PRESET_NAMES, build_preset
    from fringelab.experiments import run_experiment
    from fringelab.io import write_events_csv

    out = {}
    path = workdir / "gate.csv"
    for name in PRESET_NAMES:
        config = build_preset(name)
        for streams in GATE_STREAMS:
            write_events_csv(run_experiment(config, GATE_EVENTS, GATE_SEED, n_streams=streams), path)
            out[f"{name}/streams={streams}"] = file_sha256(path)
    path.unlink()
    return out


def golden_digests() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))["digests"]


def replay_gate(workdir: Path, golden: dict[str, str] | None = None) -> list[Check]:
    """One check per golden digest; a missing or changed file fails."""
    golden = golden_digests() if golden is None else golden
    try:
        actual = current_digests(workdir)
    except Exception as exc:  # a crash in the package is a failed gate, not a benchmark crash
        return [Check(f"replay {key}", False, f"{type(exc).__name__}: {exc}") for key in golden]
    return [
        Check(f"replay {key}", actual.get(key) == digest, f"{actual.get(key)} vs golden {digest}")
        for key, digest in golden.items()
    ]


def read_histogram_csv(path):
    """FringeHistogram from a histogram CSV written by the CLI."""
    from fringelab.analysis import FringeHistogram

    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edges = np.append(rows[:, 0], rows[-1, 1])
    return FringeHistogram(edges, rows[:, 2])


if __name__ == "__main__":
    import tempfile

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        digests = current_digests(Path(tmp))
    json.dump({"events": GATE_EVENTS, "seed": GATE_SEED, "digests": digests}, sys.stdout, indent=2)
    print()
