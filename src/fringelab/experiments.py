"""Full experiment runs: a configuration in, an event log out.

Each scenario samples its terminal records from the analytic intensity
layer. Draw accounting is fixed so runs are reproducible: every event
consumes a documented number of uniforms from its stream, and the
vectorized fast paths consume the stream in exactly the same order as
the equivalent per-event loop over the scalar operations.

Per-event uniforms by scenario family:

* plain screen scenarios: (cell, jitter)
* cavity-tagged screen scenarios: (slit tag, cell, jitter)
* interferometer port scenarios: (port)
* weak-screen runs: (classify), then (cell, jitter) when scattered or
  (port) when transmitted; absorbed particles end after one draw and
  leave no record, so those runs can log fewer events than particles.

Generators emit a stream's events as numpy columns, which are joined and
checked once; run_experiment then builds the records from them in one
bulk pass, unless the caller (the command line) asks for the columns
alone. Weak-screen runs read their uniforms ahead in blocks and then
walk the variable strides (3, 2 or 1 uniforms per particle) through the
block, so their output equals the per-particle loop over
weak_screen_interact and a port draw; only the stream's position after
the run differs.
"""

from __future__ import annotations

import numpy as np

from .composite import CompositeState, noise_averaged_pattern, overlap_pair, two_slit_composite
from .config import CAVITY_SCENARIOS, MZ_SCENARIOS, ExperimentConfig, config_digest
from .measurement import measured_signal, midline_profile
from .montecarlo import (
    EventColumns,
    EventLog,
    RngStream,
    _checked_weights,
    _inverse_cdf,
    sample_positions,
    sampling_grid,
)
from .wavefield import TwoSlitGeometry, mz_port_intensity

#: Cells in the inverse-CDF sampling grid across the screen.
SAMPLING_CELLS = 4096

#: Particles per block of uniforms read ahead by weak-screen runs; bounds
#: the scratch memory at three uniforms per particle.
WEAK_SCREEN_BLOCK = 4096


def composite_from_config(config: ExperimentConfig, include_envelope: bool = True) -> CompositeState:
    """The two-branch state a screen scenario propagates."""
    if not isinstance(config.geometry, TwoSlitGeometry):
        raise ValueError(f"scenario {config.scenario} has no two-slit composite state")
    internal = overlap_pair(config.internal_overlap, config.internal_overlap_phase)
    detector = overlap_pair(config.detector_overlap, config.detector_overlap_phase)
    return two_slit_composite(
        config.geometry, config.beam, internal, detector,
        config.pattern_convention, include_envelope,
    )


def pattern_profile(config: ExperimentConfig, x, include_envelope: bool = True) -> np.ndarray:
    """Position density (unnormalized) that screen events are drawn from.

    Under the literal convention this is the noise-averaged squared
    modulus of the composite state, overlap suppression included. Under
    the measurement_mediated convention it is the configured operator's
    recorded signal, which ignores internal and detector overlaps.
    """
    state = composite_from_config(config, include_envelope)
    if config.pattern_convention == "measurement_mediated":
        return np.asarray(measured_signal(config.measurement, state, x))
    return np.asarray(noise_averaged_pattern(state, config.noise, x))


def slit_probabilities(geometry: TwoSlitGeometry) -> tuple[float, float]:
    """Traversal probabilities proportional to the squared slit amplitudes."""
    w1 = abs(geometry.slit_amplitudes[0]) ** 2
    w2 = abs(geometry.slit_amplitudes[1]) ** 2
    total = w1 + w2
    if not total > 0:
        raise ValueError("slit amplitudes cannot both vanish")
    return w1 / total, w2 / total


def fringe_window(config: ExperimentConfig) -> tuple[int, tuple[float, float]] | None:
    """Estimator-friendly binning for a two-slit config's screen events.

    65 bins over |x| <= 2P + P/32, P the fringe period. The bin width is
    P/16 and the half-bin overhang places every fringe extremum at a bin
    center, so the histogram carries the full peak and trough amplitudes
    instead of splitting them across two bins. Returns None for
    interferometer configs, which have no screen fringes to bin.
    """
    if not isinstance(config.geometry, TwoSlitGeometry):
        return None
    g = config.geometry
    period = config.beam.wavelength * g.screen_distance / g.slit_separation
    half = 2.0 * period + period / 32.0
    return 65, (-half, half)


def _screen_grid(config: ExperimentConfig) -> np.ndarray:
    grid = config.geometry.screen_grid
    return sampling_grid(grid.x_min, grid.x_max, SAMPLING_CELLS)


def _stream_columns(config: ExperimentConfig, stream_id: int, n: int, *, screen_x=None, mz_port=None,
                    cavity=None, scatter_xy=None) -> tuple:
    """One stream's n events in EventColumns field order; a field left
    None is empty in every row, and every row shares the scenario name."""
    empty, none = np.full(n, np.nan), np.full(n, -1, dtype=np.int8)
    return (np.repeat(np.array([config.scenario], dtype=object), n), empty if screen_x is None else screen_x,
            none if mz_port is None else mz_port, *(cavity or (none, none)), *(scatter_xy or (empty, empty)),
            np.full(n, stream_id, dtype=np.uint64))


def _screen_columns(config: ExperimentConfig, n: int, rng, stream_id: int) -> tuple:
    grid = _screen_grid(config)
    xs = sample_positions(grid, pattern_profile(config, grid), rng, n)
    return _stream_columns(config, stream_id, n, screen_x=xs)


def _tagged_columns(config: ExperimentConfig, n: int, rng, stream_id: int) -> tuple:
    """Cavity scenarios: a slit tag, then a position conditioned per the
    pattern convention.

    literal: the tagged particle's position follows its own slit's
    single-slit profile, so the marginal over tags is the fringeless
    two-slit sum. measurement_mediated: positions follow the recorded
    fringe signal independent of the tag. The uniforms consumed per
    event are (tag, cell, jitter) either way, identical to composing
    micromaser_record with sample_position.
    """
    grid = _screen_grid(config)
    state = composite_from_config(config)
    p1, _ = slit_probabilities(config.geometry)
    if config.pattern_convention == "measurement_mediated":
        profile = np.asarray(measured_signal(config.measurement, state, grid))
        cdf1 = cdf2 = np.cumsum(profile)
    else:
        b1, b2 = state.branches
        cdf1 = np.cumsum(np.abs(np.asarray(b1.com_amplitude(grid))) ** 2)
        cdf2 = np.cumsum(np.abs(np.asarray(b2.com_amplitude(grid))) ** 2)
    if not (cdf1[-1] > 0 and cdf2[-1] > 0):
        raise ValueError("sampling profile must have positive total weight")
    draws = rng.random((n, 3))
    through1 = draws[:, 0] < p1
    xs = np.where(
        through1,
        _inverse_cdf(grid, cdf1, draws[:, 1], draws[:, 2]),
        _inverse_cdf(grid, cdf2, draws[:, 1], draws[:, 2]),
    )
    cavity1 = through1.astype(np.int8)  # a slit-2 photon has no cavity in single-cavity runs
    cavity2 = np.zeros(n, dtype=np.int8) if config.single_cavity else 1 - cavity1
    return _stream_columns(config, stream_id, n, screen_x=xs, cavity=(cavity1, cavity2))


def _port_x_fraction(config: ExperimentConfig) -> float:
    ix = mz_port_intensity(config.geometry, config.beam, "x")
    iy = mz_port_intensity(config.geometry, config.beam, "y")
    return ix / (ix + iy)


def _port_columns(config: ExperimentConfig, n: int, rng, stream_id: int) -> tuple:
    # port code 0 is "x", drawn when the uniform falls below its fraction
    ports = (rng.random(n) >= _port_x_fraction(config)).astype(np.int8)
    return _stream_columns(config, stream_id, n, mz_port=ports)


def _weak_screen_columns(config: ExperimentConfig, n: int, rng, stream_id: int) -> tuple:
    """Vectorized loop of weak_screen_interact plus a port draw when
    transmitted.

    Each block holds at least three uniforms per particle. Every uniform
    is classified as a particle's first draw would be (scatter band, then
    transmission, else absorbed) and mapped to the stride that particle
    would consume; walking the strides from the first uniform finds where
    each particle starts. Uniforms past the last particle of a block carry
    over to the next one.
    """
    mz, beam, screen = config.geometry, config.beam, config.weak_screen
    positions, weights = midline_profile(mz, beam, SAMPLING_CELLS)
    cdf = np.cumsum(_checked_weights(weights))
    px = _port_x_fraction(config)
    transmit_below = screen.scatter_fraction + screen.transmittance
    carried = np.empty(0)
    blocks = []
    for first in range(0, n, WEAK_SCREEN_BLOCK):
        block = min(WEAK_SCREEN_BLOCK, n - first)
        u = np.concatenate((carried, rng.random(max(3 * block - carried.size, 0))))
        strides = np.where(u < screen.scatter_fraction, 3, np.where(u < transmit_below, 2, 1))
        step = strides.tolist()
        starts = []
        s = 0
        for _ in range(block):
            starts.append(s)
            s += step[s]
        carried = u[s:]
        starts = np.array(starts)
        starts = starts[strides[starts] > 1]  # absorbed particles leave no record
        kinds = strides[starts]
        scattered = kinds == 3
        x = np.full(kinds.size, np.nan)
        x[scattered] = _inverse_cdf(positions, cdf, u[starts[scattered] + 1], u[starts[scattered] + 2])
        blocks.append((np.where(kinds == 2, u[starts + 1] >= px, -1).astype(np.int8), x))
    ports, scatter_x = map(np.concatenate, zip(*blocks))
    scatter_y = np.where(np.isnan(scatter_x), np.nan, mz.crossing_region.midline_y)
    return _stream_columns(config, stream_id, ports.size, mz_port=ports, scatter_xy=(scatter_x, scatter_y))


def _generate(config: ExperimentConfig, n: int, rng, stream_id: int) -> tuple:
    if config.scenario == "mz_weak_screen":
        return _weak_screen_columns(config, n, rng, stream_id)
    if config.scenario in MZ_SCENARIOS:
        return _port_columns(config, n, rng, stream_id)
    if config.scenario in CAVITY_SCENARIOS:
        return _tagged_columns(config, n, rng, stream_id)
    return _screen_columns(config, n, rng, stream_id)


def run_experiment(
    config: ExperimentConfig, n_events: int, seed: int, n_streams: int = 1, *, records: bool = True
) -> EventLog:
    """Simulate n_events particles and log their terminal records.

    Deterministic given (config, n_events, seed, n_streams): stream s
    draws from the generator keyed (seed, s), streams are concatenated
    in stream order, and event ids are assigned densely across the
    merged log. n_events counts particles sent in; only the weak-screen
    scenario can absorb a particle without a record, every other
    scenario logs exactly one event per particle. The log holds the
    columns and the records built from them. With records=False, as the
    command line calls it, the columns are checked and the records are
    left to a first read of log.events.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    if n_streams < 1:
        raise ValueError(f"n_streams must be at least 1, got {n_streams}")
    base, remainder = divmod(n_events, n_streams)
    streams = (  # a stream with no particle adds nothing; lazy, so each stream's columns go once joined
        _generate(config, base + (1 if s < remainder else 0), RngStream(seed, s).generator(), s)
        for s in range(min(n_streams, n_events))
    )
    columns = EventColumns(*map(np.concatenate, zip(*streams)), single_cavity=config.single_cavity)
    log = EventLog(columns=columns, config_digest=config_digest(config))
    if records:
        # builds the records here, for the benchmark's weak_screen step, which reads
        # log.events; once it reads log.column("mz_port"), this branch and the
        # records parameter go
        log.events  # EventColumns.records() checks the columns first
    else:
        columns.check()
    return log
