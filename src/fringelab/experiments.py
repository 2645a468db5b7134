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

Each stream is drawn in blocks of PARTICLE_BLOCK particles, from
sampling state computed once per run, and event_blocks yields each
block's events as numpy columns. The command line's simulate hands each
block to the CSV writer as it is drawn, so its memory does not grow with
the run; run_experiment joins the blocks into one EventLog, whose
constructor checks them once, and then builds the log's records in one
bulk pass, unless the caller asks for the columns alone. A run of one
block keeps that block's arrays, unconcatenated (EventColumns.join). A
block's draws continue its stream where the last block stopped, so the
blocks hold the events one draw for the whole stream would. Weak-screen
runs read their uniforms ahead in blocks and find each particle's start
by doubling jumps along the variable strides (3, 2 or 1 uniforms per
particle), so their output equals the per-particle loop over a screen
interaction and a port draw; only the stream's position after the run
differs. The per-particle operations each path must reproduce are the
oracles in the test suite's tests/oracles.py.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .composite import CompositeState, noise_averaged_pattern, overlap_pair, slit_branch_amplitude, two_slit_composite
from .config import CAVITY_SCENARIOS, MZ_SCENARIOS, ExperimentConfig
from .measurement import measured_signal, midline_profile
from .montecarlo import (
    SAMPLING_CELLS,
    EventColumns,
    EventLog,
    RngStream,
    _inverse_cdf,
    _profile_cdf,
    sample_positions,
    sampling_grid,
)
from .wavefield import TwoSlitGeometry, mz_port_intensity

#: Particles drawn per block of a stream. Bounds a run's scratch columns
#: and uniforms, and with the cells of a streamed write about 1 MB.
PARTICLE_BLOCK = 4096


def composite_from_config(config: ExperimentConfig, include_envelope: bool = True) -> CompositeState:
    """The two-branch state a screen scenario propagates."""
    if not isinstance(config.geometry, TwoSlitGeometry):
        raise ValueError(f"scenario {config.scenario} has no two-slit composite state")
    internal = overlap_pair(config.internal_overlap, config.internal_overlap_phase)
    detector = overlap_pair(config.detector_overlap, config.detector_overlap_phase)
    return two_slit_composite(
        config.geometry, config.beam, internal, detector,
        include_envelope,
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


def _slit_profile(config: ExperimentConfig, slit: int, x) -> np.ndarray:
    """Position density (unnormalized) of a particle tagged through one
    slit under the literal convention: that slit's branch, squared."""
    return np.abs(np.asarray(slit_branch_amplitude(config.geometry, config.beam, slit)(x))) ** 2


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
    """The run's sampling grid across the screen, read-only, so that
    pattern_terms may hold its baseline (composite._kept)."""
    grid = config.geometry.screen_grid
    x = sampling_grid(grid.x_min, grid.x_max, SAMPLING_CELLS)
    x.flags.writeable = False
    return x


def _block_sizes(n: int):
    """The particle counts of a stream's blocks: PARTICLE_BLOCK each, the last one what is left."""
    return (min(PARTICLE_BLOCK, n - first) for first in range(0, n, PARTICLE_BLOCK))


def _screen_blocks(config: ExperimentConfig):
    grid = _screen_grid(config)
    profile = pattern_profile(config, grid)
    return lambda rng, n: ((k, {"screen_x": sample_positions(grid, profile, rng, k)}) for k in _block_sizes(n))


def _tagged_blocks(config: ExperimentConfig):
    """Cavity scenarios: a slit tag, then a position conditioned per the
    pattern convention.

    literal: the tagged particle's position follows its own slit's
    single-slit profile, so the marginal over tags is the fringeless
    two-slit sum. measurement_mediated: positions follow the recorded
    fringe signal independent of the tag. The uniforms consumed per
    event are (tag, cell, jitter) either way, identical to composing the
    micromaser_record and sample_position oracles (tests/oracles.py).
    """
    grid = _screen_grid(config)
    p1, _ = slit_probabilities(config.geometry)
    if config.pattern_convention == "measurement_mediated":
        cdf1 = cdf2 = _profile_cdf(pattern_profile(config, grid))
    else:
        cdf1, cdf2 = (_profile_cdf(_slit_profile(config, slit, grid)) for slit in (1, 2))

    def fields(draws: np.ndarray) -> dict:
        through1 = draws[:, 0] < p1
        if cdf1 is cdf2:
            xs = _inverse_cdf(grid, cdf1, draws[:, 1], draws[:, 2])
        else:  # each slit's CDF on its own rows: the draw works row by row
            xs = np.empty(len(draws))
            for rows, cdf in ((through1, cdf1), (~through1, cdf2)):
                xs[rows] = _inverse_cdf(grid, cdf, draws[rows, 1], draws[rows, 2])
        cavity1 = through1.astype(np.int8)  # a slit-2 photon has no cavity in single-cavity runs
        cavity2 = np.zeros_like(cavity1) if config.single_cavity else 1 - cavity1
        return {"screen_x": xs, "cavity": (cavity1, cavity2)}

    return lambda rng, n: ((k, fields(rng.random((k, 3)))) for k in _block_sizes(n))


def _port_x_fraction(config: ExperimentConfig) -> float:
    ix = mz_port_intensity(config.geometry, config.beam, "x")
    iy = mz_port_intensity(config.geometry, config.beam, "y")
    return ix / (ix + iy)


def _port_blocks(config: ExperimentConfig):
    # port code 0 is "x", drawn when the uniform falls below its fraction
    px = _port_x_fraction(config)
    return lambda rng, n: ((k, {"mz_port": (rng.random(k) >= px).astype(np.int8)}) for k in _block_sizes(n))


def _weak_screen_blocks(config: ExperimentConfig):
    """Vectorized loop of the weak_screen_interact oracle
    (tests/oracles.py) plus a port draw when transmitted.

    Each block holds at least three uniforms per particle. Every uniform
    is classified as a particle's first draw would be (scatter band, then
    transmission, else absorbed) and mapped to the stride that particle
    would consume; doubling jumps along the strides from the first
    uniform find where each particle starts. Uniforms past the last
    particle of a block carry over to the next one.
    """
    mz, beam, screen = config.geometry, config.beam, config.weak_screen
    positions, weights = midline_profile(mz, beam, SAMPLING_CELLS)
    cdf = _profile_cdf(weights)
    px = _port_x_fraction(config)
    transmit_below = screen.scatter_fraction + screen.transmittance
    midline_y = mz.crossing_region.midline_y

    def blocks(rng, n):
        carried = np.empty(0)
        for block in _block_sizes(n):
            u = np.concatenate((carried, rng.random(max(3 * block - carried.size, 0))))
            strides = np.where(u < screen.scatter_fraction, 3, np.where(u < transmit_below, 2, 1))
            # jump[i]: where the particle after one starting at uniform i starts (u.size
            # maps to itself); each pass doubles the starts found and the particles jump skips
            jump = np.append(np.minimum(np.arange(u.size) + strides, u.size), u.size)
            starts = np.zeros(1, dtype=jump.dtype)
            while starts.size < block:
                starts = np.append(starts, jump[starts])
                jump = jump[jump]
            starts = starts[:block]
            carried = u[starts[-1] + strides[starts[-1]]:]
            starts = starts[strides[starts] > 1]  # absorbed particles leave no record
            kinds = strides[starts]
            scattered = kinds == 3
            x = np.full(kinds.size, np.nan)
            x[scattered] = _inverse_cdf(positions, cdf, u[starts[scattered] + 1], u[starts[scattered] + 2])
            yield kinds.size, {"mz_port": np.where(kinds == 2, u[starts + 1] >= px, -1).astype(np.int8),
                               "scatter_xy": (x, np.where(scattered, midline_y, np.nan))}

    return blocks


def _stream_blocks(config: ExperimentConfig):
    """The run's sampling state, computed once from the config, as a
    function from one stream's generator and particle count to that
    stream's blocks: (rows, terminal fields) per PARTICLE_BLOCK particles."""
    if config.scenario == "mz_weak_screen":
        return _weak_screen_blocks(config)
    if config.scenario in MZ_SCENARIOS:
        return _port_blocks(config)
    if config.scenario in CAVITY_SCENARIOS:
        return _tagged_blocks(config)
    return _screen_blocks(config)


def _generate(config: ExperimentConfig, stream_id: int, n: int, fields: dict) -> tuple:
    """n events of one stream's block in EventColumns field order, from the
    terminal fields drawn for them: screen_x, mz_port, the cavity pair or
    the scatter pair. A field not drawn is empty in every row, and every
    row shares the scenario name."""
    empty, none = np.full(n, np.nan), np.full(n, -1, dtype=np.int8)
    return (np.repeat(np.array([config.scenario], dtype=object), n), fields.get("screen_x", empty),
            fields.get("mz_port", none), *fields.get("cavity", (none, none)),
            *fields.get("scatter_xy", (empty, empty)), np.full(n, stream_id, dtype=np.uint64))


def event_blocks(config: ExperimentConfig, n_events: int, seed: int, n_streams: int = 1) -> Iterator[EventColumns]:
    """Simulate n_events particles and yield their terminal records as
    columns, a block of at most PARTICLE_BLOCK particles at a time.

    Deterministic given (config, n_events, seed, n_streams): stream s
    draws from the generator keyed (seed, s), streams follow in order, and
    event i is the i-th row yielded. Only weak-screen blocks can hold
    fewer rows than particles, as absorbed particles leave none. The
    sampling state is computed once, when the first block is drawn; a bad
    argument or profile raises ValueError then. The caller's EventLog
    checks the columns.
    """
    if n_events < 1:
        raise ValueError(f"n_events must be at least 1, got {n_events}")
    if n_streams < 1:
        raise ValueError(f"n_streams must be at least 1, got {n_streams}")
    stream_blocks = _stream_blocks(config)
    base, remainder = divmod(n_events, n_streams)
    for s in range(min(n_streams, n_events)):  # a stream with no particle adds nothing
        for n, fields in stream_blocks(RngStream(seed, s).generator(), base + (1 if s < remainder else 0)):
            yield EventColumns(*_generate(config, s, n, fields))


def run_experiment(
    config: ExperimentConfig, n_events: int, seed: int, n_streams: int = 1, *, records: bool = True
) -> EventLog:
    """Simulate n_events particles and log their terminal records.

    The log is event_blocks(config, n_events, seed, n_streams) joined:
    its events and event ids are those rows in order, and its EventLog
    checks them once. The log holds the columns and the records built
    from them, and equals the log read back from its events CSV. With
    records=False, as sweep calls it, the records are left to a first
    read of log.events.
    """
    log = EventLog(EventColumns.join(event_blocks(config, n_events, seed, n_streams)))
    if records:
        # builds the records here, for the benchmark's weak_screen step, which reads
        # log.events; once it reads log.column("mz_port"), this branch and the
        # records parameter go
        log.events
    return log
