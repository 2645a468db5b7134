"""End-to-end event generation: shapes, determinism, draw accounting."""

import dataclasses

import numpy as np
import pytest
from oracles import micromaser_record, sample_position, weak_screen_interact

from fringelab import composite, experiments, montecarlo
from fringelab.cli import main
from fringelab.composite import literal_pattern, noise_averaged_pattern
from fringelab.config import MZ_SCENARIOS, PRESET_NAMES, build_preset, parse_config, serialize_config
from fringelab.experiments import (
    PARTICLE_BLOCK,
    SAMPLING_CELLS,
    composite_from_config,
    event_blocks,
    fringe_window,
    pattern_profile,
    run_experiment,
    slit_probabilities,
)
from fringelab.measurement import measured_signal, midline_profile
from fringelab.montecarlo import DetectionEvent, EventColumns, EventLog, RngStream, sample_positions, sampling_grid
from fringelab.wavefield import mz_port_intensity


def test_composite_carries_configured_overlaps():
    config = parse_config(
        "scenario = young_baseline\ninternal_overlap = 0.7\ndetector_overlap = 0.4\n"
        "detector_overlap_phase = 0.3\n"
    )
    state = composite_from_config(config)
    assert abs(state.overlap_product() - 0.7 * 0.4 * np.exp(0.3j)) < 1e-12


def test_composite_requires_two_slit_geometry():
    with pytest.raises(ValueError):
        composite_from_config(build_preset("mz_with_bs2"))


def test_pattern_profile_literal_uses_noise_average():
    config = build_preset("young_random_phase")
    x = np.linspace(-1e-4, 1e-4, 64)
    state = composite_from_config(config)
    np.testing.assert_array_equal(
        pattern_profile(config, x), noise_averaged_pattern(state, config.noise, x)
    )


def test_pattern_profile_mediated_uses_measured_signal():
    config = build_preset("eraser_modulation")
    x = np.linspace(-1e-4, 1e-4, 64)
    state = composite_from_config(config)
    np.testing.assert_array_equal(
        pattern_profile(config, x), measured_signal(config.measurement, state, x)
    )
    # the mediated profile keeps fringes despite orthogonal detector states
    literal = literal_pattern(state, x)
    assert not np.allclose(pattern_profile(config, x), literal)


def test_slit_probabilities_follow_squared_amplitudes():
    config = parse_config("scenario = young_baseline\ngeometry.slit_amplitude2 = 0.5\n")
    p1, p2 = slit_probabilities(config.geometry)
    assert p1 == pytest.approx(1.0 / 1.25)
    assert p2 == pytest.approx(0.25 / 1.25)
    assert p1 + p2 == pytest.approx(1.0)


def test_fringe_window_covers_two_periods_with_overhang():
    config = build_preset("young_baseline")
    n_bins, (lo, hi) = fringe_window(config)
    period = 500e-9 * 1.0 / 10e-6
    assert n_bins == 65
    assert hi == pytest.approx(2.0 * period + period / 32.0, rel=1e-12)
    assert lo == -hi
    # bin width is period/16, so fringe extrema land on bin centers
    assert (hi - lo) / n_bins == pytest.approx(period / 16.0, rel=1e-12)
    assert fringe_window(build_preset("mz_with_bs2")) is None


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_generates_events(name):
    config = build_preset(name)
    log = run_experiment(config, 400, seed=11)
    assert 0 < len(log) <= 400
    assert all(e.experiment == name for e in log.events)
    assert [e.event_id for e in log.events] == list(range(len(log)))


def test_event_shapes_match_scenario_family():
    screen = run_experiment(build_preset("young_baseline"), 100, seed=1)
    assert all(e.screen_x is not None and e.whichway is None for e in screen.events)

    tagged = run_experiment(build_preset("young_micromaser"), 100, seed=1)
    assert all(e.screen_x is not None and e.whichway is not None for e in tagged.events)
    assert all(e.whichway.cavity1_photons + e.whichway.cavity2_photons == 1 for e in tagged.events)

    single = run_experiment(build_preset("young_single_cavity"), 100, seed=1)
    assert all(e.whichway.cavity2_photons == 0 for e in single.events)

    ports = run_experiment(build_preset("mz_with_bs2"), 100, seed=1)
    assert all(e.mz_port in ("x", "y") for e in ports.events)

    weak = run_experiment(build_preset("mz_weak_screen"), 2000, seed=1)
    kinds = {"scatter": 0, "port": 0}
    for e in weak.events:
        if e.scatter_xy is not None:
            kinds["scatter"] += 1
        else:
            assert e.mz_port in ("x", "y")
            kinds["port"] += 1
    assert kinds["scatter"] > 0
    assert kinds["port"] > kinds["scatter"]


def test_run_experiment_is_deterministic():
    config = build_preset("young_baseline")
    a = run_experiment(config, 250, seed=77)
    b = run_experiment(config, 250, seed=77)
    assert a == b
    c = run_experiment(config, 250, seed=78)
    assert a != c


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_run_without_records_logs_the_same_columns(monkeypatch, name):
    config = build_preset(name)
    full = run_experiment(config, 300, seed=5, n_streams=2)

    def no_records(c):
        raise AssertionError("records were built")

    monkeypatch.setattr(montecarlo, "_records", no_records)
    bare = run_experiment(config, 300, seed=5, n_streams=2, records=False)
    assert bare == full
    monkeypatch.undo()
    assert bare.events == full.events


@pytest.mark.parametrize("n_streams", [1, 3])
@pytest.mark.parametrize("n", [PARTICLE_BLOCK, PARTICLE_BLOCK + 1])
@pytest.mark.parametrize("name", ["young_baseline", "eraser_modulation", "mz_with_bs2", "mz_weak_screen"])
def test_a_run_joins_its_blocks_as_concatenated_columns(name, n, n_streams):
    # one stream of PARTICLE_BLOCK particles is one block, whose arrays the log takes as they are
    config = build_preset(name)
    blocks = list(event_blocks(config, n, seed=9, n_streams=n_streams))
    assert (len(blocks) == 1) is (n == PARTICLE_BLOCK and n_streams == 1)
    log = run_experiment(config, n, seed=9, n_streams=n_streams, records=False)
    joined = EventColumns(*map(np.concatenate, zip(*blocks)))
    assert log == EventLog(joined)
    for got, want in zip(log._columns, joined):
        assert got.dtype == want.dtype
        assert not got.flags.writeable


def test_streams_partition_and_merge_in_order():
    config = build_preset("young_baseline")
    log = run_experiment(config, 10, seed=3, n_streams=3)
    assert len(log) == 10
    # 10 = 4 + 3 + 3 across streams, concatenated in stream order
    assert [e.stream_id for e in log.events] == [0] * 4 + [1] * 3 + [2] * 3
    assert [e.event_id for e in log.events] == list(range(10))
    # the first stream's events match a single-stream run of its chunk
    solo = run_experiment(config, 4, seed=3, n_streams=1)
    assert [e.screen_x for e in solo.events] == [e.screen_x for e in log.events[:4]]


def test_run_experiment_argument_validation():
    config = build_preset("young_baseline")
    with pytest.raises(ValueError):
        run_experiment(config, 0, seed=1)
    with pytest.raises(ValueError):
        run_experiment(config, 10, seed=1, n_streams=0)


def test_run_experiment_refuses_a_negative_tagged_profile():
    # cross elements that outweigh the diagonal push the recorded signal below zero
    config = parse_config("scenario = eraser_modulation\nmeasurement.g12 = 2\nmeasurement.g21 = 2\n")
    assert np.any(pattern_profile(config, experiments._screen_grid(config)) < 0)
    with pytest.raises(ValueError) as refused:
        run_experiment(config, 100, seed=1)
    assert str(refused.value) == "profile values must be nonnegative"


def _bad_profile(case: str) -> np.ndarray:
    weights = np.zeros(SAMPLING_CELLS) if case == "all zero" else np.ones(SAMPLING_CELLS)
    if case != "all zero":
        weights[SAMPLING_CELLS // 2] = -1.0 if case == "negative" else np.nan
    return weights


def _patch_bad_profile(monkeypatch, source: str, case: str) -> None:
    """Make one of the samplers' profile sources return a bad profile."""
    bad = _bad_profile(case)
    if source == "midline_profile":
        monkeypatch.setattr(experiments, source, lambda mz, beam, n_cells: (sampling_grid(0.0, 1.0, n_cells), bad))
    else:
        monkeypatch.setattr(experiments, source, lambda *args: bad)


_BAD_PROFILES = pytest.mark.parametrize("case,message", [
    ("negative", "profile values must be nonnegative"),
    ("nan", "profile values must be finite"),
    ("all zero", "profile must have at least one positive value"),
])
_PROFILE_SOURCES = pytest.mark.parametrize("preset,source", [
    ("young_baseline", "pattern_profile"),  # screen
    ("young_micromaser", "_slit_profile"),  # tagged, literal convention
    ("eraser_modulation", "pattern_profile"),  # tagged, measurement_mediated convention
    ("mz_weak_screen", "midline_profile"),  # weak screen
])


@_BAD_PROFILES
@_PROFILE_SOURCES
def test_every_sampler_refuses_a_bad_profile_alike(monkeypatch, preset, source, case, message):
    _patch_bad_profile(monkeypatch, source, case)
    with pytest.raises(ValueError) as refused:
        run_experiment(build_preset(preset), 100, seed=1)
    assert str(refused.value) == message


# --- draw-order composition: the vectorized runs must consume the stream
# exactly as the published per-particle operations do ---


def test_screen_run_composes_position_sampling():
    config = build_preset("young_baseline")
    log = run_experiment(config, 64, seed=5)
    grid = sampling_grid(
        config.geometry.screen_grid.x_min, config.geometry.screen_grid.x_max, SAMPLING_CELLS
    )
    profile = pattern_profile(config, grid)
    expected = sample_positions(grid, profile, RngStream(5, 0).generator(), 64)
    np.testing.assert_array_equal([e.screen_x for e in log.events], expected)


def test_tagged_run_composes_record_then_position():
    config = build_preset("young_micromaser")
    log = run_experiment(config, 48, seed=6)
    grid = sampling_grid(
        config.geometry.screen_grid.x_min, config.geometry.screen_grid.x_max, SAMPLING_CELLS
    )
    state = composite_from_config(config)
    profile1 = np.abs(np.asarray(state.branch1.com_amplitude(grid))) ** 2
    profile2 = np.abs(np.asarray(state.branch2.com_amplitude(grid))) ** 2
    probs = slit_probabilities(config.geometry)
    rng = RngStream(6, 0).generator()
    for event in log.events:
        record = micromaser_record(probs, False, rng)
        profile = profile1 if record.inferred_path == 1 else profile2
        x = sample_position(grid, profile, rng)
        assert event.whichway == record
        assert event.screen_x == x


def test_mediated_tagged_run_samples_common_signal():
    config = build_preset("young_single_cavity")
    log = run_experiment(config, 48, seed=8)
    grid = sampling_grid(
        config.geometry.screen_grid.x_min, config.geometry.screen_grid.x_max, SAMPLING_CELLS
    )
    state = composite_from_config(config)
    profile = np.asarray(measured_signal(config.measurement, state, grid))
    probs = slit_probabilities(config.geometry)
    rng = RngStream(8, 0).generator()
    for event in log.events:
        record = micromaser_record(probs, True, rng)
        x = sample_position(grid, profile, rng)
        assert event.whichway == record
        assert event.screen_x == x


def test_port_run_composes_threshold_draw():
    config = build_preset("mz_with_bs2")
    log = run_experiment(config, 100, seed=9)
    ix = mz_port_intensity(config.geometry, config.beam, "x")
    iy = mz_port_intensity(config.geometry, config.beam, "y")
    px = ix / (ix + iy)
    rng = RngStream(9, 0).generator()
    for event in log.events:
        assert event.mz_port == ("x" if rng.random() < px else "y")


def test_weak_screen_run_composes_interaction_and_port_draw():
    config = build_preset("mz_weak_screen")
    log = run_experiment(config, 600, seed=10)
    mz, beam, screen = config.geometry, config.beam, config.weak_screen
    midline = midline_profile(mz, beam, SAMPLING_CELLS)
    rng = RngStream(10, 0).generator()
    replayed = []
    for _ in range(600):
        outcome = weak_screen_interact(screen, mz, beam, rng, midline)
        if outcome.kind == "scattered":
            replayed.append(("scatter", outcome.x, outcome.y))
        elif outcome.kind == "transmitted":
            port = "x" if rng.random() < 0.5 else "y"
            replayed.append(("port", port))
    assert len(replayed) == len(log)
    for event, expect in zip(log.events, replayed):
        if expect[0] == "scatter":
            assert event.scatter_xy == (expect[1], expect[2])
        else:
            assert event.mz_port == expect[1]


def test_weak_screen_absorption_drops_particles():
    config = parse_config(
        "scenario = mz_weak_screen\n"
        "weak_screen.transmittance = 0.5\n"
        "weak_screen.scatter_fraction = 0.1\n"
    )
    log = run_experiment(config, 2000, seed=12)
    # 40% absorption leaves no record, so the log shrinks
    assert len(log) < 2000
    assert len(log) == pytest.approx(2000 * 0.6, abs=4 * np.sqrt(2000 * 0.6 * 0.4))


@pytest.mark.parametrize("n_streams", [1, 3])
@pytest.mark.parametrize("n,block", [
    (1, experiments.PARTICLE_BLOCK),
    (2, experiments.PARTICLE_BLOCK),
    (3000, experiments.PARTICLE_BLOCK),
    (9000, experiments.PARTICLE_BLOCK),
    (2, 1),
    (3000, 1),
    (3000, 5),
])
def test_weak_screen_run_with_absorption_replays_the_scalar_loop(monkeypatch, n, n_streams, block):
    # 40% absorption, so all three strides (3 scattered, 2 transmitted,
    # 1 absorbed) occur; 9000 particles and the small blocks carry
    # uniforms across block borders. Then the stride extremes: every
    # particle scattered (each stride 3, so a block's walk ends on its
    # last uniform), every one transmitted, and every one absorbed (an
    # empty log).
    monkeypatch.setattr(experiments, "PARTICLE_BLOCK", block)
    for transmittance, scatter_fraction in ((0.5, 0.1), (0.0, 1.0), (1.0, 0.0), (0.0, 0.0)):
        config = parse_config(
            "scenario = mz_weak_screen\n"
            f"weak_screen.transmittance = {transmittance}\n"
            f"weak_screen.scatter_fraction = {scatter_fraction}\n"
        )
        log = run_experiment(config, n, seed=13, n_streams=n_streams)
        mz, beam, screen = config.geometry, config.beam, config.weak_screen
        midline = midline_profile(mz, beam, SAMPLING_CELLS)
        ix = mz_port_intensity(mz, beam, "x")
        px = ix / (ix + mz_port_intensity(mz, beam, "y"))
        expected = []
        base, remainder = divmod(n, n_streams)
        for stream_id in range(n_streams):
            rng = RngStream(13, stream_id).generator()
            for _ in range(base + (1 if stream_id < remainder else 0)):
                outcome = weak_screen_interact(screen, mz, beam, rng, midline)
                if outcome.kind == "scattered":
                    expected.append(DetectionEvent(
                        len(expected), config.scenario, scatter_xy=(outcome.x, outcome.y), stream_id=stream_id,
                    ))
                elif outcome.kind == "transmitted":
                    port = "x" if rng.random() < px else "y"
                    expected.append(DetectionEvent(len(expected), config.scenario, mz_port=port, stream_id=stream_id))
        assert log.events == tuple(expected), (transmittance, scatter_fraction)


def test_a_sweep_that_keeps_the_geometry_computes_the_slit_waves_once(tmp_path, counted_phases):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    argv = ["sweep", "--config", str(cfg), "--param", "detector_overlap", "--from", "0", "--to", "1",
            "--steps", "5", "--events", "200", "--seed", "2", "--out", str(tmp_path / "sweep.csv")]
    assert main(argv) == 0
    assert len(counted_phases) == 2  # cold: one wave per slit, then four steps of hits
    cold = (tmp_path / "sweep.csv").read_bytes()
    assert main(argv) == 0
    assert len(counted_phases) == 2  # warm: no new wave
    assert (tmp_path / "sweep.csv").read_bytes() == cold


def test_the_cache_holds_one_geometry(counted_phases):
    text = serialize_config(build_preset("young_baseline"))
    for width in (1e-6, 1.5e-6, 2e-6, 2.5e-6, 3e-6):
        config = parse_config(text, overrides={"geometry.slit_width": repr(width)})
        run_experiment(config, 50, seed=1)
    assert len(counted_phases) == 10
    assert [composite._kept["wave", slit][0][0] for slit in (1, 2)] == [config.geometry, config.geometry]


_KINDS = {("wave", 1), ("wave", 2), ("phasor", 1), ("phasor", 2), "envelope", "base"}

#: The memo's bound on the 4096-cell sampling grid: two complex waves, two
#: complex phasors with their phases' bytes, the envelope, the baseline and
#: one copy of the grid's bytes.
_MEMO_BYTES = 416 * 1024


def _held_bytes() -> int:
    """Bytes of the distinct arrays and bytes objects the memo holds, keys included."""
    seen, total, stack = set(), 0, [held for held in composite._kept.values()]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, (bytes, np.ndarray)) and id(item) not in seen:
            seen.add(id(item))
            total += item.nbytes if isinstance(item, np.ndarray) else len(item)
    return total


def test_the_memo_stays_bounded_over_every_preset_and_two_slit_sweeps(counted_phases):
    kinds, peak = set(), 0

    def run(config):
        nonlocal peak
        run_experiment(config, 50, seed=1)
        kinds.update(composite._kept)
        peak = max(peak, _held_bytes())

    for name in PRESET_NAMES:
        run(build_preset(name))
    for preset, key, values in (("eraser_modulation", "geometry.slit_width", (1e-6, 2e-6, 3e-6)),
                                ("eraser_modulation", "geometry.slit_amplitude1", (0.25, 0.5, 1j)),
                                ("young_baseline", "detector_overlap", (0.0, 0.5, 1.0)),
                                ("young_random_phase", "noise.high", (0.5, 3.0, 6.0))):
        text = serialize_config(build_preset(preset))
        for value in values:
            run(parse_config(text, overrides={key: repr(value)}))
    assert kinds == _KINDS
    assert peak == _MEMO_BYTES  # every kind held at once, each at its full size
    grid_keys = [held[0] for kind, held in composite._kept.items() if kind == "envelope" or kind[0] == "wave"]
    assert len(grid_keys) == 3
    assert len({id(key[-1][-1]) for key in grid_keys}) == 1  # one bytes object for x
    assert composite._kept["base"][0] == (id(composite._kept["wave", 1][1]), id(composite._kept["wave", 2][1]))


def test_interleaved_sweeps_profile_as_a_cold_memo_does(counted_phases):
    text = serialize_config(build_preset("young_baseline"))
    steps = []
    for i, (overlap, width, x_min) in enumerate(zip((0.0, 0.25, 0.5, 0.75), (1e-6, 2e-6, 2e-6, 3e-6),
                                                    (-0.15, -0.1, -0.15, -0.1))):
        steps += [{"detector_overlap": overlap}, {"geometry.slit_width": width}, {"detector_overlap": 1 - overlap},
                  {"geometry.screen_x_min": x_min}]
    configs = [parse_config(text, overrides={key: repr(value) for key, value in step.items()}) for step in steps]
    cold = []
    for config in configs:
        composite._kept.clear()
        cold.append(pattern_profile(config, experiments._screen_grid(config)).tobytes())
    composite._kept.clear()
    served = 0
    for config, expected in zip(configs, cold):
        held = composite._kept.get("base", (None, None))[1]
        assert pattern_profile(config, experiments._screen_grid(config)).tobytes() == expected
        served += composite._kept["base"][1] is held
        assert composite._kept["base"][0] == (id(composite._kept["wave", 1][1]), id(composite._kept["wave", 2][1]))
    # a step whose geometry equals the last step's keeps its waves and their baseline
    assert served == sum(a.geometry == b.geometry for a, b in zip(configs, configs[1:])) == 8


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_cold_and_warm_wave_caches_log_the_same_events(counted_phases, name):
    config = build_preset(name)
    cold = run_experiment(config, 500, seed=11, n_streams=2)
    made = len(counted_phases)
    warm = run_experiment(config, 500, seed=11, n_streams=2)
    assert warm == cold
    assert len(counted_phases) == made  # the second run computed no wave
    assert made == (0 if name in MZ_SCENARIOS else 2)


# --- runs keep nothing between calls: a run on the config object of an
# earlier run logs what a run on a fresh config object logs ---


def _column_bytes(log: EventLog) -> list:
    return [c.tolist() if c.dtype == object else c.tobytes() for c in log._columns]


def _run_bytes(config, seed: int) -> list:
    return _column_bytes(run_experiment(config, 3000, seed, n_streams=2))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_runs_on_one_config_object_log_what_fresh_runs_log(name):
    fresh = [_run_bytes(build_preset(name), seed) for seed in (1, 2, 3)]
    config = build_preset(name)
    assert [_run_bytes(config, seed) for seed in (1, 2, 3)] == fresh


def test_interleaved_configs_log_what_fresh_runs_log():
    runs = (("mz_weak_screen", 4), ("young_micromaser", 5), ("mz_weak_screen", 6))
    fresh = [_run_bytes(build_preset(name), seed) for name, seed in runs]
    configs = {name: build_preset(name) for name, _ in runs}
    assert [_run_bytes(configs[name], seed) for name, seed in runs] == fresh


def test_an_equal_config_with_a_negative_zero_amplitude_logs_what_it_logged_alone():
    base = build_preset("young_baseline")
    plus, minus = (dataclasses.replace(base, geometry=dataclasses.replace(base.geometry, slit_amplitudes=(1.0, zero)))
                   for zero in (0j, complex(-0.0, 0.0)))
    assert plus == minus  # == takes -0.0 for 0.0
    alone = _run_bytes(minus, 7)
    _run_bytes(plus, 7)
    assert _run_bytes(minus, 7) == alone


@pytest.mark.parametrize("refused", ["negative tagged signal", "nan midline"])
def test_a_refused_config_leaves_the_next_run_as_it_was(monkeypatch, refused):
    good = build_preset("mz_weak_screen")
    before = _run_bytes(good, 8)
    if refused == "negative tagged signal":
        bad = parse_config("scenario = eraser_modulation\nmeasurement.g12 = 2\nmeasurement.g21 = 2\n")
    else:
        bad = build_preset("mz_weak_screen")
        _patch_bad_profile(monkeypatch, "midline_profile", "nan")
    with pytest.raises(ValueError, match="profile values must be"):
        run_experiment(bad, 100, seed=1)
    monkeypatch.undo()
    assert _run_bytes(good, 8) == before


@_BAD_PROFILES
@_PROFILE_SOURCES
def test_a_second_run_on_one_config_object_reads_the_patched_profile_source(monkeypatch, preset, source, case, message):
    config = build_preset(preset)
    run_experiment(config, 100, seed=1)
    _patch_bad_profile(monkeypatch, source, case)
    with pytest.raises(ValueError) as refused:
        run_experiment(config, 100, seed=1)
    assert str(refused.value) == message
