"""Random streams, event records, and inverse-CDF position sampling."""

import dataclasses
import re

import numpy as np
import pytest
from scipy import stats

from fringelab.config import PRESET_NAMES, build_preset, parse_config
from fringelab.experiments import run_experiment
from fringelab.io import read_events_csv, write_events_csv
from fringelab.measurement import WhichWayRecord
from fringelab.montecarlo import (
    MZ_PORTS,
    DetectionEvent,
    EventColumns,
    EventLog,
    RngStream,
    sample_position,
    sample_positions,
    sampling_grid,
)

# First uniforms of the Philox streams keyed (7, 0) and (7, 1), frozen so
# a change in key construction cannot slip through unnoticed.
PHILOX_7_0 = [0.8720734548204873, 0.29536538151378355, 0.4200976785072422, 0.4053922457839946]
PHILOX_7_1 = [0.8824668302545412, 0.3690383346754841, 0.5170696944527113, 0.3317897507720009]


def test_stream_draws_are_frozen():
    g = RngStream(7, 0).generator()
    np.testing.assert_array_equal(g.random(4), PHILOX_7_0)
    g = RngStream(7, 1).generator()
    np.testing.assert_array_equal(g.random(4), PHILOX_7_1)


def test_same_stream_reproduces_and_streams_differ():
    a = RngStream(123, 5).generator().random(16)
    b = RngStream(123, 5).generator().random(16)
    np.testing.assert_array_equal(a, b)
    c = RngStream(123, 6).generator().random(16)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("seed,stream", [(-1, 0), (0, -3), (2**64, 0), (0, 2**64)])
def test_stream_rejects_out_of_range_ids(seed, stream):
    with pytest.raises(ValueError):
        RngStream(seed, stream)


def test_event_requires_exactly_one_terminal_field():
    DetectionEvent(0, "run", screen_x=0.1)
    DetectionEvent(0, "run", mz_port="x")
    DetectionEvent(0, "run", scatter_xy=(0.1, 0.2))
    with pytest.raises(ValueError):
        DetectionEvent(0, "run")
    with pytest.raises(ValueError):
        DetectionEvent(0, "run", screen_x=0.1, mz_port="x")
    with pytest.raises(ValueError):
        DetectionEvent(0, "run", mz_port="up")


def test_event_can_carry_whichway_tag():
    record = WhichWayRecord(1, 0)
    event = DetectionEvent(0, "run", screen_x=0.0, whichway=record)
    assert event.whichway.inferred_path == 1


_EVENT = {"event_id": 3, "experiment": "run", "screen_x": 0.25}


@pytest.mark.parametrize("changes,message", [
    ({}, None),
    ({"screen_x": None, "mz_port": "y", "stream_id": 2}, None),
    ({"screen_x": None, "scatter_xy": (1e-6, 0.0), "whichway": WhichWayRecord(0, 1)}, None),
    ({"event_id": -1}, "event_id must be nonnegative"),
    ({"screen_x": None}, "exactly one terminal field must be set, got 0"),
    ({"mz_port": "x"}, "exactly one terminal field must be set, got 2"),
    ({"mz_port": "x", "scatter_xy": (0.0, 0.0)}, "exactly one terminal field must be set, got 3"),
    ({"screen_x": None, "mz_port": "up"}, "mz_port must be one of ('x', 'y'), got 'up'"),
    ({"stream_id": -5}, "stream_id must be a 64-bit unsigned integer, got -5"),
    ({"stream_id": 2**64}, f"stream_id must be a 64-bit unsigned integer, got {2**64}"),
    ({"stream_id": 2**70}, f"stream_id must be a 64-bit unsigned integer, got {2**70}"),
    ({"screen_x": float("nan")}, "screen_x must be finite, got nan"),
    ({"screen_x": float("-inf")}, "screen_x must be finite, got -inf"),
    ({"screen_x": None, "scatter_xy": (float("nan"), 0.0)}, "scatter_xy must be finite, got (nan, 0.0)"),
    ({"screen_x": None, "scatter_xy": (0.0, float("inf"))}, "scatter_xy must be finite, got (0.0, inf)"),
])
def test_event_record_contract(changes, message):
    base = DetectionEvent(**_EVENT)
    kwargs = {**_EVENT, **changes}
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            DetectionEvent(**kwargs)
        # replace builds through the same constructor, so it checks again
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(base, **changes)
        return
    event = DetectionEvent(**kwargs)
    values = [kwargs.get(f.name, f.default) for f in dataclasses.fields(DetectionEvent)]
    twin = DetectionEvent(*values)
    assert event == twin == dataclasses.replace(base, **changes)
    assert hash(event) == hash(twin)
    assert dataclasses.astuple(event) == dataclasses.astuple(twin)
    fields = ", ".join(f"{f.name}={v!r}" for f, v in zip(dataclasses.fields(DetectionEvent), values))
    assert repr(event) == f"DetectionEvent({fields})"
    for f in dataclasses.fields(DetectionEvent):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(event, f.name, getattr(base, f.name))


@pytest.mark.parametrize("preset", ["young_micromaser", "young_single_cavity"])
def test_shared_whichway_records_equal_fresh_ones(tmp_path, preset):
    log = run_experiment(build_preset(preset), 200, seed=4)
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    for events in (log.events, read_events_csv(path).events):
        shared = {id(e.whichway): e.whichway for e in events}
        assert len(shared) == 2
        for record in shared.values():
            fresh = WhichWayRecord(record.cavity1_photons, record.cavity2_photons, record.single_cavity_mode)
            assert record == fresh
            assert hash(record) == hash(fresh)


def test_event_rejects_any_attribute_assignment():
    event = DetectionEvent(0, "run", screen_x=0.5)
    for name in ("extra", "screen_x"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(event, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(event, name)
    assert event == DetectionEvent(0, "run", screen_x=0.5)


_COLUMNS = ("experiment", "screen_x", "mz_port", "cavity1_photons", "cavity2_photons",
            "single_cavity_mode", "scatter_x", "scatter_y")


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_record_and_column_logs_give_equal_columns(tmp_path, monkeypatch, preset):
    records = run_experiment(build_preset(preset), 600, seed=3, n_streams=2)
    path = tmp_path / "events.csv"
    write_events_csv(records, path)
    columns = read_events_csv(path)
    assert len(columns) == len(records)
    for name in _COLUMNS:
        a, b = columns.column(name), records.column(name)
        assert a.dtype == b.dtype, name
        if name == "single_cavity_mode":
            # the file keeps the flag only where it matters: no photon in either cavity
            empty = columns.column("cavity1_photons") + columns.column("cavity2_photons") == 0
            a, b = a[empty], b[empty]
        assert a.tolist() == b.tolist(), name
    assert [e.stream_id for e in columns.events] == [e.stream_id for e in records.events]
    with pytest.raises(ValueError, match="unknown event field"):
        columns.column("whichway")
    rebuilt = EventLog(records.events, records.config_digest)
    assert rebuilt == records and hash(rebuilt) == hash(records)

    def no_records(self):
        raise AssertionError("records were built")

    monkeypatch.setattr(EventColumns, "records", no_records)
    fresh, again = read_events_csv(path), read_events_csv(path)
    assert len(fresh) == len(records)
    for name in _COLUMNS:
        fresh.column(name)
    assert np.isnan(np.concatenate([fresh._columns.screen_x, fresh._columns.scatter_x])).any()
    assert fresh == again and hash(fresh) == hash(again)  # NaN cells compare equal
    for changed in (fresh._columns._replace(stream_id=fresh._columns.stream_id + 1),
                    fresh._columns._replace(single_cavity=not fresh._columns.single_cavity)):
        assert fresh != EventLog(columns=changed)


def one_by_one(columns):
    """The records of columns, each built by DetectionEvent(); rows with
    the same cavity counts share the first WhichWayRecord made for them."""
    shared = {}
    events = []
    for i, (name, x, port, c1, c2, sx, sy, stream) in enumerate(zip(*(c.tolist() for c in columns[:8]))):
        whichway = None
        if c1 >= 0:
            single = columns.single_cavity or c1 + c2 == 0
            whichway = shared.setdefault((c1, c2), WhichWayRecord(c1, c2, single_cavity_mode=single))
        events.append(DetectionEvent(
            i, name, screen_x=None if x != x else x, mz_port=None if port < 0 else MZ_PORTS[port],
            whichway=whichway, scatter_xy=None if sx != sx else (sx, sy), stream_id=stream,
        ))
    return tuple(events)


_ABSORBING = "scenario = mz_weak_screen\nweak_screen.transmittance = 0.5\nweak_screen.scatter_fraction = 0.1\n"


@pytest.mark.parametrize("n_streams", [1, 3])
@pytest.mark.parametrize("preset", [*PRESET_NAMES, "absorbing_weak_screen"])
def test_bulk_built_records_equal_one_by_one_records(preset, n_streams):
    config = parse_config(_ABSORBING) if preset == "absorbing_weak_screen" else build_preset(preset)
    log = run_experiment(config, 900, seed=21, n_streams=n_streams)
    assert log._columns is not None and log._events is not None  # both kept
    expected = one_by_one(log._columns)
    assert log.events == expected
    assert [hash(e) for e in log.events] == [hash(e) for e in expected]
    assert [repr(e) for e in log.events] == [repr(e) for e in expected]
    # one shared WhichWayRecord per cavity pair, placed as the rebuild places them
    ids, expected_ids = {}, {}
    for got, want in zip(log.events, expected):
        assert ids.setdefault(id(got.whichway), id(want.whichway)) == id(want.whichway)
        assert expected_ids.setdefault(id(want.whichway), id(got.whichway)) == id(got.whichway)
    assert len(ids) == len({(c1, c2) for c1, c2 in zip(*(c.tolist() for c in log._columns[3:5]))})
    for event in log.events[:3] + log.events[-3:]:
        for f in dataclasses.fields(DetectionEvent):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(event, f.name, getattr(event, f.name))
    if config.single_cavity:
        assert all(e.whichway.single_cavity_mode for e in log.events)


def columns_of(screen_x=np.nan, mz_port=-1, scatter_xy=(np.nan, np.nan)):
    """One-row EventColumns with the given terminal cells."""
    return EventColumns(
        np.array(["run"], dtype=object), np.array([screen_x]), np.array([mz_port], dtype=np.int8),
        np.array([-1], dtype=np.int8), np.array([-1], dtype=np.int8),
        np.array([scatter_xy[0]]), np.array([scatter_xy[1]]), np.array([0]),
    )


@pytest.mark.parametrize("cells,kwargs", [
    ({}, {}),
    ({"screen_x": 0.5, "mz_port": 0}, {"screen_x": 0.5, "mz_port": "x"}),
    ({"screen_x": 0.5, "scatter_xy": (1.0, 2.0)}, {"screen_x": 0.5, "scatter_xy": (1.0, 2.0)}),
    ({"mz_port": 2}, {"mz_port": 2}),
])
def test_bulk_builder_raises_the_constructor_messages(cells, kwargs):
    with pytest.raises(ValueError) as direct:
        DetectionEvent(0, "run", **kwargs)
    for build in (columns_of(**cells).check, columns_of(**cells).records):
        with pytest.raises(ValueError, match=f"^{re.escape(str(direct.value))}$"):
            build()


def test_bulk_builder_reads_only_port_code_minus_one_as_no_port():
    assert columns_of(screen_x=0.5).records() == (DetectionEvent(0, "run", screen_x=0.5),)
    with pytest.raises(ValueError, match=re.escape("mz_port must be one of ('x', 'y'), got -2")):
        columns_of(screen_x=0.5, mz_port=-2).records()


def test_event_log_is_immutable_and_built_from_one_source():
    log = EventLog((DetectionEvent(0, "run", screen_x=0.0),), "digest")
    with pytest.raises(dataclasses.FrozenInstanceError):
        log.config_digest = ""
    with pytest.raises(AttributeError):
        log.events = ()
    assert log == EventLog((DetectionEvent(0, "run", screen_x=0.0),), "digest")
    assert log != EventLog((DetectionEvent(0, "run", screen_x=0.0),))
    assert hash(log) == hash(EventLog((DetectionEvent(0, "run", screen_x=0.0),), "digest"))
    with pytest.raises(ValueError):
        EventLog()


def test_event_log_requires_dense_ids():
    events = [DetectionEvent(i, "run", screen_x=float(i)) for i in range(4)]
    log = EventLog(tuple(events))
    assert len(log) == 4
    with pytest.raises(ValueError):
        EventLog((DetectionEvent(1, "run", screen_x=0.0),))


def test_sampling_grid_centers():
    grid = sampling_grid(0.0, 1.0, 4)
    np.testing.assert_allclose(grid, [0.125, 0.375, 0.625, 0.875])
    widths = np.diff(grid)
    np.testing.assert_allclose(widths, widths[0])
    with pytest.raises(ValueError):
        sampling_grid(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        sampling_grid(0.0, 1.0, 0)


def test_sample_position_hits_the_only_weighted_cell():
    grid = sampling_grid(0.0, 1.0, 10)
    weights = np.zeros(10)
    weights[3] = 1.0
    g = RngStream(1, 0).generator()
    width = grid[1] - grid[0]
    for _ in range(100):
        x = sample_position(grid, weights, g)
        assert abs(x - grid[3]) <= width / 2.0


def test_sample_position_consumes_two_uniforms():
    grid = sampling_grid(0.0, 1.0, 8)
    weights = np.ones(8)
    g = RngStream(2, 0).generator()
    ref = RngStream(2, 0).generator()
    for _ in range(50):
        sample_position(grid, weights, g)
        ref.random()
        ref.random()
    assert g.random() == ref.random()


def test_sample_position_rejects_bad_profiles():
    grid = sampling_grid(0.0, 1.0, 4)
    g = RngStream(0, 0).generator()
    with pytest.raises(ValueError):
        sample_position(grid, np.zeros(4), g)
    with pytest.raises(ValueError):
        sample_position(grid, np.array([1.0, -1.0, 1.0, 1.0]), g)
    with pytest.raises(ValueError):
        sample_position(grid, np.ones(3), g)


def test_vectorized_sampling_equals_scalar_loop():
    grid = sampling_grid(-1.0, 1.0, 64)
    weights = 1.0 + np.cos(np.linspace(0, 6 * np.pi, 64))
    block = sample_positions(grid, weights, RngStream(9, 0).generator(), 257)
    g = RngStream(9, 0).generator()
    loop = np.array([sample_position(grid, weights, g) for _ in range(257)])
    np.testing.assert_array_equal(block, loop)


def test_sample_positions_zero_draws():
    grid = sampling_grid(0.0, 1.0, 4)
    out = sample_positions(grid, np.ones(4), RngStream(0, 0).generator(), 0)
    assert out.size == 0
    with pytest.raises(ValueError):
        sample_positions(grid, np.ones(4), RngStream(0, 0).generator(), -1)


def test_sample_distribution_tracks_weights():
    # chi-square goodness of fit of binned draws against the profile
    n_cells = 32
    grid = sampling_grid(0.0, 1.0, n_cells)
    weights = 1.0 + 0.8 * np.sin(np.linspace(0.3, 9.0, n_cells)) ** 2
    draws = sample_positions(grid, weights, RngStream(42, 0).generator(), 100_000)
    counts, _ = np.histogram(draws, bins=n_cells, range=(0.0, 1.0))
    expected = weights / weights.sum() * counts.sum()
    _, p = stats.chisquare(counts, expected)
    assert p > 0.01


def test_samples_stay_within_half_cell_of_the_grid():
    grid = sampling_grid(-2.0, 2.0, 16)
    width = grid[1] - grid[0]
    draws = sample_positions(grid, np.ones(16), RngStream(3, 0).generator(), 2_000)
    assert np.all(draws >= grid[0] - width / 2.0)
    assert np.all(draws <= grid[-1] + width / 2.0)
