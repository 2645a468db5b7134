"""Random streams, the event log and its records, and inverse-CDF position sampling."""

import ast
import dataclasses
import gc
import importlib.util
import itertools
import re
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import event_columns
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sample_position
from scipy import stats

from fringelab import montecarlo
from fringelab.config import PRESET_NAMES, build_preset, parse_config
from fringelab.experiments import run_experiment
from fringelab.io import read_events_csv, write_events_csv
from fringelab.montecarlo import (
    MZ_PORTS,
    DetectionEvent,
    EventColumns,
    EventLog,
    RngStream,
    WhichWayRecord,
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


def test_event_can_carry_whichway_tag():
    record = WhichWayRecord(1, 0)
    event = DetectionEvent(0, "run", screen_x=0.0, whichway=record)
    assert event.whichway.inferred_path == 1


_EVENT = {"event_id": 3, "experiment": "run", "screen_x": 0.25}


@pytest.mark.parametrize("changes", [
    {},
    {"screen_x": None, "mz_port": "y", "stream_id": 2},
    {"screen_x": None, "scatter_xy": (1e-6, 0.0), "whichway": WhichWayRecord(0, 1)},
])
def test_event_record_contract(changes):
    # a record is a value: equal fields give equal, equally hashed records, and none can be assigned
    base = DetectionEvent(**_EVENT)
    kwargs = {**_EVENT, **changes}
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
    # one record per count pair, the import-time table's, shared by the run's log and the log read back
    shared = {id(e.whichway): e.whichway for events in (log.events, read_events_csv(path).events) for e in events}
    assert len(shared) == 2
    for record in shared.values():
        fresh = WhichWayRecord(record.cavity1_photons, record.cavity2_photons)
        assert record == fresh
        assert hash(record) == hash(fresh)
        assert montecarlo._WHICHWAY_OR_NONE[3 * record.cavity1_photons + record.cavity2_photons + 4] is record


def test_whichway_record_is_one_class_wherever_it_is_imported():
    import fringelab
    from fringelab import measurement

    assert fringelab.WhichWayRecord is measurement.WhichWayRecord is montecarlo.WhichWayRecord is WhichWayRecord
    assert WhichWayRecord.__module__ == "fringelab.montecarlo"


def test_montecarlo_imports_no_fringelab_module():
    # the record types live in montecarlo so that it needs no sibling, at import or lazily
    tree = ast.parse(Path(montecarlo.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not [name for name in imported if name.startswith(".") or name.split(".")[0] == "fringelab"]


def test_a_dropped_copy_of_the_record_module_is_freed():
    # the shared records refer to their class and so to the module's globals; nothing the
    # collector cannot see may hold them, or a module dropped from sys.modules stays alive
    spec = importlib.util.spec_from_file_location("fringelab._montecarlo_copy", montecarlo.__file__)
    copy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = copy  # dataclass() looks its module up while the class is built
    try:
        spec.loader.exec_module(copy)
    finally:
        del sys.modules[spec.name]
    events = copy.EventLog(event_columns(("run", 0.5, None, 0, 1))).events  # takes from the copy's table
    assert events[0].whichway is copy._WHICHWAY_OR_NONE[5] and type(events[0].whichway) is not WhichWayRecord
    record_class, function = weakref.ref(copy.WhichWayRecord), weakref.ref(copy._records)
    del copy, events
    gc.collect()
    assert record_class() is None and function() is None


def test_event_rejects_any_attribute_assignment():
    event = DetectionEvent(0, "run", screen_x=0.5)
    for name in ("extra", "screen_x"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field {name!r}$"):
            setattr(event, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field {name!r}$"):
            delattr(event, name)
    assert event == DetectionEvent(0, "run", screen_x=0.5)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_record_and_column_logs_give_equal_columns(tmp_path, monkeypatch, preset):
    records = run_experiment(build_preset(preset), 600, seed=3, n_streams=2)
    path = tmp_path / "events.csv"
    write_events_csv(records, path)
    columns = read_events_csv(path)
    assert columns == records
    for name in montecarlo.EVENT_FIELDS:
        assert columns.column(name).dtype == records.column(name).dtype, name
    assert columns.events == records.events
    with pytest.raises(ValueError, match="unknown event field"):
        columns.column("whichway")

    def no_records(c):
        raise AssertionError("records were built")

    monkeypatch.setattr(montecarlo, "_records", no_records)
    fresh, again = read_events_csv(path), read_events_csv(path)
    assert len(fresh) == len(records)
    for name in montecarlo.EVENT_FIELDS:
        fresh.column(name)
    assert np.isnan(np.concatenate([fresh._columns.screen_x, fresh._columns.scatter_x])).any()
    assert fresh == again and hash(fresh) == hash(again)  # NaN cells compare equal
    assert fresh != EventLog(fresh._columns._replace(stream_id=fresh._columns.stream_id + 1))


def one_by_one(columns):
    """The records of columns, each built by DetectionEvent(); rows with
    the same cavity counts share the first WhichWayRecord made for them."""
    shared = {}
    events = []
    for i, (name, x, port, c1, c2, sx, sy, stream) in enumerate(zip(*(c.tolist() for c in columns))):
        whichway = None
        if c1 >= 0:
            whichway = shared.setdefault((c1, c2), WhichWayRecord(c1, c2))
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
    assert all(type(e) is DetectionEvent for e in log.events)  # no _Row is left
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


def test_the_record_builder_fills_every_event_slot():
    # a field added to DetectionEvent is a slot _Row inherits, which _records must then fill;
    # _Row adds no slot, so a row's retype to its base compares no slot layouts
    row = montecarlo._Row
    assert row.__bases__ == (DetectionEvent,) and row.__slots__ == ()
    assert row.__setattr__ is object.__setattr__ and row.__delattr__ is object.__delattr__
    assert "__init__" not in vars(row)
    assert DetectionEvent.__slots__ == tuple(f.name for f in dataclasses.fields(DetectionEvent))


@pytest.mark.parametrize("enabled", [True, False])
def test_building_records_leaves_the_collector_as_it_was(monkeypatch, enabled):
    logs = [run_experiment(build_preset("young_baseline"), 300, seed=2, records=False) for _ in range(2)]
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(logs[0].events) == 300
        assert gc.isenabled() is enabled

        def broken(present, values):
            raise RuntimeError("spread failed")

        monkeypatch.setattr(montecarlo, "_spread", broken)
        with pytest.raises(RuntimeError, match="spread failed"):
            logs[1].events
        assert gc.isenabled() is enabled
        assert logs[1]._events is None
    finally:
        gc.enable() if was else gc.disable()


def test_records_leave_no_cyclic_garbage():
    # the premise of pausing the collector while records are built: they form no cycle it could free
    logs = [run_experiment(build_preset(preset), 500, seed=6, n_streams=2, records=False) for preset in PRESET_NAMES]
    logs.append(run_experiment(parse_config(_ABSORBING), 500, seed=6, records=False))
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert sum(len(log.events) for log in logs) == sum(map(len, logs))
        del logs
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("n_streams", [1, 3])
@pytest.mark.parametrize("preset", [*PRESET_NAMES, "absorbing_weak_screen"])
def test_read_back_log_equals_the_run(tmp_path, preset, n_streams):
    config = parse_config(_ABSORBING) if preset == "absorbing_weak_screen" else build_preset(preset)
    log = run_experiment(config, 2000, seed=7, n_streams=n_streams)
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    again = read_events_csv(path)
    assert again == log
    assert again.events == log.events


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# (screen_x, port code, scatter pair) of each terminal kind
_TERMINALS = st.one_of(
    st.builds(lambda x: (x, -1, (np.nan, np.nan)), _FLOATS),
    st.builds(lambda port: (np.nan, port, (np.nan, np.nan)), st.sampled_from(range(len(MZ_PORTS)))),
    st.builds(lambda x, y: (np.nan, -1, (x, y)), _FLOATS, _FLOATS),
)
_ROWS = st.tuples(st.sampled_from(["run", "young_baseline", "mz_weak_screen", ""]), _TERMINALS,
                  st.sampled_from([(-1, -1), (0, 0), (0, 1), (1, 0)]), st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_ROWS, max_size=30))
def test_bulk_builder_fills_every_mix_of_rows_as_the_constructor_does(rows):
    # mixes the presets never make: a partly present screen_x, ports next to
    # scatter, cavity pairs (0, 0) and (0, 1) in one log
    columns = event_columns(*((name, x, port, *pair, *xy, stream) for name, (x, port, xy), pair, stream in rows))
    got, expected = EventLog(columns).events, one_by_one(columns)
    assert got == expected
    assert [hash(e) for e in got] == [hash(e) for e in expected]
    assert [repr(e) for e in got] == [repr(e) for e in expected]
    ids, expected_ids = {}, {}
    for event, want in zip(got, expected):
        assert ids.setdefault(id(event.whichway), id(want.whichway)) == id(want.whichway)
        assert expected_ids.setdefault(id(want.whichway), id(event.whichway)) == id(event.whichway)
    assert len(ids) == len({pair for _, _, pair, _ in rows})


def test_bulk_builder_reads_only_port_code_minus_one_as_no_port():
    assert EventLog(event_columns(("run", 0.5))).events == (DetectionEvent(0, "run", screen_x=0.5),)
    with pytest.raises(ValueError, match=re.escape("mz_port must be one of ('x', 'y'), got -2")):
        EventLog(event_columns(("run", 0.5, -2)))


def test_event_log_is_immutable_and_built_from_one_source():
    log = EventLog(event_columns(("run", 0.0)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        log._columns = log._columns
    with pytest.raises(AttributeError):
        log.events = ()
    assert log == EventLog(event_columns(("run", 0.0)))
    assert hash(log) == hash(EventLog(event_columns(("run", 0.0))))
    assert log._events is None  # records are built from the checked columns on first read
    assert log.events is log.events
    # the rows stay as checked: no column can be edited in place, not even the one column() hands out
    for column in (*log._columns, log.column("experiment")):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


def test_a_lone_block_is_joined_as_it_is_and_more_are_concatenated():
    a = event_columns(("run", 0.1), ("run", None, "x"))
    b = event_columns(("run", None, None, None, None, 1.0, 2.0))
    assert all(got is want for got, want in zip(EventColumns.join([a]), a))
    joined = EventColumns.join(iter([a, b]))
    assert EventLog(joined) == EventLog(event_columns(*(("run", 0.1), ("run", None, "x"),
                                                        ("run", None, None, None, None, 1.0, 2.0))))


#: EventColumns.check()'s rules in the order it runs them: the start of
#: each one's message, and whether a row (experiment, screen_x, port code,
#: cavity codes, scatter pair) breaks it.
_CHECK_RULES = [
    ("cavity counts must both be present or both empty", lambda n, x, p, c1, c2, sx, sy: (c1 < 0) != (c2 < 0)),
    ("at most one photon per particle", lambda n, x, p, c1, c2, sx, sy: c1 + c2 > 1),
    ("scatter cells must both be present or both empty", lambda n, x, p, c1, c2, sx, sy: np.isnan(sx) != np.isnan(sy)),
    ("exactly one terminal field must be set",
     lambda n, x, p, c1, c2, sx, sy: (not np.isnan(x)) + (p >= 0) + (not np.isnan(sx)) != 1),
    ("screen_x must be finite", lambda n, x, p, c1, c2, sx, sy: np.isinf(x)),
    ("scatter_xy must be finite", lambda n, x, p, c1, c2, sx, sy: np.isinf(sx) or np.isinf(sy)),
    ("mz_port must be one of", lambda n, x, p, c1, c2, sx, sy: not -1 <= p < len(MZ_PORTS)),
    ("cavity1_photons must be 0 or 1", lambda n, x, p, c1, c2, sx, sy: not -1 <= c1 <= 1),
    ("cavity2_photons must be 0 or 1", lambda n, x, p, c1, c2, sx, sy: not -1 <= c2 <= 1),
    ("experiment must be a str", lambda n, x, p, c1, c2, sx, sy: not isinstance(n, str)),
    ("experiment must hold no comma or line break", lambda n, x, p, c1, c2, sx, sy: isinstance(n, str) and "," in n),
]
_CELLS = (("run", "a,b", 5), (0.1, np.nan, np.inf), (-1, 0, 2, -2), *[(-2, -1, 0, 1, 3)] * 2,
          (np.nan, 0.1, np.inf), (np.nan, 0.2, -np.inf))


def _rows_breaking():
    """{broken rules: the first row of the _CELLS grid that breaks exactly those}."""
    rows = {}
    for row in itertools.product(*_CELLS):
        rows.setdefault(frozenset(k for k, (_, broken) in enumerate(_CHECK_RULES) if broken(*row)), row)
    return rows


_BREAKING = _rows_breaking()
_PAIRS = list(itertools.combinations(range(len(_CHECK_RULES)), 2))


@pytest.mark.parametrize("first,second", _PAIRS, ids=[f"{i}-{j}" for i, j in _PAIRS])
def test_of_two_broken_rules_check_raises_the_earlier(first, second):
    message = f"^{re.escape(_CHECK_RULES[first][0])}"
    # in one row, when a row can break both and no rule before them
    one_row = [row for broken, row in _BREAKING.items() if second in broken and min(broken) == first]
    if one_row:
        with pytest.raises(ValueError, match=message):
            event_columns((*one_row[0], 0)).check()
    else:  # a finite rule needs its own terminal field, and a name is a str or not
        assert (first, second) in ((4, 5), (9, 10))
    # in two rows, the later rule broken in the first row
    lone = [_BREAKING[frozenset({k})] for k in (second, first)]
    with pytest.raises(ValueError, match=message):
        event_columns(*((*row, 0) for row in lone)).check()


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


_NAN, _INF, _BIG = float("nan"), float("inf"), 1e308


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, message", [
    ([1.0, _NAN, 1.0], "profile values must be finite"),
    ([_NAN, -1.0, 1.0], "profile values must be finite"),
    ([-1.0, _NAN, 1.0], "profile values must be finite"),
    ([1.0, _INF, 1.0], "profile values must be finite"),
    ([1.0, -_INF, 1.0], "profile values must be finite"),
    ([_INF, -_INF], "profile values must be finite"),
    ([1.0, -1.0, 1.0], "profile values must be nonnegative"),
    ([1.0, -0.0, -1e-300], "profile values must be nonnegative"),
    ([0.0, 0.0, 0.0], "profile must have at least one positive value"),
    ([0.0, -0.0], "profile must have at least one positive value"),
    ([], "profile must be a nonempty 1-D array"),
    ([[1.0, 1.0], [1.0, 1.0]], "profile must be a nonempty 1-D array"),
    ([_BIG, _BIG, 1.0], "profile sum must be finite, got inf"),
    ([1.0, _BIG, 0.0, _BIG], "profile sum must be finite, got inf"),
], ids=["nan", "nan then negative", "negative then nan", "inf", "-inf", "inf and -inf", "negative",
        "tiny negative", "zeros", "signed zeros", "empty", "2-D", "overflow", "overflow late"])
def test_a_bad_profile_is_refused_with_its_message_and_no_warning(weights, message):
    with pytest.raises(ValueError) as refused:
        montecarlo._profile_cdf(weights)
    assert str(refused.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights", [
    [1.0], [0.0, 2.0, 0.0], [-0.0, 5e-324], [_BIG, 0.0, 0.0], [_BIG / 2, _BIG / 2],
    np.linspace(0.0, 1.0, 4096),
], ids=["one cell", "one positive cell", "a subnormal and a negative zero", "largest finite sum",
        "two halves of it", "grid"])
def test_a_good_profile_gives_its_running_sum(weights):
    np.testing.assert_array_equal(montecarlo._profile_cdf(weights), np.cumsum(np.asarray(weights, dtype=float)))
