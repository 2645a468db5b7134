"""File formats: events CSV round-trips, histogram/metrics CSV, PGM bytes."""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import event_columns
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fringelab.analysis import (
    DualityResult,
    FringeHistogram,
    FringeMetrics,
    MetricValue,
)
from fringelab.cli import main
from fringelab.config import build_preset
from fringelab.experiments import run_experiment
from fringelab.io import (
    EVENTS_HEADER,
    HISTOGRAM_HEADER,
    METRICS_HEADER,
    read_events_csv,
    write_events_csv,
    write_histogram_csv,
    write_histogram_pgm,
    write_metrics_csv,
)
from fringelab.montecarlo import EventColumns, EventLog


def sample_log():
    return EventLog(event_columns(
        ("mixed", -0.012345),
        ("mixed", None, "y"),
        ("mixed", 0.5, None, 1, 0, None, None, 3),
        ("mixed", 0.25, None, 0, 0),
        ("mixed", None, None, None, None, 1.5e-6, 1.0e-6),
    ))


def test_events_round_trip_preserves_every_field(tmp_path):
    path = tmp_path / "events.csv"
    log = sample_log()
    write_events_csv(log, path)
    again = read_events_csv(path)
    assert again.events == log.events
    # the file does not carry the config digest
    assert again.config_digest == ""


def test_events_header_is_stable(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(sample_log(), path)
    first = path.read_text().splitlines()[0]
    assert first == EVENTS_HEADER
    assert first == "event_id,experiment,screen_x,mz_port,cavity1_photons,cavity2_photons,scatter_x,scatter_y,stream_id"


def test_empty_log_writes_header_only(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(EventLog(event_columns()), path)
    assert path.read_text() == EVENTS_HEADER + "\n"
    assert len(read_events_csv(path)) == 0


def test_single_event_is_two_lines(tmp_path):
    path = tmp_path / "events.csv"
    write_events_csv(EventLog(event_columns(("run", 0.1))), path)
    assert len(path.read_text().splitlines()) == 2


def test_write_is_byte_deterministic(tmp_path):
    log = run_experiment(build_preset("young_micromaser"), 200, seed=4)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_events_csv(log, a)
    write_events_csv(log, b)
    assert a.read_bytes() == b.read_bytes()


_GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden_digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(_GOLDEN["digests"]))
def test_block_boundaries_leave_the_golden_bytes(tmp_path, monkeypatch, key):
    # 2000 rows in 3 streams of 667, 667 and 666: blocks of 7 straddle each stream change
    preset, streams = key.split("/streams=")
    log = run_experiment(build_preset(preset), _GOLDEN["events"], _GOLDEN["seed"], n_streams=int(streams))
    path = tmp_path / "events.csv"
    for block in (1, 7, 2000):
        monkeypatch.setattr("fringelab.io.WRITE_BLOCK", block)
        write_events_csv(log, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _GOLDEN["digests"][key], block


def test_floats_round_trip_exactly(tmp_path):
    # repr() is the shortest string that parses back to the same double
    value = 0.1 + 0.2
    path = tmp_path / "events.csv"
    write_events_csv(EventLog(event_columns(("run", value))), path)
    again = read_events_csv(path)
    assert again.events[0].screen_x == value


def test_reader_rejects_wrong_header(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("id,who,where\n")
    with pytest.raises(ValueError, match="header"):
        read_events_csv(path)


def test_reader_rejects_short_rows(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS_HEADER + "\n0,run,0.1\n")
    with pytest.raises(ValueError, match="9 fields"):
        read_events_csv(path)


def test_reader_rejects_half_cavity_rows(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS_HEADER + "\n0,run,0.1,,1,,,,0\n")
    with pytest.raises(ValueError, match="cavity"):
        read_events_csv(path)


def test_reader_restores_single_cavity_mode(tmp_path):
    path = tmp_path / "events.csv"
    log = EventLog(event_columns(("run", 0.1, None, 0, 0)))
    write_events_csv(log, path)
    again = read_events_csv(path)
    assert again.events[0].whichway.single_cavity_mode


def test_histogram_csv_layout(tmp_path):
    h = FringeHistogram(np.array([0.0, 0.5, 1.0]), np.array([3.0, 7.0]))
    path = tmp_path / "hist.csv"
    write_histogram_csv(h, path)
    lines = path.read_text().splitlines()
    assert lines[0] == HISTOGRAM_HEADER
    assert lines[1] == "0.0,0.5,3.0"
    assert lines[2] == "0.5,1.0,7.0"


def test_metrics_csv_rows_and_flags(tmp_path):
    metrics = FringeMetrics(
        visibility=MetricValue(0.875),
        fringe_spacing=MetricValue(None, "insufficient maxima"),
        distinguishability=MetricValue(1.0),
        duality=DualityResult(1.765625, satisfied=False),
    )
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, path)
    lines = path.read_text().splitlines()
    assert lines[0] == METRICS_HEADER
    assert lines[1] == "visibility,0.875,"
    assert lines[2] == "fringe_spacing,,insufficient maxima"
    assert lines[3] == "distinguishability,1.0,"
    assert lines[4] == "duality_lhs,1.765625,violated"


def test_metrics_csv_without_duality(tmp_path):
    metrics = FringeMetrics(
        visibility=MetricValue(None, "insufficient fringes"),
        fringe_spacing=MetricValue(None, "insufficient maxima"),
        distinguishability=MetricValue(None, "no which-way records"),
    )
    path = tmp_path / "metrics.csv"
    write_metrics_csv(metrics, path)
    assert path.read_text().splitlines()[4] == "duality_lhs,,"


def test_pgm_bytes(tmp_path):
    h = FringeHistogram(np.arange(5.0), np.array([0.0, 51.0, 102.0, 204.0]))
    path = tmp_path / "hist.pgm"
    write_histogram_pgm(h, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 1\n255\n")
    pixels = data[len(b"P5\n4 1\n255\n"):]
    # linear map, peak -> 255, rounded to nearest
    assert list(pixels) == [0, round(51 / 204 * 255), round(102 / 204 * 255), 255]


def test_pgm_all_zero_counts(tmp_path):
    h = FringeHistogram(np.arange(4.0), np.zeros(3))
    path = tmp_path / "hist.pgm"
    write_histogram_pgm(h, path)
    assert path.read_bytes() == b"P5\n3 1\n255\n" + bytes(3)


def test_reader_builds_no_records_until_asked(tmp_path):
    path = tmp_path / "events.csv"
    log = run_experiment(build_preset("young_micromaser"), 300, seed=2)
    write_events_csv(log, path)
    again = read_events_csv(path)
    assert again._events is None
    np.testing.assert_array_equal(again.column("screen_x"), log.column("screen_x"))
    assert again._events is None
    assert again.events == log.events
    assert again.events is again.events  # built once, then kept


def test_reader_keeps_one_string_per_distinct_cell(tmp_path):
    path = tmp_path / "events.csv"
    for preset in ("young_micromaser", "mz_weak_screen"):
        write_events_csv(run_experiment(build_preset(preset), 3000, seed=5), path)
        events = read_events_csv(path).events
        assert len({id(e.experiment) for e in events}) == 1
        assert len({id(e.mz_port) for e in events if e.mz_port is not None}) <= 2
    path.write_text(EVENTS_HEADER + "\n" + "".join(
        f"{i},{'ab'[i % 2]}{'c' * 3},0.5,,,,,,0\n" for i in range(3000)))
    experiments = {}
    for e in read_events_csv(path).events:
        experiments.setdefault(e.experiment, set()).add(id(e.experiment))
    assert {name: len(ids) for name, ids in experiments.items()} == {"accc": 1, "bccc": 1}


_GOOD_ROWS = ("0,run,0.1,,,,,,0", "1,run,,y,,,,,2", "2,run,0.2,,0,1,,,0", "3,run,,,,,1e-06,2e-06,1")

# (why, bad row with event id 4) pairs: each breaks one cell of a good row
_BAD_ROWS = [
    *[(f"{value} in {column}", row)
      for value in ("abc", "nan", "inf")
      for column, row in (("screen_x", f"4,run,{value},,,,,,0"),
                          ("scatter_x", f"4,run,,,,,{value},2e-06,0"),
                          ("scatter_y", f"4,run,,,,,1e-06,{value},0"))],
    ("port z", "4,run,,z,,,,,0"),
    ("half cavity pair", "4,run,0.1,,1,,,,0"),
    ("other half cavity pair", "4,run,0.1,,,0,,,0"),
    ("cavity count 2", "4,run,0.1,,2,0,,,0"),
    ("two photons", "4,run,0.1,,1,1,,,0"),
    ("half scatter pair", "4,run,,,,,1e-06,,0"),
    ("other half scatter pair", "4,run,,,,,,2e-06,0"),
    ("8 fields", "4,run,0.1,,,,,0"),
    ("10 fields", "4,run,0.1,,,,,,0,"),
    ("two terminal fields", "4,run,0.1,x,,,,,0"),
    ("no terminal field", "4,run,,,,,,,0"),
    ("id gap", "5,run,0.1,,,,,,0"),
    ("repeated id", "3,run,0.1,,,,,,0"),
    ("non-int id", "4.0,run,0.1,,,,,,0"),
    ("non-int stream", "4,run,0.1,,,,,,s"),
    ("float stream", "4,run,0.1,,,,,,1.5"),
    ("negative stream", "4,run,0.1,,,,,,-5"),
    ("stream 2**64", f"4,run,0.1,,,,,,{2**64}"),
    ("stream 2**70", f"4,run,0.1,,,,,,{2**70}"),
]


@pytest.mark.parametrize("block", [1024, 2])
@pytest.mark.parametrize("why,row", _BAD_ROWS, ids=[why for why, _ in _BAD_ROWS])
def test_analyze_names_the_line_of_a_corrupt_cell(tmp_path, capsys, monkeypatch, why, row, block):
    monkeypatch.setattr("fringelab.io.READ_BLOCK", block)
    path = tmp_path / "bad.csv"
    # header, two good rows, a blank line, two good rows: the bad row is line 7
    lines = [EVENTS_HEADER, *_GOOD_ROWS[:2], "", *_GOOD_ROWS[2:], row, "5,run,0.3,,,,,,0"]
    path.write_text("\n".join(lines) + "\n")
    code = main(["analyze", "--events", str(path),
                 "--out-hist", str(tmp_path / "h.csv"), "--out-metrics", str(tmp_path / "m.csv")])
    assert code == 3
    assert f"{path}:7: " in capsys.readouterr().err


# (rule, the row breaking it as a CSV row, the same row as columns, the message)
_ROW_RULES = [
    ("cavity pair", "0,run,0.1,,1,,,,0", event_columns(("run", 0.1, None, 1, None)),
     "cavity counts must both be present or both empty"),
    ("photon sum", "0,run,0.1,,1,1,,,0", event_columns(("run", 0.1, None, 1, 1)), "at most one photon per particle"),
    ("scatter pair", "0,run,,,,,1e-06,,0", event_columns(("run", None, None, None, None, 1e-06, None)),
     "scatter cells must both be present or both empty"),
    ("terminal field", "0,run,0.1,x,,,,,0", event_columns(("run", 0.1, "x")),
     "exactly one terminal field must be set, got 2"),
    ("cavity code", "0,run,0.1,,-2,-2,,,0", event_columns(("run", 0.1, None, -2, -2)),
     "cavity1_photons must be 0 or 1, got -2"),
    # 64 + 64 wraps to -128 in int8, under the photon-sum rule's bound
    ("cavity code past the int8 sum", "0,run,0.1,,64,64,,,0", event_columns(("run", 0.1, None, 64, 64)),
     "cavity1_photons must be 0 or 1, got 64"),
]


@pytest.mark.parametrize("rule,row,columns,message", _ROW_RULES, ids=[rule for rule, *_ in _ROW_RULES])
def test_reader_and_columns_hold_a_row_to_the_same_rule(tmp_path, rule, row, columns, message):
    path = tmp_path / "bad.csv"
    path.write_text(f"{EVENTS_HEADER}\n{row}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: {message}')}$"):
        read_events_csv(path)
    for entry in (columns.check, lambda: EventLog(columns)):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry()


# the row faults of _ROW_RULES, values the reader refuses as cells, and port codes and
# terminal fields no CSV cell can spell
_UNWRITABLE = [*((rule, columns, message) for rule, _, columns, message in _ROW_RULES),
               ("infinite screen_x", event_columns(("run", np.inf)), "screen_x must be finite, got inf"),
               ("infinite scatter", event_columns(("run", None, None, None, None, np.inf, 1.0)),
                "scatter_xy must be finite, got (inf, 1.0)"),
               ("port code 2", event_columns(("run", None, 2)), "mz_port must be one of ('x', 'y'), got 2"),
               ("no terminal field", event_columns(("run",)), "exactly one terminal field must be set, got 0"),
               ("screen and scatter", event_columns(("run", 0.5, None, None, None, 1.0, 2.0)),
                "exactly one terminal field must be set, got 2"),
               ("three terminal fields", event_columns(("run", 0.5, "x", None, None, 1.0, 2.0)),
                "exactly one terminal field must be set, got 3"),
               *((f"name {name!r}", event_columns(("run", 0.1), (name, 0.2)),
                  f"experiment must hold no comma or line break, got {name!r}")
                 for name in ("a,b", "a\nb", "a\r", "a\x0cb", "a\u2028b")),
               ("int name", event_columns(("run", 0.1), (5, 0.2)), "experiment must be a str, got 5"),
               ("bytes name", event_columns((b"run", 0.1)), "experiment must be a str, got b'run'")]


@pytest.mark.parametrize("fault,columns,message", _UNWRITABLE, ids=[fault for fault, *_ in _UNWRITABLE])
def test_writer_refuses_a_log_the_reader_refuses_and_leaves_no_file(tmp_path, fault, columns, message):
    # no log holds such columns, so none reaches the writer
    path = tmp_path / "events.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_events_csv(EventLog(columns=columns), path)
    assert not path.exists()


def test_every_log_is_checked_once(tmp_path, monkeypatch):
    checked = []
    check = EventColumns.check

    def counted(columns):
        checked.append(columns.experiment.size)
        check(columns)

    monkeypatch.setattr(EventColumns, "check", counted)
    path = tmp_path / "events.csv"
    assert main(["simulate", "--preset", "young_baseline", "--events", "10000", "--seed", "1", "--out", str(path)]) == 0
    assert checked == [10_000]  # in the log run_experiment builds, not again in the writer
    write_events_csv(run_experiment(build_preset("young_micromaser"), 3000, seed=2, records=False), path)
    checked.clear()
    read_events_csv(path)
    assert checked == [3000]  # once for the log, not once per READ_BLOCK rows
    for records in (True, False):
        checked.clear()
        run_experiment(build_preset("mz_weak_screen"), 3000, seed=2, records=records).events
        assert len(checked) == 1, records


def test_rows_that_split_into_whole_rows_of_cells_are_rejected(tmp_path):
    # 11 + 7 cells would read as two good rows if the cells were only counted
    path = tmp_path / "bad.csv"
    path.write_text(f"{EVENTS_HEADER}\n0,run,0.1,,,,,,0,run,1\n0.2,,,,,,0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected 9 fields, got 11$"):
        read_events_csv(path)


def test_id_gap_error_cites_path_and_line(tmp_path, capsys):
    path = tmp_path / "gap.csv"
    path.write_text(f"{EVENTS_HEADER}\n0,run,0.1,,,,,,0\n2,run,0.2,,,,,,0\n")
    code = main(["analyze", "--events", str(path),
                 "--out-hist", str(tmp_path / "h.csv"), "--out-metrics", str(tmp_path / "m.csv")])
    assert code == 3
    assert f"{path}:3: event ids must be dense from 0; position 1 holds id 2" in capsys.readouterr().err


def test_reader_takes_cells_as_int_and_float_read_them(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(f"{EVENTS_HEADER}\n00,run, 1e-3 ,,+1,0,,,07\n1,run,,x,,,,,{2**64 - 1}\n")
    assert read_events_csv(path) == EventLog(event_columns(("run", 0.001, None, 1, 0, None, None, 7),
                                                           ("run", None, "x", None, None, None, None, 2**64 - 1)))


_NAMES = st.text(alphabet=st.characters(exclude_characters=",",
                                       exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=8)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_COUNTS = st.sampled_from([(None, None), (1, 0), (0, 1), (0, 0)])
# (screen_x, mz_port, scatter pair) of each terminal kind
_TERMINALS = st.one_of(
    st.builds(lambda x: (x, None, (None, None)), _FLOATS),
    st.builds(lambda p: (None, p, (None, None)), st.sampled_from(("x", "y"))),
    st.builds(lambda x, y: (None, None, (x, y)), _FLOATS, _FLOATS),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.tuples(_NAMES, _TERMINALS, _COUNTS, st.integers(0, 2**64 - 1)), max_size=40),
       single_cavity=st.booleans())
def test_write_read_write_is_byte_identical(tmp_path, rows, single_cavity):
    log = EventLog(event_columns(*((name, x, port, *counts, *xy, stream) for name, (x, port, xy), counts, stream in rows),
                                 single_cavity=single_cavity))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_events_csv(log, first)
    write_events_csv(read_events_csv(first), second)
    assert second.read_bytes() == first.read_bytes()


def _reference_events_csv(log: EventLog) -> bytes:
    """The events CSV of log formatted a row at a time, every cell of every row."""
    def number(x):
        return "" if np.isnan(x) else repr(x)

    def count(k):
        return "" if k < 0 else str(k)

    lines = [EVENTS_HEADER]
    rows = zip(*(column.tolist() for column in log._columns[:-1]))
    for i, (name, x, port, c1, c2, sx, sy, stream) in enumerate(rows):
        lines.append(",".join((str(i), name, number(x), ("x", "y", "")[port], count(c1), count(c2),
                               number(sx), number(sy), str(stream))))
    return "".join(line + "\n" for line in lines).encode()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(names=st.lists(_NAMES, min_size=1, max_size=3),
       rows=st.lists(st.tuples(st.integers(0, 2), _TERMINALS, _COUNTS, st.sampled_from((0, 1, 2**64 - 1))), max_size=40))
def test_writer_matches_a_row_by_row_reference(tmp_path, monkeypatch, names, rows):
    # few names, streams and kinds of row, so a column can be the same throughout one block and vary in the next
    log = EventLog(event_columns(*((names[k % len(names)], x, port, *counts, *xy, stream)
                                   for k, (x, port, xy), counts, stream in rows)))
    path = tmp_path / "events.csv"
    for block in (1, 3, 1000):
        monkeypatch.setattr("fringelab.io.WRITE_BLOCK", block)
        write_events_csv(log, path)
        assert path.read_bytes() == _reference_events_csv(log), block


@pytest.mark.parametrize("lines,lineno", [
    ([EVENTS_HEADER, "0,run,0.1,,,,,,0", b"1,r\xffn,0.2,,,,,,0"], 3),
    # blank lines count, and a CRLF file numbers its lines as an LF file
    ([EVENTS_HEADER, "0,run,0.1,,,,,,0\r", "", b"1,run,0.2,,,,,,0\r", b"2,\xe2\x82,0.3,,,,,,0"], 5),
    # far past the first read chunk
    ([EVENTS_HEADER, *(f"{i},run,0.1,,,,,,0" for i in range(3000)), b"3000,run,0.1,,,,,,\x800"], 3002),
])
def test_analyze_cites_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, lines, lineno):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines) + b"\n")
    code = main(["analyze", "--events", str(path),
                 "--out-hist", str(tmp_path / "h.csv"), "--out-metrics", str(tmp_path / "m.csv")])
    assert code == 3
    assert f"{path}:{lineno}: 'utf-8' codec can't decode byte" in capsys.readouterr().err


def _valid_log_bytes() -> bytes:
    # a tagged screen run, then two scatter rows and two port rows of a weak-screen run
    tagged = run_experiment(build_preset("young_micromaser"), 12, seed=3)
    weak = run_experiment(build_preset("mz_weak_screen"), 400, seed=3)
    scatter_x, scatter_y = weak.column("scatter_x")[:2], weak.column("scatter_y")[:2]
    rows = [(name, x, None, c1, c2) for name, x, c1, c2 in zip(*(tagged.column(field).tolist() for field in (
        "experiment", "screen_x", "cavity1_photons", "cavity2_photons")))]
    rows += [("mz_weak_screen", None, None, None, None, x, y) for x, y in zip(scatter_x.tolist(), scatter_y.tolist())]
    rows += [("mz_weak_screen", None, port) for port in weak.column("mz_port")[:2].tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        write_events_csv(EventLog(event_columns(*rows)), path)
        return path.read_bytes()


_VALID_LOG = _valid_log_bytes()
_FLIPS = st.lists(st.tuples(st.integers(0, len(_VALID_LOG) - 1), st.integers(0, 255)), min_size=1, max_size=4)


def _flipped(flips) -> bytes:
    data = bytearray(_VALID_LOG)
    for position, value in flips:
        data[position] = value
    return bytes(data)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    st.binary(max_size=300),
    st.binary(max_size=300).map(lambda tail: EVENTS_HEADER.encode() + b"\n" + tail),
    _FLIPS.map(_flipped),
))
def test_analyze_on_arbitrary_bytes_exits_0_or_3(tmp_path, capsys, data):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    code = main(["analyze", "--events", str(path),
                 "--out-hist", str(tmp_path / "h.csv"), "--out-metrics", str(tmp_path / "m.csv")])
    assert code in (0, 3)
    capsys.readouterr()
