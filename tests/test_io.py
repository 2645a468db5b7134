"""File formats: events CSV round-trips, histogram/metrics CSV, PGM bytes."""

import hashlib
import json
import re
import tempfile
import tracemalloc
import warnings
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
from fringelab.experiments import event_blocks, run_experiment
from fringelab.io import (
    EVENTS_HEADER,
    HISTOGRAM_HEADER,
    METRICS_HEADER,
    _chunks,
    read_events_csv,
    write_event_logs,
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
    assert again == log


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


@pytest.mark.parametrize("block", [1024, 2, 1])
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


@pytest.mark.parametrize("events", [300, 10_000])
@pytest.mark.parametrize("preset", ["young_baseline", "eraser_modulation", "mz_weak_screen"])
def test_a_file_of_one_chunk_or_many_reads_back_equal_to_its_run(tmp_path, preset, events):
    log = run_experiment(build_preset(preset), events, seed=6, n_streams=2, records=False)
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    assert (len(list(_chunks(path))) == 1) is (events == 300)
    again = read_events_csv(path)
    assert again == log
    for got, want in zip(again._columns, log._columns):
        assert got.dtype == want.dtype
        assert not got.flags.writeable


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
    # simulate checks each block it draws, in the EventLog it writes, and nothing again
    assert checked == [4096, 4096, 1808]
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
@given(rows=st.lists(st.tuples(_NAMES, _TERMINALS, _COUNTS, st.integers(0, 2**64 - 1)), max_size=40))
def test_write_read_write_is_byte_identical(tmp_path, rows):
    log = EventLog(event_columns(*((name, x, port, *counts, *xy, stream) for name, (x, port, xy), counts, stream in rows)))
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
    rows = zip(*(column.tolist() for column in log._columns))
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


def _assert_writes_as_joined(path, monkeypatch, logs):
    """write_event_logs over logs writes the bytes, and returns the rows, of one log holding their rows in order."""
    joined = EventLog(EventColumns(*map(np.concatenate, zip(*(log._columns for log in logs)))))
    for block in (1, 3, 1000):
        monkeypatch.setattr("fringelab.io.WRITE_BLOCK", block)
        assert write_event_logs(iter(logs), path) == len(joined), block
        assert path.read_bytes() == _reference_events_csv(joined), block


def test_several_logs_write_as_one_log_of_their_rows(tmp_path, monkeypatch):
    # empty logs before, between and after others, and a name and a stream per log
    logs = [EventLog(event_columns(*rows)) for rows in (
        (),
        [("first", 0.1 * k, None, None, None, None, None, 7) for k in range(5)],
        (),
        (),
        [("second", None, "xy"[k % 2], None, None, None, None, 2**64 - 1) for k in range(4)],
        [("third", None, None, 1, 0, 0.5, -0.25, k % 2) for k in range(3)],
        (),
        [("first", -1.5, None, 0, 0, None, None, 7)],
        (),
    )]
    _assert_writes_as_joined(tmp_path / "events.csv", monkeypatch, logs)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(logs=st.lists(st.tuples(
    st.lists(_NAMES, min_size=1, max_size=2),
    st.lists(st.sampled_from((0, 1, 2**64 - 1)), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(0, 1), _TERMINALS, _COUNTS, st.integers(0, 1)), max_size=8),
), min_size=2, max_size=5))
def test_several_logs_write_as_their_join(tmp_path, monkeypatch, logs):
    # each log draws its own names and streams, and many draw no rows at all
    logs = [EventLog(event_columns(*((names[i % len(names)], x, port, *counts, *xy, streams[j % len(streams)])
                                     for i, (x, port, xy), counts, j in rows)))
            for names, streams, rows in logs]
    _assert_writes_as_joined(tmp_path / "events.csv", monkeypatch, logs)


_MANY_ROWS = [f"{i},run,0.1,,,,,,0" for i in range(10_000)]  # about 190 KB, three default chunks


@pytest.mark.parametrize("lines,lineno", [
    ([EVENTS_HEADER, "0,run,0.1,,,,,,0", b"1,r\xffn,0.2,,,,,,0"], 3),
    # blank lines count, and a CRLF file numbers its lines as an LF file
    ([EVENTS_HEADER, "0,run,0.1,,,,,,0\r", "", b"1,run,0.2,,,,,,0\r", b"2,\xe2\x82,0.3,,,,,,0"], 5),
    # far past the first read chunk of 192 or 64 bytes
    ([EVENTS_HEADER, *(f"{i},run,0.1,,,,,,0" for i in range(3000)), b"3000,run,0.1,,,,,,\x800"], 3002),
    # past the first default chunk too, in a CRLF file with blank lines
    ([EVENTS_HEADER, *(f"{row}\r" for row in _MANY_ROWS), "", "\r", b"10000,run,\xff,,,,,,0"], 10_004),
    # a bad row before the byte: the byte is cited first, wherever it is
    ([EVENTS_HEADER, "0,run,abc,,,,,,0", *_MANY_ROWS[1:], b"10000,run,0.1,,,,,,0\xc3"], 10_002),
    # a truncated sequence at the end of the file
    ([EVENTS_HEADER, *_MANY_ROWS[:5000], b"5000,run\xe2\x82"], 5002),
])
def test_analyze_cites_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys, monkeypatch, lines, lineno):
    path = tmp_path / "bad.csv"
    data = b"\n".join(line if isinstance(line, bytes) else line.encode() for line in lines) + b"\n"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:  # the message names the byte's position in the whole file
        data.decode("utf-8")
    for block in (1024, 3, 1):  # chunks of 64 KiB, 192 and 64 bytes
        monkeypatch.setattr("fringelab.io.READ_BLOCK", block)
        code = main(["analyze", "--events", str(path),
                     "--out-hist", str(tmp_path / "h.csv"), "--out-metrics", str(tmp_path / "m.csv")])
        assert code == 3
        assert capsys.readouterr().err == f"fringelab: error: {path}:{lineno}: {whole.value}\n", block


def _border_file(row: int, fault: str, newline: str) -> tuple[bytes, int]:
    """40 rows, a blank line after every seventh, with the fault in row
    row: the bytes and the fault's line number."""
    lines = [EVENTS_HEADER]
    for i in range(40):
        lines.append(f"{i},run,{0.1 * i!r},,,,,,0")
        if i == row:
            fault_line = len(lines)
            lines[-1] = {"corrupt cell": f"{i},run,0.1x,,,,,,0", "form feed": f"{i},run,0.1\x0c,,,,,,0",
                         "id gap": f"{i + 1},run,0.1,,,,,,0", "row rule": f"{i},run,0.1,x,,,,,0",
                         "not utf8": f"{i},r\udcffn,0.1,,,,,,0"}[fault]
        if i % 7 == 6:
            lines.append("")
    data = newline.join(lines).encode("utf-8", "surrogateescape") + newline.encode()
    return data, fault_line


_BORDER_FAULTS = [
    ("corrupt cell", "could not convert string to float: '0.1x'"),
    ("form feed", "expected 9 fields, got 3"),  # str.splitlines breaks the row there
    ("id gap", "event ids must be dense from 0; position {row} holds id {next}"),
    ("row rule", "exactly one terminal field must be set, got 2"),
    ("not utf8", None),
]


@pytest.mark.parametrize("fault,message", _BORDER_FAULTS, ids=[fault for fault, _ in _BORDER_FAULTS])
def test_reader_cites_a_fault_at_every_chunk_border(tmp_path, monkeypatch, fault, message):
    # the fault moves through every row of a file read in chunks of 64 and 128 bytes,
    # so it sits on each side of a border and straddles some, as do the "\r\n" ends
    path = tmp_path / "bad.csv"
    for row in range(40):
        for newline in ("\n", "\r\n"):
            data, lineno = _border_file(row, fault, newline)
            path.write_bytes(data)
            if message is None:
                with pytest.raises(UnicodeDecodeError) as whole:
                    data.decode("utf-8")
                expected = f"{path}:{lineno}: {whole.value}"
            else:
                expected = f"{path}:{lineno}: {message.format(row=row, next=row + 1)}"
            for block in (1, 2):
                monkeypatch.setattr("fringelab.io.READ_BLOCK", block)
                with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                    read_events_csv(path)


@pytest.mark.parametrize("preset", ["young_baseline", "eraser_modulation", "mz_weak_screen"])
def test_reader_holds_little_beyond_the_columns(tmp_path, preset):
    # the text is read a chunk at a time, so the peak is the decoded blocks, their join and one chunk
    path = tmp_path / "events.csv"
    write_events_csv(run_experiment(build_preset(preset), 80_000, seed=3, records=False), path)
    tracemalloc.start()
    try:
        log = read_events_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 80_000
    assert peak <= 3 * sum(column.nbytes for column in log._columns), peak


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


def _inserted(inserts, positions) -> bytes:
    data = bytearray(_VALID_LOG)
    for insert, position in sorted(zip(inserts, positions), key=lambda pair: -pair[1]):
        data[position:position] = insert
    return bytes(data)


def _read_outcome(path):
    try:
        return read_events_csv(path)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.one_of(
    _FLIPS.map(_flipped),
    st.lists(st.sampled_from([b"\r\n", b"\n", b"\r", b"\x0c", b"\xff", b"\xe2\x82", b"\n\n"]), max_size=3).flatmap(
        lambda inserts: st.lists(st.integers(0, len(_VALID_LOG)), min_size=len(inserts), max_size=len(inserts)).map(
            lambda positions: _inserted(inserts, positions))),
))
def test_chunked_reads_match_a_one_chunk_read(tmp_path, monkeypatch, data):
    # the same log or the same message, path:line and byte position included, whatever the chunk size
    path = tmp_path / "events.csv"
    path.write_bytes(data)
    monkeypatch.setattr("fringelab.io.READ_BLOCK", 10**6)
    whole = _read_outcome(path)
    for block in (1, 2):
        monkeypatch.setattr("fringelab.io.READ_BLOCK", block)
        assert _read_outcome(path) == whole, block


def _refuse(*args, **kwargs):
    raise ValueError("no numpy parse")


def _reference_coded_column(cells, decode, dtype):
    """Every coded column decoded through a dict of its distinct cells: no fill, no table."""
    values = {cell: decode(cell) for cell in set(cells)}
    return np.fromiter(map(values.__getitem__, cells), dtype=dtype, count=len(cells))


def _outcome_and_dtypes(path):
    outcome = _read_outcome(path)
    return outcome, None if isinstance(outcome, str) else [column.dtype for column in outcome._columns]


_SCREEN_ROWS = ["0,run,0.1,,1,0,,,0", "1,run,0.2,,0,1,,,1", "2,run,0.3,,1,0,,,0"]
_PORT_ROWS = ["0,run,,x,,,,,0", "1,run,,y,,,,,0", "2,run,,x,,,,,0"]
# port and cavity columns of an empty and a one-character cell: "+1" beside "" joins to two characters
_MIXED_ROWS = ["0,run,0.1,,,,,,0", "1,run,,y,1,0,,,0"]
_CODE_SPELLINGS = ("+1", "١", "2", "a", "X", "z", "0", "1", "x", "y", "", " 1", "10")
# (what, rows, row, field, spellings): each spelling in turn replaces that cell of that row
_SPELLINGS = [
    ("id 0", _SCREEN_ROWS, 0, 0, ("00", "-0", "+0", " 0", "0 ", "\t0", "", "-", "+", " ", "\t", "٠", "0_0")),
    ("id 1", _SCREEN_ROWS, 1, 0, ("00", "01", "+1", " 1", "1 ", "1_0", "١", "１", "-0", "-1", "1.0", "1e0", "0x1",
                                  "", "5", "0", "2", "+", "-", " ", str(2**63), str(2**64), str(2**63 + 1))),
    ("name", _SCREEN_ROWS, 1, 1, _CODE_SPELLINGS),
    ("cavity", _SCREEN_ROWS, 1, 4, _CODE_SPELLINGS),
    ("stream", _SCREEN_ROWS, 1, 8, _CODE_SPELLINGS),
    ("port", _PORT_ROWS, 1, 3, _CODE_SPELLINGS),
    ("cavity beside empty cells", _MIXED_ROWS, 1, 4, _CODE_SPELLINGS),
    ("port beside empty cells", _MIXED_ROWS, 1, 3, _CODE_SPELLINGS),
]


def _spelled_files(path, rows, row, field, spellings):
    """Write each spelling into field field of row row of rows at path in turn, yielding it."""
    for spelling in spellings:
        cells = rows[row].split(",")
        cells[field] = spelling
        path.write_text("\n".join([EVENTS_HEADER, *rows[:row], ",".join(cells), *rows[row + 1:]]) + "\n",
                        encoding="utf-8")
        yield spelling


@pytest.mark.parametrize("what,rows,row,field,spellings", _SPELLINGS, ids=[what for what, *_ in _SPELLINGS])
def test_fast_decode_reads_each_spelling_as_the_plain_decode_does(tmp_path, monkeypatch, what, rows, row, field,
                                                                  spellings):
    # the same log, dtypes included, or the same path:line message as int() and a per-cell decode give
    path = tmp_path / "events.csv"
    for spelling in _spelled_files(path, rows, row, field, spellings):
        for block in (1024, 1):
            monkeypatch.setattr("fringelab.io.READ_BLOCK", block)
            fast = _outcome_and_dtypes(path)
            with monkeypatch.context() as plain:
                plain.setattr(np, "fromstring", _refuse)
                plain.setattr("fringelab.io._coded_column", _reference_coded_column)
                assert fast == _outcome_and_dtypes(path), (spelling, block)


def _fromstring_before_numpy_2(text, dtype, sep):
    """np.fromstring(text, dtype=dtype, sep=sep) as numpy 1.24-1.26 runs it:
    at unmatched text it warns DeprecationWarning and returns the values read."""
    values = []
    for cell in text.split(sep) if text else []:
        read = re.match(r"\s*[+-]?\d+", cell)
        if read:  # strtoll clamps to the int64 range
            values.append(min(max(int(read.group()), -2**63), 2**63 - 1))
        if not read or cell[read.end():].strip():
            warnings.warn("string or file could not be read to its end due to unmatched data; "
                          "this will raise a ValueError in the future.", DeprecationWarning, stacklevel=2)
            break
    return np.array(values, dtype=dtype)


@pytest.mark.parametrize("what,rows,row,field,spellings", _SPELLINGS[:2], ids=[what for what, *_ in _SPELLINGS[:2]])
def test_a_numpy_before_2_that_warns_reads_as_numpy_2_does(tmp_path, monkeypatch, what, rows, row, field, spellings):
    path = tmp_path / "events.csv"
    for spelling in _spelled_files(path, rows, row, field, (*spellings, "0,", ",0")):  # commas numpy parses too
        expected = _outcome_and_dtypes(path)
        with monkeypatch.context() as old, warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            old.setattr(np, "fromstring", _fromstring_before_numpy_2)
            assert _outcome_and_dtypes(path) == expected, spelling
        assert not escaped, spelling


# SHA-256 of each preset's events CSV at 12 293 events, seed 7, recorded before runs
# were drawn in blocks: 12 293 particles cross three PARTICLE_BLOCK borders
_BLOCKED_DIGESTS = {
    "young_baseline/streams=1": "4c9d23c4fc6ec0470a85a5eb10cde99adf4873d8a8c89e29748477921819c883",
    "young_baseline/streams=3": "11add28b8414fef3a876eb023af25bd6c07c65e04e27b634eed39ccfd0de985c",
    "young_random_phase/streams=1": "6e69d8cf5901dba060c296128290d2dea4af8943987d33a61be82bf9371fbfd9",
    "young_random_phase/streams=3": "1be0912115308cfc44af894ec29f5737cddd3d703222d025e6726ba929dedb1e",
    "young_internal_incoherent/streams=1": "cc4c6493864c2f403abf855d92ac155a7d44bcfc732dc51ffbbf6134add3cdab",
    "young_internal_incoherent/streams=3": "2914950998aa759d7665193419e8e99f5ef66ddd0114a0e778f4fc43292c2b1c",
    "young_micromaser/streams=1": "4621e40771f3e49f2ed54130b4516150a9f1e07b18bbdd676e2b12daee38b3f9",
    "young_micromaser/streams=3": "832904300402689849bdc9626daf2eb40906b1112bd2549714f973ed6f06af2a",
    "young_single_cavity/streams=1": "a97fb62b7ceb730a948cdbca5c2250711a307fdbeefcdd7a8d1193542b48ab99",
    "young_single_cavity/streams=3": "87d324384eefb1171d29f1ad4b6ec75b72bdaedea0b535ccd2eae9982dc0fdf6",
    "mz_with_bs2/streams=1": "257312a99771f2530e236869a27bb55319acd25baf4d048ec866dc7ba9899a24",
    "mz_with_bs2/streams=3": "9fccdbf7467961fc5389075a30d0653a65ebc5ed5a0e87ef9948f45cb4ac573c",
    "mz_without_bs2/streams=1": "d4cef85d1a657815796c8ead0bdc0d9bcc7555530864489dac30f70b25e01874",
    "mz_without_bs2/streams=3": "ef8cb2b214c69ab86406d8d1eeb91c937980643efa9935f2fee996ac322b29bc",
    "mz_weak_screen/streams=1": "8dadb40e892d4337b4b86480883bb6a4693ba9451614c6e5e8bbde8262fcad4f",
    "mz_weak_screen/streams=3": "34ed0d237bff85f8e0a5a6fb1f56ac2d3902193d04cb7a06dcf8ea904263303e",
    "eraser_modulation/streams=1": "5b10c6802f9d37e809136b2f21f2f52a30109efec23f6e73bdb6700d720b6d4a",
    "eraser_modulation/streams=3": "ca08835b8d677793c3ba1ffbbb867cf780f09cf7780c81797e308da9fc62d3fd",
}


@pytest.mark.parametrize("key", sorted(_BLOCKED_DIGESTS))
def test_runs_over_many_particle_blocks_keep_their_bytes(tmp_path, key):
    preset, streams = key.split("/streams=")
    config = build_preset(preset)
    path = tmp_path / "events.csv"
    write_events_csv(run_experiment(config, 12_293, 7, n_streams=int(streams)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _BLOCKED_DIGESTS[key]
    # streamed as simulate writes it, block by block
    path.unlink()
    assert write_event_logs(map(EventLog, event_blocks(config, 12_293, 7, int(streams))), path) == len(
        read_events_csv(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _BLOCKED_DIGESTS[key]
    if streams == "1":
        path.unlink()
        assert main(["simulate", "--preset", preset, "--events", "12293", "--seed", "7", "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == _BLOCKED_DIGESTS[key]
