"""File formats: events CSV, histogram CSV, metrics CSV, histogram PGM.

All writers are byte-deterministic: identical inputs produce identical
files. Floats are written with repr(), the shortest digit string that
round-trips, and lines always end with a bare newline. The events CSV
is written from a log's EventColumns and read back into them; neither
direction builds a DetectionEvent.
"""

from __future__ import annotations

from itertools import repeat
from pathlib import Path
from typing import Union

import numpy as np

from .analysis import FringeHistogram, FringeMetrics
from .montecarlo import MZ_PORTS, EventColumns, EventLog, _check_uint64

EVENTS_HEADER = "event_id,experiment,screen_x,mz_port,cavity1_photons,cavity2_photons,scatter_x,scatter_y,stream_id"
HISTOGRAM_HEADER = "bin_lo,bin_hi,count"
METRICS_HEADER = "metric,value,flag"
SWEEP_HEADER = "param_value,visibility,distinguishability,duality_lhs"

PathLike = Union[str, Path]


def _fmt(value) -> str:
    """Empty cell for None, shortest round-trip digits for floats."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _float_cells(values: np.ndarray):
    """Cells of a float column: repr() of each value, "" for NaN."""
    present = ~np.isnan(values)
    if not present.any():
        return repeat("")
    if present.all():
        return map(repr, values.tolist())
    cells = [""] * values.size
    for i, x in zip(np.flatnonzero(present).tolist(), values[present].tolist()):
        cells[i] = repr(x)
    return cells


#: Rows formatted per block: bounds the cell strings alive during a write.
WRITE_BLOCK = 65536


def write_events_csv(log: EventLog, path: PathLike) -> None:
    """One row per event, formatted from the log's columns a column at a
    time, WRITE_BLOCK rows per write to a file opened once; no
    DetectionEvent is built. A write cut short leaves whole blocks of
    rows, which read back as a shorter log."""
    c = log._columns
    ports = (*MZ_PORTS, "")  # code -1 reads the last cell, the empty one
    counts = ("0", "1", "")
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(EVENTS_HEADER + "\n")
        for first in range(0, len(log), WRITE_BLOCK):
            block = slice(first, first + WRITE_BLOCK)
            streams = c.stream_id[block].tolist()
            rows = list(map(",".join, zip(
                map(str, range(first, first + len(streams))), c.experiment[block].tolist(),
                _float_cells(c.screen_x[block]),
                map(ports.__getitem__, c.mz_port[block].tolist()),
                map(counts.__getitem__, c.cavity1_photons[block].tolist()),
                map(counts.__getitem__, c.cavity2_photons[block].tolist()),
                _float_cells(c.scatter_x[block]), _float_cells(c.scatter_y[block]),
                map({stream: str(stream) for stream in set(streams)}.__getitem__, streams),
            )))
            rows.append("")  # every row ends with a newline
            out.write("\n".join(rows))


#: Rows parsed per block: bounds the cell strings alive during a read.
READ_BLOCK = 1024

_PORT_CODES = {"": -1, **{port: code for code, port in enumerate(MZ_PORTS)}}
_BAD_PORT = -2


def _float_column(cells: list[str]) -> np.ndarray:
    """Cells parsed with float(), NaN where a cell is empty; a present
    value must be finite."""
    present = list(filter(None, cells)) if "" in cells else cells
    values = np.fromiter(map(float, present), dtype=float, count=len(present))
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite value {present[np.argmin(finite)]!r}")
    if len(present) == len(cells):
        return values
    out = np.full(len(cells), np.nan)
    if present:
        out[np.fromiter(map(bool, cells), dtype=bool, count=len(cells))] = values
    return out


def _cavity_column(cells: list[str], name: str) -> np.ndarray:
    """Photon counts parsed with int(), once per distinct cell; -1 where
    a cell is empty."""
    counts = {cell: int(cell) for cell in set(cells) if cell}
    for count in counts.values():
        if count not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {count!r}")
    counts[""] = -1
    return np.fromiter(map(counts.__getitem__, cells), dtype=np.int8, count=len(cells))


def _parse_block(rows: list[str], first_id: int, experiments: dict[str, str]) -> tuple:
    """Columns of consecutive events CSV rows whose first holds event id
    first_id, in EventColumns field order.

    Each check runs on whole columns and raises ValueError without a
    location. experiments maps each distinct name met so far to the first
    string that spelled it; new names join it.
    """
    n = len(rows)
    # a "\n" cell, which no row can hold, follows each row: every row has
    # 9 fields exactly when these markers sit at cells 9, 19, 29, ...
    cells = ",\n,".join([*rows, ""]).split(",")[:-1]
    if len(cells) != 10 * n or cells[9::10].count("\n") != n:
        got = next(row.count(",") + 1 for row in rows if row.count(",") != 8)
        raise ValueError(f"expected 9 fields, got {got}")
    ids, names, screen_x, ports, cav1, cav2, scatter_x, scatter_y, streams = (cells[k::10] for k in range(9))
    del cells
    ids = list(map(int, ids))
    if ids != list(range(first_id, first_id + n)):
        position, got = next((p, i) for p, i in enumerate(ids, first_id) if p != i)
        raise ValueError(f"event ids must be dense from 0; position {position} holds id {got}")
    for name in dict.fromkeys(names):
        experiments.setdefault(name, name)
    experiment = np.fromiter(map(experiments.__getitem__, names), dtype=object, count=n)
    screen_x = _float_column(screen_x)
    mz_port = np.fromiter(map(_PORT_CODES.get, ports, repeat(_BAD_PORT)), dtype=np.int8, count=n)
    if (mz_port == _BAD_PORT).any():
        raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {ports[np.argmax(mz_port == _BAD_PORT)]!r}")
    cavity1, cavity2 = _cavity_column(cav1, "cavity1_photons"), _cavity_column(cav2, "cavity2_photons")
    if ((cavity1 < 0) != (cavity2 < 0)).any():
        raise ValueError("cavity counts must both be present or both empty")
    if (cavity1 + cavity2 > 1).any():
        raise ValueError("at most one photon per particle")
    scatter_x, scatter_y = _float_column(scatter_x), _float_column(scatter_y)
    scattered = ~np.isnan(scatter_x)
    if (scattered == np.isnan(scatter_y)).any():
        raise ValueError("scatter cells must both be present or both empty")
    populated = (~np.isnan(screen_x)).astype(np.int8) + (mz_port >= 0) + scattered
    if (populated != 1).any():
        raise ValueError(f"exactly one terminal field must be set, got {populated[np.argmax(populated != 1)]}")
    stream_ids = {cell: int(cell) for cell in set(streams)}
    for stream in stream_ids.values():
        _check_uint64("stream_id", stream)
    stream_id = np.fromiter(map(stream_ids.__getitem__, streams), dtype=np.uint64, count=n)
    return experiment, screen_x, mz_port, cavity1, cavity2, scatter_x, scatter_y, stream_id


def read_events_csv(path: PathLike) -> EventLog:
    """Parse an events CSV into a column-backed log.

    The file does not carry the configuration digest, so the returned
    log's digest is empty. Which-way rows with zero total photons can
    only come from single-cavity tagging, so that mode flag is restored
    from the counts themselves. Rows are parsed READ_BLOCK at a time, cell
    values with int() and float(); when a block fails a check, its rows
    are parsed one by one to find the first bad one, and the ValueError
    cites its path:line, as does a non-UTF-8 byte. Blank lines are skipped
    but counted.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:  # the whole file is decoded at once, so exc.object holds it all
        raise ValueError(f"{path}:{len((exc.object[:exc.start].decode() + '?').splitlines())}: {exc}") from exc
    if not lines or lines[0] != EVENTS_HEADER:
        raise ValueError(f"{path}: missing or unexpected events header")
    linenos = range(1, len(lines) + 1)
    if "" in lines:
        linenos = [lineno for lineno, line in zip(linenos, lines) if line]
        lines = [line for line in lines if line]
    experiments: dict[str, str] = {}
    blocks = []
    # an empty log still parses one (empty) block, for the column dtypes
    for first in range(1, max(len(lines), 2), READ_BLOCK):
        rows = lines[first:first + READ_BLOCK]
        try:
            blocks.append(_parse_block(rows, first - 1, experiments))
        except ValueError:
            for offset, row in enumerate(rows):
                try:
                    _parse_block([row], first - 1 + offset, experiments)
                except ValueError as exc:
                    raise ValueError(f"{path}:{linenos[first + offset]}: {exc}") from exc
            raise
    columns = [np.concatenate(column) for column in zip(*blocks)]
    return EventLog(columns=EventColumns(*columns))


def write_histogram_csv(h: FringeHistogram, path: PathLike) -> None:
    lines = [HISTOGRAM_HEADER]
    for lo, hi, count in zip(h.bin_edges[:-1], h.bin_edges[1:], h.counts):
        lines.append(f"{_fmt(float(lo))},{_fmt(float(hi))},{_fmt(float(count))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_metrics_csv(metrics: FringeMetrics, path: PathLike) -> None:
    rows = [
        ("visibility", metrics.visibility.value, metrics.visibility.flag),
        ("fringe_spacing", metrics.fringe_spacing.value, metrics.fringe_spacing.flag),
        ("distinguishability", metrics.distinguishability.value, metrics.distinguishability.flag),
    ]
    if metrics.duality is None:
        rows.append(("duality_lhs", None, ""))
    else:
        rows.append(("duality_lhs", metrics.duality.lhs, "satisfied" if metrics.duality.satisfied else "violated"))
    lines = [METRICS_HEADER]
    lines.extend(f"{name},{_fmt(value)},{flag}" for name, value, flag in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_histogram_pgm(h: FringeHistogram, path: PathLike) -> None:
    """8-bit grayscale strip, one pixel per bin, peak bin mapped to 255."""
    counts = h.counts
    peak = counts.max() if counts.size else 0.0
    if peak > 0:
        pixels = np.floor(counts * (255.0 / peak) + 0.5).astype(np.uint8)
    else:
        pixels = np.zeros(counts.size, dtype=np.uint8)
    header = f"P5\n{counts.size} 1\n255\n".encode("ascii")
    Path(path).write_bytes(header + pixels.tobytes())
