"""File formats: events CSV, histogram CSV, metrics CSV, histogram PGM.

All writers are byte-deterministic: identical inputs produce identical
files. Floats are written with repr(), the shortest digit string that
round-trips, and lines always end with a bare newline. The events CSV
is written from a log's EventColumns and read back into them; neither
direction builds a DetectionEvent. The reader only decodes cells; the
EventLog it builds holds them to the row rules, EventColumns.check().
It decodes a chunk's ids with one numpy parse and its coded columns by
table where the cells allow, falling back to int() and a per-cell decode
that accept the same spellings and word each error the same way.
"""

from __future__ import annotations

import os
import stat
import warnings
from collections import deque
from collections.abc import Iterable
from functools import partial
from itertools import islice
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


def _float_cells(values: np.ndarray):
    """Cells of a float column: repr() of each value, "" for NaN, or the
    one cell "" when every value is NaN."""
    present = ~np.isnan(values)
    if not present.any():
        return ""
    if present.all():
        return map(repr, values.tolist())
    cells = [""] * values.size
    for i, x in zip(np.flatnonzero(present).tolist(), values[present].tolist()):
        cells[i] = repr(x)
    return cells


def _coded_cells(codes: np.ndarray, cells: tuple):
    """cells[code] of each code, or that one cell when every code is the same."""
    if (codes == codes[0]).all():
        return cells[codes[0]]
    return map(cells.__getitem__, codes.tolist())


#: MZ_PORTS indexed by port code; code -1 takes the last cell, the empty one.
_PORT_CELLS = (*MZ_PORTS, "")
#: The "c1,c2" cell of cavity codes (c1, c2) at entry 3(c1 + 1) + (c2 + 1).
_COUNT_CELLS = tuple(f"{a},{b}" for a in ("", "0", "1") for b in ("", "0", "1"))


def _block_columns(c: EventColumns, block: slice, ids: range) -> list:
    """The cells of rows block of c, whose event ids are ids, a column at
    a time: a str when every row holds that cell, else each row's cell in
    row order. The ids always vary, and the two cavity counts make one
    "c1,c2" column."""
    names = c.experiment[block].tolist()
    distinct = set(names)
    streams = c.stream_id[block]
    if (streams == streams[0]).all():
        stream_cells = str(streams[0])
    else:
        streams = streams.tolist()
        stream_cells = map({stream: str(stream) for stream in set(streams)}.__getitem__, streams)
    return [
        map(str, ids), distinct.pop() if len(distinct) == 1 else names,
        _float_cells(c.screen_x[block]), _coded_cells(c.mz_port[block], _PORT_CELLS),
        _coded_cells(3 * c.cavity1_photons[block] + c.cavity2_photons[block] + 4, _COUNT_CELLS),
        _float_cells(c.scatter_x[block]), _float_cells(c.scatter_y[block]), stream_cells,
    ]


def _block_text(columns: list, n: int) -> str:
    """The n rows of columns, each ending with a newline, from one join.
    A str column is formatted once: runs of them merge with their commas
    into one literal, the last one carrying the newline. One row of pieces
    is repeated n times and each varying column fills its slice of that."""
    row, literal = [], ""
    for k, cells in enumerate(columns):
        literal += "," if k else ""
        if isinstance(cells, str):
            literal += cells
            continue
        row += (literal, cells) if literal else (cells,)
        literal = ""
    row.append(literal + "\n")
    pieces = row * n
    for k, cells in enumerate(row):
        if not isinstance(cells, str):
            pieces[k::len(row)] = cells
    return "".join(pieces)


#: Rows formatted per block, as many as a streamed run draws per block:
#: bounds the cell strings alive during a write.
WRITE_BLOCK = 4096


def write_event_logs(logs: Iterable[EventLog], path: PathLike) -> int:
    """Write the events CSV of logs, joined in order, to a file opened
    once; returns the rows written.

    Rows are formatted from each log's columns WRITE_BLOCK at a time, ids
    running on across the logs; no DetectionEvent is built. Within a
    block, a column whose cells are all the same is formatted once, so
    the bytes depend neither on the block size nor on where one log ends
    and the next begins. Each log is drawn from logs only once the rows
    before it are written, so a generator of logs is written holding one
    log at a time. The first is drawn before the file is opened; when
    drawing a later one raises ValueError (its EventLog refused its rows),
    the file is removed. A write cut short otherwise leaves whole blocks
    of rows, which read back as a shorter log. No log holds columns the
    reader would refuse: EventLog checked them when it was built.
    """
    logs = iter(logs)
    log, written = next(logs, None), 0
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write(EVENTS_HEADER + "\n")
        while log is not None:
            for first in range(0, len(log), WRITE_BLOCK):
                stop = min(first + WRITE_BLOCK, len(log))
                columns = _block_columns(log._columns, slice(first, stop), range(written + first, written + stop))
                out.write(_block_text(columns, stop - first))
            written += len(log)
            try:
                log = next(logs, None)
            except ValueError:
                out.close()
                if stat.S_ISREG(os.lstat(path).st_mode):  # never a device or a link named as the output
                    os.unlink(path)
                raise
    return written


def write_events_csv(log: EventLog, path: PathLike) -> None:
    """One row per event of log: write_event_logs over that one log."""
    write_event_logs((log,), path)


#: Rows read per chunk, about: a chunk is READ_BLOCK * 64 bytes and then
#: the rest of its last line, parsed as one block. Bounds the text and cell
#: strings alive during a read.
READ_BLOCK = 1024

_PORT_CODES = {"": -1, **{port: code for code, port in enumerate(MZ_PORTS)}}


def _float_column(cells: list[str]) -> np.ndarray:
    """Cells parsed with float(), NaN where a cell is empty; a present
    value must be finite, since NaN marks the empty cell."""
    present = cells
    if "" in cells:
        if cells.count("") == len(cells):
            return np.full(len(cells), np.nan)
        present = list(filter(None, cells))
    values = np.fromiter(map(float, present), dtype=float, count=len(present))
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"non-finite value {present[np.argmin(finite)]!r}")
    if len(present) == len(cells):
        return values
    out = np.full(len(cells), np.nan)
    out[np.fromiter(map(bool, cells), dtype=bool, count=len(cells))] = values
    return out


def _coded_column(cells: list[str], decode, dtype) -> np.ndarray:
    """decode applied once per distinct cell and spread over the cells;
    decode raises ValueError on a bad cell. One repeated cell fills the
    column; one-ASCII-character cells index a 128-entry table of values by
    their bytes; other cells map through a dict of values. The cells are
    one character each exactly when their comma join is 2n - 1 characters
    long with no comma at an even position."""
    if cells and cells.count(cells[0]) == len(cells):
        column = np.empty(len(cells), dtype=dtype)
        column[:] = decode(cells[0])  # np.full would copy a string into every object cell
        return column
    joined = ",".join(cells)
    chars = joined[::2]
    if len(joined) == 2 * len(cells) - 1 and "," not in chars and chars.isascii():
        table = np.empty(128, dtype=dtype)
        for char in set(chars):
            table[ord(char)] = decode(char)
        return table[np.frombuffer(chars.encode("ascii"), dtype=np.uint8)]
    values = {cell: decode(cell) for cell in set(cells)}
    return np.fromiter(map(values.__getitem__, cells), dtype=dtype, count=len(cells))


def _port_code(cell: str) -> int:
    if cell not in _PORT_CODES:
        raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {cell!r}")
    return _PORT_CODES[cell]


def _photon_count(name: str, cell: str) -> int:
    """A count parsed with int(), -1 for an empty cell."""
    if not cell:
        return -1
    count = int(cell)
    if count not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {count!r}")
    return count


def _dense_ids(text: str, first_id: int, n: int) -> bool:
    """Whether text, n id cells joined by commas, holds the ids first_id on,
    by one numpy parse; False when it cannot tell. numpy reads a lone sign
    or blank as 0, where int() refuses it, so only ASCII digits and commas
    are parsed; numpy before 2 warns at unmatched text where 2 raises."""
    if not text.isascii() or text.encode().translate(None, b"0123456789,"):
        return False
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ids = np.fromstring(text, dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return False
    return ids.size == n and bool((ids == np.arange(first_id, first_id + n)).all())


def _parse_block(rows: list[str], first_id: int, experiments: dict[str, str]) -> tuple:
    """Columns of consecutive events CSV rows whose first holds event id
    first_id, in EventColumns field order.

    Only the cells are decoded here; each decode runs on whole columns and
    raises ValueError without a location. The ids are checked by one numpy
    parse (_dense_ids) and, when that cannot tell, parsed again with int()
    for the error. experiments maps each distinct name met so far to the
    first string that spelled it; new names join it.
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
    if not _dense_ids(",".join(ids), first_id, n):
        ids = list(map(int, ids))
        if ids != list(range(first_id, first_id + n)):
            position, got = next((p, i) for p, i in enumerate(ids, first_id) if p != i)
            raise ValueError(f"event ids must be dense from 0; position {position} holds id {got}")
    experiment = _coded_column(names, lambda name: experiments.setdefault(name, name), object)
    screen_x = _float_column(screen_x)
    mz_port = _coded_column(ports, _port_code, np.int8)
    cavity1 = _coded_column(cav1, partial(_photon_count, "cavity1_photons"), np.int8)
    cavity2 = _coded_column(cav2, partial(_photon_count, "cavity2_photons"), np.int8)
    scatter_x, scatter_y = _float_column(scatter_x), _float_column(scatter_y)
    stream_id = _coded_column(streams, lambda cell: _check_uint64("stream_id", int(cell)), np.uint64)
    return experiment, screen_x, mz_port, cavity1, cavity2, scatter_x, scatter_y, stream_id


def _decode_error(exc: UnicodeDecodeError, offset: int) -> str:
    """str(exc) as decoding the whole file would word it, exc being raised
    by a chunk that starts offset bytes into the file."""
    start, end = offset + exc.start, offset + exc.end
    if end - start == 1:
        return f"'{exc.encoding}' codec can't decode byte 0x{exc.object[exc.start]:02x} in position {start}: {exc.reason}"
    return f"'{exc.encoding}' codec can't decode bytes in position {start}-{end - 1}: {exc.reason}"


def _chunks(path: PathLike):
    """(number of its first line, its lines) for each chunk of the file,
    lines as str.splitlines splits them. A chunk ends after a b"\\n" or at
    the end of the file, so it splits no line, no character and no
    "\\r\\n", and its lines are numbered on from the chunk before. A byte
    that is not UTF-8 raises ValueError citing path:line and its position
    from the start of the file."""
    with open(path, "rb") as f:
        offset, lineno = 0, 1
        while chunk := f.read(64 * READ_BLOCK) + f.readline():
            try:
                lines = chunk.decode("utf-8").splitlines()
            except UnicodeDecodeError as exc:
                line = lineno - 1 + len((chunk[:exc.start].decode() + "?").splitlines())
                raise ValueError(f"{path}:{line}: {_decode_error(exc, offset)}") from exc
            yield lineno, lines
            offset += len(chunk)
            lineno += len(lines)


def _cite_bad_row(path: PathLike, blocks: list, experiments: dict[str, str]) -> None:
    """Raise the first bad row's ValueError, prefixed with its path:line.

    blocks are the decoded blocks of the file's first chunks, one per
    chunk. The first of them that fails the row rules, or else the chunk
    after them, which failed to decode, is read again and parsed row by
    row. Returns when no single row fails."""
    bad = len(blocks)
    for k, block in enumerate(blocks):
        try:
            EventColumns(*block).check()
        except ValueError:
            bad = k
            break
    first_id = sum(block[0].size for block in blocks[:bad])
    lineno, lines = next(islice(_chunks(path), bad, None))
    for lineno, row in islice(enumerate(lines, lineno), 1 if bad == 0 else 0, None):  # past the header
        if not row:
            continue
        try:
            EventColumns(*_parse_block([row], first_id, experiments)).check()
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        first_id += 1


def read_events_csv(path: PathLike) -> EventLog:
    """Parse an events CSV into a column-backed log, equal to the log
    that was written.

    The text is read and decoded a chunk of about READ_BLOCK rows at a
    time, floats with float() and ids by one numpy parse, or int() where
    that misses, so the whole text is never held; the blocks of columns
    are joined into one EventLog, which checks them once. When a block
    fails to decode or the log refuses a row, the ValueError cites the
    first bad row's path:line, as does a non-UTF-8 byte, which is cited
    first wherever it is. Blank lines are skipped but counted.
    """
    chunks = _chunks(path)
    experiments: dict[str, str] = {}
    blocks, rows_read = [], 0
    for lineno, lines in chunks:
        rows = lines
        if lineno == 1:
            if lines[0] != EVENTS_HEADER:
                deque(chunks, maxlen=0)  # a byte that is not UTF-8 later on is cited first
                raise ValueError(f"{path}: missing or unexpected events header")
            rows = lines[1:]  # a header-only file still parses one (empty) block, for the column dtypes
        if "" in rows:
            rows = list(filter(None, rows))
        try:
            blocks.append(_parse_block(rows, rows_read, experiments))
        except ValueError:
            deque(chunks, maxlen=0)
            _cite_bad_row(path, blocks, experiments)
            raise
        rows_read += len(rows)
    if not blocks:
        raise ValueError(f"{path}: missing or unexpected events header")
    try:
        return EventLog(EventColumns.join(blocks))
    except ValueError:
        _cite_bad_row(path, blocks, experiments)
        raise


def write_histogram_csv(h: FringeHistogram, path: PathLike) -> None:
    edges = h.bin_edges.tolist()
    rows = map(",".join, zip(map(repr, edges[:-1]), map(repr, edges[1:]), map(repr, h.counts.tolist())))
    Path(path).write_text("\n".join((HISTOGRAM_HEADER, *rows)) + "\n", encoding="utf-8", newline="\n")


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
    lines.extend(f"{name},{'' if value is None else repr(value)},{flag}" for name, value, flag in rows)
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
