"""File formats: events CSV, histogram CSV, metrics CSV, histogram PGM.

All writers are byte-deterministic: identical inputs produce identical
files. Floats are written with repr(), the shortest digit string that
round-trips, and lines always end with a bare newline.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Union

import numpy as np

from .analysis import FringeHistogram, FringeMetrics
from .measurement import WhichWayRecord
from .montecarlo import DetectionEvent, EventLog

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


def _event_row(event: DetectionEvent) -> str:
    """One events CSV row, cell for cell what _fmt gives each field."""
    x, port, ww, xy = event.screen_x, event.mz_port, event.whichway, event.scatter_xy
    return (
        f"{event.event_id},{event.experiment},"
        f"{'' if x is None else repr(float(x))},{'' if port is None else port},"
        f"{',' if ww is None else f'{ww.cavity1_photons},{ww.cavity2_photons}'},"
        f"{',' if xy is None else f'{float(xy[0])!r},{float(xy[1])!r}'},"
        f"{event.stream_id}"
    )


def write_events_csv(log: EventLog, path: PathLike) -> None:
    lines = [EVENTS_HEADER]
    lines.extend(_event_row(e) for e in log.events)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _finite(cell: str) -> float:
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def read_events_csv(path: PathLike) -> EventLog:
    """Parse an events CSV back into a log.

    The file does not carry the configuration digest, so the returned
    log's digest is empty. Which-way rows with zero total photons can
    only come from single-cavity tagging, so that mode flag is restored
    from the counts themselves. Rows with the same cavity cells share
    one (frozen) WhichWayRecord. A malformed row raises ValueError citing
    path:line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines or lines[0] != EVENTS_HEADER:
        raise ValueError(f"{path}: missing or unexpected events header")
    events = []
    records = {}  # one shared WhichWayRecord per pair of cavity cells
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        try:
            if len(parts) != 9:
                raise ValueError(f"expected 9 fields, got {len(parts)}")
            (event_id, experiment, screen_x, mz_port, cav1, cav2, scatter_x, scatter_y, stream_id) = parts
            whichway = None
            if cav1 or cav2:
                whichway = records.get((cav1, cav2))
                if whichway is None:
                    if not (cav1 and cav2):
                        raise ValueError("cavity counts must both be present or both empty")
                    c1, c2 = int(cav1), int(cav2)
                    whichway = WhichWayRecord(c1, c2, single_cavity_mode=(c1 + c2 == 0))
                    records[(cav1, cav2)] = whichway
            scatter_xy = None
            if scatter_x or scatter_y:
                scatter_xy = (_finite(scatter_x), _finite(scatter_y))
            events.append(DetectionEvent(
                event_id=int(event_id),
                experiment=experiment,
                screen_x=_finite(screen_x) if screen_x else None,
                mz_port=mz_port if mz_port else None,
                whichway=whichway,
                scatter_xy=scatter_xy,
                stream_id=int(stream_id),
            ))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return EventLog(tuple(events))


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
