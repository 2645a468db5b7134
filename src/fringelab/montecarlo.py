"""Seeded random streams, detection-event records, and position sampling.

Reproducibility contract: all randomness flows through numpy Generators
built on the Philox 4x64 counter-based bit generator, keyed by the pair
(seed, stream_id). The same pair yields the same draw sequence on every
platform and numpy release that ships Philox, and distinct stream ids
give statistically independent streams, so event generation can be
partitioned across streams and merged deterministically.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from .measurement import WhichWayRecord

MZ_PORTS = ("x", "y")


def _check_uint64(name: str, value: int) -> None:
    """Reject a seed or stream id that cannot key an RngStream."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")


@dataclass(frozen=True)
class RngStream:
    """Named source of randomness: one (seed, stream_id) pair."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        _check_uint64("seed", self.seed)
        _check_uint64("stream_id", self.stream_id)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """One terminal detector record.

    Exactly one of screen_x, mz_port, scatter_xy is set; whichway is
    populated only when the experiment configured a recording mechanism.
    stream_id names the RngStream the event was drawn from.
    """

    event_id: int
    experiment: str
    screen_x: Optional[float] = None
    mz_port: Optional[str] = None
    whichway: Optional["WhichWayRecord"] = None
    scatter_xy: Optional[tuple[float, float]] = None
    stream_id: int = 0

    def __post_init__(self) -> None:
        if self.event_id < 0:
            raise ValueError("event_id must be nonnegative")
        populated = (self.screen_x is not None) + (self.mz_port is not None) + (self.scatter_xy is not None)
        if populated != 1:
            raise ValueError(f"exactly one terminal field must be set, got {populated}")
        if self.screen_x is not None and not math.isfinite(self.screen_x):
            raise ValueError(f"screen_x must be finite, got {self.screen_x!r}")
        if self.scatter_xy is not None and not all(map(math.isfinite, self.scatter_xy)):
            raise ValueError(f"scatter_xy must be finite, got {self.scatter_xy!r}")
        if self.mz_port is not None and self.mz_port not in MZ_PORTS:
            raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {self.mz_port!r}")
        _check_uint64("stream_id", self.stream_id)


# The slots' own setters, for EventColumns.records: they bypass the frozen
# __setattr__, as the generated __init__ does through object.__setattr__.
_set_event_id = DetectionEvent.event_id.__set__
_set_experiment = DetectionEvent.experiment.__set__
_set_screen_x = DetectionEvent.screen_x.__set__
_set_mz_port = DetectionEvent.mz_port.__set__
_set_whichway = DetectionEvent.whichway.__set__
_set_scatter_xy = DetectionEvent.scatter_xy.__set__
_set_stream_id = DetectionEvent.stream_id.__set__


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The generated frozen __setattr__ of a slots dataclass names the class
# the decorator replaced, so assigning a name that is not a field raised
# TypeError from super(); these raise FrozenInstanceError for any name.
DetectionEvent.__setattr__ = _frozen_setattr
DetectionEvent.__delattr__ = _frozen_delattr


#: The fields column() reads, each from the events that carry it.
EVENT_FIELDS = ("experiment", "screen_x", "mz_port", "cavity1_photons", "cavity2_photons",
                "single_cavity_mode", "scatter_x", "scatter_y")


class EventColumns(NamedTuple):
    """An event log as one numpy array per field; entry i is event i.

    This is the one store behind EventLog, and the format io writes and
    reads. The float columns hold NaN, and the port and cavity columns -1,
    where an event does not carry the field; mz_port indexes MZ_PORTS,
    stream_id is uint64, and experiment holds one shared string per
    distinct name. A row with cavity counts is a which-way record, in
    single-cavity mode when single_cavity is set (a single-cavity run) or
    both counts are 0.
    """

    experiment: np.ndarray
    screen_x: np.ndarray
    mz_port: np.ndarray
    cavity1_photons: np.ndarray
    cavity2_photons: np.ndarray
    scatter_x: np.ndarray
    scatter_y: np.ndarray
    stream_id: np.ndarray
    single_cavity: bool = False

    def column(self, name: str) -> np.ndarray:
        """The named field of every event that carries it, in log order."""
        if name not in EVENT_FIELDS:
            raise ValueError(f"unknown event field {name!r}; expected one of {EVENT_FIELDS}")
        if name == "experiment":
            return self.experiment
        if name == "mz_port":
            return np.array(MZ_PORTS, dtype=object)[self.mz_port[self.mz_port >= 0]]
        if name == "single_cavity_mode":
            c1, c2 = self.cavity1_photons, self.cavity2_photons
            return ((c1 + c2 == 0) | self.single_cavity)[c1 >= 0]
        values = getattr(self, name)
        if name in ("cavity1_photons", "cavity2_photons"):
            return values[values >= 0]
        return values[~np.isnan(values)]

    def check(self) -> None:
        """Run the row checks of DetectionEvent() once per column, with its
        messages: exactly one terminal field per row, and a port code that
        indexes MZ_PORTS or is -1."""
        port = self.mz_port
        populated = (~np.isnan(self.screen_x)).astype(np.int8) + (port >= 0) + ~np.isnan(self.scatter_x)
        if (populated != 1).any():
            raise ValueError(f"exactly one terminal field must be set, got {populated[np.argmax(populated != 1)]}")
        bad = (port < -1) | (port >= len(MZ_PORTS))
        if bad.any():
            raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {port[np.argmax(bad)]}")

    def records(self) -> tuple[DetectionEvent, ...]:
        """The rows as DetectionEvents, one field at a time: check() runs
        the checks of DetectionEvent(), ids are the row numbers, and equal
        cavity counts share one WhichWayRecord."""
        from .measurement import WhichWayRecord  # measurement imports this module

        self.check()
        n, port, c1, none = self.experiment.size, self.mz_port, self.cavity1_photons, repeat(None)
        screen, scattered = ~np.isnan(self.screen_x), ~np.isnan(self.scatter_x)
        whichway = none
        if (c1 >= 0).any():
            pairs = list(zip(c1.tolist(), self.cavity2_photons.tolist()))
            shared = {pair: WhichWayRecord(*pair, single_cavity_mode=self.single_cavity or sum(pair) == 0)
                      if pair[0] >= 0 else None for pair in set(pairs)}
            whichway = map(shared.__getitem__, pairs)
        events = list(map(object.__new__, repeat(DetectionEvent, n)))
        for set_field, values in (
            (_set_event_id, range(n)),
            (_set_experiment, self.experiment.tolist()),
            (_set_screen_x, none if not screen.any() else self.screen_x.tolist() if screen.all()
             else [None if x != x else x for x in self.screen_x.tolist()]),
            (_set_mz_port, map((MZ_PORTS + (None,)).__getitem__, port.tolist()) if (port >= 0).any() else none),
            (_set_whichway, whichway),
            (_set_scatter_xy, none if not scattered.any() else [
                None if x != x else (x, y) for x, y in zip(self.scatter_x.tolist(), self.scatter_y.tolist())]),
            (_set_stream_id, self.stream_id.tolist()),
        ):
            deque(map(set_field, events, values), maxlen=0)
        return tuple(events)

    @classmethod
    def from_records(cls, events: tuple[DetectionEvent, ...]) -> "EventColumns":
        """The columns of records, the inverse of records(); single_cavity is
        set when any which-way record is in single-cavity mode, as in a run."""
        names: dict[str, str] = {}  # one shared string per distinct name
        whichway = [e.whichway for e in events]
        counts = [(-1, -1) if ww is None else (ww.cavity1_photons, ww.cavity2_photons) for ww in whichway]
        scatter = [(np.nan, np.nan) if e.scatter_xy is None else e.scatter_xy for e in events]
        return cls(
            np.array([names.setdefault(e.experiment, e.experiment) for e in events], dtype=object),
            np.array([np.nan if e.screen_x is None else e.screen_x for e in events], dtype=float),
            np.array([-1 if e.mz_port is None else MZ_PORTS.index(e.mz_port) for e in events], dtype=np.int8),
            *np.array(counts, dtype=np.int8).reshape(-1, 2).T,
            *np.array(scatter, dtype=float).reshape(-1, 2).T,
            np.array([e.stream_id for e in events], dtype=np.uint64),
            single_cavity=any(ww is not None and ww.single_cavity_mode for ww in whichway),
        )


class EventLog:
    """Ordered detection events plus the hash of the producing config.

    The log's data are its EventColumns: run_experiment and
    read_events_csv build those, and a log built from DetectionEvents
    converts them to columns once. column() reads one field of them.
    events is a cached view: the records the log was built from, or
    those EventColumns.records() builds on first access. Logs are
    immutable and compare equal when their config digests and columns
    are equal, NaN cells equal to NaN.
    """

    __slots__ = ("config_digest", "_events", "_columns")

    def __init__(self, events: Optional[tuple[DetectionEvent, ...]] = None, config_digest: str = "", *,
                 columns: Optional[EventColumns] = None) -> None:
        if (events is None) == (columns is None):
            raise ValueError("an event log is built from its events or from its columns")
        if events is not None:
            events = tuple(events)
            for i, e in enumerate(events):
                if e.event_id != i:
                    raise ValueError(f"event ids must be dense from 0; position {i} holds id {e.event_id}")
            columns = EventColumns.from_records(events)
        object.__setattr__(self, "config_digest", config_digest)
        object.__setattr__(self, "_events", events)
        object.__setattr__(self, "_columns", columns)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    @property
    def events(self) -> tuple[DetectionEvent, ...]:
        if self._events is None:
            object.__setattr__(self, "_events", self._columns.records())
        return self._events

    def column(self, name: str) -> np.ndarray:
        """The named field (see EVENT_FIELDS) of the events that carry it, in log order."""
        return self._columns.column(name)

    def __len__(self) -> int:
        return self._columns.experiment.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        a, b = self._columns, other._columns
        return (self.config_digest == other.config_digest and a.single_cavity == b.single_cavity
                and all(np.array_equal(x, y, equal_nan=x.dtype == float) for x, y in zip(a[:-1], b[:-1])))

    def __hash__(self) -> int:
        return hash((self.config_digest, len(self)))


def _checked_weights(weights) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("profile must be a nonempty 1-D array")
    if not np.all(np.isfinite(weights)):
        raise ValueError("profile values must be finite")
    if np.any(weights < 0):
        raise ValueError("profile values must be nonnegative")
    if not weights.sum() > 0:
        raise ValueError("profile must have at least one positive value")
    return weights


def _inverse_cdf(positions: np.ndarray, cdf: np.ndarray, cell_u, jitter_u):
    """Inverse-CDF sampling core shared by every screen draw.

    cell_u picks a cell of the grid positions with probability
    proportional to its weight (cdf is the running sum of the weights);
    jitter_u then places the draw uniformly inside that cell. Scalars or
    equal-shape arrays of uniforms in [0, 1) are accepted.
    """
    idx = np.minimum(np.searchsorted(cdf, cell_u * cdf[-1], side="right"), positions.size - 1)
    width = float(positions[1] - positions[0]) if positions.size > 1 else 0.0
    return positions[idx] + (jitter_u - 0.5) * width


def sample_position(positions, weights, rng: np.random.Generator) -> float:
    """One coordinate drawn proportional to weights on a uniform grid.

    positions are cell centers with uniform spacing. The draw is
    inverse-CDF over the cells followed by a uniform jitter inside the
    chosen cell, consuming exactly two uniforms in that order. The
    jitter keeps re-binned histograms free of grid-comb artifacts.
    """
    positions = np.asarray(positions, dtype=float)
    weights = _checked_weights(weights)
    if positions.shape != weights.shape:
        raise ValueError("positions and profile must have the same shape")
    cell_u, jitter_u = rng.random(), rng.random()
    return float(_inverse_cdf(positions, np.cumsum(weights), cell_u, jitter_u))


def sample_positions(positions, weights, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vectorized sample_position: n draws, identical stream consumption.

    Uniforms are taken as one (n, 2) block, which numpy fills in the
    same order as 2n scalar calls, so this function and a loop over
    sample_position produce identical output from the same stream state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    positions = np.asarray(positions, dtype=float)
    weights = _checked_weights(weights)
    if positions.shape != weights.shape:
        raise ValueError("positions and profile must have the same shape")
    if n == 0:
        return np.empty(0)
    draws = rng.random((n, 2))
    return _inverse_cdf(positions, np.cumsum(weights), draws[:, 0], draws[:, 1])


def sampling_grid(x_min: float, x_max: float, n_cells: int = 4096) -> np.ndarray:
    """Cell centers of the uniform sampling grid over [x_min, x_max]."""
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    if not x_min < x_max:
        raise ValueError(f"empty grid range [{x_min}, {x_max}]")
    width = (x_max - x_min) / n_cells
    return x_min + width * (np.arange(n_cells) + 0.5)
