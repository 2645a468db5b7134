"""Seeded random streams, detection-event records, and position sampling.

Reproducibility contract: all randomness flows through numpy Generators
built on the Philox 4x64 counter-based bit generator, keyed by the pair
(seed, stream_id). The same pair yields the same draw sequence on every
platform and numpy release that ships Philox, and distinct stream ids
give statistically independent streams, so event generation can be
partitioned across streams and merged deterministically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from operator import attrgetter
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from .measurement import WhichWayRecord

_UINT64_MAX = 2**64 - 1

MZ_PORTS = ("x", "y")


@dataclass(frozen=True)
class RngStream:
    """Named source of randomness: one (seed, stream_id) pair."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name, v in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= v <= _UINT64_MAX:
                raise ValueError(f"{name} must be a 64-bit unsigned integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


@dataclass(frozen=True, slots=True)
class DetectionEvent:
    """One terminal detector record.

    Exactly one of screen_x, mz_port, scatter_xy is set; whichway is
    populated only when the experiment configured a recording mechanism.
    Records are built once per logged particle, so the constructor checks
    its arguments in one pass and stores them through the slot
    descriptors instead of the generated frozen __init__ and a
    __post_init__.
    """

    event_id: int
    experiment: str
    screen_x: Optional[float] = None
    mz_port: Optional[str] = None
    whichway: Optional["WhichWayRecord"] = None
    scatter_xy: Optional[tuple[float, float]] = None
    stream_id: int = 0

    def __init__(self, event_id: int, experiment: str, screen_x: Optional[float] = None,
                 mz_port: Optional[str] = None, whichway: Optional["WhichWayRecord"] = None,
                 scatter_xy: Optional[tuple[float, float]] = None, stream_id: int = 0) -> None:
        if event_id < 0:
            raise ValueError("event_id must be nonnegative")
        populated = (screen_x is not None) + (mz_port is not None) + (scatter_xy is not None)
        if populated != 1:
            raise ValueError(f"exactly one terminal field must be set, got {populated}")
        if mz_port is not None and mz_port not in MZ_PORTS:
            raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {mz_port!r}")
        _set_event_id(self, event_id)
        _set_experiment(self, experiment)
        _set_screen_x(self, screen_x)
        _set_mz_port(self, mz_port)
        _set_whichway(self, whichway)
        _set_scatter_xy(self, scatter_xy)
        _set_stream_id(self, stream_id)


# The slots' own setters: they bypass the frozen __setattr__, as the
# generated frozen __init__ does through object.__setattr__.
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


def _int_array(values: list[int]) -> np.ndarray:
    """Python ints as an int64 array, or an object array of the same ints
    when one does not fit in 64 bits."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class EventColumns(NamedTuple):
    """An event log as one numpy array per field; entry i is event i.

    The float columns hold NaN, and the port and cavity columns -1, where
    an event does not carry the field; mz_port indexes MZ_PORTS, and
    experiment holds one shared string per distinct name. A row with
    cavity counts is a which-way record, in single-cavity mode when
    single_cavity is set (a single-cavity run) or both counts are 0.
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

    def records(self) -> tuple[DetectionEvent, ...]:
        """The rows as DetectionEvents, one field at a time: the checks of
        DetectionEvent() run once per column with its messages, ids are the
        row numbers, and equal cavity counts share one WhichWayRecord."""
        from .measurement import WhichWayRecord  # measurement imports this module

        n, port, c1, none = self.experiment.size, self.mz_port, self.cavity1_photons, repeat(None)
        screen, scattered = ~np.isnan(self.screen_x), ~np.isnan(self.scatter_x)
        populated = screen.astype(np.int8) + (port >= 0) + scattered
        if (populated != 1).any():
            raise ValueError(f"exactly one terminal field must be set, got {populated[np.argmax(populated != 1)]}")
        bad = (port < -1) | (port >= len(MZ_PORTS))
        if bad.any():
            raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {port[np.argmax(bad)]}")
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


#: Per field EventLog.column reads from records: the record attribute
#: that is None on events without the field, the value, and the dtype.
_RECORD_FIELDS = {
    "experiment": ("event_id", attrgetter("experiment"), object),  # every event carries it
    "screen_x": ("screen_x", attrgetter("screen_x"), float),
    "mz_port": ("mz_port", attrgetter("mz_port"), object),
    **{name: ("whichway", attrgetter(f"whichway.{name}"), dtype) for name, dtype in (
        ("cavity1_photons", np.int8), ("cavity2_photons", np.int8), ("single_cavity_mode", bool))},
    "scatter_x": ("scatter_xy", lambda e: e.scatter_xy[0], float),
    "scatter_y": ("scatter_xy", lambda e: e.scatter_xy[1], float),
}


class EventLog:
    """Ordered detection events plus the hash of the producing config.

    A log is backed by its records or by EventColumns (run_experiment
    and read_events_csv build those). Either way column() reads one
    field without per-event objects, and events holds the records; a
    column-backed log builds them on first access and keeps them. Logs
    are immutable and compare equal when their events and config
    digests are equal.
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
        """The named field of every event that carries it, in log order.

        name is experiment, screen_x, mz_port, cavity1_photons,
        cavity2_photons, single_cavity_mode, scatter_x or scatter_y. A
        record-backed log pays one pass over its records.
        """
        if name not in _RECORD_FIELDS:
            raise ValueError(f"unknown event field {name!r}; expected one of {tuple(_RECORD_FIELDS)}")
        if self._columns is not None:
            return self._columns.column(name)
        carrier, value, dtype = _RECORD_FIELDS[name]
        return np.array([value(e) for e in self._events if getattr(e, carrier) is not None], dtype=dtype)

    def __len__(self) -> int:
        return len(self._events) if self._columns is None else self._columns.experiment.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return self.config_digest == other.config_digest and self.events == other.events

    def __hash__(self) -> int:
        return hash((self.events, self.config_digest))


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
