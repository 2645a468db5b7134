"""Seeded random streams, the event log, and position sampling.

Reproducibility contract: all randomness flows through numpy Generators
built on the Philox 4x64 counter-based bit generator, keyed by the pair
(seed, stream_id). The same pair yields the same draw sequence on every
platform and numpy release that ships Philox, and distinct stream ids
give statistically independent streams, so event generation can be
partitioned across streams and merged deterministically.

An EventLog holds one EventColumns, joined from a run's blocks or a
file's chunks by EventColumns.join (a lone block as it is), checked once
by EventColumns.check(); its records are built on first read, and rows
with equal cavity counts share one WhichWayRecord across every log.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from itertools import repeat
from typing import TYPE_CHECKING, NamedTuple, Optional

import numpy as np

if TYPE_CHECKING:
    from .measurement import WhichWayRecord

MZ_PORTS = ("x", "y")


def _check_uint64(name: str, value: int) -> int:
    """Reject a seed or stream id that cannot key an RngStream; returns value."""
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value!r}")
    return value


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
    """One row of an EventLog as a read-only record, built by log.events
    from columns that passed EventColumns.check(); it checks nothing.

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


# The slots' own setters, for _records: they bypass the frozen
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


#: MZ_PORTS indexed by port code; code -1 takes the last entry, None.
_PORTS_OR_NONE = np.array((*MZ_PORTS, None), dtype=object)


def _spread(present: np.ndarray, values: list) -> list:
    """values, one per present row in row order, at those rows of a list
    that holds None at every other row."""
    if len(values) == present.size:
        return values
    spread = [None] * present.size
    deque(map(spread.__setitem__, np.flatnonzero(present).tolist(), values), maxlen=0)
    return spread


#: The fields column() reads, each from the events that carry it.
EVENT_FIELDS = ("experiment", "screen_x", "mz_port", "cavity1_photons", "cavity2_photons", "scatter_x", "scatter_y")


class EventColumns(NamedTuple):
    """An event log as one numpy array per field; entry i is event i.

    This is the one store behind EventLog, which holds them to check(),
    and the format io writes and reads. The float columns hold NaN, and
    the port and cavity columns -1, where an event does not carry the
    field; mz_port indexes MZ_PORTS, stream_id is uint64, and experiment
    holds one shared string per distinct name. A row with cavity counts is
    a which-way record. The columns are all that a log holds.
    """

    experiment: np.ndarray
    screen_x: np.ndarray
    mz_port: np.ndarray
    cavity1_photons: np.ndarray
    cavity2_photons: np.ndarray
    scatter_x: np.ndarray
    scatter_y: np.ndarray
    stream_id: np.ndarray

    def column(self, name: str) -> np.ndarray:
        """The named field of every event that carries it, in log order."""
        if name not in EVENT_FIELDS:
            raise ValueError(f"unknown event field {name!r}; expected one of {EVENT_FIELDS}")
        if name == "experiment":
            return self.experiment
        if name == "mz_port":
            return _PORTS_OR_NONE[self.mz_port[self.mz_port >= 0]]
        values = getattr(self, name)
        if name in ("cavity1_photons", "cavity2_photons"):
            return values[values >= 0]
        return values[~np.isnan(values)]

    @classmethod
    def join(cls, blocks) -> EventColumns:
        """One EventColumns of blocks of columns, in order: a lone block's
        arrays as they are, more blocks' concatenated. Every log that
        run_experiment or read_events_csv builds is joined here."""
        blocks = list(blocks)
        if len(blocks) == 1:
            return cls(*blocks[0])
        return cls(*map(np.concatenate, zip(*blocks)))

    def check(self) -> None:
        """The one home of the row rules, which EventLog's constructor runs,
        each over whole columns: cavity counts both present or both empty,
        at most one photon, scatter cells both present or both empty,
        exactly one terminal field, finite screen and scatter values, a
        port code that indexes MZ_PORTS or is -1, cavity codes of -1, 0 or
        1, and experiment names that are str with no comma and nothing
        str.splitlines breaks a line at. Each mask is computed once, and
        the NaN masks serve both the scatter-pair and the terminal rule.
        np.count_nonzero tests each mask, a third of the cost of .any()
        on a short column."""
        port, c1, c2 = self.mz_port, self.cavity1_photons, self.cavity2_photons
        if np.count_nonzero((c1 < 0) != (c2 < 0)):
            raise ValueError("cavity counts must both be present or both empty")
        if np.count_nonzero(c1 + c2 > 1):
            raise ValueError("at most one photon per particle")
        no_screen, no_scatter = np.isnan(self.screen_x), np.isnan(self.scatter_x)
        if np.count_nonzero(no_scatter != np.isnan(self.scatter_y)):
            raise ValueError("scatter cells must both be present or both empty")
        populated = 2 - no_screen.astype(np.int8) - no_scatter + (port >= 0)
        if np.count_nonzero(populated != 1):
            raise ValueError(f"exactly one terminal field must be set, got {populated[np.argmax(populated != 1)]}")
        infinite = np.isinf(self.screen_x)
        if np.count_nonzero(infinite):
            raise ValueError(f"screen_x must be finite, got {self.screen_x[np.argmax(infinite)].item()!r}")
        infinite = np.isinf(self.scatter_x) | np.isinf(self.scatter_y)
        if np.count_nonzero(infinite):
            i = np.argmax(infinite)
            raise ValueError(f"scatter_xy must be finite, got {(self.scatter_x[i].item(), self.scatter_y[i].item())!r}")
        bad = (port < -1) | (port >= len(MZ_PORTS))
        if np.count_nonzero(bad):
            raise ValueError(f"mz_port must be one of {MZ_PORTS}, got {port[np.argmax(bad)]}")
        for name, codes in (("cavity1_photons", c1), ("cavity2_photons", c2)):
            bad = (codes < -1) | (codes > 1)
            if np.count_nonzero(bad):
                raise ValueError(f"{name} must be 0 or 1, got {codes[np.argmax(bad)]}")
        names = set(self.experiment.tolist())
        if not all(isinstance(name, str) for name in names):  # before sorting, which mixed types break
            name = next(name for name in self.experiment.tolist() if not isinstance(name, str))
            raise ValueError(f"experiment must be a str, got {name!r}")
        for name in sorted(names):  # each distinct name once, in a fixed order
            if "," in name or "".join(name.splitlines()) != name:
                raise ValueError(f"experiment must hold no comma or line break, got {name!r}")


@functools.cache
def _whichway_records() -> tuple:
    """The 9 entries _records takes which-way records from, made once per
    process: check() leaves the count pairs (-1, -1), (0, 0), (0, 1) and
    (1, 0); pair (c1, c2) is entry 3(c1 + 1) + (c2 + 1), None for (-1, -1).
    Every log's rows with equal counts share one record. A tuple, as the
    collector cannot see into an object array that would hold them."""
    from .measurement import WhichWayRecord  # measurement imports this module

    table = [None] * 9
    for a, b in ((0, 0), (0, 1), (1, 0)):
        table[3 * a + b + 4] = WhichWayRecord(a, b)
    return tuple(table)


def _records(c: EventColumns) -> tuple[DetectionEvent, ...]:
    """The rows of checked columns c as DetectionEvents, one field at a
    time, each field from one take over its column: ids are the row
    numbers, and equal cavity counts share one WhichWayRecord. Presence
    is tested with np.count_nonzero, as in EventColumns.check()."""
    n, port, c1, none = c.experiment.size, c.mz_port, c.cavity1_photons, repeat(None)
    screen, scattered = ~np.isnan(c.screen_x), ~np.isnan(c.scatter_x)
    whichway = none
    if np.count_nonzero(c1 >= 0):
        whichway = np.array(_whichway_records(), dtype=object)[3 * c1 + c.cavity2_photons + 4].tolist()
    events = list(map(object.__new__, repeat(DetectionEvent, n)))
    for set_field, values in (
        (_set_event_id, range(n)),
        (_set_experiment, c.experiment.tolist()),
        (_set_screen_x, none if not np.count_nonzero(screen) else _spread(screen, c.screen_x[screen].tolist())),
        (_set_mz_port, _PORTS_OR_NONE[port].tolist() if np.count_nonzero(port >= 0) else none),
        (_set_whichway, whichway),
        (_set_scatter_xy, none if not np.count_nonzero(scattered) else _spread(scattered, list(zip(
            c.scatter_x[scattered].tolist(), c.scatter_y[scattered].tolist())))),
        (_set_stream_id, c.stream_id.tolist()),
    ):
        deque(map(set_field, events, values), maxlen=0)
    return tuple(events)


class EventLog:
    """Ordered detection events, held as the EventColumns they came from.

    A log is built from its EventColumns only: the constructor holds them
    to EventColumns.check() and makes them read-only, so every log, from
    run_experiment, read_events_csv or hand-built columns, keeps rows that
    passed the row rules once. column() reads one field of them. events
    is a read-only view: the DetectionEvents built from the checked
    columns on first access, then kept. Logs are immutable and compare
    equal when their columns are equal, NaN cells equal to NaN; a log
    read back from its events CSV equals the log written.
    """

    __slots__ = ("_events", "_columns")

    def __init__(self, columns: EventColumns) -> None:
        columns.check()
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "_events", None)
        object.__setattr__(self, "_columns", columns)

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    @property
    def events(self) -> tuple[DetectionEvent, ...]:
        if self._events is None:
            object.__setattr__(self, "_events", _records(self._columns))
        return self._events

    def column(self, name: str) -> np.ndarray:
        """The named field (see EVENT_FIELDS) of the events that carry it, in log order."""
        return self._columns.column(name)

    def __len__(self) -> int:
        return self._columns.experiment.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return all(np.array_equal(x, y, equal_nan=x.dtype == float) for x, y in zip(self._columns, other._columns))

    def __hash__(self) -> int:
        return hash(len(self))


def _profile_cdf(weights) -> np.ndarray:
    """The running sum of a sampling profile, which _inverse_cdf draws
    from. Every sampler builds its CDF here, so each refuses a profile
    with a negative, non-finite or no positive cell, or whose sum
    overflows, the same way.

    A profile passes when its least cell is nonnegative and its running
    sum ends positive and finite: a NaN cell makes both NaN, an infinite
    cell ends the sum infinite or NaN, so one cumsum and one min decide.
    The rules are checked one by one only to word a refusal."""
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("profile must be a nonempty 1-D array")
    with np.errstate(over="ignore", invalid="ignore"):
        cdf = np.cumsum(weights)
    if 0.0 < cdf[-1] < math.inf and weights.min() >= 0.0:
        return cdf
    if not np.all(np.isfinite(weights)):
        raise ValueError("profile values must be finite")
    if np.any(weights < 0):
        raise ValueError("profile values must be nonnegative")
    if not cdf[-1] > 0:
        raise ValueError("profile must have at least one positive value")
    raise ValueError("profile sum must be finite, got inf")


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


def sample_positions(positions, weights, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws proportional to weights on a uniform grid of cell centers.

    Each draw is inverse-CDF over the cells, then a uniform jitter inside
    the chosen cell, which keeps re-binned histograms free of grid-comb
    artifacts. Uniforms are taken as one (n, 2) block, which numpy fills
    in the same order as 2n scalar calls, so this function and a loop
    over the sample_position oracle (tests/oracles.py), two uniforms per
    draw, produce identical output from the same stream state.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    positions = np.asarray(positions, dtype=float)
    cdf = _profile_cdf(weights)
    if positions.shape != cdf.shape:
        raise ValueError("positions and profile must have the same shape")
    if n == 0:
        return np.empty(0)
    draws = rng.random((n, 2))
    return _inverse_cdf(positions, cdf, draws[:, 0], draws[:, 1])


#: Cells in the inverse-CDF sampling grid across the screen or midline.
SAMPLING_CELLS = 4096


def sampling_grid(x_min: float, x_max: float, n_cells: int = SAMPLING_CELLS) -> np.ndarray:
    """Cell centers of the uniform sampling grid over [x_min, x_max]."""
    if n_cells < 1:
        raise ValueError("n_cells must be positive")
    if not x_min < x_max:
        raise ValueError(f"empty grid range [{x_min}, {x_max}]")
    width = (x_max - x_min) / n_cells
    return x_min + width * (np.arange(n_cells) + 0.5)
