"""Seeded random streams, detection-event records, and position sampling.

Reproducibility contract: all randomness flows through numpy Generators
built on the Philox 4x64 counter-based bit generator, keyed by the pair
(seed, stream_id). The same pair yields the same draw sequence on every
platform and numpy release that ships Philox, and distinct stream ids
give statistically independent streams, so event generation can be
partitioned across streams and merged deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

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

    def __init__(
        self,
        event_id: int,
        experiment: str,
        screen_x: Optional[float] = None,
        mz_port: Optional[str] = None,
        whichway: Optional["WhichWayRecord"] = None,
        scatter_xy: Optional[tuple[float, float]] = None,
        stream_id: int = 0,
    ) -> None:
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


@dataclass(frozen=True)
class EventLog:
    """Ordered detection events plus the hash of the producing config."""

    events: tuple[DetectionEvent, ...]
    config_digest: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))
        for i, e in enumerate(self.events):
            if e.event_id != i:
                raise ValueError(f"event ids must be dense from 0; position {i} holds id {e.event_id}")

    def __len__(self) -> int:
        return len(self.events)


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


def _cell_width(positions: np.ndarray) -> float:
    if positions.size < 2:
        return 0.0
    return float(positions[1] - positions[0])


def _inverse_cdf(positions: np.ndarray, cdf: np.ndarray, cell_u, jitter_u):
    """Inverse-CDF sampling core shared by every screen draw.

    cell_u picks a cell of the grid positions with probability
    proportional to its weight (cdf is the running sum of the weights);
    jitter_u then places the draw uniformly inside that cell. Scalars or
    equal-shape arrays of uniforms in [0, 1) are accepted.
    """
    idx = np.minimum(np.searchsorted(cdf, cell_u * cdf[-1], side="right"), positions.size - 1)
    return positions[idx] + (jitter_u - 0.5) * _cell_width(positions)


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
