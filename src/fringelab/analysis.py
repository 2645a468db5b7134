"""Histogramming and fringe metrics for detection-event logs.

Everything here is a pure function over immutable values. Metrics that
can legitimately fail on fringeless data (visibility, spacing, which-way
distinguishability) return a MetricValue whose value is None and whose
flag says why, rather than raising: a washed-out pattern is a physical
outcome, not an analysis error. Binning follows np.histogram bit for
bit: bin i holds edges[i] <= v < edges[i+1], the last bin is closed, and
NaN, +-inf and values outside the range are dropped and counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .montecarlo import EventLog

#: Slack added to the V^2 + D^2 <= 1 bound to absorb estimator noise.
DUALITY_HEADROOM = 0.02

#: The event-log column each histogram field reads.
_FIELD_COLUMNS = {"screen_x": "screen_x", "scatter_projection": "scatter_x"}
HISTOGRAM_FIELDS = tuple(_FIELD_COLUMNS)


@dataclass(frozen=True)
class FringeHistogram:
    """Fixed-width binned counts plus how many samples fell outside."""

    bin_edges: np.ndarray
    counts: np.ndarray
    n_dropped: int = 0

    def __post_init__(self) -> None:
        edges = np.array(self.bin_edges, dtype=float)
        counts = np.array(self.counts, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("bin_edges must be a 1-D array of at least two edges")
        if not np.isfinite(edges).all():
            raise ValueError("bin_edges must be finite")
        if (edges[1:] <= edges[:-1]).any():
            raise ValueError("bin_edges must be strictly increasing")
        if counts.ndim != 1 or counts.size != edges.size - 1:
            raise ValueError(f"need {edges.size - 1} counts for {edges.size} edges, got {counts.size}")
        if not np.isfinite(counts).all():
            raise ValueError("counts must be finite")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if self.n_dropped < 0:
            raise ValueError("n_dropped must be nonnegative")
        edges.flags.writeable = False
        counts.flags.writeable = False
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_values(cls, values, n_bins: int, value_range: tuple[float, float]) -> "FringeHistogram":
        lo, hi = float(value_range[0]), float(value_range[1])
        if n_bins < 2:
            raise ValueError(f"need at least 2 bins, got {n_bins}")
        if not lo < hi:
            raise ValueError(f"empty histogram range [{lo}, {hi}]")
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"supplied range of [{lo}, {hi}] is not finite")
        edges = np.linspace(lo, hi, n_bins + 1)
        if (edges[:-1] >= edges[1:]).any():
            raise ValueError(f"Too many bins for data range. Cannot create {n_bins} finite-sized bins.")
        values = np.asarray(values, dtype=float).ravel()
        counts = np.zeros(n_bins, np.intp)
        for start in range(0, values.size, 65536):  # np.histogram's block size
            v = values[start : start + 65536]
            keep = (v >= lo) & (v <= hi)
            if not keep.all():
                v = v[keep]
            index = ((v - lo) / (hi - lo) * n_bins).astype(np.intp)
            index[index == n_bins] = n_bins - 1
            index[v < edges[index]] -= 1  # the float index can miss an edge by an ulp
            index[(v >= edges[index + 1]) & (index != n_bins - 1)] += 1
            counts += np.bincount(index, minlength=n_bins)
        return cls(edges, counts.astype(float), n_dropped=int(values.size - counts.sum()))

    @property
    def n_bins(self) -> int:
        return self.counts.size

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    def same_binning(self, other: "FringeHistogram") -> bool:
        return self.bin_edges.size == other.bin_edges.size and bool(
            np.array_equal(self.bin_edges, other.bin_edges)
        )

    def __add__(self, other: "FringeHistogram") -> "FringeHistogram":
        if not self.same_binning(other):
            raise ValueError("cannot add histograms with different binning")
        return FringeHistogram(self.bin_edges, self.counts + other.counts, self.n_dropped + other.n_dropped)


def _field_values(log: "EventLog", field: str) -> np.ndarray:
    """One coordinate field's values, in log order, from the events that
    carry it. field is "screen_x" or "scatter_projection"."""
    if field not in HISTOGRAM_FIELDS:
        raise ValueError(f"unknown histogram field {field!r}; expected one of {HISTOGRAM_FIELDS}")
    return log.column(_FIELD_COLUMNS[field])


def histogram(
    log: "EventLog",
    field: str,
    n_bins: int,
    value_range: tuple[float, float],
) -> FringeHistogram:
    """Bin one coordinate field of an event log.

    field is "screen_x" or "scatter_projection"; events that do not carry
    the field are ignored, events carrying it but falling outside
    value_range are dropped and counted in n_dropped.
    """
    values = _field_values(log, field)
    if values.size == 0:
        raise ValueError(f"event log has no events with field {field!r}")
    return FringeHistogram.from_values(values, n_bins, value_range)


@dataclass(frozen=True)
class MetricValue:
    """A metric that may be undefined, with the reason in flag."""

    value: Optional[float]
    flag: str = ""

    @property
    def present(self) -> bool:
        return self.value is not None


def smooth3(counts: np.ndarray) -> np.ndarray:
    """3-bin boxcar; the two edge bins keep their raw values."""
    s = np.asarray(counts, dtype=float).copy()
    if s.size >= 3:
        s[1:-1] = (s[:-2] + s[1:-1] + s[2:]) / 3.0
    return s


def local_extrema(smoothed: np.ndarray) -> tuple[list[int], list[int]]:
    """Interior local maxima and minima of a profile.

    A maximum satisfies s[i] > s[i-1] and s[i] >= s[i+1] (ties resolved
    toward the lower index); minima mirror the rule. The first and last
    bins are never extrema.
    """
    s = np.asarray(smoothed)
    mid, left, right = s[1:-1], s[:-2], s[2:]
    maxima = np.flatnonzero((mid > left) & (mid >= right)) + 1
    minima = np.flatnonzero((mid < left) & (mid <= right)) + 1
    return maxima.tolist(), minima.tolist()


def visibility(h: FringeHistogram, window: tuple[float, float] | None = None) -> MetricValue:
    """Fringe contrast (Imax - Imin)/(Imax + Imin) from detected extrema.

    Extrema are located on the 3-bin smoothed profile; the averaged
    levels Imax and Imin are taken from the raw bin values at those
    positions, restricted to bins whose centers lie inside window (the
    whole histogram when window is None). Fewer than three extrema in
    the window means there is no fringe structure to rate, so the result
    is flagged "insufficient fringes" instead of being a number.
    """
    smoothed = smooth3(h.counts)
    maxima, minima = local_extrema(smoothed)
    if window is not None:
        lo, hi = window
        centers = h.bin_centers()
        maxima = [i for i in maxima if lo <= centers[i] <= hi]
        minima = [i for i in minima if lo <= centers[i] <= hi]
    if len(maxima) + len(minima) < 3 or not maxima or not minima:
        return MetricValue(None, "insufficient fringes")
    # sum / size gives np.mean's bits without its overhead
    i_max, i_min = (float(x.sum() / x.size) for x in (h.counts[maxima], h.counts[minima]))
    if i_max + i_min <= 0.0:
        return MetricValue(None, "insufficient fringes")
    return MetricValue(max(0.0, (i_max - i_min) / (i_max + i_min)))


def fringe_spacing(h: FringeHistogram) -> MetricValue:
    """Mean center-to-center distance between adjacent detected maxima."""
    maxima, _ = local_extrema(smooth3(h.counts))
    if len(maxima) < 2:
        return MetricValue(None, "insufficient maxima")
    steps = np.diff(h.bin_centers()[maxima])
    return MetricValue(float(steps.sum() / steps.size))


def profile_visibility(values) -> float:
    """(max - min)/(max + min) of an analytic profile on a grid."""
    values = np.asarray(values, dtype=float)
    if values.size == 0 or not np.all(np.isfinite(values)):
        raise ValueError("profile must be a nonempty finite array")
    if np.any(values < 0):
        raise ValueError("profile values must be nonnegative")
    v_max = float(values.max())
    v_min = float(values.min())
    if v_max + v_min == 0.0:
        raise ValueError("profile is identically zero")
    return (v_max - v_min) / (v_max + v_min)


def distinguishability(log: "EventLog") -> MetricValue:
    """Fraction of which-way records that pin down the path, read from
    the two cavity-count columns alone.

    A record with one photon names the slit whose cavity holds it; a
    record with none names slit 2, which only a single-cavity run leaves
    untagged. The row rules admit no other count pair. Logs whose events
    carry no which-way records at all (no recording mechanism was
    configured) get a flagged null rather than a number.
    """
    cavity1 = log.column("cavity1_photons")
    if cavity1.size == 0:
        return MetricValue(None, "no which-way records")
    determined = cavity1 + log.column("cavity2_photons") <= 1
    return MetricValue(int(np.count_nonzero(determined)) / cavity1.size)


def overlap_distinguishability(c: float) -> float:
    """Path knowledge sqrt(1 - c^2) stored by detector states of overlap c."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"detector overlap must lie in [0, 1], got {c!r}")
    return math.sqrt(1.0 - c * c)


@dataclass(frozen=True)
class DualityResult:
    lhs: float
    satisfied: bool


def duality_check(v: float, d: float) -> DualityResult:
    """Evaluate V^2 + D^2 against 1 with statistical headroom."""
    lhs = float(v) * float(v) + float(d) * float(d)
    return DualityResult(lhs, lhs <= 1.0 + DUALITY_HEADROOM)


@dataclass(frozen=True)
class FringeMetrics:
    """The metric bundle the analyze command reports."""

    visibility: MetricValue
    fringe_spacing: MetricValue
    distinguishability: MetricValue
    duality: Optional[DualityResult] = None


def compute_metrics(h: FringeHistogram, log: "EventLog") -> FringeMetrics:
    v = visibility(h)
    spacing = fringe_spacing(h)
    d = distinguishability(log)
    duality = duality_check(v.value, d.value) if v.present and d.present else None
    return FringeMetrics(v, spacing, d, duality)
