"""Histograms, fringe metrics, and the wave-particle trade-off check."""

import numpy as np
import pytest
from conftest import event_columns
from hypothesis import given
from hypothesis import strategies as st

from fringelab.analysis import (
    _FIELD_COLUMNS,
    HISTOGRAM_FIELDS,
    DualityResult,
    FringeHistogram,
    compute_metrics,
    distinguishability,
    duality_check,
    fringe_spacing,
    histogram,
    local_extrema,
    overlap_distinguishability,
    profile_visibility,
    smooth3,
    visibility,
)
from fringelab.config import PRESET_NAMES, build_preset
from fringelab.experiments import run_experiment
from fringelab.io import read_events_csv, write_events_csv
from fringelab.montecarlo import EventLog


def screen_log(values):
    return EventLog(event_columns(*(("run", float(v)) for v in values)))


def cosine_histogram(contrast, n_periods=3, bins_per_period=8, level=1000.0):
    """Counts level*(1 + contrast*cos) sampled so extrema sit on bins."""
    n_bins = n_periods * bins_per_period + 1
    i = np.arange(n_bins)
    counts = level * (1.0 + contrast * np.cos(2.0 * np.pi * i / bins_per_period))
    edges = np.arange(n_bins + 1, dtype=float)
    return FringeHistogram(edges, counts)


def test_histogram_validation():
    with pytest.raises(ValueError):
        FringeHistogram(np.array([0.0, 1.0, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        FringeHistogram(np.array([0.0, 1.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        FringeHistogram(np.array([0.0, 1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        FringeHistogram.from_values([0.5], 1, (0.0, 1.0))
    with pytest.raises(ValueError):
        FringeHistogram.from_values([0.5], 4, (1.0, 1.0))


@pytest.mark.parametrize("edges,counts,n_dropped,message", [
    ([[0.0, 1.0]], [1.0], 0, "bin_edges must be a 1-D array of at least two edges"),
    ([0.0], [], 0, "bin_edges must be a 1-D array of at least two edges"),
    ([0.0, np.nan, 1.0], [1.0], 0, "bin_edges must be finite"),
    ([0.0, 1.0, np.inf], [1.0], 0, "bin_edges must be finite"),
    ([0.0, 1.0, 1.0], [1.0, 1.0], 0, "bin_edges must be strictly increasing"),
    ([0.0, 1.0, 0.5], [1.0], 0, "bin_edges must be strictly increasing"),
    ([0.0, 1.0, 2.0], [1.0], 0, "need 2 counts for 3 edges, got 1"),
    ([0.0, 1.0], [[1.0]], 0, "need 1 counts for 2 edges, got 1"),
    ([0.0, 1.0, 2.0], [np.inf, -1.0], 0, "counts must be finite"),
    ([0.0, 1.0], [-1.0], -1, "counts must be nonnegative"),
    ([0.0, 1.0], [1.0], -1, "n_dropped must be nonnegative"),
])
def test_histogram_checks_run_in_order_with_their_messages(edges, counts, n_dropped, message):
    with pytest.raises(ValueError) as raised:
        FringeHistogram(np.array(edges), np.array(counts), n_dropped)
    assert str(raised.value) == message


def test_histogram_takes_edges_whose_difference_overflows():
    h = FringeHistogram(np.array([-1e308, 1e308]), np.array([1.0]))  # 2e308 is past the largest float
    assert h.n_bins == 1


def test_histogram_from_values_counts_and_drops():
    h = FringeHistogram.from_values([0.1, 0.2, 0.6, 1.4, -3.0], 2, (0.0, 1.0))
    np.testing.assert_array_equal(h.counts, [2.0, 1.0])
    assert h.n_dropped == 2
    assert h.total == 3.0
    assert h.n_bins == 2
    np.testing.assert_allclose(h.bin_centers(), [0.25, 0.75])


def test_histogram_counts_are_frozen():
    h = FringeHistogram.from_values([0.1], 2, (0.0, 1.0))
    with pytest.raises(ValueError):
        h.counts[0] = 99.0


def test_histogram_addition_requires_same_binning():
    a = FringeHistogram.from_values([0.1, 0.6], 2, (0.0, 1.0))
    b = FringeHistogram.from_values([0.2, 0.7, 0.8], 2, (0.0, 1.0))
    total = a + b
    np.testing.assert_array_equal(total.counts, a.counts + b.counts)
    c = FringeHistogram.from_values([0.1], 4, (0.0, 1.0))
    with pytest.raises(ValueError):
        a + c


def test_histogram_field_extraction():
    log = screen_log([0.1, 0.4, 0.9])
    h = histogram(log, "screen_x", 2, (0.0, 1.0))
    assert h.total == 3.0
    with pytest.raises(ValueError):
        histogram(log, "scatter_projection", 2, (0.0, 1.0))
    with pytest.raises(ValueError):
        histogram(log, "mz_port", 2, (0.0, 1.0))


def test_smooth3_is_edge_preserving():
    counts = np.array([5.0, 1.0, 7.0, 3.0, 9.0, 2.0, 8.0])
    smoothed = smooth3(counts)
    # hand arithmetic: edges stay, interior is the 3-bin mean
    np.testing.assert_allclose(
        smoothed,
        [5.0, 13.0 / 3.0, 11.0 / 3.0, 19.0 / 3.0, 14.0 / 3.0, 19.0 / 3.0, 8.0],
    )
    np.testing.assert_array_equal(smooth3(np.array([4.0, 2.0])), [4.0, 2.0])


def test_local_extrema_hand_case():
    counts = np.array([5.0, 1.0, 7.0, 3.0, 9.0, 2.0, 8.0])
    maxima, minima = local_extrema(smooth3(counts))
    assert maxima == [3]
    assert minima == [2, 4]


def test_local_extrema_break_ties_toward_lower_index():
    maxima, minima = local_extrema(np.array([0.0, 2.0, 2.0, 0.0]))
    assert maxima == [1]
    maxima, minima = local_extrema(np.array([3.0, 1.0, 1.0, 3.0]))
    assert minima == [1]


def test_local_extrema_never_at_boundaries():
    maxima, minima = local_extrema(np.array([9.0, 1.0, 8.0]))
    assert maxima == []
    assert minima == [1]


@given(st.lists(st.integers(0, 3), max_size=12))
def test_local_extrema_match_a_bin_by_bin_reference(counts):
    # few distinct levels, so neighbouring bins often tie
    s = np.array(counts, dtype=float)
    maxima, minima = [], []
    for i in range(1, len(s) - 1):
        if s[i] > s[i - 1] and s[i] >= s[i + 1]:
            maxima.append(i)
        if s[i] < s[i - 1] and s[i] <= s[i + 1]:
            minima.append(i)
    assert local_extrema(s) == (maxima, minima)


@pytest.mark.parametrize("contrast", [0.2, 0.5, 0.8, 1.0])
def test_visibility_recovers_cosine_contrast(contrast):
    h = cosine_histogram(contrast)
    v = visibility(h)
    assert v.present
    assert v.value == pytest.approx(contrast, abs=1e-12)


def test_visibility_uses_raw_counts_at_extrema():
    # smoothing flattens the peak values; the estimator must read the raw
    # bins, or contrast would be biased low
    h = cosine_histogram(1.0)
    v = visibility(h)
    assert v.value == pytest.approx(1.0, abs=1e-12)


def test_visibility_flags_flat_histograms():
    h = FringeHistogram(np.arange(11, dtype=float), np.full(10, 7.0))
    v = visibility(h)
    assert not v.present
    assert v.flag == "insufficient fringes"


def test_visibility_flags_single_hump():
    counts = np.array([1.0, 5.0, 9.0, 5.0, 1.0])
    h = FringeHistogram(np.arange(6, dtype=float), counts)
    v = visibility(h)
    assert not v.present
    assert v.flag == "insufficient fringes"


def test_visibility_window_restricts_extrema():
    h = cosine_histogram(0.7)
    # window covering only the first hump leaves fewer than 3 extrema
    v = visibility(h, window=(0.0, 6.0))
    assert not v.present
    full = visibility(h, window=(float(h.bin_edges[0]), float(h.bin_edges[-1])))
    assert full.present
    assert full.value == pytest.approx(0.7, abs=1e-12)


def test_fringe_spacing_recovers_period():
    h = cosine_histogram(0.9, n_periods=4, bins_per_period=10)
    s = fringe_spacing(h)
    assert s.present
    # bins are unit wide, so the period is bins_per_period
    assert s.value == pytest.approx(10.0, abs=1e-12)


def test_fringe_spacing_flags_single_maximum():
    counts = np.array([1.0, 5.0, 9.0, 5.0, 1.0])
    h = FringeHistogram(np.arange(6, dtype=float), counts)
    s = fringe_spacing(h)
    assert not s.present
    assert s.flag == "insufficient maxima"


def test_profile_visibility_basics():
    assert profile_visibility([1.0, 3.0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        profile_visibility([0.0, 0.0])
    with pytest.raises(ValueError):
        profile_visibility([1.0, -1.0])


def test_distinguishability_two_cavity_records_determine_paths():
    pairs = [(1, 0) if i % 2 else (0, 1) for i in range(10)]
    log = EventLog(event_columns(*(("run", 0.0, None, c1, c2) for c1, c2 in pairs)))
    d = distinguishability(log)
    assert d.value == 1.0


def test_distinguishability_single_cavity_counts_absences():
    log = EventLog(event_columns(*(("run", 0.0, None, 1 if i % 3 == 0 else 0, 0) for i in range(9)),
                                 single_cavity=True))
    d = distinguishability(log)
    assert d.value == 1.0


def test_distinguishability_flags_untagged_logs():
    d = distinguishability(screen_log([0.1, 0.2]))
    assert not d.present
    assert d.flag == "no which-way records"


def test_overlap_distinguishability_law():
    assert overlap_distinguishability(0.0) == 1.0
    assert overlap_distinguishability(1.0) == 0.0
    assert overlap_distinguishability(0.6) == pytest.approx(0.8, abs=1e-15)
    with pytest.raises(ValueError):
        overlap_distinguishability(1.2)


def test_duality_check_headroom_boundary():
    assert duality_check(1.0, 0.1).lhs == pytest.approx(1.01)
    assert duality_check(1.0, 0.1).satisfied is True
    assert duality_check(1.0, 0.2).satisfied is False
    assert duality_check(0.6, 0.8).lhs == pytest.approx(1.0)
    assert duality_check(0.6, 0.8).satisfied is True


def test_compute_metrics_bundles_and_skips_duality_when_flagged():
    h = cosine_histogram(0.5)
    log = screen_log([0.1])
    metrics = compute_metrics(h, log)
    assert metrics.visibility.present
    assert metrics.duality is None  # no which-way records
    tagged = EventLog(event_columns(("run", 0.0, None, 1, 0)))
    metrics = compute_metrics(h, tagged)
    assert isinstance(metrics.duality, DualityResult)
    assert metrics.duality.lhs == pytest.approx(0.25 + 1.0)
    assert metrics.duality.satisfied is False


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_column_and_record_logs_analyze_alike(tmp_path, preset):
    records = run_experiment(build_preset(preset), 3000, seed=11)
    path = tmp_path / "events.csv"
    write_events_csv(records, path)
    columns = read_events_csv(path)
    assert distinguishability(columns) == distinguishability(records)
    for field in HISTOGRAM_FIELDS:
        if not records.column(_FIELD_COLUMNS[field]).size:
            with pytest.raises(ValueError, match="no events with field"):
                histogram(columns, field, 64, (-1.0, 1.0))
            continue
        values = records.column(_FIELD_COLUMNS[field])
        value_range = (float(values.min()), float(values.max()))
        h_records = histogram(records, field, 64, value_range)
        h_columns = histogram(columns, field, 64, value_range)
        assert h_columns.same_binning(h_records)
        np.testing.assert_array_equal(h_columns.counts, h_records.counts)
        assert h_columns.n_dropped == h_records.n_dropped
        assert compute_metrics(h_columns, columns) == compute_metrics(h_records, records)
    assert columns._events is None  # none of it built a record


def mean_reference(h, window=None):
    """(visibility, fringe spacing) with the extrema levels and the peak
    spacing averaged by np.mean, for a bit-for-bit comparison."""
    maxima, minima = local_extrema(smooth3(h.counts))
    centers = h.bin_centers()
    spacing = float(np.mean(np.diff(centers[maxima]))) if len(maxima) >= 2 else None
    if window is not None:
        maxima = [i for i in maxima if window[0] <= centers[i] <= window[1]]
        minima = [i for i in minima if window[0] <= centers[i] <= window[1]]
    if len(maxima) + len(minima) < 3 or not maxima or not minima:
        return None, spacing
    i_max, i_min = float(np.mean(h.counts[maxima])), float(np.mean(h.counts[minima]))
    if i_max + i_min <= 0.0:
        return None, spacing
    return max(0.0, (i_max - i_min) / (i_max + i_min)), spacing


@given(
    st.lists(st.tuples(st.integers(0, 2000) | st.floats(0.0, 1e6), st.floats(1e-6, 1e3)), min_size=2, max_size=200),
    st.floats(-1e3, 1e3),
    st.none() | st.tuples(st.floats(0.0, 0.5), st.floats(0.5, 1.0)),
)
def test_visibility_and_spacing_match_an_np_mean_reference(bins, lo, window):
    counts, widths = (np.array(column, dtype=float) for column in zip(*bins))
    edges = np.concatenate([[lo], lo + np.cumsum(widths)])  # uneven bins, so the peak spacings differ
    h = FringeHistogram(edges, counts)
    if window is not None:  # a window over a share of the axis
        window = (edges[0] + window[0] * (edges[-1] - edges[0]), edges[0] + window[1] * (edges[-1] - edges[0]))
    v_ref, spacing_ref = mean_reference(h, window)
    assert repr(visibility(h, window).value) == repr(v_ref)
    assert repr(fringe_spacing(h).value) == repr(spacing_ref)


@pytest.mark.parametrize("seed", range(4))
def test_visibility_and_spacing_match_an_np_mean_reference_on_noisy_counts(seed):
    rng = np.random.Generator(np.random.Philox(key=[seed, 17]))
    for n_bins in rng.integers(8, 200, 50):
        edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n_bins))])
        h = FringeHistogram(edges, rng.uniform(0.0, 1000.0, n_bins))
        window = (0.2 * edges[-1], 0.7 * edges[-1])
        for w in (None, window):
            v_ref, spacing_ref = mean_reference(h, w)
            assert repr(visibility(h, w).value) == repr(v_ref), seed
            assert repr(fringe_spacing(h).value) == repr(spacing_ref), seed
