"""Invariants checked over seeded random inputs rather than hand cases.

Each test replays the same identities on a batch of generator-driven
inputs; failures print the offending seed through the assertion message.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import ensemble_pattern

from fringelab.analysis import FringeHistogram, visibility
from fringelab.composite import (
    PhaseNoise,
    inner,
    literal_pattern,
    overlap_pair,
    two_slit_composite,
)
from fringelab.measurement import coincidence_modulate
from fringelab.montecarlo import RngStream, sample_positions, sampling_grid
from fringelab.wavefield import BeamSpec, TwoSlitGeometry


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def random_counts(rng, n_bins=48, level=500):
    return rng.integers(0, level, n_bins).astype(float)


# --- visibility estimator ---

@pytest.mark.parametrize("seed", range(8))
def test_visibility_unchanged_by_power_of_two_rescaling(seed):
    # doubling every count scales the boxcar and the extrema averages
    # exactly, so the ratio comes out bit-identical
    counts = random_counts(rng_for(seed))
    edges = np.arange(counts.size + 1, dtype=float)
    base = visibility(FringeHistogram(edges, counts))
    for factor in (2.0, 8.0, 0.25):
        scaled = visibility(FringeHistogram(edges, counts * factor))
        assert scaled.present == base.present
        if base.present:
            assert scaled.value == base.value


@pytest.mark.parametrize("seed", range(8))
def test_visibility_stays_in_unit_interval(seed):
    counts = random_counts(rng_for(seed))
    v = visibility(FringeHistogram(np.arange(counts.size + 1, dtype=float), counts))
    if v.present:
        assert 0.0 <= v.value <= 1.0


def test_visibility_ignores_bin_positions():
    # the estimator sees only the ordered counts, not the coordinates
    counts = random_counts(rng_for(99))
    narrow = visibility(FringeHistogram(np.arange(counts.size + 1) * 1e-6, counts))
    wide = visibility(FringeHistogram(np.arange(counts.size + 1) * 3.0, counts))
    assert narrow.value == wide.value


# --- coincidence modulation ---

def split_singles(joint_counts, rng):
    picks = rng.binomial(joint_counts.astype(int), 0.5).astype(float)
    return picks, joint_counts - picks


@pytest.mark.parametrize("seed", range(6))
def test_modulation_endpoints_on_integer_counts(seed):
    rng = rng_for(seed)
    edges = np.arange(33, dtype=float)
    joint = FringeHistogram(edges, random_counts(rng, 32))
    s1, s2 = split_singles(joint.counts, rng)
    single1 = FringeHistogram(edges, s1)
    single2 = FringeHistogram(edges, s2)
    off = coincidence_modulate(joint, single1, single2, 0.0)
    np.testing.assert_array_equal(off.counts, s1 + s2)
    full = coincidence_modulate(joint, single1, single2, 1.0)
    np.testing.assert_array_equal(full.counts, joint.counts)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("gamma", [0.5, 0.25, -0.75, -1.0])
def test_modulation_is_affine_in_gamma(seed, gamma):
    # integer counts and dyadic gamma keep every product exact, so the
    # output must equal the restated affine form bit for bit
    rng = rng_for(seed)
    edges = np.arange(33, dtype=float)
    joint = FringeHistogram(edges, random_counts(rng, 32))
    s1, s2 = split_singles(joint.counts, rng)
    single1 = FringeHistogram(edges, s1)
    single2 = FringeHistogram(edges, s2)
    out = coincidence_modulate(joint, single1, single2, gamma)
    base = s1 + s2
    expected = np.maximum(base + gamma * (joint.counts - base), 0.0)
    np.testing.assert_array_equal(out.counts, expected)


# --- state overlaps ---

@pytest.mark.parametrize("seed", range(4))
def test_inner_product_conjugate_symmetry_is_exact(seed):
    rng = rng_for(seed)
    for dim in (2, 3, 7):
        for _ in range(20):
            raw_a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            raw_b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            from fringelab.composite import StateVector

            a = StateVector.normalize(tuple(raw_a))
            b = StateVector.normalize(tuple(raw_b))
            assert inner(a, b) == np.conj(inner(b, a))


@pytest.mark.parametrize("seed", range(4))
def test_overlap_pair_recovers_any_requested_overlap(seed):
    rng = rng_for(seed)
    for _ in range(50):
        magnitude = rng.random()
        phase = rng.uniform(-np.pi, np.pi)
        first, second = overlap_pair(magnitude, phase)
        target = magnitude * np.exp(1j * phase)
        assert abs(inner(first, second) - target) < 1e-12
        assert abs(inner(first, first) - 1.0) < 1e-12
        assert abs(inner(second, second) - 1.0) < 1e-12


# --- sampling ---

@pytest.mark.parametrize("seed", range(5))
def test_samples_stay_inside_positive_weight_cells(seed):
    rng = rng_for(seed)
    n_cells = 64
    lo, hi = sorted(rng.uniform(-3.0, 3.0, 2))
    if hi - lo < 0.1:
        hi = lo + 0.1
    weights = rng.random(n_cells)
    weights[rng.random(n_cells) < 0.5] = 0.0
    weights[rng.integers(n_cells)] = 1.0
    grid = sampling_grid(lo, hi, n_cells)
    draws = sample_positions(grid, weights, RngStream(seed, 0).generator(), 400)
    width = (hi - lo) / n_cells
    assert np.all(draws >= lo)
    assert np.all(draws <= hi)
    cells = np.clip(((draws - lo) / width).astype(int), 0, n_cells - 1)
    assert np.all(weights[cells] > 0.0)


# --- noise averaging ---

@pytest.mark.parametrize("seed", range(4))
def test_constant_noise_ensemble_equals_noiseless_pattern(seed):
    rng = rng_for(seed)
    separation = rng.uniform(5e-6, 20e-6)
    geometry = TwoSlitGeometry(separation, separation / 5.0, 1.0)
    beam = BeamSpec(wavelength=rng.uniform(400e-9, 700e-9))
    state = two_slit_composite(geometry, beam)
    period = beam.wavelength * geometry.screen_distance / separation
    x = np.linspace(-2 * period, 2 * period, 161)
    value = rng.uniform(-np.pi, np.pi)
    out = ensemble_pattern(state, PhaseNoise.constant(value), 25, rng, x)
    np.testing.assert_array_equal(out, literal_pattern(state, x))


# --- histogram algebra ---

@pytest.mark.parametrize("seed", range(5))
def test_histogram_addition_matches_pooled_values(seed):
    rng = rng_for(seed)
    a = rng.uniform(-1.2, 1.2, 300)
    b = rng.uniform(-1.2, 1.2, 200)
    ha = FringeHistogram.from_values(a, 24, (-1.0, 1.0))
    hb = FringeHistogram.from_values(b, 24, (-1.0, 1.0))
    pooled = FringeHistogram.from_values(np.concatenate([a, b]), 24, (-1.0, 1.0))
    combined = ha + hb
    np.testing.assert_array_equal(combined.counts, pooled.counts)
    assert combined.n_dropped == pooled.n_dropped


# --- binning ---

def assert_bins_like_numpy(values, n_bins, value_range):
    """from_values gives np.histogram's counts, edges and drops bit for bit,
    or fails with its message."""
    values = np.asarray(values, dtype=float)
    try:
        counts, edges = np.histogram(values, n_bins, value_range)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            FringeHistogram.from_values(values, n_bins, value_range)
        assert str(raised.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN cast to a bin index warns
        h = FringeHistogram.from_values(values, n_bins, value_range)
    assert h.counts.tobytes() == counts.astype(float).tobytes()
    assert h.bin_edges.tobytes() == edges.tobytes()
    assert h.n_dropped == values.size - int(counts.sum())


def edge_values(n_bins, lo, hi, spread=()):
    """Every edge and one ulp either side of it, NaN, +-inf, and the values
    lo + s * (hi - lo) for s in spread."""
    edges = np.linspace(lo, hi, n_bins + 1)
    scaled = lo + np.asarray(spread, dtype=float) * (hi - lo)
    special = [math.nan, math.inf, -math.inf]
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), scaled, special])


@st.composite
def binnings(draw):
    n_bins = draw(st.integers(2, 300))
    lo = draw(st.floats(-1e300, 1e300))
    width = draw(st.floats(5e-324, 1e300) | st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300]))
    hi = lo + width if lo + width > lo else math.nextafter(lo, math.inf)
    values = edge_values(n_bins, lo, hi, draw(st.lists(st.floats(-0.5, 1.5), max_size=40)))
    # all of them, or a few, so that a block can hold a single drop or none
    picks = draw(st.none() | st.lists(st.integers(0, values.size - 1), max_size=30))
    return (values if picks is None else values[picks]), n_bins, (lo, hi)


@given(binnings())
@example((edge_values(2, 0.0, 5e-324), 2, (0.0, 5e-324)))  # too many bins for a denormal range
@example((edge_values(300, -1e300, 0.0), 300, (-1e300, 0.0)))
def test_from_values_bins_like_numpy(binning):
    assert_bins_like_numpy(*binning)


@pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537])
def test_from_values_bins_like_numpy_across_blocks(size):
    pool = edge_values(37, -0.3, 1.7, rng_for(size).uniform(-0.2, 1.2, 500))
    values = np.resize(pool, size)
    if size:
        values[-1] = 1.7  # the last value sits on the closed right edge, alone in its block at 65537
    assert_bins_like_numpy(values, 37, (-0.3, 1.7))


@pytest.mark.parametrize("n_bins,value_range", [
    (4, (0.0, math.inf)),
    (4, (-math.inf, 0.0)),
    (4, (-math.inf, math.inf)),
    (2, (0.0, 5e-324)),
    (3, (1.0, math.nextafter(1.0, 2.0))),
    (300, (0.0, 1e-320)),
])
def test_from_values_refuses_a_range_with_numpy_s_message(n_bins, value_range):
    with pytest.raises(ValueError, match="is not finite|Too many bins"):
        np.histogram([0.5], n_bins, value_range)
    assert_bins_like_numpy([0.5], n_bins, value_range)
