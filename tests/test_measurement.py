"""Readout channels: operator signals, weak screen, cavity tags, modulation."""

import cmath
import math

import numpy as np
import pytest
from oracles import ScreenOutcome, micromaser_record, weak_screen_interact

from fringelab.analysis import FringeHistogram
from fringelab.composite import literal_pattern, overlap_pair, two_slit_composite
from fringelab.measurement import (
    MeasurementOperator,
    WeakScreen,
    WhichWayRecord,
    coincidence_modulate,
    measured_signal,
    midline_profile,
)
from fringelab.wavefield import BeamSpec, CrossingRegion, MZGeometry, TwoSlitGeometry, crossing_intensity

BEAM = BeamSpec(wavelength=500e-9)
GEO = TwoSlitGeometry(slit_separation=10e-6, slit_width=2e-6, screen_distance=1.0)
PERIOD = 500e-9 * 1.0 / 10e-6

MZ = MZGeometry(
    bs2_present=False,
    phase_difference=0.0,
    crossing_wavenumber=BEAM.wavenumber,
    crossing_region=CrossingRegion(0.0, 3e-6, 0.0, 3e-6),
)


def rng(seed=0):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def test_operator_validation():
    with pytest.raises(ValueError):
        MeasurementOperator("telepathic")
    with pytest.raises(ValueError):
        MeasurementOperator.center_of_mass(0.0)
    with pytest.raises(ValueError):
        MeasurementOperator("internal")
    with pytest.raises(ValueError):
        MeasurementOperator.internal(((1, 1, 1), (1, 1, 1)))


def test_center_of_mass_signal_scales_literal_pattern():
    state = two_slit_composite(GEO, BEAM)
    op = MeasurementOperator.center_of_mass(0.5 - 0.5j)
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    expected = abs(0.5 - 0.5j) ** 2 * literal_pattern(state, x)
    np.testing.assert_allclose(measured_signal(op, state, x), expected, rtol=0, atol=1e-12)


def test_center_of_mass_signal_ignores_orthogonal_overlaps():
    # the recorded signal keeps the fringe term even when the composite
    # state's detector factors are orthogonal
    tagged = two_slit_composite(GEO, BEAM, detector=overlap_pair(0.0))
    plain = two_slit_composite(GEO, BEAM)
    op = MeasurementOperator.center_of_mass(1.0)
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    np.testing.assert_allclose(
        measured_signal(op, tagged, x), measured_signal(op, plain, x), rtol=1e-12
    )


def test_internal_signal_matches_weighted_expansion():
    state = two_slit_composite(GEO, BEAM)
    g = ((0.9, 0.3 + 0.1j), (0.3 - 0.1j, 0.7))
    op = MeasurementOperator.internal(g)
    x = np.linspace(-PERIOD, PERIOD, 101)
    psi1 = state.branch1.com_amplitude(x)
    psi2 = state.branch2.com_amplitude(x)
    p12 = np.conj(psi1) * psi2
    expected = np.real(
        g[0][0] * np.abs(psi1) ** 2
        + g[1][1] * np.abs(psi2) ** 2
        + g[0][1] * p12
        + g[1][0] * np.conj(p12)
    )
    np.testing.assert_allclose(measured_signal(op, state, x), expected, rtol=1e-12)


def test_internal_signal_rides_on_extra_phases():
    from dataclasses import replace
    from fringelab.composite import CompositeState

    state = two_slit_composite(GEO, BEAM)
    shifted = CompositeState(
        (replace(state.branch1, extra_phase=0.3), replace(state.branch2, extra_phase=1.1))
    )
    op = MeasurementOperator.internal(((1.0, 1.0), (1.0, 1.0)))
    x = np.linspace(-PERIOD, PERIOD, 101)
    psi1 = state.branch1.com_amplitude(x)
    psi2 = state.branch2.com_amplitude(x)
    p12 = np.conj(psi1) * psi2 * cmath.exp(1j * (1.1 - 0.3))
    expected = np.abs(psi1) ** 2 + np.abs(psi2) ** 2 + 2.0 * np.real(p12)
    np.testing.assert_allclose(measured_signal(op, shifted, x), expected, rtol=1e-12)


def test_zero_cross_elements_remove_fringe_term_exactly():
    state = two_slit_composite(GEO, BEAM, include_envelope=False)
    op = MeasurementOperator.internal(((1.0, 0.0), (0.0, 1.0)))
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    signal = measured_signal(op, state, x)
    # bitwise identical to the cross-free expansion: the fringe term is
    # not merely small, it never enters
    psi1 = state.branch1.com_amplitude(x)
    psi2 = state.branch2.com_amplitude(x)
    crossless = np.real(
        (1.0 + 0.0j) * np.abs(psi1) ** 2 + (1.0 + 0.0j) * np.abs(psi2) ** 2
        + 0.0j * (np.conj(psi1) * psi2) + 0.0j * np.conj(np.conj(psi1) * psi2)
    )
    np.testing.assert_array_equal(signal, crossless)
    # and flat to rounding: |e^{i phase}|^2 itself carries ~1e-16 noise
    np.testing.assert_allclose(signal, 2.0, rtol=0, atol=1e-13)


def test_measured_signal_scalar_in_scalar_out():
    state = two_slit_composite(GEO, BEAM)
    op = MeasurementOperator.center_of_mass(1.0)
    out = measured_signal(op, state, 0.0)
    assert isinstance(out, float)


# --- weak screen ---


def test_weak_screen_validation_and_absorb_fraction():
    screen = WeakScreen(0.9, 0.05)
    assert screen.absorb_fraction == pytest.approx(0.05)
    with pytest.raises(ValueError):
        WeakScreen(0.99, 0.02)
    with pytest.raises(ValueError):
        WeakScreen(-0.1, 0.5)
    # the 99:1 split is the mz_weak_screen preset's, not a default of the film
    for fractions in ((), (0.99,)):
        with pytest.raises(TypeError):
            WeakScreen(*fractions)


def test_screen_outcome_point_discipline():
    ScreenOutcome("scattered", x=1.0, y=2.0)
    ScreenOutcome("transmitted")
    with pytest.raises(ValueError):
        ScreenOutcome("transmitted", x=1.0, y=2.0)
    with pytest.raises(ValueError):
        ScreenOutcome("scattered")
    with pytest.raises(ValueError):
        ScreenOutcome("deflected")


def test_midline_profile_matches_crossing_intensity():
    positions, weights = midline_profile(MZ, BEAM, n_cells=128)
    assert positions.size == 128
    assert positions[0] > MZ.crossing_region.x_min
    assert positions[-1] < MZ.crossing_region.x_max
    expected = crossing_intensity(MZ, BEAM, positions, MZ.crossing_region.midline_y)
    np.testing.assert_array_equal(weights, expected)


def test_weak_screen_outcome_fractions():
    screen = WeakScreen(transmittance=0.6, scatter_fraction=0.3)
    midline = midline_profile(MZ, BEAM, n_cells=256)
    g = rng(3)
    kinds = {"scattered": 0, "transmitted": 0, "absorbed": 0}
    n = 20_000
    for _ in range(n):
        kinds[weak_screen_interact(screen, MZ, BEAM, g, midline).kind] += 1
    # 4 sigma binomial bands
    for kind, p in (("scattered", 0.3), ("transmitted", 0.6), ("absorbed", 0.1)):
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(kinds[kind] - n * p) < 4 * sigma, (kind, kinds)


def test_weak_screen_scatter_lands_on_midline():
    screen = WeakScreen(transmittance=0.0, scatter_fraction=1.0)
    g = rng(4)
    for _ in range(50):
        outcome = weak_screen_interact(screen, MZ, BEAM, g)
        assert outcome.kind == "scattered"
        assert outcome.y == MZ.crossing_region.midline_y
        assert MZ.crossing_region.x_min - 1e-9 <= outcome.x <= MZ.crossing_region.x_max + 1e-9


def test_weak_screen_draw_accounting():
    # classify draw first; scattered adds (cell, jitter)
    screen = WeakScreen(transmittance=0.5, scatter_fraction=0.5)
    midline = midline_profile(MZ, BEAM, n_cells=64)
    g = rng(7)
    ref = rng(7)
    for _ in range(200):
        outcome = weak_screen_interact(screen, MZ, BEAM, g, midline)
        u = ref.random()
        if u < 0.5:
            ref.random()
            ref.random()
            assert outcome.kind == "scattered"
        else:
            assert outcome.kind == "transmitted"
    assert g.random() == ref.random()


# --- cavity tagging ---


def test_whichway_record_validation():
    WhichWayRecord(1, 0)
    WhichWayRecord(0, 1)
    WhichWayRecord(0, 0)
    with pytest.raises(ValueError):
        WhichWayRecord(1, 1)
    with pytest.raises(ValueError):
        WhichWayRecord(2, 0)


def test_whichway_inferred_path():
    assert WhichWayRecord(1, 0).inferred_path == 1
    assert WhichWayRecord(0, 1).inferred_path == 2
    assert WhichWayRecord(0, 0).inferred_path == 2


def test_micromaser_record_two_cavity_counts():
    g = rng(5)
    n = 10_000
    hits1 = 0
    for _ in range(n):
        record = micromaser_record((0.7, 0.3), False, g)
        assert record.cavity1_photons + record.cavity2_photons == 1
        hits1 += record.cavity1_photons
    sigma = math.sqrt(n * 0.7 * 0.3)
    assert abs(hits1 - n * 0.7) < 4 * sigma


def test_micromaser_record_single_cavity_leaves_absences():
    g = rng(6)
    records = [micromaser_record((0.5, 0.5), True, g) for _ in range(2_000)]
    assert all(r.cavity2_photons == 0 for r in records)
    empties = sum(1 for r in records if r.cavity1_photons == 0)
    assert 0 < empties < 2_000


def test_micromaser_record_consumes_one_uniform():
    g = rng(8)
    ref = rng(8)
    for _ in range(100):
        micromaser_record((0.5, 0.5), False, g)
        ref.random()
    assert g.random() == ref.random()


def test_micromaser_probability_validation():
    with pytest.raises(ValueError):
        micromaser_record((0.7, 0.7), False, rng())


# --- coincidence modulation ---


def make_hist(counts):
    counts = np.asarray(counts, dtype=float)
    edges = np.arange(counts.size + 1, dtype=float)
    return FringeHistogram(edges, counts)


def test_modulate_endpoints_are_exact():
    joint = make_hist([10, 40, 10, 40])
    s1 = make_hist([12, 13, 12, 13])
    s2 = make_hist([13, 12, 13, 12])
    np.testing.assert_array_equal(coincidence_modulate(joint, s1, s2, 0.0).counts, s1.counts + s2.counts)
    np.testing.assert_array_equal(coincidence_modulate(joint, s1, s2, 1.0).counts, joint.counts)


def test_modulate_is_affine_in_gamma():
    joint = make_hist([10, 40, 10, 40])
    s1 = make_hist([12, 13, 12, 13])
    s2 = make_hist([13, 12, 13, 12])
    base = s1.counts + s2.counts
    for gamma in (0.25, 0.5, -0.5):
        got = coincidence_modulate(joint, s1, s2, gamma).counts
        np.testing.assert_allclose(got, np.maximum(base + gamma * (joint.counts - base), 0.0), rtol=1e-15)


def test_modulate_floors_negative_bins_at_zero():
    joint = make_hist([0, 100])
    s1 = make_hist([30, 20])
    s2 = make_hist([30, 20])
    out = coincidence_modulate(joint, s1, s2, -1.0)
    # bin 0: 60 + (-1)(0 - 60) = 120; bin 1: 40 + (-1)(100 - 40) = -20 -> 0
    np.testing.assert_array_equal(out.counts, [120.0, 0.0])


def test_modulate_gamma_range():
    h = make_hist([1, 2])
    with pytest.raises(ValueError):
        coincidence_modulate(h, h, h, 1.5)


def test_modulate_requires_matching_binning():
    joint = make_hist([1, 2, 3])
    other = FringeHistogram(np.array([0.0, 1.0, 2.5, 3.0]), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        coincidence_modulate(joint, other, other, 0.5)


def test_modulate_rejects_singles_exceeding_joint():
    joint = make_hist([5, 5])
    s1 = make_hist([100, 100])
    s2 = make_hist([100, 100])
    with pytest.raises(ValueError):
        coincidence_modulate(joint, s1, s2, 0.5)
