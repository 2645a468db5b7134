"""Closed-form field layer: transport phases, envelopes, port intensities."""

import math

import numpy as np
import pytest

from fringelab.wavefield import (
    BeamSpec,
    CrossingRegion,
    MZGeometry,
    ScreenGrid,
    TwoSlitGeometry,
    crossing_intensity,
    mz_port_intensity,
    phase_difference,
    single_slit_intensity,
    slit_envelope,
    transport_phase,
    two_slit_field,
    two_slit_intensity,
)

BEAM = BeamSpec(wavelength=500e-9)
GEO = TwoSlitGeometry(slit_separation=10e-6, slit_width=2e-6, screen_distance=1.0)

# fringe period wavelength * L / d
PERIOD = 500e-9 * 1.0 / 10e-6


def default_mz(bs2_present=True, dphi=0.0):
    region = CrossingRegion(0.0, 3e-6, 0.0, 3e-6)
    return MZGeometry(
        bs2_present=bs2_present,
        phase_difference=dphi,
        crossing_wavenumber=BEAM.wavenumber,
        crossing_region=region,
    )


def test_beam_wavenumber_and_momentum():
    assert BEAM.wavenumber == pytest.approx(2.0 * math.pi / 500e-9, rel=1e-15)
    assert BEAM.momentum == pytest.approx(1.054571817e-34 * BEAM.wavenumber, rel=1e-15)
    assert BeamSpec(500e-9, amplitude=2.0).intensity_scale() == pytest.approx(4.0)


@pytest.mark.parametrize("wavelength", [0.0, -1e-9, float("nan"), float("inf")])
def test_beam_rejects_bad_wavelength(wavelength):
    with pytest.raises(ValueError):
        BeamSpec(wavelength)


def test_geometry_validation():
    with pytest.raises(ValueError):
        TwoSlitGeometry(slit_separation=10e-6, slit_width=20e-6, screen_distance=1.0)
    with pytest.raises(ValueError):
        TwoSlitGeometry(slit_separation=10e-6, slit_width=2e-6, screen_distance=5e-4)
    with pytest.raises(ValueError):
        ScreenGrid(0.1, -0.1)


def test_transport_phase_matches_quadratic_path_expansion():
    # independent restatement: k * (L + (x - x_slit)^2 / (2 L))
    k = 2.0 * math.pi / 500e-9
    d, length = 10e-6, 1.0
    for x in (-3.7e-5, 0.0, 1.2e-5, 8.8e-5):
        expected1 = k * (length + (x - d / 2.0) ** 2 / (2.0 * length))
        expected2 = k * (length + (x + d / 2.0) ** 2 / (2.0 * length))
        assert transport_phase(GEO, BEAM, 1, x) == pytest.approx(expected1, rel=1e-14)
        assert transport_phase(GEO, BEAM, 2, x) == pytest.approx(expected2, rel=1e-14)


def test_transport_phase_rejects_unknown_slit():
    with pytest.raises(ValueError):
        transport_phase(GEO, BEAM, 3, 0.0)


def test_transport_phase_scalar_and_array_shapes():
    scalar = transport_phase(GEO, BEAM, 1, 1e-5)
    assert isinstance(scalar, float)
    arr = transport_phase(GEO, BEAM, 1, np.array([0.0, 1e-5]))
    assert arr.shape == (2,)
    assert arr[1] == scalar


def test_phase_difference_is_linear_in_position():
    # the quadratic terms cancel to -k d x / L; each transport phase is
    # ~1e7 rad, so the cancellation leaves a few 1e-9 rad of rounding
    x = np.linspace(-2e-4, 2e-4, 401)
    expected = -BEAM.wavenumber * GEO.slit_separation * x / GEO.screen_distance
    np.testing.assert_allclose(phase_difference(GEO, BEAM, x), expected, rtol=0, atol=1e-7)


def test_phase_difference_period_is_fringe_period():
    dphi0 = phase_difference(GEO, BEAM, 0.0)
    dphi1 = phase_difference(GEO, BEAM, PERIOD)
    assert abs(dphi1 - dphi0) == pytest.approx(2.0 * math.pi, abs=1e-7)


def test_envelope_is_one_on_axis_and_vanishes_at_first_zero():
    assert slit_envelope(GEO, BEAM, 0.0) == 1.0
    first_zero = BEAM.wavelength * GEO.screen_distance / GEO.slit_width
    assert abs(slit_envelope(GEO, BEAM, first_zero)) < 1e-12
    # strictly positive inside the central lobe
    x = np.linspace(-0.99 * first_zero, 0.99 * first_zero, 501)
    assert np.all(slit_envelope(GEO, BEAM, x) > 0.0)


def test_intensity_closed_form_equals_squared_field():
    x = np.linspace(-3.0 * PERIOD, 3.0 * PERIOD, 907)
    field = two_slit_field(GEO, BEAM, x)
    np.testing.assert_allclose(
        two_slit_intensity(GEO, BEAM, x), np.abs(field) ** 2, rtol=1e-12, atol=1e-12
    )


def test_intensity_cross_term_for_unbalanced_slits():
    geo = TwoSlitGeometry(
        slit_separation=10e-6,
        slit_width=2e-6,
        screen_distance=1.0,
        slit_amplitudes=(0.8, 0.6j),
    )
    x = np.linspace(-PERIOD, PERIOD, 257)
    env = slit_envelope(geo, BEAM, x)
    dphi = phase_difference(geo, BEAM, x)
    expected = env**2 * (0.64 + 0.36 + 2.0 * np.real(0.8 * np.conj(0.6j) * np.exp(1j * dphi)))
    np.testing.assert_allclose(two_slit_intensity(geo, BEAM, x), expected, rtol=1e-12)


def test_central_lobe_visibility_is_unity():
    # equal amplitudes: minima reach exactly zero, so (max-min)/(max+min) = 1
    x = np.linspace(-1.4 * PERIOD, 1.4 * PERIOD, 281)
    intensity = two_slit_intensity(GEO, BEAM, x)
    v = (intensity.max() - intensity.min()) / (intensity.max() + intensity.min())
    assert abs(v - 1.0) < 1e-9


@pytest.mark.parametrize(
    "width_ratio,n_points",
    [(10.0, 281), (50.0, 2801)],
)
def test_fringe_maxima_spaced_by_wavelength_scaling(width_ratio, n_points):
    # the envelope drags the outer peaks slightly inward; the drag scales
    # as (d / slit ratio)^2 and must stay below one grid cell
    geo = TwoSlitGeometry(
        slit_separation=10e-6,
        slit_width=10e-6 / width_ratio,
        screen_distance=1.0,
    )
    x = np.linspace(-1.4 * PERIOD, 1.4 * PERIOD, n_points)
    intensity = two_slit_intensity(geo, BEAM, x)
    interior = (intensity[1:-1] > intensity[:-2]) & (intensity[1:-1] >= intensity[2:])
    maxima = x[1:-1][interior]
    assert maxima.size == 3
    cell = x[1] - x[0]
    assert abs(float(np.mean(np.diff(maxima))) - PERIOD) <= cell


def test_single_slit_intensity_has_no_fringes():
    x = np.linspace(-2.0 * PERIOD, 2.0 * PERIOD, 801)
    intensity = single_slit_intensity(GEO, BEAM, 1, x)
    env = slit_envelope(GEO, BEAM, x)
    np.testing.assert_allclose(intensity, env**2, rtol=1e-12)
    # monotone on each side of the axis inside the central envelope lobe
    center = x.size // 2
    assert np.all(np.diff(intensity[center:]) <= 0.0)


@pytest.mark.parametrize("dphi", np.linspace(-math.pi, math.pi, 9).tolist())
def test_port_intensities_complementary(dphi):
    mz = default_mz(bs2_present=True, dphi=dphi)
    ix = mz_port_intensity(mz, BEAM, "x")
    iy = mz_port_intensity(mz, BEAM, "y")
    assert ix == pytest.approx((1.0 + math.cos(dphi)) / 2.0, abs=1e-15)
    assert abs(ix + iy - 1.0) < 1e-12


def test_ports_without_recombination_are_half():
    mz = default_mz(bs2_present=False, dphi=1.234)
    assert mz_port_intensity(mz, BEAM, "x") == 0.5
    assert mz_port_intensity(mz, BEAM, "y") == 0.5


def test_port_name_validation():
    with pytest.raises(ValueError):
        mz_port_intensity(default_mz(), BEAM, "z")


def test_crossing_intensity_constant_along_diagonal():
    mz = default_mz(bs2_present=False, dphi=0.4)
    x = np.linspace(0.2e-6, 1.0e-6, 50)
    y = np.linspace(0.5e-6, 1.3e-6, 50)
    base = crossing_intensity(mz, BEAM, x, y)
    shift = 1.5e-6
    shifted = crossing_intensity(mz, BEAM, x + shift, y + shift)
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-12)


def test_crossing_intensity_period_along_axis_is_wavelength():
    mz = default_mz(bs2_present=False)
    y = mz.crossing_region.midline_y
    x = np.linspace(0.1e-6, 1.0e-6, 64)
    base = crossing_intensity(mz, BEAM, x, y)
    shifted = crossing_intensity(mz, BEAM, x + BEAM.wavelength, y)
    np.testing.assert_allclose(shifted, base, rtol=0, atol=1e-9)


def test_crossing_intensity_rejects_outside_region():
    mz = default_mz(bs2_present=False)
    with pytest.raises(ValueError):
        crossing_intensity(mz, BEAM, 5e-6, 1e-6)


def test_crossing_region_contains_and_midline():
    region = CrossingRegion(0.0, 2.0, 1.0, 3.0)
    assert region.contains(1.0, 2.0)
    assert not region.contains(-0.1, 2.0)
    assert region.midline_y == 2.0
