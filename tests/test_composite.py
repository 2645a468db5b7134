"""Composite two-branch states, overlap algebra, and phase-noise averaging."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from oracles import dephase, ensemble_pattern

from fringelab import composite
from fringelab.composite import (
    Branch,
    CompositeState,
    PhaseNoise,
    StateVector,
    TRIVIAL_STATE,
    inner,
    literal_pattern,
    noise_averaged_pattern,
    overlap_pair,
    pattern_terms,
    slit_branch_amplitude,
    two_slit_composite,
)
from fringelab.wavefield import BeamSpec, ScreenGrid, TwoSlitGeometry, single_slit_intensity

BEAM = BeamSpec(wavelength=500e-9)
GEO = TwoSlitGeometry(slit_separation=10e-6, slit_width=2e-6, screen_distance=1.0)
PERIOD = 500e-9 * 1.0 / 10e-6

# E[e^{i delta}] checked against numerical quadrature of the densities;
# the uniform(0.3, 1.9) and gaussian values are the quadrature results.
UNIFORM_0_3_1_9_MEAN = 0.40673742564129695 + 0.7991412849931933j
GAUSS_1_3_MEAN = 0.4295573582107392
TWO_OVER_PI = 0.6366197723675814


def test_state_vector_requires_unit_norm():
    with pytest.raises(ValueError):
        StateVector((0.5, 0.5))
    sv = StateVector((1.0, 0.0))
    assert sv.dim == 2
    assert sv.asarray().dtype == complex


def test_state_vector_normalize():
    sv = StateVector.normalize((3.0, 4.0j))
    assert abs(sv.components[0] - 0.6) < 1e-15
    assert abs(sv.components[1] - 0.8j) < 1e-15
    with pytest.raises(ValueError):
        StateVector.normalize((0.0, 0.0))


def test_inner_is_conjugate_linear_in_first_argument():
    a = StateVector.normalize((1.0, 1.0j))
    b = StateVector.normalize((1.0, -1.0j))
    # <a|b> = conj(a) . b = (1 - i*(-i))/2 = (1 - 1)/2 ... restate directly
    expected = (np.conj([1, 1j]) @ np.array([1, -1j])) / 2.0
    assert inner(a, b) == pytest.approx(complex(expected), abs=1e-15)
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)), abs=1e-15)
    assert inner(a, a) == pytest.approx(1.0, abs=1e-15)


def test_inner_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(TRIVIAL_STATE, StateVector((1.0, 0.0)))


@pytest.mark.parametrize("magnitude", [0.0, 0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("phase", [0.0, 0.8, -2.1])
def test_overlap_pair_realizes_requested_overlap(magnitude, phase):
    s1, s2 = overlap_pair(magnitude, phase)
    got = inner(s1, s2)
    want = magnitude * cmath.exp(1j * phase)
    assert abs(got - want) < 1e-12
    assert abs(inner(s1, s1) - 1.0) < 1e-12
    assert abs(inner(s2, s2) - 1.0) < 1e-12


def test_overlap_pair_validation():
    with pytest.raises(ValueError):
        overlap_pair(1.5)
    with pytest.raises(ValueError):
        overlap_pair(0.5, dim=1)


def test_branch_and_composite_validation():
    amp = slit_branch_amplitude(GEO, BEAM, 1)
    with pytest.raises(ValueError):
        Branch(3, amp, TRIVIAL_STATE, TRIVIAL_STATE)
    b1 = Branch(1, amp, TRIVIAL_STATE, TRIVIAL_STATE)
    b2 = Branch(2, amp, TRIVIAL_STATE, TRIVIAL_STATE)
    with pytest.raises(ValueError):
        CompositeState((b2, b1))


def test_overlap_product_factorizes():
    internal = overlap_pair(0.7, 0.2)
    detector = overlap_pair(0.4, -0.5)
    state = two_slit_composite(GEO, BEAM, internal, detector)
    want = 0.7 * cmath.exp(0.2j) * 0.4 * cmath.exp(-0.5j)
    assert abs(state.overlap_product() - want) < 1e-12


def test_literal_pattern_matches_term_by_term_expansion():
    internal = overlap_pair(0.6, 0.3)
    detector = overlap_pair(0.9, -0.1)
    state = two_slit_composite(GEO, BEAM, internal, detector)
    from dataclasses import replace

    b1 = replace(state.branch1, extra_phase=0.4)
    b2 = replace(state.branch2, extra_phase=-0.7)
    state = CompositeState((b1, b2))
    x = np.linspace(-PERIOD, PERIOD, 101)
    psi1 = b1.com_amplitude(x)
    psi2 = b2.com_amplitude(x)
    factor = inner(internal[0], internal[1]) * inner(detector[0], detector[1])
    expected = (
        np.abs(psi1) ** 2
        + np.abs(psi2) ** 2
        + 2.0 * np.real(factor * np.conj(psi1) * psi2 * cmath.exp(1j * (-0.7 - 0.4)))
    )
    np.testing.assert_allclose(literal_pattern(state, x), expected, rtol=1e-12)


def test_orthogonal_detector_states_remove_fringes():
    state = two_slit_composite(GEO, BEAM, detector=overlap_pair(0.0))
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    pattern = literal_pattern(state, x)
    expected = single_slit_intensity(GEO, BEAM, 1, x) + single_slit_intensity(GEO, BEAM, 2, x)
    np.testing.assert_allclose(pattern, expected, rtol=0, atol=1e-12)


def test_flat_modulus_amplitude_isolates_interference():
    amp = slit_branch_amplitude(GEO, BEAM, 1, include_envelope=False)
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    np.testing.assert_allclose(np.abs(amp(x)), 1.0, rtol=1e-12)


def test_pattern_terms_exclude_extra_phases():
    from dataclasses import replace

    state = two_slit_composite(GEO, BEAM)
    shifted = CompositeState(
        (replace(state.branch1, extra_phase=1.0), replace(state.branch2, extra_phase=2.0))
    )
    x = np.linspace(-PERIOD, PERIOD, 51)
    base_a, cross_a = pattern_terms(state, x)
    base_b, cross_b = pattern_terms(shifted, x)
    np.testing.assert_array_equal(base_a, base_b)
    np.testing.assert_array_equal(cross_a, cross_b)


# --- phase noise ---


def test_noise_validation():
    with pytest.raises(ValueError):
        PhaseNoise("weibull")
    with pytest.raises(ValueError):
        PhaseNoise.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        PhaseNoise.gaussian(-0.1)


def test_mean_phase_factor_against_quadrature():
    assert PhaseNoise.none().mean_phase_factor() == 1.0
    assert PhaseNoise.constant(0.9).mean_phase_factor() == pytest.approx(cmath.exp(0.9j), abs=1e-15)
    got = PhaseNoise.uniform(0.3, 1.9).mean_phase_factor()
    assert abs(got - UNIFORM_0_3_1_9_MEAN) < 1e-12
    got = PhaseNoise.uniform(-math.pi / 2, math.pi / 2).mean_phase_factor()
    assert abs(got - TWO_OVER_PI) < 1e-12
    got = PhaseNoise.uniform(0.0, 2 * math.pi).mean_phase_factor()
    assert abs(got) < 1e-12
    got = PhaseNoise.gaussian(1.3).mean_phase_factor()
    assert abs(got - GAUSS_1_3_MEAN) < 1e-12


def test_cross_phase_factor_independent_vs_shared():
    independent = PhaseNoise.uniform(-math.pi / 2, math.pi / 2)
    assert abs(independent.cross_phase_factor() - TWO_OVER_PI**2) < 1e-12
    shared = PhaseNoise.uniform(-math.pi / 2, math.pi / 2, independent_per_branch=False)
    assert shared.cross_phase_factor() == 1.0
    assert PhaseNoise.constant(1.3).cross_phase_factor() == 1.0


def test_dephase_none_returns_same_object_and_draws_nothing():
    state = two_slit_composite(GEO, BEAM)
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    assert dephase(state, PhaseNoise.none(), rng) is state
    fresh = np.random.Generator(np.random.Philox(key=[11, 0]))
    assert rng.random() == fresh.random()


def test_dephase_constant_sets_both_phases_without_drawing():
    state = two_slit_composite(GEO, BEAM)
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    out = dephase(state, PhaseNoise.constant(0.77), rng)
    assert out.branch1.extra_phase == 0.77
    assert out.branch2.extra_phase == 0.77
    fresh = np.random.Generator(np.random.Philox(key=[11, 0]))
    assert rng.random() == fresh.random()


def test_dephase_draws_branch_one_first():
    noise = PhaseNoise.uniform(0.0, 1.0)
    state = two_slit_composite(GEO, BEAM)
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    out = dephase(state, noise, rng)
    ref = np.random.Generator(np.random.Philox(key=[11, 0]))
    d1 = ref.uniform(0.0, 1.0)
    d2 = ref.uniform(0.0, 1.0)
    assert out.branch1.extra_phase == d1
    assert out.branch2.extra_phase == d2


def test_dephase_shared_draw_shifts_both_branches_equally():
    noise = PhaseNoise.uniform(0.0, 1.0, independent_per_branch=False)
    state = two_slit_composite(GEO, BEAM)
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    out = dephase(state, noise, rng)
    assert out.branch1.extra_phase == out.branch2.extra_phase
    x = np.linspace(-PERIOD, PERIOD, 51)
    np.testing.assert_allclose(literal_pattern(out, x), literal_pattern(state, x), rtol=1e-12)


def test_noise_averaged_pattern_uses_exact_cross_factor():
    state = two_slit_composite(GEO, BEAM)
    noise = PhaseNoise.uniform(-math.pi / 2, math.pi / 2)
    x = np.linspace(-PERIOD, PERIOD, 101)
    base, cross = pattern_terms(state, x)
    expected = base + 2.0 * np.real(cross * TWO_OVER_PI**2)
    np.testing.assert_allclose(noise_averaged_pattern(state, noise, x), expected, rtol=1e-12)


def test_ensemble_pattern_matches_manual_average():
    state = two_slit_composite(GEO, BEAM, include_envelope=False)
    noise = PhaseNoise.uniform(0.0, 2 * math.pi)
    x = np.linspace(-PERIOD, PERIOD, 41)
    n = 200
    got = ensemble_pattern(state, noise, n, np.random.Generator(np.random.Philox(key=[5, 0])), x)
    # manual average over the same draws, one dephased copy at a time
    ref = np.random.Generator(np.random.Philox(key=[5, 0]))
    d1 = ref.uniform(0.0, 2 * math.pi, n)
    d2 = ref.uniform(0.0, 2 * math.pi, n)
    acc = np.zeros_like(x)
    base, cross = pattern_terms(state, x)
    for a, b in zip(d1, d2):
        acc += base + 2.0 * np.real(cross * cmath.exp(1j * (b - a)))
    np.testing.assert_allclose(got, acc / n, rtol=0, atol=1e-10)


def test_ensemble_pattern_converges_to_noise_average():
    state = two_slit_composite(GEO, BEAM, include_envelope=False)
    noise = PhaseNoise.uniform(0.0, 2 * math.pi)
    x = np.linspace(-PERIOD, PERIOD, 101)
    n = 100_000
    rng = np.random.Generator(np.random.Philox(key=[21, 0]))
    got = ensemble_pattern(state, noise, n, rng, x)
    exact = noise_averaged_pattern(state, noise, x)
    # the averaged phase factor has standard error ~ 1/sqrt(n); the
    # pattern amplitude doubles it
    assert float(np.max(np.abs(got - exact))) < 2.0 * 3.0 / math.sqrt(n)


def test_ensemble_pattern_requires_draws():
    state = two_slit_composite(GEO, BEAM)
    rng = np.random.Generator(np.random.Philox(key=[1, 0]))
    with pytest.raises(ValueError):
        ensemble_pattern(state, PhaseNoise.none(), 0, rng, 0.0)


def test_constant_noise_leaves_pattern_exactly_unchanged():
    state = two_slit_composite(GEO, BEAM)
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 201)
    rng = np.random.Generator(np.random.Philox(key=[9, 0]))
    noiseless = literal_pattern(state, x)
    for value in (0.0, 1.1, -2.9):
        out = ensemble_pattern(state, PhaseNoise.constant(value), 50, rng, x)
        np.testing.assert_array_equal(out, noiseless)


# --- slit wave cache ---


def _grid():
    x = np.linspace(-2 * PERIOD, 2 * PERIOD, 301)
    x[150] = 0.0
    return x


def _cold():
    """Clear the memo, so the next call computes from scratch."""
    composite._kept.clear()


def _negative_zero():
    x = _grid()
    x[150] = -0.0
    return x


def _one_ulp_up():
    x = _grid()
    x[7] = np.nextafter(x[7], np.inf)
    return x


@pytest.fixture
def counted_envelopes(monkeypatch, counted_phases):
    """A cold memo, and the slit_envelope calls made since."""
    calls = []
    envelope = composite.slit_envelope

    def counted(*args):
        calls.append(args)
        return envelope(*args)

    monkeypatch.setattr(composite, "slit_envelope", counted)
    return calls


def _phasor(slit):
    return composite._kept["phasor", slit][1]


# (why, geometry, beam, slit, include_envelope, x) of a call that must not
# reuse the wave of (GEO, BEAM, 1, True, _grid())
_MISSES = [
    ("slit_separation", replace(GEO, slit_separation=11e-6), BEAM, 1, True, _grid),
    ("slit_width", replace(GEO, slit_width=3e-6), BEAM, 1, True, _grid),
    ("screen_distance", replace(GEO, screen_distance=1.5), BEAM, 1, True, _grid),
    ("slit_amplitudes", replace(GEO, slit_amplitudes=(0.5, 1.0)), BEAM, 1, True, _grid),
    ("screen_grid", replace(GEO, screen_grid=ScreenGrid(-0.1, 0.1)), BEAM, 1, True, _grid),
    ("wavelength", GEO, replace(BEAM, wavelength=600e-9), 1, True, _grid),
    ("amplitude", GEO, replace(BEAM, amplitude=0.5j), 1, True, _grid),
    ("slit", GEO, BEAM, 2, True, _grid),
    ("include_envelope", GEO, BEAM, 1, False, _grid),
    ("x one ulp up", GEO, BEAM, 1, True, _one_ulp_up),
    ("x sign of zero", GEO, BEAM, 1, True, _negative_zero),
    ("x dtype, same bytes", GEO, BEAM, 1, True, lambda: _grid().view(np.int64)),
    ("x shape", GEO, BEAM, 1, True, lambda: _grid()[:-1]),
    ("x reshaped, same bytes", GEO, BEAM, 1, True, lambda: _grid().reshape(7, 43)),
]

# the _MISSES cases that change the transport phase's bytes, and those that
# change the envelope's slit width, screen distance, beam or x; near k*L the
# phase rounds away one ulp of x and the sign of a zero x
_NEW_PHASOR = {"slit_separation", "screen_distance", "wavelength", "slit", "x dtype, same bytes", "x shape",
               "x reshaped, same bytes"}
_NEW_ENVELOPE = {"slit_width", "screen_distance", "wavelength", "amplitude", "x one ulp up", "x sign of zero",
                 "x dtype, same bytes", "x shape", "x reshaped, same bytes"}


@pytest.mark.parametrize("why,geometry,beam,slit,envelope,x", _MISSES, ids=[m[0] for m in _MISSES])
def test_a_changed_argument_computes_a_new_wave(
    counted_phases, counted_envelopes, why, geometry, beam, slit, envelope, x
):
    slit_branch_amplitude(GEO, BEAM, 1)(_grid())
    assert len(counted_phases) == 1
    first = _phasor(1)
    x = x()
    wave = slit_branch_amplitude(geometry, beam, slit, envelope)(x)
    assert len(counted_phases) == 2
    assert wave.shape == x.shape
    assert (_phasor(slit) is not first) == (why in _NEW_PHASOR)
    assert _phasor(1) is first or slit == 1
    assert [s for s in (1, 2) if ("phasor", s) in composite._kept] == sorted({1, slit})
    assert len(counted_envelopes) == 1 + (why in _NEW_ENVELOPE)
    fresh = slit_branch_amplitude(geometry, beam, slit, envelope)(x.copy())  # a hit on the new wave
    assert len(counted_phases) == 2
    assert fresh is wave
    _cold()
    assert slit_branch_amplitude(geometry, beam, slit, envelope)(x).tobytes() == wave.tobytes()


def test_the_sign_of_a_zero_amplitude_computes_a_new_wave(counted_phases):
    plus = replace(GEO, slit_amplitudes=(1.0, 0j))
    minus = replace(GEO, slit_amplitudes=(1.0, complex(-0.0, 0.0)))
    assert plus == minus  # == takes -0.0 for 0.0
    slit_branch_amplitude(plus, BEAM, 2)(_grid())
    wave = slit_branch_amplitude(minus, BEAM, 2)(_grid())
    assert len(counted_phases) == 2
    _cold()
    assert slit_branch_amplitude(minus, BEAM, 2)(_grid()).tobytes() == wave.tobytes()


def test_an_x_changed_in_place_computes_a_new_wave(counted_phases):
    amp = slit_branch_amplitude(GEO, BEAM, 1)
    x = _grid()
    before = amp(x)
    x *= 2.0
    after = amp(x)
    assert len(counted_phases) == 2
    assert not np.array_equal(after, before)
    _cold()
    assert amp(x).tobytes() == after.tobytes()


def test_both_slits_share_the_cache_and_a_hit_is_the_same_array(counted_phases):
    x = _grid()
    state = two_slit_composite(GEO, BEAM)
    psi1, psi2 = state.branch1.com_amplitude(x), state.branch2.com_amplitude(x)
    again = two_slit_composite(GEO, BEAM, detector=overlap_pair(0.3))  # new closures, same waves
    assert again.branch1.com_amplitude(x) is psi1
    assert again.branch2.com_amplitude(x) is psi2
    assert len(counted_phases) == 2


def test_kept_waves_are_read_only(counted_phases):
    amp = slit_branch_amplitude(GEO, BEAM, 1)
    missed, hit = amp(_grid()), amp(_grid())
    assert set(composite._kept) == {("wave", 1), ("phasor", 1), "envelope"}
    for wave in (missed, hit, *(value for _, value in composite._kept.values())):
        assert not wave.flags.writeable
        with pytest.raises(ValueError):
            wave[0] = 0.0


def test_scalar_positions_are_not_kept(counted_phases):
    amp = slit_branch_amplitude(GEO, BEAM, 1)
    assert amp(0.0) == amp(0.0)
    assert len(counted_phases) == 2
    assert composite._kept == {}


@pytest.mark.parametrize("key,values", [
    ("slit_width", (1e-6, 1.5e-6, 2e-6, 2.5e-6, 3e-6)),
    ("slit_amplitudes", ((0.25, 1.0), (0.5, 1.0), (0.75, 1j), (1.0, -1.0), (1.0, 0j))),
])
def test_a_slit_width_or_amplitude_sweep_computes_one_phasor_per_slit(counted_envelopes, counted_phases, key, values):
    x = _grid()
    waves, phasors = [], []
    for value in values:
        state = two_slit_composite(replace(GEO, **{key: value}), BEAM)
        waves.append((state.branch1.com_amplitude(x), state.branch2.com_amplitude(x)))
        phasors.append((_phasor(1), _phasor(2)))
    assert len(counted_phases) == 2 * len(values)
    assert all(p1 is phasors[0][0] and p2 is phasors[0][1] for p1, p2 in phasors)
    assert len(counted_envelopes) == (len(values) if key == "slit_width" else 1)  # one for both slits
    for value, pair in zip(values, waves):
        _cold()
        state = two_slit_composite(replace(GEO, **{key: value}), BEAM)
        assert state.branch1.com_amplitude(x).tobytes() == pair[0].tobytes()
        assert state.branch2.com_amplitude(x).tobytes() == pair[1].tobytes()


def test_one_copy_of_the_grid_bytes_is_kept(counted_phases):
    two_slit_composite(GEO, BEAM).branch1.com_amplitude(_grid())
    state = two_slit_composite(replace(GEO, slit_amplitudes=(0.5, 1.0)), BEAM)
    state.branch1.com_amplitude(_grid())  # a wave miss and an envelope hit
    state.branch2.com_amplitude(_grid())  # a wave miss on the held grid
    grids = [composite._kept[kind][0][-1] for kind in ("envelope", ("wave", 1), ("wave", 2))]
    assert grids[0] is grids[1] is grids[2]
    _cold()
    flat = two_slit_composite(GEO, BEAM, include_envelope=False)  # no envelope to share the grid through
    flat.branch1.com_amplitude(_grid())
    flat.branch2.com_amplitude(_grid())
    assert composite._kept["wave", 1][0][-1] is composite._kept["wave", 2][0][-1]
