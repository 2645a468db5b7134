"""Scalar wave fields on the two bench geometries.

Two idealized benches are modeled:

* a Young two-slit bench in the paraxial far field, where each slit acts
  as a secondary point source with a quadratic transport phase and a
  shared single-slit diffraction envelope, and
* a Mach-Zehnder bench whose recombined arms either interfere at discrete
  output ports (second beam splitter in place) or cross as ideal plane
  waves in a rectangular region (second beam splitter removed).

All intensities are reported in units of the squared beam amplitude; the
default amplitude is 1. Functions accept floats or numpy arrays for the
evaluation coordinates and broadcast in the usual numpy way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Reduced Planck constant in J*s (CODATA 2018), used only to convert a
# wavenumber into a center-of-mass momentum for matter beams.
HBAR = 1.054571817e-34


def _as_finite_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class BeamSpec:
    """Monochromatic beam feeding a bench.

    Parameters
    ----------
    wavelength : float
        Wavelength in meters, optical or de Broglie. Must be positive.
    amplitude : complex
        Source amplitude. Intensities scale as its squared modulus.
    """

    wavelength: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if not (math.isfinite(self.wavelength) and self.wavelength > 0.0):
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength!r}")
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        if not (math.isfinite(self.amplitude.real) and math.isfinite(self.amplitude.imag)):
            raise ValueError("amplitude must be finite")

    @property
    def wavenumber(self) -> float:
        """Angular wavenumber 2*pi/wavelength in 1/m."""
        return TWO_PI / self.wavelength

    @property
    def momentum(self) -> float:
        """Center-of-mass momentum hbar*k carried by each beam particle."""
        return HBAR * self.wavenumber

    def intensity_scale(self) -> float:
        """Squared modulus of the source amplitude."""
        return abs(self.amplitude) ** 2


@dataclass(frozen=True)
class ScreenGrid:
    """Extent of the observation screen. Events are drawn on a fixed grid of
    cells across it (montecarlo.SAMPLING_CELLS)."""

    x_min: float
    x_max: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise ValueError("screen bounds must be finite")
        if not self.x_min < self.x_max:
            raise ValueError(f"screen requires x_min < x_max, got [{self.x_min}, {self.x_max}]")


@dataclass(frozen=True)
class TwoSlitGeometry:
    """Two-slit bench: slit pair at the origin plane, screen at distance L.

    Slit 1 is centered at +separation/2 on the slit axis and slit 2 at
    -separation/2. Each slit carries its own complex source amplitude, so
    unbalanced or phase-shifted slits are expressible. The far-field
    condition screen_distance >= 100 * slit_separation keeps the quadratic
    transport phase valid.
    """

    slit_separation: float
    slit_width: float
    screen_distance: float
    slit_amplitudes: tuple[complex, complex] = (1.0 + 0.0j, 1.0 + 0.0j)
    screen_grid: ScreenGrid = ScreenGrid(-0.15, 0.15)

    def __post_init__(self) -> None:
        d, a, L = self.slit_separation, self.slit_width, self.screen_distance
        if not (math.isfinite(d) and math.isfinite(a) and math.isfinite(L)):
            raise ValueError("slit geometry must be finite")
        if not 0.0 < a < d:
            raise ValueError(f"requires 0 < slit_width < slit_separation, got width={a}, separation={d}")
        if L < 100.0 * d:
            raise ValueError(f"far-field bench requires screen_distance >= 100*slit_separation, got L={L}, d={d}")
        amps = tuple(complex(v) for v in self.slit_amplitudes)
        if len(amps) != 2:
            raise ValueError("slit_amplitudes must hold exactly two values")
        for v in amps:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("slit amplitudes must be finite")
        object.__setattr__(self, "slit_amplitudes", amps)


@dataclass(frozen=True)
class CrossingRegion:
    """Axis-aligned rectangle where the two free arms overlap."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        for v in (self.x_min, self.x_max, self.y_min, self.y_max):
            if not math.isfinite(v):
                raise ValueError("crossing region bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("crossing region requires x_min < x_max and y_min < y_max")

    def contains(self, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (x >= self.x_min) & (x <= self.x_max) & (y >= self.y_min) & (y <= self.y_max)

    @property
    def midline_y(self) -> float:
        """y coordinate of the horizontal screen line used for scatter readout."""
        return 0.5 * (self.y_min + self.y_max)


@dataclass(frozen=True)
class MZGeometry:
    """Mach-Zehnder bench after the recombination stage.

    With ``bs2_present`` the two arms meet on a second beam splitter and
    the observable is the pair of port intensities. Without it the arms
    continue as plane waves (one along +x, one along -y) and cross inside
    ``crossing_region``, where a probe screen can be inserted.
    """

    bs2_present: bool
    phase_difference: float
    crossing_wavenumber: float
    crossing_region: CrossingRegion

    def __post_init__(self) -> None:
        if not math.isfinite(self.phase_difference):
            raise ValueError("phase_difference must be finite")
        if not (math.isfinite(self.crossing_wavenumber) and self.crossing_wavenumber > 0.0):
            raise ValueError(f"crossing_wavenumber must be positive, got {self.crossing_wavenumber!r}")


def transport_phase(geometry: TwoSlitGeometry, beam: BeamSpec, slit: int, x):
    """Accumulated phase from one slit to screen position x.

    Quadratic (paraxial) expansion of the slit-to-screen path length:
    k * (L + (x - x_slit)^2 / (2 L)) with slit 1 at +d/2 and slit 2 at
    -d/2. Scalar in, scalar out; array in, array out.
    """
    if slit not in (1, 2):
        raise ValueError(f"slit must be 1 or 2, got {slit!r}")
    xa = _as_finite_array(x, "screen position")
    k = beam.wavenumber
    d = geometry.slit_separation
    L = geometry.screen_distance
    offset = d / 2.0 if slit == 1 else -d / 2.0
    phase = k * (L + (xa - offset) ** 2 / (2.0 * L))
    return phase if phase.shape else float(phase)


def phase_difference(geometry: TwoSlitGeometry, beam: BeamSpec, x):
    """Transport phase of slit 1 minus that of slit 2 at screen position x.

    Computed as the literal difference of the two transport phases; at
    bench magnitudes (|phase| >> |difference|) that subtraction is exact
    in floating point, so closed-form intensities and explicit field
    superpositions agree to rounding error.
    """
    return transport_phase(geometry, beam, 1, x) - transport_phase(geometry, beam, 2, x)


def slit_envelope(geometry: TwoSlitGeometry, beam: BeamSpec, x):
    """Single-slit diffraction envelope sin(u)/u, u = k*a*x/(2L).

    Shared by both slits; equals 1 at x = 0 and first vanishes at
    x = wavelength * L / slit_width.
    """
    xa = _as_finite_array(x, "screen position")
    u = beam.wavenumber * geometry.slit_width * xa / (2.0 * geometry.screen_distance)
    env = np.sinc(u / np.pi)
    return env if env.shape else float(env)


def two_slit_field(geometry: TwoSlitGeometry, beam: BeamSpec, x):
    """Superposed complex field on the screen.

    envelope(x) * (amp1 * exp(i*phase1) + amp2 * exp(i*phase2)), the
    two-source superposition whose squared modulus is the observable
    intensity.
    """
    a1, a2 = geometry.slit_amplitudes
    env = slit_envelope(geometry, beam, x)
    p1 = transport_phase(geometry, beam, 1, x)
    p2 = transport_phase(geometry, beam, 2, x)
    field = env * (a1 * np.exp(1j * np.asarray(p1)) + a2 * np.exp(1j * np.asarray(p2)))
    return field if field.shape else complex(field)


def two_slit_intensity(geometry: TwoSlitGeometry, beam: BeamSpec, x):
    """Screen intensity of the two-slit superposition, closed form.

    env^2 * (|amp1|^2 + |amp2|^2 + 2*Re(amp1 * conj(amp2) * e^{i dphi}))
    with dphi the slit-1-minus-slit-2 transport phase difference. For
    real slit amplitudes the cross term is the familiar
    2*|amp1|*|amp2|*cos(dphi). Equals |two_slit_field|^2 to rounding.
    """
    a1, a2 = geometry.slit_amplitudes
    env = np.asarray(slit_envelope(geometry, beam, x))
    dphi = np.asarray(phase_difference(geometry, beam, x))
    cross = 2.0 * np.real(a1 * np.conj(a2) * np.exp(1j * dphi))
    intensity = env**2 * (abs(a1) ** 2 + abs(a2) ** 2 + cross)
    return intensity if intensity.shape else float(intensity)


def single_slit_intensity(geometry: TwoSlitGeometry, beam: BeamSpec, slit: int, x):
    """Screen intensity with only one slit open: env^2 * |amp_slit|^2."""
    if slit not in (1, 2):
        raise ValueError(f"slit must be 1 or 2, got {slit!r}")
    amp = geometry.slit_amplitudes[slit - 1]
    env = np.asarray(slit_envelope(geometry, beam, x))
    intensity = env**2 * abs(amp) ** 2
    return intensity if intensity.shape else float(intensity)


def crossing_intensity(geometry: MZGeometry, beam: BeamSpec, x, y):
    """Intensity where the two free arms cross, BS2 removed.

    |amp|^2 * (1 + cos(k0*x - k0*y + dphi)) inside the crossing region.
    Fringe planes are constant along x - y and the period along either
    axis is 2*pi/k0. Points outside the region raise ValueError: the
    plane-wave idealization holds only where the arms overlap.
    """
    xa = _as_finite_array(x, "crossing x")
    ya = _as_finite_array(y, "crossing y")
    inside = geometry.crossing_region.contains(xa, ya)
    if not np.all(inside):
        raise ValueError("crossing_intensity evaluated outside the crossing region")
    k0 = geometry.crossing_wavenumber
    intensity = beam.intensity_scale() * (1.0 + np.cos(k0 * xa - k0 * ya + geometry.phase_difference))
    return intensity if intensity.shape else float(intensity)


def mz_port_intensity(geometry: MZGeometry, beam: BeamSpec, port: str) -> float:
    """Mean intensity at one MZ output port.

    With BS2 in place the ports are complementary in the arm phase
    difference: port x reads |amp|^2 * (1 + cos(dphi)) / 2 and port y the
    matching (1 - cos(dphi)) / 2, summing to |amp|^2. With BS2 removed
    each detector just collects one arm: |amp|^2 / 2 at either port,
    independent of the phase.
    """
    if port not in ("x", "y"):
        raise ValueError(f"port must be 'x' or 'y', got {port!r}")
    scale = beam.intensity_scale()
    if not geometry.bs2_present:
        return scale / 2.0
    c = math.cos(geometry.phase_difference)
    if port == "x":
        return scale * (1.0 + c) / 2.0
    return scale * (1.0 - c) / 2.0
