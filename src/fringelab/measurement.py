"""Measurement backends: operator taxonomy, weak screen, cavity tagging.

Two distinct readout families live here. Operators acting on the
center of mass multiply both branch amplitudes by a common factor and
leave the fringes alone; operators acting on internal freedoms couple
through a 2x2 table of matrix elements whose off-diagonal entries decide
whether the recorded signal keeps any fringe term at all. The weak
scattering screen and the photon-cavity path tag are the two concrete
detectors built on these rules, and coincidence_modulate is the pure
post-processing step that blends a joint histogram with its per-path
singles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import FringeHistogram
from .composite import CompositeState
from .montecarlo import SAMPLING_CELLS, sampling_grid
from .wavefield import BeamSpec, MZGeometry, TwoSlitGeometry, crossing_intensity, single_slit_intensity

MEASUREMENT_MODES = ("center_of_mass", "internal")


def _coerce_elements(elements) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    rows = tuple(tuple(complex(v) for v in row) for row in elements)
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("matrix_elements must be a 2x2 table")
    for row in rows:
        for v in row:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("matrix elements must be finite")
    return rows


@dataclass(frozen=True)
class MeasurementOperator:
    """A readout channel, either on the center of mass or internal space.

    center_of_mass mode uses com_factor, the single linear amplitude
    factor applied to both branches. internal mode uses
    matrix_elements[j][i], the amplitude for the detector to respond in
    channel j when branch i+1 was taken.
    """

    mode: str
    com_factor: complex = 1.0 + 0.0j
    matrix_elements: Optional[tuple[tuple[complex, complex], tuple[complex, complex]]] = None

    def __post_init__(self) -> None:
        if self.mode not in MEASUREMENT_MODES:
            raise ValueError(f"mode must be one of {MEASUREMENT_MODES}, got {self.mode!r}")
        factor = complex(self.com_factor)
        if not (math.isfinite(factor.real) and math.isfinite(factor.imag)):
            raise ValueError("com_factor must be finite")
        object.__setattr__(self, "com_factor", factor)
        if self.mode == "center_of_mass":
            if factor == 0:
                raise ValueError("com_factor must be nonzero in center_of_mass mode")
            return
        if self.matrix_elements is None:
            raise ValueError("internal mode needs matrix_elements")
        object.__setattr__(self, "matrix_elements", _coerce_elements(self.matrix_elements))

    @classmethod
    def center_of_mass(cls, factor: complex) -> "MeasurementOperator":
        return cls("center_of_mass", com_factor=factor)

    @classmethod
    def internal(cls, elements) -> "MeasurementOperator":
        return cls("internal", matrix_elements=elements)


def measured_signal(op: MeasurementOperator, state: CompositeState, x):
    """Detector response profile on screen coordinate x.

    center_of_mass mode ignores internal and detector freedoms entirely:
    |A|^2 (|psi1|^2 + |psi2|^2 + 2 Re psi1* psi2). internal mode weights
    each quadratic form with its matrix element,
    Re[g11 |psi1|^2 + g22 |psi2|^2 + psi1* psi2 g12 + psi1 psi2* g21],
    so zero cross elements kill the fringe term identically. The
    branches' extra dephasing offsets ride along on the cross terms.
    """
    b1, b2 = state.branches
    psi1 = np.asarray(b1.com_amplitude(x))
    psi2 = np.asarray(b2.com_amplitude(x))
    relative = cmath.exp(1j * (b2.extra_phase - b1.extra_phase))
    p12 = np.conj(psi1) * psi2 * relative
    if op.mode == "center_of_mass":
        scale = abs(op.com_factor) ** 2
        out = scale * (np.abs(psi1) ** 2 + np.abs(psi2) ** 2 + 2.0 * np.real(p12))
    else:
        g = op.matrix_elements
        total = (g[0][0] * np.abs(psi1) ** 2 + g[1][1] * np.abs(psi2) ** 2
                 + g[0][1] * p12 + g[1][0] * np.conj(p12))
        out = np.real(total)
    return out if out.shape else float(out)


@dataclass(frozen=True)
class WeakScreen:
    """Thin scattering film: transmit, weakly scatter, or absorb.

    Both fractions are required: the mz_weak_screen preset's 99:1 split
    lives in its key table, not here."""

    transmittance: float
    scatter_fraction: float

    def __post_init__(self) -> None:
        t, s = float(self.transmittance), float(self.scatter_fraction)
        if not (0.0 <= t <= 1.0 and 0.0 <= s <= 1.0):
            raise ValueError(f"transmittance and scatter_fraction must lie in [0, 1], got {t!r}, {s!r}")
        if t + s > 1.0 + 1e-12:
            raise ValueError(f"transmittance + scatter_fraction must not exceed 1, got {t + s!r}")
        object.__setattr__(self, "transmittance", t)
        object.__setattr__(self, "scatter_fraction", s)

    @property
    def absorb_fraction(self) -> float:
        return max(0.0, 1.0 - self.transmittance - self.scatter_fraction)


def midline_profile(mz: MZGeometry, beam: BeamSpec, n_cells: int = SAMPLING_CELLS) -> tuple[np.ndarray, np.ndarray]:
    """Sampling grid and intensity along the screen's horizontal midline."""
    region = mz.crossing_region
    positions = sampling_grid(region.x_min, region.x_max, n_cells)
    weights = np.asarray(crossing_intensity(mz, beam, positions, region.midline_y))
    return positions, weights


@dataclass(frozen=True)
class WhichWayRecord:
    """Photon counts left in the path-tagging cavities by one particle:
    one in the traversed slit's cavity, or none for an uncovered slit 2."""

    cavity1_photons: int
    cavity2_photons: int

    def __post_init__(self) -> None:
        for name, v in (("cavity1_photons", self.cavity1_photons), ("cavity2_photons", self.cavity2_photons)):
            if v not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {v!r}")
        if self.cavity1_photons + self.cavity2_photons > 1:
            raise ValueError("at most one photon per particle")

    @property
    def inferred_path(self) -> int:
        """Path the record certifies; zero photons tags path 2 when only
        path 1 carries a cavity."""
        return 1 if self.cavity1_photons == 1 else 2


def eraser_singles(geometry: TwoSlitGeometry, beam: BeamSpec,
                   joint: FringeHistogram) -> tuple[FringeHistogram, FringeHistogram]:
    """The per-path singles of a joint screen histogram: each slit's
    intensity at the bin centers, scaled to hold the joint total together."""
    centers = joint.bin_centers()
    profile1 = np.asarray(single_slit_intensity(geometry, beam, 1, centers))
    profile2 = np.asarray(single_slit_intensity(geometry, beam, 2, centers))
    scale = joint.total / (profile1.sum() + profile2.sum())
    return FringeHistogram(joint.bin_edges, profile1 * scale), FringeHistogram(joint.bin_edges, profile2 * scale)


def coincidence_modulate(
    joint: FringeHistogram,
    single1: FringeHistogram,
    single2: FringeHistogram,
    gamma: float,
) -> FringeHistogram:
    """Blend the joint histogram with its per-path singles.

    Returns single1 + single2 + gamma * (joint - single1 - single2)
    bin for bin. gamma = 0 keeps only the incoherent sum of the singles,
    gamma = 1 reproduces the joint histogram; on integer counts both
    endpoints are exact. This is pure arithmetic on already-recorded
    data; no particle is touched. Statistical noise can push a strongly
    anti-weighted bin slightly below zero; such bins are floored at 0.
    """
    gamma = float(gamma)
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [-1, 1], got {gamma!r}")
    if not (joint.same_binning(single1) and joint.same_binning(single2)):
        raise ValueError("joint and singles histograms must share identical binning")
    singles_total = single1.total + single2.total
    allowance = 5.0 * math.sqrt(joint.total + 1.0)
    if singles_total > joint.total + allowance:
        raise ValueError(
            f"singles total {singles_total} exceeds joint total {joint.total} beyond statistical noise"
        )
    base = single1.counts + single2.counts
    blended = np.maximum(base + gamma * (joint.counts - base), 0.0)
    return FringeHistogram(joint.bin_edges, blended)
