"""Composite path states: center-of-mass amplitude times internal and detector factors.

A particle heading through the two-slit bench is carried here as a pair of
branches, one per path. Each branch holds a complex center-of-mass
amplitude profile on the screen, an internal state vector (electronic or
motional degrees of freedom of the particle itself), a detector state
vector (whatever the path information got written into), and an extra
scalar phase used to model slow environmental dephasing.

The observable screen pattern of the superposition is

    |psi1|^2 + |psi2|^2
      + 2 Re[ <int1|int2> <det1|det2> conj(psi1) psi2 e^{i(phase2-phase1)} ]

so any orthogonality between internal or detector factors suppresses the
cross term, and random extra phases wash it out on ensemble average.

States that differ only in their internal, detector or noise factors,
such as the steps of an overlap sweep, share the slits' waves on a grid,
and states that differ only in slit width or slit amplitudes share each
slit's phasor e^{i phase} and the envelope. States whose slits' waves
are the held ones also share their baseline |psi1|^2 + |psi2|^2: one
memo, _kept, holds the last value of each, read-only (see
slit_branch_amplitude and pattern_terms).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .wavefield import TWO_PI, BeamSpec, TwoSlitGeometry, slit_envelope, transport_phase

NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class StateVector:
    """Unit vector in a small finite-dimensional complex space."""

    components: tuple[complex, ...]

    def __post_init__(self) -> None:
        comps = tuple(complex(c) for c in self.components)
        if not comps:
            raise ValueError("state vector needs at least one component")
        for c in comps:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("state vector components must be finite")
        norm = math.sqrt(sum(abs(c) ** 2 for c in comps))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise ValueError(f"state vector norm must be 1 within {NORM_TOLERANCE}, got {norm!r}")
        object.__setattr__(self, "components", comps)

    @classmethod
    def normalize(cls, components) -> "StateVector":
        comps = [complex(c) for c in components]
        norm = math.sqrt(sum(abs(c) ** 2 for c in comps))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(tuple(c / norm for c in comps))

    @property
    def dim(self) -> int:
        return len(self.components)

    def asarray(self) -> np.ndarray:
        return np.array(self.components, dtype=complex)


#: One-dimensional placeholder for a degree of freedom the bench does not use.
TRIVIAL_STATE = StateVector((1.0 + 0.0j,))


def inner(a: StateVector, b: StateVector) -> complex:
    """Hermitian inner product, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise ValueError(f"state dimensions differ: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.asarray(), b.asarray()))


def overlap_pair(magnitude: float, phase: float = 0.0, dim: int = 2) -> tuple[StateVector, StateVector]:
    """Two unit vectors whose inner product is magnitude * e^{i phase}.

    The first vector is the first basis state; the second tilts away from
    it just enough to realize the requested overlap. magnitude must lie
    in [0, 1]; dim >= 2 unless magnitude is 1, where one dimension works.
    """
    if not (0.0 <= magnitude <= 1.0):
        raise ValueError(f"overlap magnitude must lie in [0, 1], got {magnitude!r}")
    if not math.isfinite(phase):
        raise ValueError("overlap phase must be finite")
    if dim < 2:
        raise ValueError("overlap_pair needs dim >= 2")
    first = [0.0 + 0.0j] * dim
    first[0] = 1.0 + 0.0j
    second = [0.0 + 0.0j] * dim
    second[0] = magnitude * cmath.exp(1j * phase)
    second[1] = math.sqrt(max(0.0, 1.0 - magnitude * magnitude)) + 0.0j
    return StateVector(tuple(first)), StateVector.normalize(second)


@dataclass(frozen=True)
class Branch:
    """One path through the bench."""

    path_id: int
    com_amplitude: Callable[..., np.ndarray]
    internal: StateVector
    detector: StateVector
    extra_phase: float = 0.0

    def __post_init__(self) -> None:
        if self.path_id not in (1, 2):
            raise ValueError(f"path_id must be 1 or 2, got {self.path_id!r}")
        if not callable(self.com_amplitude):
            raise ValueError("com_amplitude must be callable")
        if not math.isfinite(self.extra_phase):
            raise ValueError("extra_phase must be finite")


@dataclass(frozen=True)
class CompositeState:
    """Two-branch superposition, one branch per path."""

    branches: tuple[Branch, Branch]

    def __post_init__(self) -> None:
        if len(self.branches) != 2:
            raise ValueError("composite state needs exactly two branches")
        b1, b2 = self.branches
        if (b1.path_id, b2.path_id) != (1, 2):
            raise ValueError(f"branches must carry path ids (1, 2) in order, got ({b1.path_id}, {b2.path_id})")
        if b1.internal.dim != b2.internal.dim:
            raise ValueError("internal state dimensions differ between branches")
        if b1.detector.dim != b2.detector.dim:
            raise ValueError("detector state dimensions differ between branches")

    @property
    def branch1(self) -> Branch:
        return self.branches[0]

    @property
    def branch2(self) -> Branch:
        return self.branches[1]

    def overlap_product(self) -> complex:
        """<int1|int2> <det1|det2>, the cross-term suppression factor."""
        b1, b2 = self.branches
        return inner(b1.internal, b2.internal) * inner(b1.detector, b2.detector)


#: {kind: (key, value)}, the last value of each kind computed, read-only
_kept: dict = {}


def _keep(kind, key, compute: Callable[[], np.ndarray]) -> np.ndarray:
    """kind's held value if its key equals key, else compute()'s, held
    read-only. A new wave drops the baseline held for the old one."""
    if kind in _kept and _kept[kind][0] == key:
        return _kept[kind][1]
    value = compute()
    value.flags.writeable = False
    if kind in (("wave", 1), ("wave", 2)):
        _kept.pop("base", None)
    _kept[kind] = (key, value)
    return value


def _grid(x: np.ndarray) -> tuple:
    """x's dtype, shape and bytes, as a held key's equal tuple if any: x's bytes are kept once."""
    grid = (x.dtype.str, x.shape, x.tobytes())
    for kind in ("envelope", ("wave", 1), ("wave", 2)):
        if kind in _kept and _kept[kind][0][-1] == grid:
            return _kept[kind][0][-1]
    return grid


def slit_branch_amplitude(
    geometry: TwoSlitGeometry,
    beam: BeamSpec,
    slit: int,
    include_envelope: bool = True,
) -> Callable[..., np.ndarray]:
    """Center-of-mass amplitude function for one slit.

    With the envelope included this is the physical far-field profile
    envelope(x) * amp * e^{i phase(x)}. With include_envelope=False the
    modulus is held flat, which isolates the interference algebra from
    diffraction; useful when checking visibility laws exactly.

    On a numeric array x the memo _kept holds the last value of five
    kinds, read-only, for any function built here, and pattern_terms
    adds a sixth:

    - ("wave", slit), keyed on geometry, the slit amplitudes' repr, beam,
      envelope flag and x's dtype, shape and bytes: a sweep that leaves
      geometry and beam alone computes each wave once;
    - ("phasor", slit), e^{i phase}, keyed on the transport phase's shape
      and bytes: a sweep over slit width or a slit amplitude computes no
      new exponential;
    - "envelope", keyed on slit width, screen distance, beam and x, and
      shared by both slits;
    - "base", |psi1|^2 + |psi2|^2 of the two held waves (pattern_terms),
      dropped whenever either wave is recomputed.

    A wave is envelope * (amp * phasor) either way, so kept and fresh
    waves have the same bits. The keys share one copy of x's bytes, and
    the memo holds at most 416 KB on the 4096-cell sampling grid. A
    scalar x is computed every time and keeps nothing.
    """
    if slit not in (1, 2):
        raise ValueError(f"slit must be 1 or 2, got {slit!r}")
    amp = geometry.slit_amplitudes[slit - 1]

    def amplitude(x):
        if isinstance(x, np.ndarray) and x.ndim and x.dtype.kind in "biuf":
            keep, grid = _keep, _grid(x)
        else:
            keep, grid = (lambda kind, key, compute: compute()), None

        def build():
            phase = np.asarray(transport_phase(geometry, beam, slit, x))
            wave = amp * keep(("phasor", slit), (phase.shape, phase.tobytes()), lambda: np.exp(1j * phase))
            if not include_envelope:
                return wave
            envelope_key = (geometry.slit_width, geometry.screen_distance, beam, grid)
            return keep("envelope", envelope_key, lambda: np.asarray(slit_envelope(geometry, beam, x))) * wave

        # == takes -0.0 for 0.0: the amplitudes' repr and x's bytes tell them apart
        return keep(("wave", slit), (geometry, repr(geometry.slit_amplitudes), beam, include_envelope, grid), build)

    return amplitude


def two_slit_composite(
    geometry: TwoSlitGeometry,
    beam: BeamSpec,
    internal: tuple[StateVector, StateVector] = (TRIVIAL_STATE, TRIVIAL_STATE),
    detector: tuple[StateVector, StateVector] = (TRIVIAL_STATE, TRIVIAL_STATE),
    include_envelope: bool = True,
) -> CompositeState:
    """Composite state of a particle crossing the two-slit bench."""
    b1 = Branch(1, slit_branch_amplitude(geometry, beam, 1, include_envelope), internal[0], detector[0])
    b2 = Branch(2, slit_branch_amplitude(geometry, beam, 2, include_envelope), internal[1], detector[1])
    return CompositeState((b1, b2))


def pattern_terms(state: CompositeState, x) -> tuple[np.ndarray, np.ndarray]:
    """Baseline and complex cross profile of the screen pattern.

    Returns (base, cross) with base = |psi1|^2 + |psi2|^2 and
    cross = overlap_product * conj(psi1) * psi2, both evaluated on x and
    excluding the branches' extra phases. Every pattern in this module is
    affine in the extra-phase factor: base + 2 Re(cross * e^{i dphase}).

    On a read-only x, such as a run's sampling grid, whose branch waves
    are the two _kept holds, base is the memo's "base" kind, read-only:
    a sweep that leaves geometry and beam alone sums it once. Any other
    x, a caller's writable array or a scalar, gets a fresh base and
    leaves the memo without one.
    """
    b1, b2 = state.branches
    psi1 = np.asarray(b1.com_amplitude(x))
    psi2 = np.asarray(b2.com_amplitude(x))
    if (isinstance(x, np.ndarray) and not x.flags.writeable
            and _kept.get(("wave", 1), (None, None))[1] is psi1 and _kept.get(("wave", 2), (None, None))[1] is psi2):
        # the ids name the held waves, as a new wave drops this kind (_keep)
        base = _keep("base", (id(psi1), id(psi2)), lambda: np.abs(psi1) ** 2 + np.abs(psi2) ** 2)
    else:
        base = np.abs(psi1) ** 2 + np.abs(psi2) ** 2
    cross = state.overlap_product() * np.conj(psi1) * psi2
    return base, cross


def literal_pattern(state: CompositeState, x) -> np.ndarray:
    """Screen pattern from squaring the composite state directly.

    Internal and detector overlaps multiply the cross term, so which-way
    records stored in orthogonal states remove the fringes identically.
    """
    b1, b2 = state.branches
    base, cross = pattern_terms(state, x)
    relative = cmath.exp(1j * (b2.extra_phase - b1.extra_phase))
    return base + 2.0 * np.real(cross * relative)


@dataclass(frozen=True)
class PhaseNoise:
    """Random extra phase applied to the branches of a composite state.

    Distributions: "none" leaves the state alone, "constant" pins both
    branch phases to ``value``, "uniform" draws from [low, high), and
    "gaussian" draws from a centered normal with width ``sigma``. With
    independent_per_branch each branch gets its own draw (branch 1 first);
    otherwise one shared draw shifts both, which cancels in every pattern.
    """

    distribution: str = "none"
    independent_per_branch: bool = True
    value: float = 0.0
    low: float = 0.0
    high: float = TWO_PI
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.distribution not in ("none", "constant", "uniform", "gaussian"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        for v in (self.value, self.low, self.high, self.sigma):
            if not math.isfinite(v):
                raise ValueError("noise parameters must be finite")
        if self.distribution == "uniform" and not self.low < self.high:
            raise ValueError(f"uniform noise requires low < high, got [{self.low}, {self.high})")
        if self.distribution == "gaussian" and self.sigma < 0.0:
            raise ValueError("gaussian noise width must be nonnegative")

    @classmethod
    def none(cls) -> "PhaseNoise":
        return cls("none")

    @classmethod
    def constant(cls, value: float) -> "PhaseNoise":
        return cls("constant", value=value)

    @classmethod
    def uniform(cls, low: float = 0.0, high: float = TWO_PI, independent_per_branch: bool = True) -> "PhaseNoise":
        return cls("uniform", independent_per_branch=independent_per_branch, low=low, high=high)

    @classmethod
    def gaussian(cls, sigma: float, independent_per_branch: bool = True) -> "PhaseNoise":
        return cls("gaussian", independent_per_branch=independent_per_branch, sigma=sigma)

    def mean_phase_factor(self) -> complex:
        """Exact expectation of e^{i offset} under this distribution."""
        if self.distribution == "none":
            return 1.0 + 0.0j
        if self.distribution == "constant":
            return cmath.exp(1j * self.value)
        if self.distribution == "uniform":
            width = self.high - self.low
            return (cmath.exp(1j * self.high) - cmath.exp(1j * self.low)) / (1j * width)
        return complex(math.exp(-0.5 * self.sigma * self.sigma))

    def cross_phase_factor(self) -> complex:
        """Exact expectation of e^{i(offset2 - offset1)} for the cross term.

        Independent branch draws factorize into conj(m) * m = |m|^2 with
        m the mean phase factor; a shared draw cancels to exactly 1.
        """
        if self.distribution in ("none", "constant"):
            return 1.0 + 0.0j
        if not self.independent_per_branch:
            return 1.0 + 0.0j
        m = self.mean_phase_factor()
        return m.conjugate() * m


def noise_averaged_pattern(state: CompositeState, noise: PhaseNoise, x) -> np.ndarray:
    """Exact expectation of the screen pattern under the noise distribution.

    Any extra phases already on the branches are disregarded: as in the
    dephase oracle (tests/oracles.py), the noise replaces them. Because
    the pattern is affine in e^{i(d2-d1)}, plugging the distribution's
    exact cross factor into the cross term gives the infinite-ensemble
    average in closed form, which is also the exact marginal position
    density of a particle whose phases are drawn fresh from the noise.
    """
    base, cross = pattern_terms(state, x)
    return base + 2.0 * np.real(cross * noise.cross_phase_factor())
