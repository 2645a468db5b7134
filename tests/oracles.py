"""Per-particle reference draws that the package's vectorized samplers
must reproduce from the same random stream.

Each oracle is the scalar operation a vectorized path is defined by; the
package holds only the vectorized path, and the tests named here compare
the two draw for draw:

* sample_position: one inverse-CDF screen draw, (cell, jitter). Pins
  montecarlo.sample_positions and every block sampler built on
  montecarlo._inverse_cdf (test_montecarlo.py
  test_vectorized_sampling_equals_scalar_loop).
* micromaser_record, then sample_position: one cavity-tagged particle,
  (tag, cell, jitter). Pins experiments._tagged_blocks (test_experiments.py
  test_tagged_run_composes_record_then_position and
  test_mediated_tagged_run_samples_common_signal).
* weak_screen_interact with ScreenOutcome and OUTCOME_KINDS: one particle
  meeting the weak screen, (classify) then (cell, jitter) or a port draw.
  Pins experiments._weak_screen_blocks (test_experiments.py
  test_weak_screen_run_composes_interaction_and_port_draw and
  test_weak_screen_run_with_absorption_replays_the_scalar_loop).
* draw, dephase and ensemble_pattern: phase offsets drawn from a
  PhaseNoise, one dephased copy of a state, and the average over many.
  Pin composite.noise_averaged_pattern, the closed form literal-convention
  runs sample from through experiments.pattern_profile (test_composite.py
  test_ensemble_pattern_converges_to_noise_average, and test_acceptance.py
  test_phase_noise_washes_scales_or_preserves_the_pattern).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from fringelab.composite import CompositeState, PhaseNoise, pattern_terms
from fringelab.measurement import WeakScreen, WhichWayRecord, midline_profile
from fringelab.montecarlo import _inverse_cdf, _profile_cdf
from fringelab.wavefield import BeamSpec, MZGeometry

OUTCOME_KINDS = ("scattered", "transmitted", "absorbed")


def sample_position(positions, weights, rng: np.random.Generator) -> float:
    """One coordinate drawn proportional to weights on a uniform grid.

    positions are cell centers with uniform spacing. The draw is
    inverse-CDF over the cells followed by a uniform jitter inside the
    chosen cell, consuming exactly two uniforms in that order. The
    jitter keeps re-binned histograms free of grid-comb artifacts.
    """
    positions = np.asarray(positions, dtype=float)
    cdf = _profile_cdf(weights)
    if positions.shape != cdf.shape:
        raise ValueError("positions and profile must have the same shape")
    cell_u, jitter_u = rng.random(), rng.random()
    return float(_inverse_cdf(positions, cdf, cell_u, jitter_u))


@dataclass(frozen=True)
class ScreenOutcome:
    """Result of one particle meeting the weak screen."""

    kind: str
    x: Optional[float] = None
    y: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in OUTCOME_KINDS:
            raise ValueError(f"kind must be one of {OUTCOME_KINDS}, got {self.kind!r}")
        has_point = self.x is not None and self.y is not None
        if (self.kind == "scattered") != has_point:
            raise ValueError("scattered outcomes carry (x, y); others carry neither")


def weak_screen_interact(
    screen: WeakScreen,
    mz: MZGeometry,
    beam: BeamSpec,
    rng: np.random.Generator,
    midline: tuple[np.ndarray, np.ndarray] | None = None,
) -> ScreenOutcome:
    """One particle crossing the screen.

    Consumes one uniform to classify (scatter band first, then
    transmission, remainder absorbed). A scattered particle consumes two
    more to place its flash along the midline of the crossing region,
    proportional to the local intensity there. Callers in a tight loop
    can pass the precomputed midline (positions, weights) pair.
    """
    u = rng.random()
    if u < screen.scatter_fraction:
        if midline is None:
            midline = midline_profile(mz, beam)
        positions, weights = midline
        x = sample_position(positions, weights, rng)
        return ScreenOutcome("scattered", x=x, y=mz.crossing_region.midline_y)
    if u < screen.scatter_fraction + screen.transmittance:
        return ScreenOutcome("transmitted")
    return ScreenOutcome("absorbed")


def micromaser_record(
    slit_probabilities: tuple[float, float],
    single_cavity: bool,
    rng: np.random.Generator,
) -> WhichWayRecord:
    """Sample the traversed slit and deposit the photon accordingly.

    Two cavities put one photon in the traversed slit's cavity. With
    single_cavity only slit 1 is covered, so a slit-2 traversal leaves
    both counts zero and the path is inferred from the absence.
    Consumes exactly one uniform.
    """
    p1, p2 = (float(p) for p in slit_probabilities)
    if not (math.isfinite(p1) and math.isfinite(p2)) or p1 < 0 or p2 < 0 or abs(p1 + p2 - 1.0) > 1e-9:
        raise ValueError(f"slit probabilities must be nonnegative and sum to 1, got ({p1!r}, {p2!r})")
    slit = 1 if rng.random() < p1 else 2
    return WhichWayRecord(1 if slit == 1 else 0, 1 if slit == 2 and not single_cavity else 0)


def draw(noise: PhaseNoise, rng: np.random.Generator, size=None):
    """Sample phase offsets; the same sampler dephase() consumes."""
    if noise.distribution == "none":
        return 0.0 if size is None else np.zeros(size)
    if noise.distribution == "constant":
        if size is None:
            return noise.value
        return np.full(size, noise.value)
    if noise.distribution == "uniform":
        return rng.uniform(noise.low, noise.high, size)
    return rng.normal(0.0, noise.sigma, size)


def dephase(state: CompositeState, noise: PhaseNoise, rng: np.random.Generator) -> CompositeState:
    """Copy of the state with freshly drawn extra phases.

    "none" returns the input unchanged and consumes no randomness;
    "constant" sets both branch phases to the configured value, also
    without consuming randomness. Random distributions draw branch 1
    first, then branch 2 (or a single shared value).
    """
    if noise.distribution == "none":
        return state
    if noise.distribution == "constant":
        d1 = d2 = noise.value
    elif noise.independent_per_branch:
        d1 = float(draw(noise, rng))
        d2 = float(draw(noise, rng))
    else:
        d1 = d2 = float(draw(noise, rng))
    b1, b2 = state.branches
    return CompositeState(
        (replace(b1, extra_phase=d1), replace(b2, extra_phase=d2)),
    )


def ensemble_pattern(
    state: CompositeState,
    noise: PhaseNoise,
    n_draws: int,
    rng: np.random.Generator,
    x,
) -> np.ndarray:
    """Average screen pattern over n_draws dephased copies of the state.

    The pattern is affine in the per-copy phase factor e^{i(d2-d1)}, so
    averaging that factor over the draws and evaluating once is the exact
    profile average, just without the n_draws-fold grid evaluation.
    Draws come in two blocks (all branch-1 offsets, then all branch-2)
    for the independent case, one block when shared.
    """
    if n_draws < 1:
        raise ValueError(f"ensemble_pattern needs n_draws >= 1, got {n_draws}")
    base, cross = pattern_terms(state, x)
    d1 = draw(noise, rng, n_draws)
    d2 = draw(noise, rng, n_draws) if noise.independent_per_branch else d1
    factor = complex(np.mean(np.exp(1j * (d2 - d1))))
    return base + 2.0 * np.real(cross * factor)
