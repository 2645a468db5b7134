"""The per-particle oracles live in tests/oracles.py, not in the package."""

import pytest

import fringelab
from fringelab import composite, measurement, montecarlo


@pytest.mark.parametrize("module,name", [
    (montecarlo, "sample_position"),
    (measurement, "ScreenOutcome"),
    (measurement, "OUTCOME_KINDS"),
    (measurement, "weak_screen_interact"),
    (measurement, "micromaser_record"),
    (composite, "dephase"),
    (composite, "ensemble_pattern"),
])
def test_the_package_holds_no_oracle(module, name):
    assert not hasattr(module, name)
    assert not hasattr(fringelab, name)


def test_phase_noise_has_no_draw():
    assert not hasattr(composite.PhaseNoise, "draw")
