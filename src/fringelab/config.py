"""Experiment configuration: presets, the key = value file format, digests.

A configuration names a scenario plus every physical parameter the
simulator needs. The nine built-in presets cover the bench layouts the
package models; each is a table of the keys it changes from its bench's
defaults. A config file starts from its scenario's preset and overrides
individual keys; one constructor builds a config from either set of
keys. The file format is line-oriented ``key = value`` with ``#``
comments and dotted keys for nesting, chosen so configs stay diffable
and trivially parseable. The dataclasses check values, the schema's
getters decide which keys apply, and each rejection cites its key's line.
The last text a config was built from is kept with its parsed lines, so
a sweep, which parses one text with a new override per step, parses
only the override after its first step.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional, Union

from .composite import PhaseNoise
from .measurement import MeasurementOperator, WeakScreen
from .wavefield import TWO_PI, BeamSpec, CrossingRegion, MZGeometry, ScreenGrid, TwoSlitGeometry

MZ_SCENARIOS = ("mz_with_bs2", "mz_without_bs2", "mz_weak_screen")

#: Scenarios whose runs attach photon-cavity which-way records to events.
CAVITY_SCENARIOS = ("young_micromaser", "young_single_cavity", "eraser_modulation")

#: How a screen scenario's pattern is read out: "literal" squares the full
#: composite state, so orthogonal internal or detector factors erase the
#: fringes; "measurement_mediated" takes the measurement operator's signal.
PATTERN_CONVENTIONS = ("literal", "measurement_mediated")

#: Keys every preset shares: a 500 nm beam, no phase noise, trivial
#: internal and detector states.
_SHARED = {
    "beam.wavelength": 500e-9,
    "beam.amplitude": 1.0,
    "noise.distribution": "none",
    "noise.independent_per_branch": True,
    "noise.value": 0.0,
    "noise.low": 0.0,
    "noise.high": TWO_PI,
    "noise.sigma": 0.0,
    "internal_overlap": 1.0,
    "internal_overlap_phase": 0.0,
    "detector_overlap": 1.0,
    "detector_overlap_phase": 0.0,
    "pattern_convention": "literal",
    "single_cavity": False,
}

#: Keys of the two-slit bench: 2 um slits 10 um apart, a screen 1 m away.
_TWO_SLIT = {
    "geometry.slit_separation": 10e-6,
    "geometry.slit_width": 2e-6,
    "geometry.screen_distance": 1.0,
    "geometry.slit_amplitude1": 1.0,
    "geometry.slit_amplitude2": 1.0,
    "geometry.screen_x_min": -0.15,
    "geometry.screen_x_max": 0.15,
}

#: Keys of the interferometer bench: no recombiner, and a 3 um square
#: crossing region whose fringes follow the beam's wavelength.
_INTERFEROMETER = {
    "mz.bs2_present": False,
    "mz.phase_difference": 0.0,
    "mz.crossing_wavenumber": TWO_PI / _SHARED["beam.wavelength"],
    "mz.crossing_x_min": 0.0,
    "mz.crossing_x_max": 3e-6,
    "mz.crossing_y_min": 0.0,
    "mz.crossing_y_max": 3e-6,
}

#: The built-in presets, each as the keys it changes from its bench's
#: defaults. A measurement.mode of internal alone is the all-ones
#: internal readout (see _build).
_PRESETS = {
    "young_baseline": {},
    "young_random_phase": {"noise.distribution": "uniform"},
    "young_internal_incoherent": {"internal_overlap": 0.0},
    "young_micromaser": {"detector_overlap": 0.0},
    "young_single_cavity": {"internal_overlap": 0.0, "detector_overlap": 0.0, "measurement.mode": "internal",
                            "pattern_convention": "measurement_mediated", "single_cavity": True},
    "mz_with_bs2": {"mz.bs2_present": True},
    "mz_without_bs2": {},
    "mz_weak_screen": {"weak_screen.transmittance": 0.99, "weak_screen.scatter_fraction": 0.01},
    "eraser_modulation": {"detector_overlap": 0.0, "measurement.mode": "internal",
                          "pattern_convention": "measurement_mediated"},
}

PRESET_NAMES = tuple(_PRESETS)


class ConfigError(Exception):
    """Invalid configuration text or values, with a line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs: bench layout, states, noise, readout."""

    scenario: str
    beam: BeamSpec
    geometry: Union[TwoSlitGeometry, MZGeometry]
    noise: PhaseNoise
    internal_overlap: float = 1.0
    internal_overlap_phase: float = 0.0
    detector_overlap: float = 1.0
    detector_overlap_phase: float = 0.0
    weak_screen: Optional[WeakScreen] = None
    measurement: Optional[MeasurementOperator] = None
    pattern_convention: str = "literal"
    single_cavity: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in PRESET_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}; valid: {', '.join(PRESET_NAMES)}")
        for name in ("internal_overlap", "detector_overlap"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for name in ("internal_overlap_phase", "detector_overlap_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.pattern_convention not in PATTERN_CONVENTIONS:
            raise ValueError(f"pattern_convention must be one of {PATTERN_CONVENTIONS}, got {self.pattern_convention!r}")
        is_mz = self.scenario in MZ_SCENARIOS
        if is_mz and not isinstance(self.geometry, MZGeometry):
            raise ValueError(f"scenario {self.scenario} needs interferometer geometry")
        if not is_mz and not isinstance(self.geometry, TwoSlitGeometry):
            raise ValueError(f"scenario {self.scenario} needs two-slit geometry")
        if self.scenario == "mz_weak_screen":
            if self.weak_screen is None:
                raise ValueError("mz_weak_screen requires a weak_screen section")
        elif self.weak_screen is not None:
            raise ValueError("weak_screen applies only to the mz_weak_screen scenario")
        if is_mz:
            if self.noise.distribution != "none":
                raise ValueError("phase noise applies to the two-slit bench, not interferometer scenarios")
            if self.measurement is not None:
                raise ValueError("measurement operators apply to screen scenarios only")
        if self.pattern_convention == "measurement_mediated" and not is_mz and self.measurement is None:
            raise ValueError("measurement_mediated convention requires a measurement operator")
        if self.single_cavity and self.scenario not in CAVITY_SCENARIOS:
            raise ValueError("single_cavity applies only to cavity-tagging scenarios")
        if self.scenario in CAVITY_SCENARIOS:
            if self.detector_overlap != 0.0:
                raise ValueError("cavity tagging requires orthogonal detector states (detector_overlap = 0)")
            if self.noise.distribution != "none":
                raise ValueError("phase noise is not modeled for cavity-tagging scenarios")


def _parse_bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _parse_complex(text: str) -> complex:
    return complex(text.replace(" ", ""))


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _geometry(kind, get):
    """Getter of a field of one bench's geometry; None on the other bench."""
    return lambda c: get(c.geometry) if isinstance(c.geometry, kind) else None


def _weak_screen(get):
    return lambda c: None if c.weak_screen is None else get(c.weak_screen)


def _noise(field: str, *distributions: str):
    """Getter of a noise parameter; None unless the distribution in force reads it."""
    return lambda c: getattr(c.noise, field) if c.noise.distribution in distributions else None


def _operator(get, mode: Optional[str] = None):
    """Getter of a measurement field; None without an operator or in another mode."""
    return lambda c: None if c.measurement is None or mode not in (None, c.measurement.mode) else get(c.measurement)


#: The config format, one row per key in canonical order: key -> (value
#: parser, getter). The getter reads the key's value from a config; None
#: means the key does not apply to that config's scenario, measurement
#: mode or noise distribution. Value ranges are the dataclasses' checks,
#: not the table's.
_SCHEMA = {
    "scenario": (str, attrgetter("scenario")),
    "beam.wavelength": (float, attrgetter("beam.wavelength")),
    "beam.amplitude": (_parse_complex, attrgetter("beam.amplitude")),
    "noise.distribution": (str, attrgetter("noise.distribution")),
    "noise.independent_per_branch": (_parse_bool, _noise("independent_per_branch", "uniform", "gaussian")),
    "noise.value": (float, _noise("value", "constant")),
    "noise.low": (float, _noise("low", "uniform")),
    "noise.high": (float, _noise("high", "uniform")),
    "noise.sigma": (float, _noise("sigma", "gaussian")),
    "internal_overlap": (float, attrgetter("internal_overlap")),
    "internal_overlap_phase": (float, attrgetter("internal_overlap_phase")),
    "detector_overlap": (float, attrgetter("detector_overlap")),
    "detector_overlap_phase": (float, attrgetter("detector_overlap_phase")),
    "pattern_convention": (str, attrgetter("pattern_convention")),
    "single_cavity": (_parse_bool, attrgetter("single_cavity")),
    "geometry.slit_separation": (float, _geometry(TwoSlitGeometry, attrgetter("slit_separation"))),
    "geometry.slit_width": (float, _geometry(TwoSlitGeometry, attrgetter("slit_width"))),
    "geometry.screen_distance": (float, _geometry(TwoSlitGeometry, attrgetter("screen_distance"))),
    "geometry.slit_amplitude1": (_parse_complex, _geometry(TwoSlitGeometry, lambda g: g.slit_amplitudes[0])),
    "geometry.slit_amplitude2": (_parse_complex, _geometry(TwoSlitGeometry, lambda g: g.slit_amplitudes[1])),
    "geometry.screen_x_min": (float, _geometry(TwoSlitGeometry, attrgetter("screen_grid.x_min"))),
    "geometry.screen_x_max": (float, _geometry(TwoSlitGeometry, attrgetter("screen_grid.x_max"))),
    "mz.bs2_present": (_parse_bool, _geometry(MZGeometry, attrgetter("bs2_present"))),
    "mz.phase_difference": (float, _geometry(MZGeometry, attrgetter("phase_difference"))),
    "mz.crossing_wavenumber": (float, _geometry(MZGeometry, attrgetter("crossing_wavenumber"))),
    "mz.crossing_x_min": (float, _geometry(MZGeometry, attrgetter("crossing_region.x_min"))),
    "mz.crossing_x_max": (float, _geometry(MZGeometry, attrgetter("crossing_region.x_max"))),
    "mz.crossing_y_min": (float, _geometry(MZGeometry, attrgetter("crossing_region.y_min"))),
    "mz.crossing_y_max": (float, _geometry(MZGeometry, attrgetter("crossing_region.y_max"))),
    "weak_screen.transmittance": (float, _weak_screen(attrgetter("transmittance"))),
    "weak_screen.scatter_fraction": (float, _weak_screen(attrgetter("scatter_fraction"))),
    "measurement.mode": (str, _operator(attrgetter("mode"))),
    "measurement.com_factor": (_parse_complex, _operator(attrgetter("com_factor"), "center_of_mass")),
    "measurement.g11": (_parse_complex, _operator(lambda m: m.matrix_elements[0][0], "internal")),
    "measurement.g12": (_parse_complex, _operator(lambda m: m.matrix_elements[0][1], "internal")),
    "measurement.g21": (_parse_complex, _operator(lambda m: m.matrix_elements[1][0], "internal")),
    "measurement.g22": (_parse_complex, _operator(lambda m: m.matrix_elements[1][1], "internal")),
}


def _values(config: ExperimentConfig) -> dict[str, object]:
    """Every key that applies to config, with its value, in table order."""
    return {key: value for key, (_, get) in _SCHEMA.items() if (value := get(config)) is not None}


def serialize_config(config: ExperimentConfig) -> str:
    """Canonical text form; identical configs serialize byte-identically."""
    lines = [f"{key} = {_format_value(value)}" for key, value in _values(config).items()]
    return "\n".join(lines) + "\n"


def config_digest(config: ExperimentConfig) -> str:
    """Content hash of the canonical serialization."""
    return hashlib.sha256(serialize_config(config).encode("utf-8")).hexdigest()


def _build(v: dict[str, object]) -> ExperimentConfig:
    """Construct the config dataclasses once from a complete value set."""
    scenario = v["scenario"]
    try:
        if scenario in MZ_SCENARIOS:
            geometry: Union[TwoSlitGeometry, MZGeometry] = MZGeometry(
                bs2_present=v["mz.bs2_present"],
                phase_difference=v["mz.phase_difference"],
                crossing_wavenumber=v["mz.crossing_wavenumber"],
                crossing_region=CrossingRegion(*(v[f"mz.crossing_{b}"] for b in ("x_min", "x_max", "y_min", "y_max"))),
            )
        else:
            geometry = TwoSlitGeometry(
                slit_separation=v["geometry.slit_separation"],
                slit_width=v["geometry.slit_width"],
                screen_distance=v["geometry.screen_distance"],
                slit_amplitudes=(v["geometry.slit_amplitude1"], v["geometry.slit_amplitude2"]),
                screen_grid=ScreenGrid(v["geometry.screen_x_min"], v["geometry.screen_x_max"]),
            )
        weak_screen = None
        if scenario == "mz_weak_screen":
            weak_screen = WeakScreen(v["weak_screen.transmittance"], v["weak_screen.scatter_fraction"])
        measurement = None
        if "measurement.mode" in v:
            mode = v["measurement.mode"]
            if mode == "center_of_mass":
                measurement = MeasurementOperator.center_of_mass(v.get("measurement.com_factor", 1.0))
            else:
                # an unset element reads 1; all four unset is the best-case detector, which
                # responds alike on either branch and so keeps the full fringe term
                measurement = MeasurementOperator(
                    mode,
                    matrix_elements=[[v.get(f"measurement.g{j}{i}", 1.0) for i in (1, 2)] for j in (1, 2)],
                )
        return ExperimentConfig(
            scenario=scenario,
            beam=BeamSpec(wavelength=v["beam.wavelength"], amplitude=v["beam.amplitude"]),
            geometry=geometry,
            noise=PhaseNoise(
                distribution=v["noise.distribution"],
                independent_per_branch=v["noise.independent_per_branch"],
                value=v["noise.value"],
                low=v["noise.low"],
                high=v["noise.high"],
                sigma=v["noise.sigma"],
            ),
            internal_overlap=v["internal_overlap"],
            internal_overlap_phase=v["internal_overlap_phase"],
            detector_overlap=v["detector_overlap"],
            detector_overlap_phase=v["detector_overlap_phase"],
            weak_screen=weak_screen,
            measurement=measurement,
            pattern_convention=v["pattern_convention"],
            single_cavity=v["single_cavity"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _preset_values(name: str) -> dict[str, object]:
    """The keys of a preset: the shared defaults, its bench's, then its own."""
    bench = _INTERFEROMETER if name in MZ_SCENARIOS else _TWO_SLIT
    return {"scenario": name, **_SHARED, **bench, **_PRESETS[name]}


def build_preset(name: str) -> ExperimentConfig:
    """Fully populated configuration for one of the named scenarios."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid presets: {', '.join(PRESET_NAMES)}")
    return _build(_preset_values(name))


def _blamed_line(entries: dict, values: dict[str, object], preset: dict[str, object]) -> Optional[int]:
    """Line of the last set key whose preset value (or absence) lets the config build, if any."""
    for key in reversed(entries):
        trial = {k: v for k, v in values.items() if k != key}
        if key in preset:
            trial[key] = preset[key]
        try:
            _build(trial)
        except ConfigError:
            continue
        return entries[key][0]
    return None


#: The last text parse_config built a config from: (text, its line
#: table, the value of each line that parses).
_kept: Optional[tuple] = None


def _line_table(text: str) -> tuple[dict[str, tuple[Optional[int], str]], dict[str, object]]:
    """text's key -> (line, raw value) table and the value of each line
    whose key and value parse, from _kept when it holds text. Raises the
    first line that is not key = value or repeats a key."""
    if _kept is not None and _kept[0] == text:
        return _kept[1], _kept[2]
    entries: dict[str, tuple[Optional[int], str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected key = value, got {body!r}", lineno)
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("missing key before '='", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first set on line {entries[key][0]})", lineno)
        entries[key] = (lineno, value)
    parsed = {}
    for key, (_, raw) in entries.items():
        try:
            parsed[key] = _SCHEMA[key][0](raw)
        except (KeyError, ValueError):  # parse_config raises it, citing the line, unless overridden
            continue
    return entries, parsed


def parse_config(text: str, overrides: Optional[dict[str, str]] = None) -> ExperimentConfig:
    """Parse key = value text into a validated configuration.

    The scenario key selects the preset whose defaults fill every key the
    text does not mention. overrides, when given, are applied on top of
    the text (replacing file values); they are raw value strings keyed
    like file keys, used by the sweep command. A set key that the built
    config's getter reads as None does not apply and is refused. The last
    text a config was built from is kept with its parsed values (_kept),
    so parsing it again parses only the overrides; the config is still
    built and checked, and an error cited, as on a first parse.
    """
    global _kept
    text_entries, parsed = _line_table(text)
    entries = {**text_entries, **{key: (None, value) for key, value in (overrides or {}).items()}}
    if "scenario" not in entries:
        raise ConfigError("missing required key: scenario")
    scenario_line, scenario = entries.pop("scenario")
    if scenario not in _PRESETS:
        raise ConfigError(f"unknown scenario {scenario!r}; valid: {', '.join(PRESET_NAMES)}", scenario_line)
    preset = _preset_values(scenario)
    values = dict(preset)
    for key, (lineno, raw) in entries.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if lineno is not None and key in parsed:
            values[key] = parsed[key]
            continue
        try:
            values[key] = _SCHEMA[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {exc}", lineno) from exc
    try:
        config = _build(values)
    except ConfigError as exc:
        raise ConfigError(str(exc), _blamed_line(entries, values, preset)) from exc
    for key, (lineno, _) in entries.items():
        if _SCHEMA[key][1](config) is None:
            where = ""
            if key.startswith("measurement."):
                where = " with measurement.mode " + (f"= {config.measurement.mode}" if config.measurement else "unset")
            elif key.startswith("noise."):
                where = f" with noise.distribution = {config.noise.distribution}"
            raise ConfigError(f"key {key!r} is not valid for scenario {scenario}{where}", lineno)
    _kept = (text, text_entries, parsed)
    return config
