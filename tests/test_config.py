"""Presets, the key = value config format, validation, and digests."""

import re
from dataclasses import fields, replace

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from fringelab.composite import PhaseNoise
from fringelab.config import (
    _SCHEMA,
    CAVITY_SCENARIOS,
    MZ_SCENARIOS,
    PATTERN_CONVENTIONS,
    PRESET_NAMES,
    ConfigError,
    ExperimentConfig,
    build_preset,
    config_digest,
    parse_config,
    serialize_config,
)
from fringelab.wavefield import TwoSlitGeometry


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_builds_and_round_trips(name):
    config = build_preset(name)
    assert config.scenario == name
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert config_digest(again) == config_digest(config)


def test_unknown_preset_lists_valid_names():
    with pytest.raises(ConfigError) as err:
        build_preset("young_quadruple_slit")
    message = str(err.value)
    for name in PRESET_NAMES:
        assert name in message


def test_preset_defaults():
    config = build_preset("young_baseline")
    assert config.beam.wavelength == 500e-9
    geo = config.geometry
    assert isinstance(geo, TwoSlitGeometry)
    assert geo.slit_separation == 10e-6
    assert geo.slit_width == 2e-6
    assert geo.screen_distance == 1.0
    assert config.noise.distribution == "none"
    assert config.internal_overlap == 1.0
    assert config.detector_overlap == 1.0


def test_preset_scenario_structure():
    assert build_preset("young_random_phase").noise.distribution == "uniform"
    assert build_preset("young_internal_incoherent").internal_overlap == 0.0
    assert build_preset("young_micromaser").detector_overlap == 0.0
    single = build_preset("young_single_cavity")
    assert single.single_cavity
    assert single.pattern_convention == "measurement_mediated"
    eraser = build_preset("eraser_modulation")
    assert eraser.pattern_convention == "measurement_mediated"
    assert eraser.measurement is not None
    assert build_preset("mz_with_bs2").geometry.bs2_present
    assert not build_preset("mz_without_bs2").geometry.bs2_present
    screen = build_preset("mz_weak_screen")
    assert screen.weak_screen.transmittance == 0.99
    assert screen.weak_screen.scatter_fraction == 0.01


def test_minimal_config_applies_preset_defaults():
    config = parse_config("scenario = young_baseline\n")
    assert config == build_preset("young_baseline")


def test_comments_and_blank_lines_are_ignored():
    text = """
# full-line comment
scenario = young_baseline   # trailing comment

beam.wavelength = 6.33e-07
"""
    config = parse_config(text)
    assert config.beam.wavelength == 6.33e-7


def test_syntax_error_carries_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("scenario = young_baseline\nwavelength without equals\n")


def test_unknown_key_carries_line_number():
    with pytest.raises(ConfigError, match="line 2.*slit_count"):
        parse_config("scenario = young_baseline\ngeometry.slit_count = 3\n")


def test_duplicate_key_reports_both_lines():
    text = "scenario = young_baseline\nbeam.wavelength = 5e-7\nbeam.wavelength = 6e-7\n"
    with pytest.raises(ConfigError, match="line 3.*line 2"):
        parse_config(text)


def test_empty_value_is_an_error():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("scenario =\n")


def test_missing_scenario_is_an_error():
    with pytest.raises(ConfigError, match="scenario"):
        parse_config("beam.wavelength = 5e-7\n")


def test_range_error_cites_interval():
    with pytest.raises(ConfigError, match=r"line 2.*\[0, 1\]"):
        parse_config("scenario = young_baseline\ndetector_overlap = 1.5\n")


def test_bad_boolean_is_rejected():
    with pytest.raises(ConfigError, match="true or false"):
        parse_config("scenario = mz_with_bs2\nmz.bs2_present = yes\n")


def test_geometry_keys_must_match_scenario():
    with pytest.raises(ConfigError, match="not valid for scenario"):
        parse_config("scenario = young_baseline\nmz.phase_difference = 0.5\n")
    with pytest.raises(ConfigError, match="not valid for scenario"):
        parse_config("scenario = mz_with_bs2\ngeometry.slit_separation = 1e-5\n")


def test_overrides_replace_file_values():
    text = "scenario = young_baseline\ndetector_overlap = 0.2\n"
    config = parse_config(text, overrides={"detector_overlap": "0.8"})
    assert config.detector_overlap == 0.8


def test_complex_values_parse():
    text = "scenario = young_baseline\ngeometry.slit_amplitude2 = 0.5+0.5j\n"
    config = parse_config(text)
    assert config.geometry.slit_amplitudes[1] == 0.5 + 0.5j


def test_measurement_keys_require_mode():
    # the preset carries no operator here, so a bare element key applies to nothing
    text = "scenario = young_baseline\nmeasurement.g12 = 0\n"
    with pytest.raises(ConfigError, match="measurement.mode"):
        parse_config(text)


def test_preset_operator_elements_can_be_overridden():
    text = "scenario = eraser_modulation\nmeasurement.g12 = 0\nmeasurement.g21 = 0\n"
    config = parse_config(text)
    g = config.measurement.matrix_elements
    assert g[0][1] == 0.0
    assert g[1][0] == 0.0
    assert g[0][0] == 1.0


def test_measurement_center_of_mass_from_text():
    text = (
        "scenario = young_baseline\n"
        "pattern_convention = measurement_mediated\n"
        "measurement.mode = center_of_mass\n"
        "measurement.com_factor = 0.5j\n"
    )
    config = parse_config(text)
    assert config.measurement.mode == "center_of_mass"
    assert config.measurement.com_factor == 0.5j


def test_digest_distinguishes_configs():
    a = build_preset("young_baseline")
    b = parse_config("scenario = young_baseline\ndetector_overlap = 0.5\n")
    assert config_digest(a) != config_digest(b)
    assert len(config_digest(a)) == 64


def test_serialization_is_stable():
    config = build_preset("mz_weak_screen")
    assert serialize_config(config) == serialize_config(build_preset("mz_weak_screen"))


# --- cross-field physics validation ---


def test_mz_scenarios_reject_noise_and_operators():
    with pytest.raises(ConfigError, match="noise"):
        parse_config("scenario = mz_with_bs2\nnoise.distribution = uniform\n")


def test_cavity_scenarios_need_orthogonal_detector_states():
    with pytest.raises(ConfigError, match="detector"):
        parse_config("scenario = young_micromaser\ndetector_overlap = 0.5\n")


def test_cavity_scenarios_reject_phase_noise():
    with pytest.raises(ConfigError, match="noise"):
        parse_config("scenario = young_micromaser\nnoise.distribution = gaussian\nnoise.sigma = 0.5\n")


def test_single_cavity_limited_to_cavity_scenarios():
    with pytest.raises(ConfigError, match="single_cavity"):
        parse_config("scenario = young_baseline\nsingle_cavity = true\n")


def test_mediated_convention_requires_operator():
    with pytest.raises(ConfigError, match="measurement"):
        parse_config("scenario = young_baseline\npattern_convention = measurement_mediated\n")


# --- every rejection that one set key causes cites its line ---


@pytest.mark.parametrize("scenario, key, value", [
    ("young_baseline", "beam.wavelength", "-5e-7"),
    ("young_baseline", "geometry.slit_separation", "-1e-5"),
    ("young_baseline", "geometry.slit_width", "0"),
    ("young_baseline", "geometry.screen_distance", "-1"),
    ("mz_with_bs2", "mz.crossing_wavenumber", "-1"),
    ("young_baseline", "internal_overlap", "1.5"),
    ("young_baseline", "detector_overlap", "-0.5"),
    ("mz_weak_screen", "weak_screen.transmittance", "1.5"),
    ("mz_weak_screen", "weak_screen.scatter_fraction", "-0.1"),
])
def test_out_of_range_value_cites_its_line(scenario, key, value):
    with pytest.raises(ConfigError, match=r"^line 2: "):
        parse_config(f"scenario = {scenario}\n{key} = {value}\n")


@pytest.mark.parametrize("lines, blamed, message", [
    (["scenario = young_baseline", "measurement.mode = sideways"], 2, "mode must be one of"),
    (["scenario = young_baseline", "noise.distribution = lorentzian"], 2, "unknown noise distribution"),
    (["scenario = young_baseline", "pattern_convention = sideways"], 2, "pattern_convention must be one of"),
    (["scenario = young_baseline", "geometry.slit_width = 2e-5"], 2, "slit_width < slit_separation"),
    (["scenario = young_random_phase", "noise.low = 3", "noise.high = 1"], 3, "low < high"),
    (["scenario = mz_weak_screen", "weak_screen.transmittance = 0.6", "weak_screen.scatter_fraction = 0.5"],
     3, "must not exceed 1"),
    (["scenario = young_micromaser", "detector_overlap = 0.5"], 2, "detector_overlap = 0"),
    (["scenario = young_baseline", "measurement.mode = center_of_mass", "measurement.g11 = 2"],
     3, "'measurement.g11' is not valid for scenario young_baseline with measurement.mode = center_of_mass"),
    (["scenario = eraser_modulation", "measurement.com_factor = 0.5"],
     2, "'measurement.com_factor' is not valid for scenario eraser_modulation with measurement.mode = internal"),
    # separation 1e-6 and width 0.5e-6 build together, so only the wavelength is to blame
    (["scenario = young_baseline", "geometry.slit_separation = 1e-6", "geometry.slit_width = 0.5e-6",
      "beam.wavelength = 0"], 4, "wavelength must be positive"),
])
def test_a_rejection_cites_the_blamed_key(lines, blamed, message):
    with pytest.raises(ConfigError, match=rf"^line {blamed}: .*{message}"):
        parse_config("\n".join(lines) + "\n")


#: The noise parameters in the format's order, and the distributions that read each.
_NOISE_READERS = {
    "noise.independent_per_branch": ("uniform", "gaussian"),
    "noise.value": ("constant",),
    "noise.low": ("uniform",),
    "noise.high": ("uniform",),
    "noise.sigma": ("gaussian",),
}
_NOISE_VALUES = {"noise.value": "0.5", "noise.low": "0.1", "noise.high": "2.0", "noise.sigma": "0.3",
                 "noise.independent_per_branch": "false"}


@pytest.mark.parametrize("distribution", ("none", "constant", "uniform", "gaussian"))
@pytest.mark.parametrize("key", _NOISE_READERS)
def test_a_noise_key_applies_only_where_its_distribution_reads_it(distribution, key):
    text = f"scenario = young_baseline\nnoise.distribution = {distribution}\n{key} = {_NOISE_VALUES[key]}\n"
    if distribution not in _NOISE_READERS[key]:
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == (f"line 3: key {key!r} is not valid for scenario young_baseline "
                                  f"with noise.distribution = {distribution}")
        # set by an override, the key cites no line
        with pytest.raises(ConfigError, match=rf"^key {re.escape(repr(key))} is not valid"):
            parse_config(f"scenario = young_baseline\nnoise.distribution = {distribution}\n",
                         overrides={key: _NOISE_VALUES[key]})
        return
    config = parse_config(text)
    assert _SCHEMA[key][0](_NOISE_VALUES[key]) == _SCHEMA[key][1](config)
    assert f"\n{key} = " in serialize_config(config)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_preset_serializes_only_the_noise_keys_its_distribution_reads(name):
    config = build_preset(name)
    written = [line.partition(" = ")[0] for line in serialize_config(config).splitlines()]
    noise = [key for key in written if key.startswith("noise.")]
    assert noise == ["noise.distribution"] + [key for key in _NOISE_READERS
                                              if config.noise.distribution in _NOISE_READERS[key]]
    assert noise == (["noise.distribution", "noise.independent_per_branch", "noise.low", "noise.high"]
                     if name == "young_random_phase" else ["noise.distribution"])


def test_a_noise_key_an_interferometer_scenario_cannot_read_is_refused():
    with pytest.raises(ConfigError, match=r"^line 2: key 'noise.sigma' is not valid for scenario mz_with_bs2 "
                                          r"with noise.distribution = none$"):
        parse_config("scenario = mz_with_bs2\nnoise.sigma = 0.0\n")


@pytest.mark.parametrize("distribution", ("none", "constant", "uniform", "gaussian"))
@pytest.mark.parametrize("key", _NOISE_READERS)
def test_phase_noise_refuses_a_parameter_its_distribution_does_not_read(distribution, key):
    # the rules parse_config applies to the noise keys of a file, on the dataclass
    field, value = key.partition(".")[2], _SCHEMA[key][0](_NOISE_VALUES[key])
    if distribution in _NOISE_READERS[key]:
        assert getattr(PhaseNoise(distribution, **{field: value}), field) == value
        return
    with pytest.raises(ValueError, match=rf"^noise {field} is not read by distribution '{distribution}', "
                                         rf"got {re.escape(repr(value))}$"):
        PhaseNoise(distribution, **{field: value})


def test_a_config_cannot_hold_a_noise_parameter_it_would_not_serialize():
    with pytest.raises(ValueError, match="^noise sigma is not read by distribution 'none', got 1.0$"):
        replace(build_preset("young_baseline"), noise=PhaseNoise("none", sigma=1.0))


#: The presets whose configs take phase noise: two-slit benches without cavities.
_NOISY_PRESETS = [name for name in PRESET_NAMES if name not in MZ_SCENARIOS + CAVITY_SCENARIOS]


@settings(max_examples=200, deadline=None)
@given(preset=st.sampled_from(_NOISY_PRESETS), distribution=st.sampled_from(("none", "constant", "uniform", "gaussian")),
       data=st.data())
def test_every_phase_noise_that_constructs_round_trips_in_a_preset(preset, distribution, data):
    # each parameter at its default or an in-range value; only an unread one off its default is refused
    defaults = {f.name: f.default for f in fields(PhaseNoise)[1:]}
    params = {name: data.draw(st.just(default) | KEY_VALUES[f"noise.{name}"], label=name)
              for name, default in defaults.items()}
    if any(v != defaults[name] and distribution not in _NOISE_READERS[f"noise.{name}"] for name, v in params.items()):
        with pytest.raises(ValueError, match="is not read by distribution"):
            PhaseNoise(distribution, **params)
        return
    config = replace(build_preset(preset), noise=PhaseNoise(distribution, **params))
    text = serialize_config(config)
    assert parse_config(text) == config
    assert serialize_config(parse_config(text)) == text


def test_a_rejection_no_one_key_causes_has_no_line():
    # two bad keys: reverting either one alone still leaves the other
    text = "scenario = young_baseline\nbeam.wavelength = 0\ndetector_overlap = 2\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line is None


def test_scenario_names_are_partitioned():
    assert set(MZ_SCENARIOS) <= set(PRESET_NAMES)
    assert set(CAVITY_SCENARIOS) <= set(PRESET_NAMES)
    assert not set(MZ_SCENARIOS) & set(CAVITY_SCENARIOS)


def test_direct_construction_validates_geometry_match():
    base = build_preset("young_baseline")
    mz = build_preset("mz_with_bs2")
    with pytest.raises(ValueError):
        ExperimentConfig(
            scenario="young_baseline",
            beam=base.beam,
            geometry=mz.geometry,
            noise=base.noise,
        )


# --- the schema table as a whole ---


_AMPLITUDES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)

#: In-range values for every key of the format except scenario. Cross-field
#: rules (slit_width < slit_separation, cavity benches need detector_overlap
#: 0, ...) are left to parse_config, which rejects the draws that break them.
KEY_VALUES = {
    "beam.wavelength": st.floats(1e-7, 1e-6),
    "beam.amplitude": _AMPLITUDES,
    "noise.distribution": st.sampled_from(("none", "constant", "uniform", "gaussian")),
    "noise.independent_per_branch": st.booleans(),
    "noise.value": st.floats(-7.0, 7.0),
    "noise.low": st.floats(-1.0, 0.0),
    "noise.high": st.floats(0.5, 7.0),
    "noise.sigma": st.floats(0.0, 3.0),
    "internal_overlap": st.floats(0.0, 1.0),
    "internal_overlap_phase": st.floats(-4.0, 4.0),
    "detector_overlap": st.floats(0.0, 1.0),
    "detector_overlap_phase": st.floats(-4.0, 4.0),
    "pattern_convention": st.sampled_from(PATTERN_CONVENTIONS),
    "single_cavity": st.booleans(),
    "geometry.slit_separation": st.floats(5e-6, 2e-5),
    "geometry.slit_width": st.floats(1e-7, 4e-6),
    "geometry.screen_distance": st.floats(0.5, 3.0),
    "geometry.slit_amplitude1": _AMPLITUDES,
    "geometry.slit_amplitude2": _AMPLITUDES,
    "geometry.screen_x_min": st.floats(-0.3, -0.01),
    "geometry.screen_x_max": st.floats(0.01, 0.3),
    "mz.bs2_present": st.booleans(),
    "mz.phase_difference": st.floats(-7.0, 7.0),
    "mz.crossing_wavenumber": st.floats(1e6, 1e8),
    "mz.crossing_x_min": st.floats(-1e-5, 0.0),
    "mz.crossing_x_max": st.floats(1e-6, 1e-5),
    "mz.crossing_y_min": st.floats(-1e-5, 0.0),
    "mz.crossing_y_max": st.floats(1e-6, 1e-5),
    "weak_screen.transmittance": st.floats(0.0, 0.5),
    "weak_screen.scatter_fraction": st.floats(0.0, 0.5),
    "measurement.mode": st.sampled_from(("center_of_mass", "internal")),
    "measurement.com_factor": st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                                                 allow_nan=False, allow_infinity=False),
    "measurement.g11": _AMPLITUDES,
    "measurement.g12": _AMPLITUDES,
    "measurement.g21": _AMPLITUDES,
    "measurement.g22": _AMPLITUDES,
}


def _as_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


def _bench_keys(scenario):
    """The keys of a scenario's bench: the shared ones plus its own sections."""
    if scenario in MZ_SCENARIOS:
        sections = ("mz", "weak_screen") if scenario == "mz_weak_screen" else ("mz",)
    else:
        sections = ("geometry", "measurement")
    return [key for key in KEY_VALUES if key.partition(".")[0] in ("beam", "noise", key, *sections)]


def test_key_values_cover_the_schema():
    assert set(KEY_VALUES) | {"scenario"} == set(_SCHEMA)


@pytest.mark.parametrize("scenario", PRESET_NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_schema_round_trips_in_range_values(scenario, data):
    keys = _bench_keys(scenario)
    drawn = {key: data.draw(KEY_VALUES[key], label=key)
             for key in data.draw(st.lists(st.sampled_from(keys), unique=True))}
    lines = [f"scenario = {scenario}"] + [f"{key} = {_as_text(v)}" for key, v in drawn.items()]
    try:
        config = parse_config("\n".join(lines) + "\n")
    except ConfigError:
        reject()
    for key, value in drawn.items():
        assert _SCHEMA[key][1](config) == value
    text = serialize_config(config)
    again = parse_config(text)
    assert again == config
    assert serialize_config(again) == text
    assert config_digest(again) == config_digest(config)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_text_parses_alike_on_every_call(name):
    text = serialize_config(build_preset(name))
    for overrides in (None, {"internal_overlap": "0.25"}, {"internal_overlap": "0.5"}):
        first = parse_config(text, overrides)
        again = parse_config(text, overrides)
        assert again == first
        assert serialize_config(again).encode() == serialize_config(first).encode()


@pytest.mark.parametrize("text,message", [
    ("scenario = young_baseline\nwavelength without equals\n", "line 2: expected key = value"),
    ("scenario = young_baseline\n = 1\n", "line 2: missing key before '='"),
    ("scenario = young_baseline\ndetector_overlap = 0.5\ndetector_overlap = 0.6\n",
     "line 3: duplicate key 'detector_overlap' (first set on line 2)"),
    ("scenario = young_baseline\ngeometry.slit_count = 3\n", "line 2: unknown key 'geometry.slit_count'"),
    ("scenario = young_baseline\ndetector_overlap = half\n", "line 2: bad value for detector_overlap"),
    ("scenario = young_baseline\ndetector_overlap = 1.5\n", "line 2: detector_overlap must lie in [0, 1]"),
])
def test_a_bad_text_raises_alike_on_every_call(text, message):
    good = serialize_config(build_preset("young_baseline"))
    expected = parse_config(good)
    for _ in range(3):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            parse_config(text)
        assert parse_config(good) == expected  # a good text parsed after a bad one still parses


def test_a_bad_value_an_override_replaced_is_cited_once_the_override_is_gone():
    text = "scenario = young_baseline\ndetector_overlap = half\n"
    for _ in range(2):
        assert parse_config(text, overrides={"detector_overlap": "0.5"}).detector_overlap == 0.5
        with pytest.raises(ConfigError, match="^line 2: bad value for detector_overlap"):
            parse_config(text)


@pytest.mark.parametrize("overrides,message", [
    ({"detector_overlap": "half"}, "bad value for detector_overlap"),
    ({"detector_overlap": "1.5"}, "detector_overlap must lie in [0, 1]"),
    ({"geometry.slit_count": "3"}, "unknown key 'geometry.slit_count'"),
    ({"mz.phase_difference": "0.5"}, "key 'mz.phase_difference' is not valid for scenario young_baseline"),
    ({"scenario": "young_quadruple_slit"}, "unknown scenario 'young_quadruple_slit'"),
])
def test_an_override_error_cites_no_line(overrides, message):
    text = serialize_config(build_preset("young_baseline"))
    for _ in range(2):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}") as err:
            parse_config(text, overrides)
        assert err.value.line is None
        parse_config(text)  # a good parse of the same text between the two


def test_an_override_never_leaks_into_the_next_parse():
    text = serialize_config(build_preset("young_micromaser"))
    plain = parse_config(text)
    for value in ("0.1", "0.9"):
        assert parse_config(text, overrides={"internal_overlap": value}).internal_overlap == float(value)
        assert parse_config(text, overrides={"geometry.slit_width": value + "e-6"}) != plain
        assert parse_config(text) == plain


def test_texts_one_byte_apart_each_parse_to_their_own_config():
    a = "scenario = young_baseline\ndetector_overlap = 0.5\n"
    b = "scenario = young_baseline\ndetector_overlap = 0.6\n"
    for _ in range(2):
        for text, value in ((a, 0.5), (b, 0.6), (a, 0.5)):
            assert parse_config(text).detector_overlap == value
            assert parse_config(text, overrides={"internal_overlap": "0.5"}).detector_overlap == value
