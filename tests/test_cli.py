"""Command-line entry points, exercised in process through main(argv)."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fringelab import cli, experiments, montecarlo
from fringelab.cli import main
from fringelab.config import ConfigError, build_preset, parse_config, serialize_config
from fringelab.io import (
    EVENTS_HEADER,
    HISTOGRAM_HEADER,
    METRICS_HEADER,
    SWEEP_HEADER,
    read_events_csv,
    write_events_csv,
)
from fringelab.montecarlo import DetectionEvent


def run(*argv):
    return main([str(a) for a in argv])


def simulate(tmp_path, preset, n, seed=1):
    out = tmp_path / f"{preset}.csv"
    assert run("simulate", "--preset", preset, "--events", n, "--seed", seed, "--out", out) == 0
    return out


def test_simulate_writes_events(tmp_path, capsys):
    out = simulate(tmp_path, "young_baseline", 50)
    lines = out.read_text().splitlines()
    assert lines[0] == EVENTS_HEADER
    assert len(lines) == 51
    assert "wrote 50 events" in capsys.readouterr().out


def test_simulate_checks_the_generated_columns(tmp_path, capsys, monkeypatch):
    # 10000 particles are drawn in three blocks: a fault in the first or the last
    # is refused with exit 3, and neither leaves a file at --out
    generate = experiments._generate
    for bad_block in (0, 2):
        blocks = []

        def port_on_every_screen_row(*args):
            columns = generate(*args)
            blocks.append(columns)
            if len(blocks) - 1 != bad_block:
                return columns
            return (*columns[:2], np.zeros_like(columns[2]), *columns[3:])

        monkeypatch.setattr(experiments, "_generate", port_on_every_screen_row)
        out = tmp_path / "x.csv"
        assert run("simulate", "--preset", "young_baseline", "--events", 10_000, "--seed", 1, "--out", out) == 3
        assert "exactly one terminal field must be set, got 2" in capsys.readouterr().err
        assert not out.exists()
        assert len(blocks) == bad_block + 1, bad_block  # no block is drawn after the refused one


def test_simulate_leaves_no_file_when_set_up_fails(tmp_path, capsys, monkeypatch):
    # the run's profile is computed when its first block is drawn, before the file is opened
    monkeypatch.setattr(experiments, "pattern_profile", lambda config, x: np.zeros_like(x))
    out = tmp_path / "x.csv"
    assert run("simulate", "--preset", "young_baseline", "--events", 10, "--seed", 1, "--out", out) == 3
    assert "profile must have at least one positive value" in capsys.readouterr().err
    assert not out.exists()
    out.write_text("kept")
    assert run("simulate", "--preset", "young_baseline", "--events", 10, "--seed", 1, "--out", out) == 3
    assert out.read_text() == "kept"


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_the_run(tmp_path, capsys):
    # every block is written before the next is drawn, so four times the events
    # hold about the same memory; the set-up run leaves the caches warm for both
    def argv(n):
        return ["simulate", "--preset", "young_baseline", "--events", str(n), "--seed", "1",
                "--out", str(tmp_path / f"{n}.csv")]

    assert main(argv(1000)) == 0
    small, large = _traced_peak(argv(20_000)), _traced_peak(argv(80_000))
    assert large <= 1.25 * small, (small, large)


def test_simulate_requires_a_source():
    assert run("simulate", "--events", 10, "--seed", 1, "--out", "x.csv") == 2


def test_simulate_unknown_preset(tmp_path, capsys):
    code = run("simulate", "--preset", "young_nonsense", "--events", 10, "--seed", 1,
               "--out", tmp_path / "x.csv")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_missing_config_file(tmp_path):
    code = run("simulate", "--config", tmp_path / "absent.cfg", "--events", 10, "--seed", 1,
               "--out", tmp_path / "x.csv")
    assert code == 2


def test_simulate_config_and_matching_preset(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("mz_with_bs2")))
    out = tmp_path / "events.csv"
    assert run("simulate", "--config", cfg, "--preset", "mz_with_bs2",
               "--events", 20, "--seed", 1, "--out", out) == 0
    assert out.exists()


def test_simulate_config_preset_conflict(tmp_path, capsys):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("mz_with_bs2")))
    code = run("simulate", "--config", cfg, "--preset", "young_baseline",
               "--events", 20, "--seed", 1, "--out", tmp_path / "x.csv")
    assert code == 2
    assert "does not match" in capsys.readouterr().err


def test_simulate_same_seed_same_bytes(tmp_path):
    a = simulate(tmp_path, "young_micromaser", 100, seed=9)
    data = a.read_bytes()
    b = tmp_path / "again.csv"
    assert run("simulate", "--preset", "young_micromaser", "--events", 100, "--seed", 9,
               "--out", b) == 0
    assert b.read_bytes() == data


def test_analyze_outputs(tmp_path, capsys):
    events = simulate(tmp_path, "young_baseline", 2000)
    hist, metrics, pgm = tmp_path / "h.csv", tmp_path / "m.csv", tmp_path / "h.pgm"
    assert run("analyze", "--events", events, "--bins", 64,
               "--out-hist", hist, "--out-metrics", metrics, "--pgm", pgm) == 0
    assert hist.read_text().splitlines()[0] == HISTOGRAM_HEADER
    assert len(hist.read_text().splitlines()) == 65
    assert metrics.read_text().splitlines()[0] == METRICS_HEADER
    assert pgm.read_bytes().startswith(b"P5\n64 1\n255\n")
    out = capsys.readouterr().out
    assert "2000 events in 64 bins" in out
    assert "visibility:" in out


def test_analyze_picks_scatter_axis_for_weak_screen(tmp_path, capsys):
    events = simulate(tmp_path, "mz_weak_screen", 3000)
    assert run("analyze", "--events", events,
               "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv") == 0
    assert "scatter_projection:" in capsys.readouterr().out


def test_analyze_port_only_log(tmp_path, capsys):
    events = simulate(tmp_path, "mz_with_bs2", 200)
    code = run("analyze", "--events", events,
               "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv")
    assert code == 3
    assert "nothing to histogram" in capsys.readouterr().err


def test_analyze_missing_events_file(tmp_path):
    assert run("analyze", "--events", tmp_path / "absent.csv",
               "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv") == 3


def test_analyze_malformed_events_file(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,log\n")
    assert run("analyze", "--events", bad,
               "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv") == 3


def test_sweep_detector_overlap(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--config", cfg, "--param", "detector_overlap",
               "--from", 0.0, "--to", 1.0, "--steps", 3,
               "--events", 4000, "--seed", 5, "--out", out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 0.5, 1.0]
    # fringe contrast must climb with the overlap
    v_lo, v_hi = float(rows[0][1]), float(rows[2][1])
    assert v_hi > 0.9
    assert v_hi > v_lo + 0.5


def slit_width_sweep(tmp_path, preset):
    cfg, out = tmp_path / "base.cfg", tmp_path / "sweep.csv"
    cfg.write_text(serialize_config(build_preset(preset)))
    assert run("sweep", "--config", cfg, "--param", "geometry.slit_width", "--from", "1e-6", "--to", "3e-6",
               "--steps", 4, "--events", 2000, "--seed", 2, "--out", out) == 0
    return out


@pytest.mark.parametrize("preset", ["eraser_modulation", "young_single_cavity", "young_baseline", "young_micromaser"])
def test_sweep_gives_duality_only_on_a_literal_config(tmp_path, preset):
    # a measurement-mediated V is the restored signal's and D = 1 comes from detector_overlap 0, so
    # V^2 + D^2 bounds nothing there; test_replay pins the literal presets' slit sweeps byte for byte
    mediated = build_preset(preset).pattern_convention == "measurement_mediated"
    lines = slit_width_sweep(tmp_path, preset).read_text().splitlines()
    assert lines[0] == SWEEP_HEADER and len(lines) == 5
    for value, v, d, lhs in (line.split(",") for line in lines[1:]):
        assert v and d  # visibility and D are printed on both
        assert lhs == ("" if mediated else repr(float(v) * float(v) + float(d) * float(d)))


def test_sweep_rejects_zero_steps(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    assert run("sweep", "--config", cfg, "--param", "detector_overlap",
               "--from", 0.0, "--to", 1.0, "--steps", 0,
               "--events", 10, "--seed", 5, "--out", tmp_path / "s.csv") == 2


def test_sweep_unknown_param(tmp_path):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    assert run("sweep", "--config", cfg, "--param", "bogus_knob",
               "--from", 0.0, "--to", 1.0, "--steps", 2,
               "--events", 10, "--seed", 5, "--out", tmp_path / "s.csv") == 2


@pytest.mark.parametrize("start,stop,message", [
    ("0", "inf", "--to must be finite, got inf"),
    ("-inf", "1", "--from must be finite, got -inf"),
    ("nan", "1", "--from must be finite, got nan"),
    ("0", "nan", "--to must be finite, got nan"),
    # each bound is finite, but the span overflows
    ("-1.7e308", "1.7e308", "--to minus --from must be finite, got 1.7e+308 - -1.7e+308"),
])
def test_sweep_refuses_bounds_that_are_not_finite(tmp_path, capsys, start, stop, message):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    out = tmp_path / "s.csv"
    for config in (cfg, tmp_path / "missing.cfg"):  # refused before the config is read
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            code = run("sweep", "--config", config, "--param", "detector_overlap", f"--from={start}", f"--to={stop}",
                       "--steps", 3, "--events", 10, "--seed", 5, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"fringelab: config error: {message}\n"
        assert not leaked
        assert not out.exists()


@pytest.mark.parametrize("bounds", [
    ["--from", "-1e-3", "--to", "-2e-3"],
    ["--from", "-1E-3", "--to", "-2.0e-3"],
    ["--from=-1e-3", "--to=-2e-3"],
    ["--from", "-0.001", "--to", "-.002"],
])
def test_sweep_takes_negative_bounds_in_every_spelling(tmp_path, capsys, bounds):
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", cfg, "--param", "detector_overlap_phase", *bounds,
               "--steps", 2, "--events", 50, "--seed", 5, "--out", out) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["-0.001", "-0.002"]


@pytest.mark.parametrize("gamma", [["--gamma", "-5e-1"], ["--gamma", "-0.5"], ["--gamma=-5e-1"], ["--gamma", "-.5E0"]])
def test_eraser_takes_a_negative_gamma_in_every_spelling(tmp_path, capsys, gamma):
    events = simulate(tmp_path, "eraser_modulation", 500)
    capsys.readouterr()
    assert run("eraser", "--events", events, *gamma, "--out", tmp_path / "m.csv") == 0
    assert "modulated visibility (gamma=-0.5):" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["eraser", "--events", "e.csv", "--gamma", "0.5", "-x", "--out", "m.csv"],
    ["eraser", "--events", "e.csv", "--gamma", "-x", "--out", "m.csv"],
    *(["eraser", "--events", "e.csv", "--gamma", option, "--out", "m.csv"] for option in ("-i", "-infx", "-nanx", "-e")),
    ["sweep", "--config", "c.cfg", "--param", "p", "--from", "-e3", "--to", "1",
     "--steps", "2", "--events", "5", "--seed", "1", "--out", "s.csv"],
])
def test_an_unknown_option_still_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("option,value,message", [
    ("--from", "-inf", "--from must be finite, got -inf"),
    ("--from", "-Infinity", "--from must be finite, got -inf"),
    ("--from", "-nan", "--from must be finite, got nan"),
    ("--to", "-INF", "--to must be finite, got -inf"),
    ("--to", "-NaN", "--to must be finite, got nan"),
])
def test_sweep_refuses_a_negative_non_finite_bound_given_as_its_own_argument(tmp_path, capsys, option, value, message):
    bounds = {"--from": "0", "--to": "1", option: value}
    out = tmp_path / "s.csv"
    code = run("sweep", "--config", tmp_path / "missing.cfg", "--param", "detector_overlap",
               "--from", bounds["--from"], "--to", bounds["--to"], "--steps", 3, "--events", 10, "--seed", 5,
               "--out", out)
    assert code == 2
    assert capsys.readouterr().err == f"fringelab: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["-inf", "-Inf", "-INFINITY", "-nan", "-NAN"])
def test_eraser_refuses_a_negative_non_finite_gamma_given_as_its_own_argument(tmp_path, capsys, gamma):
    assert run("eraser", "--events", tmp_path / "missing.csv", "--gamma", gamma, "--out", tmp_path / "m.csv") == 2
    assert capsys.readouterr().err == f"fringelab: config error: --gamma must lie in [-1, 1], got {float(gamma)!r}\n"
    assert not (tmp_path / "m.csv").exists()


def test_eraser_restores_fringes(tmp_path, capsys):
    events = simulate(tmp_path, "eraser_modulation", 20000)
    out = tmp_path / "modulated.csv"
    assert run("eraser", "--events", events, "--gamma", 1.0, "--bins", 96, "--out", out) == 0
    printed = capsys.readouterr().out
    assert "joint visibility:" in printed
    assert "modulated visibility (gamma=1.0):" in printed
    assert out.read_text().splitlines()[0] == HISTOGRAM_HEADER


def test_eraser_gamma_out_of_range(tmp_path, capsys):
    events = simulate(tmp_path, "eraser_modulation", 500)
    code = run("eraser", "--events", events, "--gamma", 1.5, "--out", tmp_path / "m.csv")
    assert code == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["nan", "inf", "5", "-1.0000001"])
@pytest.mark.parametrize("log", ["written", "missing"])
def test_eraser_bad_gamma_is_refused_before_the_log_is_read(tmp_path, capsys, monkeypatch, gamma, log):
    events = simulate(tmp_path, "eraser_modulation", 500) if log == "written" else tmp_path / "missing.csv"

    def no_read(path):
        raise AssertionError("the events CSV was read")

    monkeypatch.setattr(cli, "read_events_csv", no_read)
    capsys.readouterr()
    assert run("eraser", "--events", events, "--gamma", gamma, "--out", tmp_path / "m.csv") == 2
    assert capsys.readouterr().err == f"fringelab: config error: --gamma must lie in [-1, 1], got {float(gamma)!r}\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("gamma", ["-1", "1", "-0.0"])
def test_eraser_takes_gamma_at_the_ends_of_its_range(tmp_path, gamma):
    events = simulate(tmp_path, "eraser_modulation", 500)
    assert run("eraser", "--events", events, "--gamma", gamma, "--out", tmp_path / "m.csv") == 0


def test_eraser_empty_log(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(EVENTS_HEADER + "\n")
    assert run("eraser", "--events", empty, "--gamma", 0.0, "--out", tmp_path / "m.csv") == 3


@pytest.mark.parametrize("scenario", ["mz_with_bs2", "foo"])
def test_eraser_refuses_a_log_whose_screen_rows_name_no_two_slit_preset(tmp_path, capsys, scenario):
    events = tmp_path / "renamed.csv"
    events.write_text(simulate(tmp_path, "young_baseline", 200).read_text().replace("young_baseline", scenario))
    capsys.readouterr()
    assert run("eraser", "--events", events, "--gamma", 0.0, "--out", tmp_path / "m.csv") == 3
    assert capsys.readouterr().err == f"fringelab: error: {events}: scenario {scenario!r} names no two-slit preset\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("command", ["analyze header-only", "analyze all absorbed", "sweep all absorbed"])
def test_an_empty_log_is_reported_as_empty(tmp_path, capsys, command):
    # a weak screen that neither scatters nor transmits absorbs every particle
    absorbing = parse_config(serialize_config(build_preset("mz_weak_screen")),
                             overrides={"weak_screen.transmittance": "0", "weak_screen.scatter_fraction": "0"})
    cfg = tmp_path / "absorbing.cfg"
    cfg.write_text(serialize_config(absorbing))
    events = tmp_path / "events.csv"
    if command == "analyze header-only":
        events.write_text(EVENTS_HEADER + "\n")
    elif command == "analyze all absorbed":
        assert run("simulate", "--config", cfg, "--events", 500, "--seed", 1, "--out", events) == 0
    if command.startswith("analyze"):
        code = run("analyze", "--events", events,
                   "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv")
    else:
        code = run("sweep", "--config", cfg, "--param", "detector_overlap", "--from", 0.0, "--to", 1.0,
                   "--steps", 2, "--events", 500, "--seed", 1, "--out", tmp_path / "s.csv")
    assert code == 3
    assert capsys.readouterr().err == "fringelab: error: event log is empty\n"


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_a_config_error(tmp_path, capsys, seed):
    assert run("simulate", "--preset", "young_baseline", "--events", 10, "--seed", seed,
               "--out", tmp_path / "x.csv") == 2
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    assert run("sweep", "--config", cfg, "--param", "detector_overlap",
               "--from", 0.0, "--to", 1.0, "--steps", 2,
               "--events", 10, "--seed", seed, "--out", tmp_path / "s.csv") == 2
    assert "64-bit unsigned" in capsys.readouterr().err


def test_screen_points_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text("scenario = young_baseline\ngeometry.screen_points = 100\n")
    assert run("simulate", "--config", cfg, "--events", 10, "--seed", 1, "--out", tmp_path / "x.csv") == 2
    assert "line 2: unknown key 'geometry.screen_points'" in capsys.readouterr().err


def test_an_unknown_pattern_convention_is_a_config_error(tmp_path, capsys):
    text = "scenario = young_baseline\npattern_convention = sideways\n"
    with pytest.raises(ConfigError, match="pattern_convention must be one of"):
        parse_config(text)
    cfg = tmp_path / "sideways.cfg"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    assert run("simulate", "--config", cfg, "--events", 10, "--seed", 1, "--out", out) == 2
    assert "pattern_convention must be one of" in capsys.readouterr().err
    assert not out.exists()


def test_a_key_the_measurement_mode_does_not_read_is_a_config_error(tmp_path, capsys):
    eraser = tmp_path / "eraser.cfg"
    eraser.write_text(serialize_config(build_preset("eraser_modulation")))
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", eraser, "--param", "measurement.com_factor", "--from", 0.0, "--to", 1.0,
               "--steps", 3, "--events", 10, "--seed", 1, "--out", out) == 2
    assert "measurement.mode = internal" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "com.cfg"
    cfg.write_text("scenario = young_baseline\nmeasurement.mode = center_of_mass\nmeasurement.g11 = 2\n")
    out = tmp_path / "x.csv"
    assert run("simulate", "--config", cfg, "--events", 10, "--seed", 1, "--out", out) == 2
    assert "line 3: key 'measurement.g11' is not valid" in capsys.readouterr().err
    assert not out.exists()


def test_a_noise_key_the_distribution_does_not_read_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "random.cfg"
    cfg.write_text(serialize_config(build_preset("young_random_phase")))
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", cfg, "--param", "noise.sigma", "--from", 0.0, "--to", 1.0,
               "--steps", 3, "--events", 10, "--seed", 1, "--out", out) == 2
    assert "key 'noise.sigma' is not valid for scenario young_random_phase with noise.distribution = uniform" \
        in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "none.cfg"
    cfg.write_text("scenario = young_baseline\nnoise.distribution = none\nnoise.high = 3\n")
    out = tmp_path / "x.csv"
    assert run("simulate", "--config", cfg, "--events", 10, "--seed", 1, "--out", out) == 2
    assert "line 3: key 'noise.high' is not valid" in capsys.readouterr().err
    assert not out.exists()


def test_a_negative_sampling_profile_exits_3_and_writes_nothing(tmp_path, capsys):
    # cross elements that outweigh the diagonal push the recorded signal below zero
    cfg = tmp_path / "negative.cfg"
    cfg.write_text("scenario = eraser_modulation\nmeasurement.g12 = 2\nmeasurement.g21 = 2\n")
    out = tmp_path / "x.csv"
    assert run("simulate", "--config", cfg, "--events", 100, "--seed", 1, "--out", out) == 3
    assert capsys.readouterr().err == "fringelab: error: profile values must be nonnegative\n"
    assert not out.exists()
    out = tmp_path / "s.csv"
    assert run("sweep", "--config", cfg, "--param", "beam.wavelength", "--from", 4e-7, "--to", 6e-7,
               "--steps", 2, "--events", 100, "--seed", 1, "--out", out) == 3
    assert capsys.readouterr().err == "fringelab: error: profile values must be nonnegative\n"
    assert not out.exists()


@pytest.mark.parametrize("row", [
    "1,run,nan,,,,,,0",
    "1,run,,,,,1e-06,inf,0",
    "1,run,abc,,,,,,0",
    "1,run,0.1,,2,0,,,0",
])
def test_analyze_rejects_a_bad_cell_with_its_location(tmp_path, capsys, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"{EVENTS_HEADER}\n0,run,0.1,,,,,,0\n{row}\n")
    assert run("analyze", "--events", bad,
               "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv") == 3
    assert f"{bad}:3:" in capsys.readouterr().err


@pytest.mark.parametrize("command,option,bad", [
    ("simulate", "--events", 0),
    ("sweep", "--events", 0),
    ("sweep", "--steps", 0),
    ("analyze", "--bins", 1),
    ("eraser", "--bins", 1),
])
def test_bad_count_is_a_config_error(tmp_path, capsys, command, option, bad):
    events = simulate(tmp_path, "eraser_modulation", 200)
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    argv = {
        "simulate": ["--preset", "young_baseline", "--events", 10, "--seed", 1, "--out", tmp_path / "x.csv"],
        "sweep": ["--config", cfg, "--param", "detector_overlap", "--from", 0.0, "--to", 1.0,
                  "--steps", 2, "--events", 10, "--seed", 5, "--out", tmp_path / "s.csv"],
        "analyze": ["--events", events, "--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv"],
        "eraser": ["--events", events, "--gamma", 0.5, "--out", tmp_path / "e.csv"],
    }[command]
    argv = argv + [option, bad]  # argparse keeps the last value given
    capsys.readouterr()
    assert run(command, *argv) == 2
    assert f"{option} must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "eraser", "sweep"])
def test_a_size_too_large_to_allocate_exits_3_and_writes_nothing(tmp_path, capsys, monkeypatch, command):
    # the allocating step is made to fail as numpy fails on 10**12 bins or steps, so nothing is allocated
    events = simulate(tmp_path, "eraser_modulation", 200)
    cfg = tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset("young_baseline")))
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000001,) and data type float64"

    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    argv, outs = {
        "analyze": (["--events", events, "--bins", 10**12, "--out-hist", tmp_path / "h.csv",
                     "--out-metrics", tmp_path / "m.csv"], ["h.csv", "m.csv"]),
        "eraser": (["--events", events, "--gamma", 0.5, "--bins", 10**12, "--out", tmp_path / "e.csv"], ["e.csv"]),
        "sweep": (["--config", cfg, "--param", "detector_overlap", "--from", 0.0, "--to", 1.0,
                   "--steps", 10**12, "--events", 10, "--seed", 5, "--out", tmp_path / "s.csv"], ["s.csv"]),
    }[command]
    if command == "sweep":
        monkeypatch.setattr(np, "linspace", no_memory)
    else:
        monkeypatch.setattr(cli, "histogram", no_memory)
    capsys.readouterr()
    assert run(command, *argv) == 3
    assert capsys.readouterr().err == f"fringelab: error: {message}\n"
    assert not any((tmp_path / name).exists() for name in outs)


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_config_that_is_not_utf8_is_a_config_error_citing_its_line(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"scenario = young_baseline\n# caf\xe9\n")
    out = tmp_path / "out.csv"
    argv = {
        "simulate": ["--config", cfg, "--events", 10, "--seed", 1, "--out", out],
        "sweep": ["--config", cfg, "--param", "detector_overlap", "--from", 0.0, "--to", 1.0,
                  "--steps", 2, "--events", 10, "--seed", 1, "--out", out],
    }[command]
    assert run(command, *argv) == 2
    assert capsys.readouterr().err == (f"fringelab: config error: {cfg}:2: 'utf-8' codec can't decode byte 0xe9 "
                                       "in position 31: invalid continuation byte\n")
    assert not out.exists()


@pytest.mark.parametrize("preset", ["young_baseline", "eraser_modulation", "young_micromaser"])
def test_cli_commands_build_no_event_records(tmp_path, capsys, monkeypatch, preset):
    events, cfg = tmp_path / "events.csv", tmp_path / "base.cfg"
    cfg.write_text(serialize_config(build_preset(preset)))
    commands = [
        ["simulate", "--preset", preset, "--events", 2000, "--seed", 1, "--out", events],
        ["analyze", "--events", events, "--out-hist", tmp_path / "h.csv",
         "--out-metrics", tmp_path / "m.csv", "--pgm", tmp_path / "h.pgm"],
        ["eraser", "--events", events, "--gamma", 0.5, "--out", tmp_path / "e.csv"],
        ["sweep", "--config", cfg, "--param", "internal_overlap", "--from", 0.0, "--to", 1.0,
         "--steps", 3, "--events", 500, "--seed", 5, "--out", tmp_path / "s.csv"],
    ]
    outputs = ("events.csv", "h.csv", "m.csv", "h.pgm", "e.csv", "s.csv")
    capsys.readouterr()
    for argv in commands:
        assert run(*argv) == 0
    expected = capsys.readouterr().out, [(tmp_path / name).read_bytes() for name in outputs]
    for name in outputs:
        (tmp_path / name).unlink()

    def no_records(self, *args, **kwargs):
        raise AssertionError("a DetectionEvent was built")

    # records come one at a time from __init__ or in bulk from log.events
    monkeypatch.setattr(DetectionEvent, "__init__", no_records)
    monkeypatch.setattr(montecarlo, "_records", no_records)
    for argv in commands:
        assert run(*argv) == 0
    assert (capsys.readouterr().out, [(tmp_path / name).read_bytes() for name in outputs]) == expected
    copy = tmp_path / "copy.csv"
    write_events_csv(read_events_csv(events), copy)
    assert copy.read_bytes() == events.read_bytes()


def test_the_parser_built_once_keeps_each_command_s_defaults(tmp_path, capsys):
    events = simulate(tmp_path, "eraser_modulation", 3000)
    outs = ["--out-hist", tmp_path / "h.csv", "--out-metrics", tmp_path / "m.csv"]
    assert run("analyze", "--events", events, "--bins", 64, *outs) == 0
    assert "in 64 bins" in capsys.readouterr().out
    assert run("analyze", "--events", events, *outs) == 0
    assert "in 128 bins" in capsys.readouterr().out
    assert len((tmp_path / "h.csv").read_text().splitlines()) == 129

    eraser = ["eraser", "--events", str(events), "--gamma", "0.5", "--out"]
    assert run(*eraser, tmp_path / "in_process.csv") == 0
    in_process = capsys.readouterr().out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "fringelab", *eraser, str(tmp_path / "fresh.csv")],
                           capture_output=True, text=True, env=env, check=True)
    assert fresh.stdout == in_process
    assert (tmp_path / "fresh.csv").read_bytes() == (tmp_path / "in_process.csv").read_bytes()
