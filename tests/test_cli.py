"""Command-line entry points, exercised in process through main(argv)."""

import numpy as np
import pytest

from fringelab import experiments
from fringelab.cli import main
from fringelab.config import build_preset, serialize_config
from fringelab.io import (
    EVENTS_HEADER,
    HISTOGRAM_HEADER,
    METRICS_HEADER,
    SWEEP_HEADER,
    read_events_csv,
    write_events_csv,
)
from fringelab.montecarlo import DetectionEvent, EventColumns


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
    generate = experiments._generate

    def port_on_every_screen_row(*args):
        columns = generate(*args)
        return (*columns[:2], np.zeros_like(columns[2]), *columns[3:])

    monkeypatch.setattr(experiments, "_generate", port_on_every_screen_row)
    out = tmp_path / "x.csv"
    assert run("simulate", "--preset", "young_baseline", "--events", 10, "--seed", 1, "--out", out) == 3
    assert "exactly one terminal field must be set, got 2" in capsys.readouterr().err
    assert not out.exists()


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
    assert code == 3
    assert "gamma" in capsys.readouterr().err


def test_eraser_empty_log(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text(EVENTS_HEADER + "\n")
    assert run("eraser", "--events", empty, "--gamma", 0.0, "--out", tmp_path / "m.csv") == 3


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

    # records come one at a time from __init__ or in bulk from EventColumns.records
    monkeypatch.setattr(DetectionEvent, "__init__", no_records)
    monkeypatch.setattr(EventColumns, "records", no_records)
    for argv in commands:
        assert run(*argv) == 0
    assert (capsys.readouterr().out, [(tmp_path / name).read_bytes() for name in outputs]) == expected
    copy = tmp_path / "copy.csv"
    write_events_csv(read_events_csv(events), copy)
    assert copy.read_bytes() == events.read_bytes()
