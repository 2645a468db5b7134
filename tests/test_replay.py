"""Byte replay: every preset's events CSV matches its recorded SHA-256.

The digests live in bench/golden_digests.json, written by
``python3 bench/checks.py`` and read here without change. A refactor or
speed-up of the event path must leave every file byte-identical at the
recorded (events, seed) with one and with three random streams, and reading
a file back and writing it again must give the same bytes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fringelab.cli import main
from fringelab.config import PRESET_NAMES, build_preset, parse_config, serialize_config
from fringelab.experiments import run_experiment
from fringelab.io import read_events_csv, write_events_csv

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "golden_digests.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("key", sorted(GOLDEN["digests"]))
def test_events_csv_matches_golden_digest(tmp_path, key):
    preset, streams = key.split("/streams=")
    log = run_experiment(build_preset(preset), GOLDEN["events"], GOLDEN["seed"], n_streams=int(streams))
    path = tmp_path / "events.csv"
    write_events_csv(log, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["digests"][key]


def test_every_preset_has_golden_digests():
    assert {key.split("/streams=")[0] for key in GOLDEN["digests"]} == set(PRESET_NAMES)


@pytest.mark.parametrize("key", sorted(GOLDEN["digests"]))
def test_events_csv_reads_back_to_the_golden_bytes(tmp_path, key):
    preset, streams = key.split("/streams=")
    log = run_experiment(build_preset(preset), GOLDEN["events"], GOLDEN["seed"], n_streams=int(streams))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_events_csv(log, first)
    write_events_csv(read_events_csv(first), second)
    assert hashlib.sha256(second.read_bytes()).hexdigest() == GOLDEN["digests"][key]


# --- command outputs ---
#
# SHA-256 of what analyze (histogram CSV, metrics CSV, PGM and stdout),
# eraser --gamma 0.5 (modulated CSV and stdout) and a 7-step sweep (sweep
# CSV and stdout) give for every preset, recorded while binning still
# went through np.histogram. A command that exits nonzero is recorded by
# its exit code and stderr. Any change to binning or metrics must keep
# them.

OUTPUT_EVENTS, OUTPUT_SEED, SWEEP_EVENTS, SWEEP_SEED = 5000, 3, 400, 4

OUTPUT_DIGESTS = {
    "young_baseline": {
        "analyze": "bc6193f48cd0eb72543cac57df6f2a179569462a9ee7a721a5ca2f006fd5d507",
        "eraser": "32ddaf0319bccb958b6e80d9ca01dafd3a56c25a03d72af1d303689182b7d04d",
        "sweep": "50c1e99805d73626b35ad5394847dd8010a814643ecbf63482ce4a42b082cd21",
    },
    "young_random_phase": {
        "analyze": "aadb4c681a2dc903b65ca89a4f5185780bcae1b954d8c5264d2673e87af51ae8",
        "eraser": "1b2790afa8ffbaf46d183766261908d2f2ae2fcba4a22150dfe759038695e470",
        "sweep": "685cc17eff2e0fe41624386ea705a7da5253c62752bc7ef7e8f2628ae711bfd0",
    },
    "young_internal_incoherent": {
        "analyze": "aadb4c681a2dc903b65ca89a4f5185780bcae1b954d8c5264d2673e87af51ae8",
        "eraser": "1b2790afa8ffbaf46d183766261908d2f2ae2fcba4a22150dfe759038695e470",
        "sweep": "685cc17eff2e0fe41624386ea705a7da5253c62752bc7ef7e8f2628ae711bfd0",
    },
    "young_micromaser": {
        "analyze": "5e615c999411ac7784a4d0278b21eb39ba6498ecfcd579784f0019fa6d58cded",
        "eraser": "b8e984e26b19da04c3de3d5878a98f6bdb19fb5506d9ca285764373506d2ebd7",
        "sweep": "a682df507fc348727cc2d9ce0f3604c1d34bb74650d5351e14b8cadb8175fe4f",
    },
    "young_single_cavity": {
        "analyze": "82841cf97b0590987157d6d6bc95739ff344c2f4f593ffb077f7b6e148dea0f3",
        "eraser": "79c5a786f5ed7898a6ab644980d45d726fff66f106b944c2a0e5e51bbc70a627",
        "sweep": "a682df507fc348727cc2d9ce0f3604c1d34bb74650d5351e14b8cadb8175fe4f",
    },
    "mz_with_bs2": {
        "analyze": "2c97ff15bb5c9a5e10b5ad59df023de0347bb7077e3ba880e01e52a4e460a30a",
        "eraser": "65164a3755a134b21af45108898eb24afba9f9e67da02b34dfacf941b27c6512",
        "sweep": "2c97ff15bb5c9a5e10b5ad59df023de0347bb7077e3ba880e01e52a4e460a30a",
    },
    "mz_without_bs2": {
        "analyze": "2c97ff15bb5c9a5e10b5ad59df023de0347bb7077e3ba880e01e52a4e460a30a",
        "eraser": "65164a3755a134b21af45108898eb24afba9f9e67da02b34dfacf941b27c6512",
        "sweep": "2c97ff15bb5c9a5e10b5ad59df023de0347bb7077e3ba880e01e52a4e460a30a",
    },
    "mz_weak_screen": {
        "analyze": "2c762393fd0042f777dc1d937438df76184b8b040e45148b1136d07cba302be7",
        "eraser": "65164a3755a134b21af45108898eb24afba9f9e67da02b34dfacf941b27c6512",
        "sweep": "685cc17eff2e0fe41624386ea705a7da5253c62752bc7ef7e8f2628ae711bfd0",
    },
    "eraser_modulation": {
        "analyze": "82841cf97b0590987157d6d6bc95739ff344c2f4f593ffb077f7b6e148dea0f3",
        "eraser": "79c5a786f5ed7898a6ab644980d45d726fff66f106b944c2a0e5e51bbc70a627",
        "sweep": "a682df507fc348727cc2d9ce0f3604c1d34bb74650d5351e14b8cadb8175fe4f",
    },
}


def _command_digest(capsys, argv, files):
    code = main([str(a) for a in argv])
    printed = capsys.readouterr()
    text = (printed.out if code == 0 else printed.err).replace(str(files[0].parent), "<tmp>")
    digest = hashlib.sha256(f"exit {code}\n{text}".encode())
    for path in files if code == 0 else ():
        digest.update(path.read_bytes())
    return digest.hexdigest()


def command_output_digests(tmp_path, capsys, preset):
    """{command: SHA-256} for analyze, eraser and sweep on one preset."""
    events, outs = tmp_path / "events.csv", [tmp_path / name for name in ("h.csv", "m.csv", "h.pgm")]
    assert main(["simulate", "--preset", preset, "--events", str(OUTPUT_EVENTS), "--seed", str(OUTPUT_SEED),
                 "--out", str(events)]) == 0
    config, swept = tmp_path / "base.cfg", tmp_path / "sweep.csv"
    config.write_text(serialize_config(build_preset(preset)), encoding="utf-8")
    capsys.readouterr()
    return {
        "analyze": _command_digest(capsys, ["analyze", "--events", events, "--out-hist", outs[0],
                                            "--out-metrics", outs[1], "--pgm", outs[2]], outs),
        "eraser": _command_digest(capsys, ["eraser", "--events", events, "--gamma", "0.5",
                                           "--out", tmp_path / "e.csv"], [tmp_path / "e.csv"]),
        "sweep": _command_digest(capsys, ["sweep", "--config", config, "--param", "detector_overlap",
                                          "--from", "0", "--to", "1", "--steps", "7", "--events", SWEEP_EVENTS,
                                          "--seed", SWEEP_SEED, "--out", swept], [swept]),
    }


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_analyze_eraser_and_sweep_outputs_match_their_recorded_digests(tmp_path, capsys, preset):
    assert command_output_digests(tmp_path, capsys, preset) == OUTPUT_DIGESTS[preset]


# --- slit sweeps ---
#
# SHA-256 of a 7-step sweep over the slit width or a slit amplitude (sweep
# CSV and stdout, then each step's events CSV at SWEEP_EVENTS and
# SWEEP_SEED), recorded while every slit wave was computed from scratch.
# Each step changes the waves but not the transport phase, so these pin
# the bits of waves built from kept phasors and envelopes.

SLIT_SWEEPS = {
    ("young_baseline", "geometry.slit_width"):
        "b2bf64140094dc4f6c2e4060a3f467e7c8ee76af717c1380e3f18bf01078c4ad",
    ("young_baseline", "geometry.slit_amplitude1"):
        "a341cf1e61240b16bdce49aaa8de9dc62e03b355a1ccb1429d79f2d53c7d4d51",
    ("eraser_modulation", "geometry.slit_width"):
        "e8cf0dd84e5312ec0dd91b798c94e55a5b54e277986ecdf0c407ee65918585f6",
    ("eraser_modulation", "geometry.slit_amplitude1"):
        "f714dbddca489c2934f3d183cbf93b7f847a0e8df708b93e0862d03787e75bb1",
}
SLIT_SWEEP_BOUNDS = {"geometry.slit_width": ("1e-6", "3e-6"), "geometry.slit_amplitude1": ("0.25", "1")}


def slit_sweep_digest(tmp_path, capsys, preset, param):
    text = serialize_config(build_preset(preset))
    config, swept, events = tmp_path / "base.cfg", tmp_path / "sweep.csv", tmp_path / "events.csv"
    config.write_text(text, encoding="utf-8")
    start, stop = SLIT_SWEEP_BOUNDS[param]
    digest = hashlib.sha256(_command_digest(capsys, [
        "sweep", "--config", config, "--param", param, "--from", start, "--to", stop, "--steps", "7",
        "--events", SWEEP_EVENTS, "--seed", SWEEP_SEED, "--out", swept], [swept]).encode())
    for line in swept.read_text(encoding="utf-8").splitlines()[1:]:
        step = parse_config(text, overrides={param: line.split(",")[0]})
        write_events_csv(run_experiment(step, SWEEP_EVENTS, SWEEP_SEED), events)
        digest.update(events.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("preset,param", sorted(SLIT_SWEEPS))
def test_slit_sweeps_match_their_recorded_digests(tmp_path, capsys, preset, param):
    assert slit_sweep_digest(tmp_path, capsys, preset, param) == SLIT_SWEEPS[preset, param]
