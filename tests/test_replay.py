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

from fringelab.config import build_preset
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
    from fringelab.config import PRESET_NAMES

    assert {key.split("/streams=")[0] for key in GOLDEN["digests"]} == set(PRESET_NAMES)


@pytest.mark.parametrize("key", sorted(GOLDEN["digests"]))
def test_events_csv_reads_back_to_the_golden_bytes(tmp_path, key):
    preset, streams = key.split("/streams=")
    log = run_experiment(build_preset(preset), GOLDEN["events"], GOLDEN["seed"], n_streams=int(streams))
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_events_csv(log, first)
    write_events_csv(read_events_csv(first), second)
    assert hashlib.sha256(second.read_bytes()).hexdigest() == GOLDEN["digests"][key]
