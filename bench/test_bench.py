"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run the workloads at small sizes; they do not time anything.
"""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliRoundtrip, SweepSmall, WeakScreen  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    CliRoundtrip: {"events": 2000, "check_events": 2000},
    WeakScreen: {"events_per_step": 2000},
    SweepSmall: {"events_per_step": 200},
}


def small(cls, tmp_path, seed=3):
    workload = cls(seed, tmp_path, **SMALL[cls])
    api = spans.make_api()
    workload.warm_up(api)
    return workload, api


def traced_run(cls, tmp_path, seconds=0.5):
    workload, api = small(cls, tmp_path)
    tracer = spans.Tracer()
    untraced, traced = run.timed_passes(workload, api, seconds, tracer)
    return workload, tracer, untraced, traced


def test_metric_names_are_well_formed_and_match_the_spec(tmp_path):
    workload, tracer, untraced, traced = traced_run(SweepSmall, tmp_path, seconds=0.1)
    layer_names = list(run.per_layer(tracer, untraced, traced, 1.0))
    e2e_names = list(run.end_to_end(workload, untraced, [1.0], 1.0))
    names = layer_names + e2e_names + list(run.REPORT_UNITS) + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names), names
    assert [m["name"] for m in SPEC["per_layer"]] == layer_names
    assert [m["name"] for m in SPEC["end_to_end"]] == e2e_names
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_corrupted_events_csv_raises_the_error_rate(tmp_path):
    workload, api = small(CliRoundtrip, tmp_path)
    clean = workload.run_pass(api)
    found, _ = workload.check(api, clean)
    assert run.tally([clean], found) == (clean.attempted + len(found), 0)

    def corrupting_main(argv):
        code = api.main(argv)
        if argv[0] == "simulate" and argv[2] == "young_baseline":
            path = Path(argv[-1])
            path.write_text(path.read_text(encoding="utf-8").replace(",0\n", ",zero\n", 1), encoding="utf-8")
        return code

    broken = workload.run_pass(SimpleNamespace(**{**vars(api), "main": corrupting_main}))
    assert broken.failed >= 3  # analyze and both eraser runs exit 3
    found, _ = workload.check(api, broken)
    attempted, failed = run.tally([broken], found)
    assert failed / attempted > 0


def test_wrong_golden_digest_fails_the_replay_gate(tmp_path):
    golden = checks.golden_digests()
    assert all(c.ok for c in checks.replay_gate(tmp_path, golden))
    key = next(iter(golden))
    tampered = checks.replay_gate(tmp_path, {**golden, key: "0" * 64})
    assert [c.name for c in tampered if not c.ok] == [f"replay {key}"]
    _, failed = run.tally([], tampered)
    assert failed == 1


@pytest.mark.parametrize("cls", [CliRoundtrip, WeakScreen, SweepSmall])
def test_traced_self_times_add_up_to_the_traced_wall(cls, tmp_path):
    workload, tracer, untraced, traced = traced_run(cls, tmp_path)
    m = run.per_layer(tracer, untraced, traced, 1.0)
    assert 0.0 <= m["trace.unattributed_s"] <= max(m["trace.overhead_s"], 0.05 * m["trace.wall_s"])
    assert run.zero_calls(workload, tracer) == []
    assert all(res.fingerprint == untraced[0].fingerprint for res in untraced + traced)


def test_a_bypassed_wrapper_is_reported(tmp_path):
    workload, api = small(SweepSmall, tmp_path)
    tracer = spans.Tracer()
    tracer.install()
    try:
        import fringelab.experiments as experiments

        experiments.sample_positions = experiments.sample_positions.__wrapped__
        workload.run_pass(spans.make_api(tracer))
    finally:
        tracer.uninstall()
    assert run.zero_calls(workload, tracer) == ["montecarlo.sample_positions"]


@pytest.mark.parametrize("cls", [CliRoundtrip, WeakScreen, SweepSmall])
def test_outputs_pass_their_checks_on_another_seed(cls, tmp_path):
    workload, api = small(cls, tmp_path, seed=12345)
    found, err = workload.check(api, workload.run_pass(api))
    assert [c for c in found if not c.ok] == []
    assert err >= 0.0


def test_times_are_medians_over_passes_in_nominal_seconds():
    from workloads import PassResult

    passes = []
    for simulate, scale in ((0.2, 1.0), (0.4, 0.5), (0.9, 1.0)):
        res = PassResult(host_scale=scale)
        res.add_step(simulate, 0.1)
        passes.append(res)
    workload = SimpleNamespace(particles_per_pass=300, tail_percentile=50.0)
    m = run.end_to_end(workload, passes, [1.0], 1.0)
    assert m["simulate_s"] == pytest.approx(0.2)  # median of 0.2, 0.4 * 0.5, 0.9
    assert m["analyze_s"] == pytest.approx(0.1)
    assert m["particles_per_s"] == pytest.approx(300 / 0.3)
    measured = run.end_to_end(workload, passes, [1.0], 1.0, scaled=False)
    assert measured["simulate_s"] == pytest.approx(0.4)
