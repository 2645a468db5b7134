"""Command-line surface: simulate, analyze, sweep, eraser.

No command builds a DetectionEvent: simulate writes each block of a run
to the events CSV as it is drawn, sweep runs experiments with
records=False, and analyze and eraser read the events CSV into columns.
Each row is checked once, when the EventLog holding it is built.

Exit codes: 0 success, 2 configuration problem (bad file, bad key, bad
value, unknown preset, out-of-range seed, count or gamma, non-finite
sweep bounds, a config file that is not UTF-8), 3 runtime failure
(missing or malformed event log, eraser log naming no two-slit preset,
unwritable output, no analyzable field, a size too large to allocate).
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    HISTOGRAM_FIELDS,
    _field_values,
    compute_metrics,
    histogram,
    overlap_distinguishability,
    visibility,
)
from .config import MZ_SCENARIOS, PRESET_NAMES, ConfigError, ExperimentConfig, build_preset, parse_config
from .experiments import event_blocks, fringe_window, run_experiment
from .io import (
    SWEEP_HEADER,
    read_events_csv,
    write_event_logs,
    write_histogram_csv,
    write_histogram_pgm,
    write_metrics_csv,
)
from .measurement import coincidence_modulate, eraser_singles
from .montecarlo import EventLog, RngStream


@functools.cache  # built once per process: parsing leaves no state on the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fringelab",
        description="Event-level simulator for two-slit and interferometer benches with which-way readout.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment and write an events CSV")
    sim.add_argument("--config", help="config file (key = value lines)")
    sim.add_argument("--preset", help="preset scenario name")
    sim.add_argument("--events", type=int, required=True, help="number of particles to send")
    sim.add_argument("--seed", type=int, required=True, help="random stream seed")
    sim.add_argument("--out", required=True, help="output events CSV path")

    ana = sub.add_parser("analyze", help="histogram an events CSV and compute fringe metrics")
    ana.add_argument("--events", required=True, help="events CSV from simulate")
    ana.add_argument("--bins", type=int, default=128, help="histogram bins (default 128)")
    ana.add_argument("--out-hist", required=True, help="output histogram CSV path")
    ana.add_argument("--out-metrics", required=True, help="output metrics CSV path")
    ana.add_argument("--pgm", help="optional 1-row grayscale PGM rendering of the histogram")

    sw = sub.add_parser("sweep", help="rerun one config while stepping a single key")
    sw.add_argument("--config", required=True, help="base config file")
    sw.add_argument("--param", required=True, help="dotted config key to step")
    sw.add_argument("--from", dest="start", type=float, required=True, help="first value")
    sw.add_argument("--to", dest="stop", type=float, required=True, help="last value")
    sw.add_argument("--steps", type=int, required=True, help="number of values")
    sw.add_argument("--events", type=int, required=True, help="events per step")
    sw.add_argument("--seed", type=int, required=True, help="seed reused for every step")
    sw.add_argument("--out", required=True, help="output sweep CSV path")

    er = sub.add_parser("eraser", help="coincidence-modulate a recorded events CSV")
    er.add_argument("--events", required=True, help="events CSV from simulate")
    er.add_argument("--gamma", type=float, required=True, help="modulation weight in [-1, 1]")
    er.add_argument("--bins", type=int, default=128, help="histogram bins (default 128)")
    er.add_argument("--out", required=True, help="output modulated histogram CSV path")
    # argparse's own pattern takes -1e-3 and -inf for options; this one takes
    # float()'s negative spellings, non-finite ones in any case, for values
    negative = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = negative
    return parser


def _load_config_text(path: str) -> str:
    """The config file's text. A byte that is not UTF-8 is a config error
    citing path:line, lines numbered as parse_config numbers them."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode() + "?").splitlines())
        raise ConfigError(f"{path}:{line}: {exc}") from exc


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if not args.config and not args.preset:
        raise ConfigError("provide --config and/or --preset")
    if args.config:
        config = parse_config(_load_config_text(args.config))
        if args.preset and args.preset != config.scenario:
            raise ConfigError(
                f"--preset {args.preset} does not match the config's scenario {config.scenario}"
            )
        return config
    return build_preset(args.preset)


def _check_seed(seed: int) -> None:
    """Reject a seed the random streams cannot take as a bad argument."""
    try:
        RngStream(seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_at_least(option: str, value: int, least: int) -> None:
    """Reject a count below its minimum as a bad argument."""
    if value < least:
        raise ConfigError(f"{option} must be at least {least}, got {value}")


def _auto_field(log) -> str:
    if not len(log):
        raise ValueError("event log is empty")
    for field in HISTOGRAM_FIELDS:
        if _field_values(log, field).size:
            return field
    raise ValueError("event log holds only port records; nothing to histogram")


def _field_range(log, field: str) -> tuple[float, float]:
    values = _field_values(log, field)
    if values.size == 0:
        raise ValueError(f"event log has no {field} records")
    lo, hi = float(values.min()), float(values.max())
    if not lo < hi:
        raise ValueError("all recorded positions coincide; cannot bin")
    return lo, hi


def _cmd_simulate(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    _check_at_least("--events", args.events, 1)
    config = _resolve_config(args)
    # each block is checked by its EventLog and written before the next is drawn
    written = write_event_logs(map(EventLog, event_blocks(config, args.events, args.seed)), args.out)
    print(f"{config.scenario}: wrote {written} events to {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    _check_at_least("--bins", args.bins, 2)
    log = read_events_csv(args.events)
    field = _auto_field(log)
    h = histogram(log, field, args.bins, _field_range(log, field))
    metrics = compute_metrics(h, log)
    write_histogram_csv(h, args.out_hist)
    write_metrics_csv(metrics, args.out_metrics)
    if args.pgm:
        write_histogram_pgm(h, args.pgm)
    v = metrics.visibility
    print(f"{field}: {int(h.total)} events in {h.n_bins} bins ({h.n_dropped} outside range)")
    print(f"visibility: {v.value if v.present else v.flag}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    _check_at_least("--steps", args.steps, 1)
    _check_at_least("--events", args.events, 1)
    for option, value in (("--from", args.start), ("--to", args.stop)):
        if not np.isfinite(value):
            raise ConfigError(f"{option} must be finite, got {value!r}")
    if not np.isfinite(args.stop - args.start):  # np.linspace would step by inf
        raise ConfigError(f"--to minus --from must be finite, got {args.stop!r} - {args.start!r}")
    text = _load_config_text(args.config)
    lines = [SWEEP_HEADER]
    for value in np.linspace(args.start, args.stop, args.steps).tolist():
        config = parse_config(text, overrides={args.param: repr(value)})
        log = run_experiment(config, args.events, args.seed, records=False)
        field = _auto_field(log)
        window = fringe_window(config) if field == "screen_x" else None
        if window is not None:
            n_bins, value_range = window
        else:
            n_bins, value_range = 128, _field_range(log, field)
        h = histogram(log, field, n_bins, value_range)
        v = visibility(h)
        d = overlap_distinguishability(config.detector_overlap)
        # a measurement-mediated V is the restored signal's, which D from detector_overlap does not bound
        lhs = v.value * v.value + d * d if v.present and config.pattern_convention == "literal" else None
        cells = [repr(value), repr(v.value) if v.present else "", repr(d), repr(lhs) if lhs is not None else ""]
        lines.append(",".join(cells))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    print(f"swept {args.param} over {args.steps} steps; wrote {args.out}")
    return 0


def _cmd_eraser(args: argparse.Namespace) -> int:
    _check_at_least("--bins", args.bins, 2)
    if not -1.0 <= args.gamma <= 1.0:  # NaN too
        raise ConfigError(f"--gamma must lie in [-1, 1], got {args.gamma!r}")
    log = read_events_csv(args.events)
    experiments = log.column("experiment")
    if experiments.size == 0:
        raise ValueError("event log is empty")
    joint = histogram(log, "screen_x", args.bins, _field_range(log, "screen_x"))
    if experiments[0] not in PRESET_NAMES or experiments[0] in MZ_SCENARIOS:
        raise ValueError(f"{args.events}: scenario {experiments[0]!r} names no two-slit preset")
    config = build_preset(experiments[0])
    single1, single2 = eraser_singles(config.geometry, config.beam, joint)
    modulated = coincidence_modulate(joint, single1, single2, args.gamma)
    write_histogram_csv(modulated, args.out)
    v_before = visibility(joint)
    v_after = visibility(modulated)
    print(f"joint visibility: {v_before.value if v_before.present else v_before.flag}")
    print(f"modulated visibility (gamma={args.gamma}): {v_after.value if v_after.present else v_after.flag}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "eraser": _cmd_eraser,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"fringelab: config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"fringelab: error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a size no array can take, such as --bins 10**12
        print(f"fringelab: error: {exc or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
