"""Fixtures and helpers shared by the test modules."""

import numpy as np
import pytest

from fringelab import composite
from fringelab.montecarlo import MZ_PORTS, EventColumns


def event_columns(*rows) -> EventColumns:
    """EventColumns of hand-written rows, for logs built by hand.

    A row is a tuple in column order, (experiment, screen_x, mz_port,
    cavity1_photons, cavity2_photons, scatter_x, scatter_y, stream_id),
    with None for an empty cell; a shorter row leaves the cells it lacks
    empty and its stream 0. mz_port is "x", "y" or a raw port code, so a
    test can write a row the log refuses.
    """
    full = [row if len(row) == 8 else (*row, *[None] * (7 - len(row)), 0) for row in rows]
    names, screen_x, ports, c1, c2, scatter_x, scatter_y, streams = zip(*full) if full else [()] * 8

    def cells(values, empty, dtype):
        return np.array([empty if v is None else v for v in values], dtype=dtype)

    return EventColumns(
        np.array(names, dtype=object), cells(screen_x, np.nan, float),
        cells([MZ_PORTS.index(p) if isinstance(p, str) else p for p in ports], -1, np.int8),
        cells(c1, -1, np.int8), cells(c2, -1, np.int8),
        cells(scatter_x, np.nan, float), cells(scatter_y, np.nan, float),
        np.array(streams, dtype=np.uint64),
    )


@pytest.fixture
def counted_phases(monkeypatch):
    """A cold memo of slit waves, phasors and envelope, and the
    transport_phase calls made since."""
    monkeypatch.setattr(composite, "_kept", {})
    calls = []
    phase = composite.transport_phase

    def counted(*args):
        calls.append(args)
        return phase(*args)

    monkeypatch.setattr(composite, "transport_phase", counted)
    return calls

