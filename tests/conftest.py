"""Fixtures shared by the test modules."""

import pytest

from fringelab import composite


@pytest.fixture
def counted_phases(monkeypatch):
    """A cold slit-wave cache, and the transport_phase calls made since."""
    monkeypatch.setattr(composite, "_slit_waves", (None, {}))
    calls = []
    phase = composite.transport_phase

    def counted(*args):
        calls.append(args)
        return phase(*args)

    monkeypatch.setattr(composite, "transport_phase", counted)
    return calls
