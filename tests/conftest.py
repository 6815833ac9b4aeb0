import numpy as np
import pytest

from rednoise import GaussianStream


class StubStream:
    """Feeds a fixed innovation sequence to a sampler (for hand examples)."""

    def __init__(self, z):
        self._z = np.asarray(z, dtype=np.float64)
        self._i = 0

    def fill(self, n):
        out = self._z[self._i:self._i + n]
        assert out.size == n, "stub stream exhausted"
        self._i += n
        return out.copy()

    def normal(self):
        return float(self.fill(1)[0])


@pytest.fixture
def made_streams(monkeypatch):
    """Every ``GaussianStream`` made during the test, spawned ones included,
    so a test can check that a call drew nothing from any of them."""
    made = []
    init = GaussianStream.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(GaussianStream, "__init__", recording_init)
    return made
