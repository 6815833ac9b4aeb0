import os
import subprocess
import sys

import numpy as np
import pytest

import rednoise
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


def peak_rss_rise(warm: str, run: str) -> int:
    """Bytes by which a fresh interpreter's peak RSS rises while it runs the
    code ``run``, after the code ``warm`` (imports and first calls).  Linux
    carries a process's peak across exec, so the code runs in a grandchild,
    under a small launcher, where no test's peak hides its own."""
    script = (f"import resource\n{warm}\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              f"{run}\n"
              "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
              "print((after - before) * 1024)\n")
    launcher = ("import subprocess, sys\n"
                f"subprocess.run([sys.executable, '-c', {script!r}], check=True)\n")
    src = os.path.dirname(os.path.dirname(rednoise.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", launcher], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return int(proc.stdout.split()[-1])
