"""Seeded streams of standard-normal draws.

Everything random in this package is pulled from a ``GaussianStream``: a thin
wrapper around numpy's PCG64 generator that fixes the draw protocol (how many
normals an operation consumes, and in which order) so that runs are exactly
reproducible from a single integer seed.  Independent substreams for parallel
or logically separate consumers are derived with :meth:`GaussianStream.spawn`,
which uses numpy's ``SeedSequence`` spawning and is itself deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np

from .series import _check_n

__all__ = ["GaussianStream"]

_MAX_SEED = 2**64

# Threads that run substream tasks in _map_substreams.
_THREADS = 2


class GaussianStream:
    """Deterministic stream of N(0, 1) draws.

    Two streams built from the same seed produce identical draws, and the
    concatenation of ``fill(a)`` and ``fill(b)`` equals a single
    ``fill(a + b)``, so consumers may batch requests freely without changing
    the realized noise.

    Parameters
    ----------
    seed : int
        Root seed in ``[0, 2**64)``.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
                raise ValueError(f"seed must be an integer, got {seed!r}")
            if not 0 <= int(seed) < _MAX_SEED:
                raise ValueError(f"seed must be in [0, 2**64), got {seed}")
            _seq = np.random.SeedSequence(int(seed))
        self.seed = int(seed)
        self._seq = _seq
        self._gen = np.random.Generator(np.random.PCG64(_seq))
        self.count_drawn = 0

    def fill(self, n: int) -> np.ndarray:
        """Return the next ``n`` standard-normal draws as a float64 array."""
        n = _check_n(n, least=0)
        out = self._gen.standard_normal(n)
        self.count_drawn += n
        return out

    def normal(self) -> float:
        """Return a single standard-normal draw."""
        return float(self.fill(1)[0])

    def spawn(self, k: int) -> list["GaussianStream"]:
        """Derive ``k`` independent child streams.

        Children are independent of each other and of future draws from this
        stream; the derivation is deterministic given the root seed and the
        number of children spawned so far.
        """
        k = _check_n(k, "k")
        return [GaussianStream(self.seed, _seq=s) for s in self._seq.spawn(k)]

    def __repr__(self):
        return f"GaussianStream(seed={self.seed}, count_drawn={self.count_drawn})"


def _map_substreams(task, jobs, in_flight: int = 2):
    """Yield ``task(job)`` for each job, in job order, from ``_THREADS`` threads.

    Each job carries its own spawned substream, which no other job touches,
    so a task draws the same numbers on any thread and in any interleaving:
    the results do not depend on the thread count.  Besides the result being
    yielded, at most ``in_flight`` tasks are queued, running or finished and
    waiting, which bounds the memory they hold.  A task's exception is raised
    here, at its turn in the order, after tasks not yet started are
    cancelled and the running ones have finished.
    """
    from concurrent.futures import ThreadPoolExecutor
    jobs = iter(jobs)
    pool = ThreadPoolExecutor(_THREADS)
    try:
        pending = deque(pool.submit(task, job) for job in islice(jobs, in_flight))
        while pending:
            result = pending.popleft().result()
            pending.extend(pool.submit(task, job) for job in islice(jobs, 1))
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
