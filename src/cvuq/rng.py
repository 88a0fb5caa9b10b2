"""Reproducible random-number streams for parallel Monte Carlo.

Stream-splitting scheme
-----------------------
Every experiment takes one 64-bit ``seed``.  Work unit ``r`` (a replication,
a fold job, an inner loop) gets its own counter-based Philox generator via

    stream(seed, r)           # replication r
    stream(seed, r, 1)        # sub-stream 1 inside replication r

built on ``numpy.random.SeedSequence(entropy=seed, spawn_key=key)``.  Streams
are keyed by index, never by scheduling order, so results are bit-identical
for any worker count.  Samplers draw row-by-row blocks in C order, so the
first ``m`` rows drawn from a stream coincide with an ``m``-row draw from a
fresh stream with the same key (prefix nesting; used for common random
numbers across sample sizes).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for work unit ``key`` under ``seed``."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def indexed_map(fn, count: int, threads: int = 1) -> list:
    """Evaluate ``fn(i)`` for ``i in range(count)``, results in index order.

    With ``threads > 1`` the calls run on a pool of ``min(threads, count)``
    threads; each call must derive its randomness from its index (via
    :func:`stream`), which makes the output independent of scheduling.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if threads <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(fn, range(count)))

