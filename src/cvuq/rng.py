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

Scheduling
----------
:func:`indexed_map` runs replications on at most ``threads`` threads, the
calling thread included.  A replication that costs less than
``SOLO_CPU_S`` of CPU time is a string of short numpy calls that hand the
interpreter lock back and forth, so a second thread only slows it down: a
worker thread that finishes such a replication takes no further index, and
the rest run on the calling thread.  Which thread runs an index never
changes its result, so output is bit-identical for any ``threads``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# CPU seconds below which a replication stays on the calling thread.  Measured
# at 1 thread on a 2-core x86 host: the small-n necessity probes' replications
# cost 0.16-0.46 ms (median) and at most 2.0 ms; a coverage replication at
# n = 200 and 50k test points costs 6.5 ms at p = 2 and 65 ms at p = 50, a
# jackknife vs jackknife+ one at p = 50 140 ms, and those gain from a thread.
SOLO_CPU_S = 0.003


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for work unit ``key`` under ``seed``."""
    seq = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seq))


def indexed_map(fn, count: int, threads: int = 1) -> list:
    """Evaluate ``fn(i)`` for ``i in range(count)``, results in index order.

    The calls run on at most ``min(threads, count)`` threads, the calling
    thread included, each taking the next index from one shared counter.  A
    worker thread stops taking indices after a call that cost it less than
    ``SOLO_CPU_S`` of CPU time (``time.thread_time``), which leaves cheap
    replications on the calling thread.  Each call must derive its randomness
    from its index (via :func:`stream`), which makes the output independent
    of scheduling.  If calls raise, no further index is taken, every running
    call finishes, and the exception of the lowest failing index is raised,
    as a serial loop would raise it.  No thread outlives the call.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    workers = min(threads, count) - 1
    if workers <= 0:
        return [fn(i) for i in range(count)]
    results = [None] * count
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    cursor = 0

    def take():
        nonlocal cursor
        with lock:
            if failures or cursor == count:
                return None
            cursor += 1
            return cursor - 1

    def work(worker: bool) -> None:
        while (i := take()) is not None:
            start = time.thread_time()
            try:
                results[i] = fn(i)
            except BaseException as exc:  # raised again by the calling thread
                with lock:
                    failures[i] = exc
                return
            if worker and time.thread_time() - start < SOLO_CPU_S:
                return

    pool = []
    try:
        for _ in range(workers):
            thread = threading.Thread(target=work, args=(True,))
            thread.start()
            pool.append(thread)
        work(False)
    finally:
        for thread in pool:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
