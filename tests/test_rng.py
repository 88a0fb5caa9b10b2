import threading
import time
from collections import Counter

import pytest

import cvuq.rng as rng_mod
from cvuq.rng import SOLO_CPU_S, indexed_map


def burn(seconds: float) -> None:
    """Spend ``seconds`` of this thread's CPU time."""
    start = time.thread_time()
    while time.thread_time() - start < seconds:
        pass


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("count", [0, 1, 5])
@pytest.mark.parametrize("cost", [0.0, 2 * SOLO_CPU_S])
def test_indexed_map_runs_each_index_once_in_index_order(threads, count, cost):
    calls = []

    def fn(i):
        calls.append(i)
        burn(cost)
        return i * i

    assert indexed_map(fn, count, threads) == [i * i for i in range(count)]
    assert sorted(calls) == list(range(count))


def test_cheap_replications_stay_on_the_calling_thread():
    # thread objects, not idents: a finished worker's ident can be reused
    runners = []
    indexed_map(lambda i: runners.append(threading.current_thread()), 200, threads=4)
    on_workers = Counter(t for t in runners if t is not threading.current_thread())
    assert len(runners) == 200
    assert len(on_workers) <= 3 and all(n == 1 for n in on_workers.values())


def test_costly_replications_keep_a_worker():
    idents = []

    def fn(i):
        idents.append(threading.get_ident())
        burn(0.01)

    indexed_map(fn, 6, threads=2)
    assert any(t != threading.get_ident() for t in idents)


def test_failure_stops_taking_indices():
    calls = []
    failed = threading.Event()
    before = threading.active_count()

    def fn(i):
        calls.append(i)
        burn(2 * SOLO_CPU_S)  # keeps a worker taking indices
        if i in (3, 5):
            failed.set()
            raise ValueError(i)
        if i == 4:  # the other thread is still busy well after index 3 failed
            failed.wait(timeout=10)
            time.sleep(0.05)
        return i

    with pytest.raises(ValueError) as info:
        indexed_map(fn, 40, threads=2)
    assert info.value.args == (3,)
    assert sorted(calls) == list(range(len(calls))) and 5 not in calls
    assert threading.active_count() == before


def test_lowest_failing_index_is_raised():
    calls = []
    five_failed = threading.Event()
    before = threading.active_count()

    def fn(i):
        calls.append(i)
        burn(2 * SOLO_CPU_S)
        if i == 3:  # fails only after index 5 has failed on the other thread
            five_failed.wait(timeout=10)
            raise ValueError(3)
        if i == 5:
            five_failed.set()
            raise ValueError(5)
        return i

    with pytest.raises(ValueError) as info:
        indexed_map(fn, 40, threads=2)
    assert info.value.args == (3,)
    assert sorted(calls) == list(range(len(calls))) and max(calls) <= 5
    assert threading.active_count() == before


def test_indexed_map_clamps_workers_to_count(monkeypatch):
    made = []

    class CountingThread(threading.Thread):
        """Counts the workers made per call; refuses to make more than 4."""

        def __init__(self, *args, **kwargs):
            made[-1] += 1
            assert made[-1] <= 4, "more worker threads than indices"
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(rng_mod.threading, "Thread", CountingThread)
    made.append(0)
    assert indexed_map(lambda i: i * i, 3, threads=1000) == [0, 1, 4]
    made.append(0)
    assert indexed_map(lambda i: i, 5, threads=2) == [0, 1, 2, 3, 4]
    made.append(0)
    assert indexed_map(lambda i: i, 5, threads=1) == [0, 1, 2, 3, 4]
    # the calling thread is one of min(threads, count)
    assert made == [2, 1, 0]
