import cvuq.rng as rng_mod
from cvuq.rng import indexed_map


class StubPool:
    """Runs map serially and records the requested worker count."""

    sizes = []

    def __init__(self, max_workers):
        StubPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_indexed_map_clamps_workers_to_count(monkeypatch):
    monkeypatch.setattr(rng_mod, "ThreadPoolExecutor", StubPool)
    StubPool.sizes = []
    assert indexed_map(lambda i: i * i, 3, threads=1000) == [0, 1, 4]
    assert indexed_map(lambda i: i, 5, threads=2) == [0, 1, 2, 3, 4]
    assert StubPool.sizes == [3, 2]
