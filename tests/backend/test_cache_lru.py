"""The caches' one LRU: true eviction — a hot key survives pressure."""

import pickle
import threading

import pytest

from repro.backend.cache import CompilationCache
from repro.backend.plan import PlanCache
from repro.core import builders as L
from repro.core.arithmetic import Var
from repro.core.types import Float


def identity_program():
    return L.fun([L.array_type(Float, Var("N"))], lambda a: L.map(L.id_, a))


def data_of_length(n):
    return [[float(i) for i in range(n)]]


class TestLruEviction:
    def test_hot_key_survives_pressure(self):
        cache = CompilationCache(max_entries=4)
        program = identity_program()
        hot = cache.get_or_compile(program, data_of_length(1))
        # Insert many cold entries, re-touching the hot key between
        # insertions: recency-based eviction must keep it resident.
        for n in range(2, 12):
            cache.get_or_compile(program, data_of_length(n))
            assert cache.get_or_compile(program, data_of_length(1)) is hot
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["evictions"] == 10 + 1 - 4  # 11 distinct keys, 4 kept
        assert stats["hits"] == 10  # every hot-key re-touch was answered

    def test_lru_order_is_recency_not_insertion(self):
        cache = CompilationCache(max_entries=2)
        program = identity_program()
        first = cache.get_or_compile(program, data_of_length(1))
        cache.get_or_compile(program, data_of_length(2))
        # Touch the *older* entry, then insert a third: the younger-but-
        # least-recently-used length-2 entry must be the one evicted.
        assert cache.get_or_compile(program, data_of_length(1)) is first
        cache.get_or_compile(program, data_of_length(3))
        assert cache.get_or_compile(program, data_of_length(1)) is first
        stats = cache.stats()
        assert stats["evictions"] == 1  # only the untouched length-2 entry
        assert len(cache) == 2

    def test_eviction_counter_in_stats(self):
        cache = CompilationCache(max_entries=1)
        program = identity_program()
        for n in range(1, 5):
            cache.get_or_compile(program, data_of_length(n))
        assert cache.stats()["evictions"] == 3


@pytest.mark.parametrize("cache_type, default_size",
                         [(CompilationCache, 256), (PlanCache, 64)])
def test_both_caches_share_stats_keys_and_pickling(cache_type, default_size):
    cache = cache_type()
    assert cache.stats() == {"entries": 0, "max_entries": default_size,
                             "hits": 0, "misses": 0, "evictions": 0}
    small = pickle.loads(pickle.dumps(cache_type(max_entries=5)))
    assert small.stats()["max_entries"] == 5 and len(small) == 0


@pytest.mark.parametrize("cache_type", [CompilationCache, PlanCache])
def test_concurrent_misses_on_one_key_keep_the_first_value(cache_type):
    cache = cache_type(max_entries=4)
    # Both threads miss before either inserts: each builds its own value.
    both_missed = threading.Barrier(2, timeout=10)

    def build():
        both_missed.wait()
        return object()

    results = []
    threads = [threading.Thread(
        target=lambda: results.append(cache._get_or_build(("k",), build)))
        for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert len(results) == 2 and results[0] is results[1]
    assert cache._get_or_build(("k",), object) is results[0]
    assert cache.stats() == {"entries": 1, "max_entries": 4, "hits": 1,
                             "misses": 2, "evictions": 0}
