"""Tests for the hot-figure cache of immutable figure versions."""

import pytest

from repro.characterization.reader import ResultReader
from repro.characterization.stats import summarize
from repro.characterization.store import ResultStore
from repro.service.cache import HotFigureCache


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "results")


@pytest.fixture()
def reader(store):
    return ResultReader(store.directory)


class TestHitsAndMisses:
    def test_first_get_misses_then_hits(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader)
        entry = cache.get("fig")
        digest, payload = entry.digest, entry.payload
        assert payload == {"x": 1}
        assert (cache.misses, cache.hits) == (1, 0)
        again = cache.get("fig")
        assert again.digest == digest and again.payload == {"x": 1}
        assert (cache.misses, cache.hits) == (1, 1)

    def test_hit_skips_the_store_load(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader)
        cache.get("fig")
        loads = {"n": 0}
        original = reader.load_version

        def counting_load(name, **kwargs):
            loads["n"] += 1
            return original(name, **kwargs)

        # load_version is the one method that pulls the bytes (load is
        # built on it), so counting it counts every store read.
        reader.load_version = counting_load
        cache.get("fig")
        assert loads["n"] == 0  # two stats, no load
        store.save("fig", {"x": 2})
        cache.get("fig")
        assert loads["n"] == 1  # the counter does see a miss

    def test_summary_payloads_cache_decoded(self, store, reader):
        data = {"groups": {"a": summarize([0.5, 0.7])}}
        store.save("fig", data)
        cache = HotFigureCache(reader)
        first = cache.get("fig").payload
        second = cache.get("fig").payload
        assert first == data and second == data


class TestInvalidation:
    def test_rewrite_invalidates_by_digest(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader)
        old_digest = cache.get("fig").digest
        store.save("fig", {"x": 2})
        entry = cache.get("fig")
        new_digest, payload = entry.digest, entry.payload
        assert payload == {"x": 2}
        assert new_digest != old_digest
        assert cache.invalidations == 1
        assert cache.misses == 2

    def test_digest_keeping_rewrite_rebuilds_the_entry(self, store, reader):
        store.save("fig", {"x": 1}, notes="first")
        cache = HotFigureCache(reader)
        old = cache.get("fig")
        store.save("fig", {"x": 1}, notes="second")
        new = cache.get("fig")
        assert new is not old
        assert new.digest == old.digest  # same content, same ETag
        assert new.metadata["notes"] == "second"
        assert (cache.misses, cache.invalidations) == (2, 1)

    def test_entry_fields_are_read_only(self, store, reader):
        import dataclasses

        store.save("fig", {"x": 1})
        entry = HotFigureCache(reader).get("fig")
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.digest = "other"

    def test_ci_memo_stays_bounded_under_threads(self, store, reader):
        import sys
        import threading

        from repro.service.cache import CI_MEMO_LIMIT

        store.save("fig", {"x": 1})
        entry = HotFigureCache(reader).get("fig")
        wrong = []

        def worker(offset):
            for key in range(offset, offset + 3 * CI_MEMO_LIMIT):
                answer = entry.ci(key, lambda: str(key).encode())
                if answer != str(key).encode():
                    wrong.append((key, answer))

        threads = [
            threading.Thread(target=worker, args=(index * 7,))
            for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert len(entry._ci) == CI_MEMO_LIMIT

    def test_watch_clears_on_store_change(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader)
        cache.get("fig")
        assert cache.watch() is False  # no change: nothing dropped
        assert cache.stats()["entries"] == 1
        store.save("other", {"y": 1})
        assert cache.watch() is True
        assert cache.stats()["entries"] == 0

    def test_clear(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader)
        cache.get("fig")
        cache.clear()
        assert cache.stats()["entries"] == 0
        cache.get("fig")
        assert cache.misses == 2


class TestLru:
    def test_eviction_order(self, store, reader):
        for index in range(3):
            store.save(f"fig{index}", {"x": index})
        cache = HotFigureCache(reader, capacity=2)
        cache.get("fig0")
        cache.get("fig1")
        cache.get("fig0")  # refresh fig0: fig1 is now least recent
        cache.get("fig2")  # evicts fig1
        assert cache.evictions == 1
        hits = cache.hits
        cache.get("fig0")
        assert cache.hits == hits + 1  # still cached

    def test_capacity_validated(self, reader):
        with pytest.raises(ValueError):
            HotFigureCache(reader, capacity=0)

    def test_stats_shape(self, store, reader):
        store.save("fig", {"x": 1})
        cache = HotFigureCache(reader, capacity=7)
        cache.get("fig")
        stats = cache.stats()
        assert stats == {
            "entries": 1,
            "capacity": 7,
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "invalidations": 0,
        }
