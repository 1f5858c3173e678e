"""Tests for the on-disk result cache."""

import json
import os

from repro.sweep import (
    SPEC_SCHEMA_VERSION,
    ResultCache,
    RunResult,
    RunSpec,
    execute_spec,
)
from repro.sweep.cache import CACHE_SCHEMA_VERSION

SPEC = RunSpec.for_run("water", scale=0.2, n_procs=4)

#: one real simulation, reused across distinct specs -- the cache only
#: cares about the spec key, so LRU tests stay fast.
_STATS = execute_spec(SPEC)


def fresh_result() -> RunResult:
    return RunResult(spec=SPEC, stats=_STATS, wall_time=0.5)


def result_for_seed(seed: int) -> RunResult:
    spec = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=seed)
    return RunResult(spec=spec, stats=_STATS, wall_time=0.5)


class TestPutGet:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = fresh_result()
        cache.put(result)
        again = cache.get(SPEC)
        assert again is not None
        assert again.from_cache is True
        assert again.stats == result.stats
        assert again.wall_time == result.wall_time
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_on_empty_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(SPEC) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_different_spec_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        other = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=7)
        assert cache.get(other) is None
        assert cache.misses == 1

    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        path = cache.path_for(SPEC)
        assert path.exists()
        assert path.parent.name == SPEC.key()[:2]
        assert len(cache) == 1


class TestFileFormat:
    def test_put_writes_canonical_json_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = fresh_result()
        cache.put(result)
        envelope = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec_key": SPEC.key(),
            "spec": SPEC.to_wire(),
            "stats": _STATS.to_dict(),
            "wall_time": 0.5,
        }
        expected = json.dumps(envelope, sort_keys=True).encode()
        assert cache.path_for(SPEC).read_bytes() == expected

    def test_hot_tier_size_is_the_file_size(self, tmp_path):
        ResultCache(tmp_path).put(fresh_result())
        cache = ResultCache(tmp_path, hot_entries=4)
        assert cache.get(SPEC) is not None     # disk hit, promoted
        size = cache.path_for(SPEC).stat().st_size
        assert cache.stats()["hot"]["bytes"] == size


class TestInvalidation:
    def test_corrupt_file_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        # the second is not even UTF-8: json.loads of the raw bytes
        # must reject it like any other junk
        for n, junk in enumerate([b"not json{", b"\xff\xfe\x00garbage"], 1):
            cache.put(fresh_result())
            cache.path_for(SPEC).write_bytes(junk)
            assert cache.get(SPEC) is None
            assert cache.invalidated == n
            assert not cache.path_for(SPEC).exists()

    def test_envelope_version_mismatch_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        path = cache.path_for(SPEC)
        payload = json.loads(path.read_text())
        payload["schema"] = CACHE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1

    def test_stats_version_mismatch_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        path = cache.path_for(SPEC)
        payload = json.loads(path.read_text())
        payload["stats"]["version"] = 999
        path.write_text(json.dumps(payload))
        assert cache.get(SPEC) is None
        assert cache.invalidated == 1

    def test_renamed_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        other = RunSpec.for_run("water", scale=0.2, n_procs=4, seed=7)
        target = cache.path_for(other)
        target.parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(SPEC).rename(target)
        assert cache.get(other) is None
        assert cache.invalidated == 1

    def test_clear_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(fresh_result())
        assert cache.clear() == 1
        assert len(cache) == 0


class TestBounds:
    def test_max_entries_evicts_lru_insertion_order(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        results = [result_for_seed(s) for s in (1, 2, 3)]
        for r in results:
            cache.put(r)
        assert len(cache) == 2
        assert cache.evictions == 1
        # seed 1 was least recently used, so it is the one gone
        assert cache.get(results[0].spec) is None
        assert cache.get(results[1].spec) is not None
        assert cache.get(results[2].spec) is not None

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (result_for_seed(s) for s in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        assert cache.get(a.spec) is not None  # a is now most recent
        cache.put(c)                          # evicts b, not a
        assert cache.get(b.spec) is None
        assert cache.get(a.spec) is not None
        assert cache.get(c.spec) is not None
        assert cache.evictions == 1

    def test_max_bytes_accounting(self, tmp_path):
        probe = ResultCache(tmp_path)
        probe.put(result_for_seed(1))
        entry_bytes = probe.total_bytes()
        probe.clear()

        # room for exactly two entries, not three
        cache = ResultCache(tmp_path, max_bytes=2 * entry_bytes)
        for s in (1, 2, 3):
            cache.put(result_for_seed(s))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.total_bytes() <= 2 * entry_bytes
        on_disk = sum(
            p.stat().st_size for p in cache.root.glob("*/*.json")
        )
        assert cache.total_bytes() == on_disk

    def test_bounds_apply_to_preexisting_entries(self, tmp_path):
        old = ResultCache(tmp_path)
        for s in (1, 2, 3):
            old.put(result_for_seed(s))
            # stagger mtimes so the LRU rebuild has a definite order
            path = old.path_for(result_for_seed(s).spec)
            os.utime(path, (s, s))
        cache = ResultCache(tmp_path, max_entries=1)
        assert len(cache) == 1
        assert cache.evictions == 2
        # the freshest mtime (seed 3) survives
        assert cache.get(result_for_seed(3).spec) is not None

    def test_invalidation_updates_index(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=10)
        cache.put(result_for_seed(1))
        cache.path_for(result_for_seed(1).spec).write_text("not json{")
        assert cache.get(result_for_seed(1).spec) is None
        assert len(cache) == 0
        assert cache.total_bytes() == 0

    def test_eviction_drops_the_hot_entry(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=1, hot_entries=8)
        a, b = result_for_seed(1), result_for_seed(2)
        cache.put(a)
        cache.put(b)
        assert cache.evictions == 1
        # both read paths agree that a is gone ...
        assert cache.get(a.spec) is None
        assert cache.get_by_key(a.spec.key()) is None
        # ... and the tier counts only what is still stored
        assert cache.stats()["hot"]["entries"] == 1
        assert cache.get(b.spec) is not None
        assert cache.hot_hits == 1

    def test_unbounded_cache_never_evicts(self, tmp_path):
        cache = ResultCache(tmp_path)
        for s in range(5):
            cache.put(result_for_seed(s))
        assert len(cache) == 5
        assert cache.evictions == 0
        assert not cache.bounded


class TestStats:
    def test_stats_reports_counters_and_sizes(self, tmp_path):
        cache = ResultCache(tmp_path, max_entries=2)
        a, b, c = (result_for_seed(s) for s in (1, 2, 3))
        cache.put(a)
        cache.put(b)
        cache.get(a.spec)                       # hit
        cache.get(result_for_seed(9).spec)      # miss
        cache.put(c)                            # evicts b
        s = cache.stats()
        assert s["entries"] == 2
        assert s["bytes"] == cache.total_bytes() > 0
        assert s["hits"] == 1
        assert s["misses"] == 1
        assert s["evictions"] == 1
        assert s["max_entries"] == 2
        assert s["max_bytes"] is None


class TestGetByKey:
    def test_round_trip_by_bare_hash(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = fresh_result()
        cache.put(result)
        payload = cache.get_by_key(SPEC.key())
        assert payload is not None
        assert payload["spec_key"] == SPEC.key()
        assert payload["spec"]["v"] == SPEC_SCHEMA_VERSION
        assert RunSpec.from_wire(payload["spec"]) == SPEC
        assert payload["stats"] == result.stats.to_dict()

    def test_unknown_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_by_key("0" * 64) is None
        assert cache.misses == 1
