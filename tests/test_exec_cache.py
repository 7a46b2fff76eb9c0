"""Tests for repro.exec.cache and resume semantics of run_specs."""

import dataclasses
import json

import pytest

from repro.core.config import CongosParams
from repro.exec.cache import ResultCache
from repro.exec.pool import run_specs
from repro.exec.results import RunRecord
from repro.exec.tasks import RunSpec, execute_spec


def make_spec(seed=0, n=8):
    return RunSpec.make(
        "steady",
        seed=seed,
        n=n,
        rounds=200,
        deadline=64,
        params=CongosParams.preset("lean"),
    )


def fake_record(key="k" * 64, seed=0):
    return RunRecord(
        scenario="steady",
        n=8,
        rounds=200,
        seed=seed,
        peak=10,
        total=100,
        total_size=100,
        mean_per_round=1.0,
        filtered=0,
        spec_key=key,
    )


class TestResultCache:
    def test_miss_returns_none_and_counts(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.get("a" * 64) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        record = fake_record()
        path = cache.put(record)
        assert path.endswith("{}.json".format("k" * 64))
        assert record.spec_key in cache
        assert cache.get(record.spec_key) == record
        assert cache.hits == 1

    def test_net_section_survives_the_cache_and_old_entries_load(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        sharded = dataclasses.replace(
            fake_record(), net={"workers": 2, "cross_messages": 5}
        )
        cache.put(sharded)
        assert cache.get(sharded.spec_key).net == sharded.net
        # An entry written before the field existed has no "net" key.
        old = fake_record(key="o" * 64)
        cache.put(old)
        with open(cache.path_for(old.spec_key), encoding="utf-8") as handle:
            assert "net" not in json.load(handle)
        assert cache.get(old.spec_key).net == {}

    def test_put_requires_a_key(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        record = fake_record(key=None)
        with pytest.raises(ValueError):
            cache.put(record)
        cache.put(record, key="b" * 64)
        assert "b" * 64 in cache

    def test_rejects_path_traversal_keys(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError):
            cache.path_for("../escape")
        with pytest.raises(ValueError):
            cache.path_for(".hidden")

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        record = fake_record()
        cache.put(record)
        with open(cache.path_for(record.spec_key), "w") as handle:
            handle.write("{not json")
        assert cache.get(record.spec_key) is None

    def test_keys_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(fake_record(key="a" * 64))
        cache.put(fake_record(key="b" * 64))
        assert list(cache.keys()) == sorted(["a" * 64, "b" * 64])
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_entries_are_plain_json(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        record = fake_record()
        with open(cache.put(record), "r", encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["peak"] == 10
        assert RunRecord.from_dict(data) == record


class TestResume:
    def test_resume_after_partial_sweep_runs_only_missing(self, tmp_path):
        """Interrupt a sweep halfway; the resumed run must execute only
        the cells the first run never finished (counted, not assumed)."""
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [make_spec(seed=seed) for seed in (0, 1, 2)]

        executed = []

        def counting_execute(spec):
            executed.append(spec.key)
            return execute_spec(spec)

        # "interrupted" first run: only the first two cells completed
        first = run_specs(specs[:2], jobs=1, cache=cache, fn=counting_execute)
        assert len(executed) == 2

        # resume: the two cached cells are served from disk, one runs
        resumed = run_specs(specs, jobs=1, cache=cache, fn=counting_execute)
        assert len(executed) == 3
        assert executed.count(specs[2].key) == 1
        assert [r.without_profile().to_dict() for r in resumed[:2]] == [
            r.without_profile().to_dict() for r in first
        ]
        assert all(r.cache_hit for r in resumed[:2])
        assert not resumed[2].cache_hit
        assert cache.hits == 2

    def test_interrupt_mid_batch_keeps_completed_work(self, tmp_path):
        """Records are checkpointed as tasks land, not after the batch —
        a sweep killed mid-flight must not lose what already finished."""
        cache = ResultCache(str(tmp_path / "cache"))
        specs = [make_spec(seed=seed) for seed in (0, 1, 2)]

        executed = []

        def dies_on_third(spec):
            if spec.key == specs[2].key:
                raise KeyboardInterrupt
            executed.append(spec.key)
            return execute_spec(spec)

        with pytest.raises(KeyboardInterrupt):
            run_specs(specs, jobs=1, cache=cache, fn=dies_on_third)
        assert len(cache) == 2  # the two finished tasks hit the disk

        resumed = run_specs(specs, jobs=1, cache=cache, fn=execute_spec)
        assert len(resumed) == 3
        assert cache.hits == 2  # only the third task ran after the signal

    def test_resume_false_ignores_cache_but_still_writes(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = make_spec()
        executed = []

        def counting_execute(spec_):
            executed.append(spec_.key)
            return execute_spec(spec_)

        run_specs([spec], jobs=1, cache=cache, fn=counting_execute)
        run_specs(
            [spec], jobs=1, cache=cache, resume=False, fn=counting_execute
        )
        assert len(executed) == 2  # resume=False re-ran it
        run_specs([spec], jobs=1, cache=cache, fn=counting_execute)
        assert len(executed) == 2  # ...but the rewrite made resume possible

    def test_cached_record_identical_to_fresh(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        spec = make_spec()
        fresh = run_specs([spec], jobs=1)[0]
        run_specs([spec], jobs=1, cache=cache)
        cached = run_specs([spec], jobs=1, cache=cache)[0]
        assert cached.cache_hit and not fresh.cache_hit
        assert cached.without_profile().to_dict() == fresh.without_profile().to_dict()
