"""Trial-cache tests: content addressing, damage tolerance, invalidation.

The cache stores TaskOutcomes keyed by everything the bits depend on
(config fingerprint, kernel token, operating point, task identity,
checkpoint schedule, code version).  Correctness guarantees under
test: a warm run serves bit-identical outcomes; any damaged entry is
a miss (recompute, never crash); changing any key ingredient
invalidates; ``require_origin`` gates whose entries are acceptable.
"""

import json
import os

import numpy as np
import pytest

import repro.engine.cache as cache_mod
from repro.characterization.activation import build_activation_plan
from repro.characterization.experiment import (
    CharacterizationScope,
    OperatingPoint,
)
from repro.config import SimulationConfig
from repro.dram.vendor import TESTED_MODULES
from repro.engine import (
    FusedExecutor,
    SerialExecutor,
    TrialCache,
    make_executor,
)
from repro.engine.kernels import point_token

ACT_POINT = OperatingPoint(t1_ns=1.5, t2_ns=3.0)


def make_scope(seed: int = 51, columns: int = 64, trials: int = 4):
    return CharacterizationScope.build(
        config=SimulationConfig(seed=seed, columns_per_row=columns),
        specs=TESTED_MODULES[:2],
        modules_per_spec=1,
        groups_per_size=2,
        trials=trials,
    )


def make_plan(seed: int = 51):
    return build_activation_plan(make_scope(seed), 8, ACT_POINT)


def plan_keys(cache, plan):
    ptoken = point_token(plan.point)
    checkpoints = tuple(plan.checkpoints)
    return [
        cache.key_for(
            plan.benches[task.bench_index].module.config,
            plan.kernel,
            ptoken,
            task,
            checkpoints,
        )
        for task in plan.tasks
    ]


def assert_outcomes_identical(reference, candidate):
    assert len(reference.outcomes) == len(candidate.outcomes)
    for ours, theirs in zip(reference.outcomes, candidate.outcomes):
        assert ours.index == theirs.index
        assert ours.rate == theirs.rate
        assert ours.checkpoint_rates == theirs.checkpoint_rates
        assert np.array_equal(ours.mask, theirs.mask)


class TestReadThrough:
    def test_cold_run_stores_every_task(self, tmp_path):
        cache = TrialCache(tmp_path)
        executor = SerialExecutor(cache=cache)
        plan = build_activation_plan(make_scope(), 8, ACT_POINT)
        executor.run(plan)
        assert cache.misses == len(plan.tasks)
        assert cache.hits == 0
        assert cache.bytes_written > 0
        assert cache.stats()["entries"] == len(plan.tasks)
        assert executor.metrics.cache_misses == len(plan.tasks)
        assert executor.metrics.cache_bytes_written == cache.bytes_written

    def test_warm_run_serves_bit_identical_outcomes(self, tmp_path):
        reference = SerialExecutor(cache=TrialCache(tmp_path)).run(make_plan())
        warm_cache = TrialCache(tmp_path)
        warm = FusedExecutor(cache=warm_cache)
        candidate = warm.run(make_plan())
        assert_outcomes_identical(reference, candidate)
        assert warm_cache.hits == len(candidate.outcomes)
        assert warm_cache.misses == 0
        assert warm.metrics.cache_hits == len(candidate.outcomes)
        assert warm.metrics.cache_bytes_read > 0
        # The all-hit path still accounts the plan.
        assert warm.metrics.plans == 1

    @pytest.mark.parametrize("name", ["fused", "fused-parallel"])
    def test_partial_hit_recomputes_only_the_missing(self, tmp_path, name):
        # Through run_many, so the pool's pipelined path splits the
        # plan by the same cache helpers as every in-process run.
        cache = TrialCache(tmp_path)
        reference = SerialExecutor(cache=cache).run(make_plan())
        keys = plan_keys(cache, make_plan())
        os.unlink(cache._path(keys[0]))
        warm_cache = TrialCache(tmp_path)
        with make_executor(name, jobs=2, cache=warm_cache) as executor:
            [candidate] = executor.run_many([make_plan()])
        assert_outcomes_identical(reference, candidate)
        assert warm_cache.hits == len(keys) - 1
        assert warm_cache.misses == 1
        assert candidate.metrics.cache_hits == len(keys) - 1
        assert candidate.metrics.cache_misses == 1
        assert executor.metrics.cache_hits == len(keys) - 1
        assert executor.metrics.cache_misses == 1
        assert candidate.metrics.tasks == 1
        # The recomputed entry was stored back, under this executor.
        assert warm_cache.stats()["entries"] == len(keys)


class TestDamageTolerance:
    """A damaged cache may only cost recomputation, never correctness."""

    def corrupt_one(self, cache, plan, mutate):
        keys = plan_keys(cache, plan)
        path = cache._path(keys[0])
        mutate(path)
        return keys[0]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda path: open(path, "w").close(),  # truncated to empty
            lambda path: open(path, "a").write("garbage"),  # trailing junk
            lambda path: open(path, "w").write("{\"payload\": {}}"),
        ],
        ids=["truncated", "trailing-junk", "missing-fields"],
    )
    def test_damaged_entry_is_a_miss_not_a_crash(self, tmp_path, mutate):
        cache = TrialCache(tmp_path)
        reference = SerialExecutor(cache=cache).run(make_plan())
        self.corrupt_one(cache, make_plan(), mutate)
        warm_cache = TrialCache(tmp_path)
        candidate = SerialExecutor(cache=warm_cache).run(make_plan())
        assert_outcomes_identical(reference, candidate)
        assert warm_cache.misses == 1
        assert warm_cache.hits == len(reference.outcomes) - 1

    def test_checksum_catches_tampered_payload(self, tmp_path):
        cache = TrialCache(tmp_path)
        plan = make_plan()
        SerialExecutor(cache=cache).run(plan)
        key = plan_keys(cache, plan)[0]
        path = cache._path(key)
        entry = json.loads(open(path).read())
        entry["payload"]["rate"] = 0.123456
        open(path, "w").write(json.dumps(entry))
        fresh = TrialCache(tmp_path)
        assert fresh.load(key, plan.tasks[0]) is None
        assert fresh.misses == 1


class TestInvalidation:
    def test_seed_changes_the_key(self, tmp_path):
        cache = TrialCache(tmp_path)
        keys_a = plan_keys(cache, make_plan(seed=51))
        keys_b = plan_keys(cache, make_plan(seed=52))
        assert set(keys_a).isdisjoint(keys_b)

    def test_point_changes_the_key(self, tmp_path):
        cache = TrialCache(tmp_path)
        scope = make_scope()
        plan_a = build_activation_plan(scope, 8, ACT_POINT)
        plan_b = build_activation_plan(
            scope, 8, OperatingPoint(t1_ns=2.5, t2_ns=3.0)
        )
        assert set(plan_keys(cache, plan_a)).isdisjoint(
            plan_keys(cache, plan_b)
        )

    def test_code_version_salts_the_key(self, tmp_path, monkeypatch):
        cache = TrialCache(tmp_path)
        before = plan_keys(cache, make_plan())
        monkeypatch.setattr(cache_mod, "__version__", "999.0.0-test")
        after = plan_keys(cache, make_plan())
        assert set(before).isdisjoint(after)

    def test_schema_bump_salts_the_key(self, tmp_path, monkeypatch):
        cache = TrialCache(tmp_path)
        before = plan_keys(cache, make_plan())
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA", cache_mod.CACHE_SCHEMA + 1)
        after = plan_keys(cache, make_plan())
        assert set(before).isdisjoint(after)


class TestOriginGating:
    def test_require_origin_rejects_other_executors_entries(self, tmp_path):
        plan = make_plan()
        SerialExecutor(cache=TrialCache(tmp_path)).run(plan)
        gated = TrialCache(tmp_path, require_origin="fused")
        key = plan_keys(gated, make_plan())[0]
        assert gated.load(key, plan.tasks[0]) is None
        accepting = TrialCache(tmp_path, require_origin="serial")
        assert accepting.load(key, plan.tasks[0]) is not None


class TestMaintenance:
    def test_clear_removes_every_entry(self, tmp_path):
        cache = TrialCache(tmp_path)
        plan = make_plan()
        SerialExecutor(cache=cache).run(plan)
        assert cache.clear() == len(plan.tasks)
        assert cache.stats()["entries"] == 0
        assert cache.stats()["disk_bytes"] == 0

    def test_stats_on_missing_root(self, tmp_path):
        cache = TrialCache(tmp_path / "never-created")
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0
