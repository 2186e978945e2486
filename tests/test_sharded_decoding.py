"""Tests for multi-process shot sharding (``repro.parallel``).

The contracts under test: the ``workers=`` knob; sharding a memory
experiment across worker processes is *bit-identical* to running it
in-process, for any worker count; and an experiment given no pool
builds its own ``SharedPool`` only for multi-shard runs, survives a
killed worker, and spends the pool's rebuild budget over its whole
life, so a run that gave up sends every later run in-process.
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.codes import code_by_name
from repro.core.memory import MemoryExperiment
from repro.core.phenomenological import build_phenomenological_model
from repro.noise import HardwareNoiseModel
from repro.parallel import (
    ExperimentHandle,
    FaultPlan,
    PoolUnavailable,
    SharedPool,
    ShardedExperiment,
    activate,
    resolve_workers,
)


@pytest.fixture(scope="module")
def bb72():
    return code_by_name("BB [[72,12,6]]")


@pytest.fixture(scope="module")
def small_handle():
    """A cheap phenomenological pipeline with non-trivial failures."""
    noise = HardwareNoiseModel.from_physical_error_rate(
        3e-2, round_latency_us=100.0
    )
    model = build_phenomenological_model(code_by_name("repetition-d3"),
                                         noise, rounds=2)
    return ExperimentHandle(
        model.check_matrix, model.observable_matrix, model.priors,
        max_iterations=12,
    )


class TestResolveWorkers:
    def test_none_means_in_process(self):
        assert resolve_workers(None) == 1

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestMemoryExperimentWorkers:
    #: Operating point hot enough that failures and the BP-unconverged
    #: fraction are non-trivial — a sharding bug that reordered or
    #: dropped shots would show up in either number.
    P, LATENCY, SHOTS = 3e-3, 100_000.0, 240

    def _run(self, bb72, workers):
        with MemoryExperiment(code=bb72, rounds=2, seed=11,
                              shard_shots=64,
                              workers=workers) as experiment:
            return experiment.run(self.P, self.LATENCY, shots=self.SHOTS)

    def test_identical_memory_result_for_any_worker_count(self, bb72):
        results = {w: self._run(bb72, w) for w in (1, 2, 4)}
        baseline = results[1]
        assert baseline.failures > 0  # non-trivial operating point
        for workers, result in results.items():
            assert result.failures == baseline.failures, workers
            assert result.shots == baseline.shots
            assert result.metadata == baseline.metadata

    def test_workers_zero_uses_cpu_count(self, bb72):
        result = self._run(bb72, 0)
        assert result.failures == self._run(bb72, 1).failures

    def test_sweep_reuses_pool_across_points(self, bb72):
        with MemoryExperiment(code=bb72, rounds=2, seed=5, workers=2,
                              shard_shots=64) as experiment:
            first = experiment.run(self.P, self.LATENCY, shots=self.SHOTS)
            pipeline = experiment._pipeline
            assert pipeline is not None
            second = experiment.run(1e-3, 50_000.0, shots=self.SHOTS)
            # Same pipeline (and worker pool), re-priored per point.
            assert experiment._pipeline is pipeline
        assert first.failures >= second.failures

    def test_circuit_method_workers_match_in_process(self):
        from repro.codes import surface_code
        code = surface_code(3)
        results = []
        for workers in (1, 2):
            with MemoryExperiment(code=code, rounds=2, method="circuit",
                                  seed=3, shard_shots=32,
                                  workers=workers) as experiment:
                results.append(experiment.run(2e-3, 0.0, shots=100))
        assert results[0].failures == results[1].failures
        assert results[0].metadata == results[1].metadata


class TestOwnedPool:
    """``ShardedExperiment(workers > 1)`` without ``pool=``."""

    def test_single_shard_runs_stay_in_process(self, small_handle):
        # shard_shots defaults to 2048, so 150 shots are one shard.
        with ShardedExperiment(small_handle, workers=4) as sharded:
            result = sharded.run(150, 7)
            assert sharded.pool is None
        assert (result.shots_used, result.num_shards) == (150, 1)

    def test_empty_run_stays_in_process(self, small_handle):
        with ShardedExperiment(small_handle, workers=4) as sharded:
            result = sharded.run(0, 7)
            assert sharded.pool is None
        assert (result.shots_used, result.num_shards) == (0, 0)

    def test_killed_idle_worker_recovers_bit_identically(self,
                                                         small_handle):
        """SIGKILL a pool worker between runs: the next run hits the
        broken executor, respawns it and reproduces the first run."""
        with ShardedExperiment(small_handle, workers=2,
                               shard_shots=16) as sharded:
            warm = sharded.run(96, 5, collect_errors=True)
            executor = sharded.pool.executor
            os.kill(next(iter(executor._processes)), signal.SIGKILL)
            # Wait for the executor to mark itself broken; otherwise the
            # surviving worker can finish every shard of the next run
            # before the death is noticed.
            deadline = time.monotonic() + 10.0
            while not executor._broken:
                assert time.monotonic() < deadline, \
                    "the executor never noticed the killed worker"
                time.sleep(0.01)
            recovered = sharded.run(96, 5, collect_errors=True)
            stats = dict(sharded.last_run_stats)
        assert warm.failures > 0
        assert recovered.failures == warm.failures
        assert np.array_equal(recovered.errors, warm.errors)
        assert np.array_equal(recovered.bp_converged, warm.bp_converged)
        assert stats["pool_failures"] == 1
        assert not stats["local_fallback"]

    def test_exhausted_retries_skip_the_pool_on_later_runs(self):
        """Once a run gives up on its owned pool, later runs go straight
        in-process without touching the dead pool again."""
        code = code_by_name("repetition-d3")
        with MemoryExperiment(code=code, rounds=2, workers=2,
                              shard_shots=16) as experiment:
            with activate(FaultPlan(kills=tuple(range(64)))):
                first = experiment.run(3e-2, 100.0, shots=160, seed=5)
            first_stats = dict(experiment._pipeline.last_run_stats)
            with activate(None):
                second = experiment.run(3e-2, 100.0, shots=160, seed=5)
            stats = dict(experiment._pipeline.last_run_stats)
        with MemoryExperiment(code=code, rounds=2,
                              shard_shots=16) as reference:
            expected = reference.run(3e-2, 100.0, shots=160, seed=5)
        assert first_stats["local_fallback"]
        assert stats["local_fallback"]
        assert stats["pool_failures"] == 0
        assert expected.failures > 0
        for result in (first, second):
            assert ((result.failures, result.shots)
                    == (expected.failures, expected.shots))

    def test_handle_rides_with_at_most_workers_tasks(self, small_handle):
        with ShardedExperiment(small_handle, workers=1,
                               shard_shots=16) as local:
            expected = local.run(480, 5)
        with ShardedExperiment(small_handle, workers=2,
                               shard_shots=16) as sharded:
            for _ in range(2):
                result = sharded.run(480, 5)
                stats = dict(sharded.last_run_stats)
                assert result.failures == expected.failures
                assert stats["num_shards"] == 30
                assert 1 <= stats["handle_payload_tasks"] <= (
                    sharded.workers + stats["handle_cache_misses"])
                assert stats["tasks_submitted"] == (
                    stats["num_shards"] + stats["handle_cache_misses"])


class TestRecovery:
    def test_pool_broken_during_resubmission_is_one_more_failure(
            self, small_handle, monkeypatch):
        """A respawned pool that breaks before every lost shard is back
        in flight costs one more rebuild, not the run."""
        with ShardedExperiment(small_handle, workers=1,
                               shard_shots=16) as local:
            expected = local.run(96, 5)

        class BrokenOnSubmit:
            def submit(self, *args):
                raise BrokenProcessPool("broke during resubmission")

        real_rebuild = SharedPool.rebuild
        rebuilds = []

        def rebuild(pool):
            executor = real_rebuild(pool)
            rebuilds.append(executor)
            return BrokenOnSubmit() if len(rebuilds) == 1 else executor

        monkeypatch.setattr(SharedPool, "rebuild", rebuild)
        with SharedPool(2) as pool, activate(FaultPlan(kills=(1,))):
            with ShardedExperiment(small_handle, pool=pool,
                                   shard_shots=16) as sharded:
                result = sharded.run(96, 5)
                stats = dict(sharded.last_run_stats)
        assert result.failures == expected.failures
        assert stats["pool_failures"] == 2
        assert not stats["local_fallback"]

    def test_pool_broken_while_reshipping_a_cache_miss_recovers(
            self, small_handle, monkeypatch):
        """Workers miss their handle cache and the executor breaks on
        the first re-ship: one more pool failure, not an exception out
        of run()."""
        with ShardedExperiment(small_handle, workers=1,
                               shard_shots=16) as local:
            expected = local.run(96, 5, collect_errors=True)

        real_executor = SharedPool.executor
        seen = {"stripped": 0, "broke": False}

        class MissThenBreak:
            """Strips the handle from the first two payload tasks, so
            every worker misses its cache; the next payload task (a
            re-ship) raises as a broken executor would."""

            def __init__(self, executor):
                self.executor = executor

            def submit(self, fn, handle, *args):
                if handle is not None and not seen["broke"]:
                    if seen["stripped"] < 2:
                        seen["stripped"] += 1
                        handle = None
                    else:
                        seen["broke"] = True
                        raise BrokenProcessPool("broke while re-shipping")
                return self.executor.submit(fn, handle, *args)

        monkeypatch.setattr(SharedPool, "executor", property(
            lambda pool: MissThenBreak(real_executor.fget(pool))))
        with ShardedExperiment(small_handle, workers=2,
                               shard_shots=16) as sharded:
            result = sharded.run(96, 5, collect_errors=True)
            stats = dict(sharded.last_run_stats)
        assert seen["broke"]
        assert stats["handle_cache_misses"] >= 1
        assert stats["pool_failures"] == 1
        assert not stats["local_fallback"]
        assert result.failures == expected.failures > 0
        assert np.array_equal(result.errors, expected.errors)
        assert np.array_equal(result.bp_converged, expected.bp_converged)


class TestInProcessFold:
    """Shards the pool never delivered fold in-process under the same
    stop rule: a run whose pool gives up mid-run, or was marked failed
    before the run, stops at the same shard as ``workers=1``."""

    RUN = dict(shots=480, seed=5, collect_errors=True,
               target_precision=0.02, prior_tally=(3, 40))

    @pytest.fixture(scope="class")
    def expected(self, small_handle):
        with ShardedExperiment(small_handle, workers=1,
                               shard_shots=16) as local:
            result = local.run(**self.RUN)
        # The stop lands mid-budget, after the prior tally alone fell
        # short of the target.
        assert result.stopped_early and result.target_met
        assert 1 < result.num_shards < 30
        return result

    def _assert_same_stop(self, result, expected):
        for name in ("errors", "bp_converged"):
            assert np.array_equal(getattr(result, name),
                                  getattr(expected, name)), name
        for name in ("failures", "shots_used", "num_shards",
                     "stopped_early", "target_met", "ci_low", "ci_high",
                     "prior_failures", "prior_shots"):
            assert getattr(result, name) == getattr(expected, name), name

    def test_pool_giving_up_mid_run(self, small_handle, expected):
        # Tasks 0-3 run clean; every later task kills its worker, so
        # the lent pool spends its one rebuild and gives up.
        plan = FaultPlan(kills=tuple(range(4, 256)))
        with SharedPool(2, max_rebuilds=1) as pool, activate(plan):
            with ShardedExperiment(small_handle, pool=pool,
                                   shard_shots=16) as sharded:
                result = sharded.run(**self.RUN)
                stats = dict(sharded.last_run_stats)
            assert pool.failed
        assert stats["local_fallback"]
        assert stats["pool_failures"] == 2
        assert stats["shards_folded"] == expected.num_shards
        self._assert_same_stop(result, expected)

    def test_pool_failed_before_the_run(self, small_handle, expected):
        with SharedPool(2, max_rebuilds=0) as pool:
            with pytest.raises(PoolUnavailable):
                pool.rebuild()
            with ShardedExperiment(small_handle, pool=pool,
                                   shard_shots=16) as sharded:
                result = sharded.run(**self.RUN)
                stats = dict(sharded.last_run_stats)
        assert stats["local_fallback"]
        assert stats["tasks_submitted"] == stats["pool_failures"] == 0
        assert stats["shards_run"] == expected.num_shards
        self._assert_same_stop(result, expected)
