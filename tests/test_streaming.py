"""Streaming early stopping: determinism, prefix purity, circuit cache.

The contracts under test (see ``repro.parallel.pipeline`` and
``repro.core.sweep``):

* the early-stop decision is evaluated on the shard-**index prefix**
  tally only, so ``(shots_used, failures, corrections)`` are
  bit-identical for any worker count at fixed ``shard_shots`` /
  ``target_precision`` — completion order decides nothing;
* no shard beyond the stopping prefix contributes to the tally;
* the circuit method ships the circuit once per worker per operating
  point (not with every shard task), with a miss-retry fallback that
  never changes results;
* a mid-sweep failure releases the fused-pipeline worker pool;
* the adaptive pilot/allocate/refine scheduler concentrates a sweep's
  global budget on the points that need it, deterministically.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.analysis.sensitivity as sensitivity_module
from repro.circuits import memory_experiment_circuit
from repro.codes import code_by_name, surface_code
from repro.core.memory import MemoryExperiment
from repro.core.phenomenological import build_phenomenological_model
from repro.core.stats import PrecisionTarget
from repro.core.sweep import allocate_shots, sweep_physical_error
from repro.noise import HardwareNoiseModel
from repro.parallel import ExperimentHandle, ShardedExperiment
from repro.parallel.pipeline import _PipelineState


@pytest.fixture(scope="module")
def phen_model():
    """A hot phenomenological point: failures arrive early enough that
    modest targets genuinely stop runs mid-budget."""
    code = code_by_name("BB [[72,12,6]]")
    noise = HardwareNoiseModel.from_physical_error_rate(
        3e-3, round_latency_us=100_000.0
    )
    return build_phenomenological_model(code, noise, rounds=2)


def _phen_handle(model) -> ExperimentHandle:
    return ExperimentHandle(
        model.check_matrix, model.observable_matrix, model.priors,
        method="phenomenological", max_iterations=12,
    )


@pytest.fixture(scope="module")
def pools(phen_model):
    """One warm ``ShardedExperiment`` per worker count, shared by every
    hypothesis example (pool spawn is the expensive part)."""
    handle = _phen_handle(phen_model)
    sharded = {w: ShardedExperiment(handle, workers=w) for w in (1, 2, 4)}
    yield sharded
    for experiment in sharded.values():
        experiment.close()


class TestStreamingDeterminism:
    @given(
        seed=st.integers(0, 2 ** 16),
        shard_shots=st.sampled_from([16, 48, 64, 128]),
        half_width=st.floats(0.01, 0.2),
    )
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_early_stop_identical_across_worker_counts(self, pools, seed,
                                                       shard_shots,
                                                       half_width):
        """(shots_used, failures, corrections, flags) match for workers
        1/2/4 at any random (target_precision, shard_shots, seed)."""
        results = {}
        for workers, sharded in pools.items():
            sharded.shard_shots = shard_shots  # rekeying is part of the test
            results[workers] = sharded.run(
                1500, seed, collect_errors=True,
                target_precision=half_width,
            )
        baseline = results[1]
        for workers, result in results.items():
            assert result.shots_used == baseline.shots_used, workers
            assert result.failures == baseline.failures, workers
            assert result.stopped_early == baseline.stopped_early, workers
            assert result.num_shards == baseline.num_shards, workers
            assert (result.ci_low, result.ci_high) == (
                baseline.ci_low, baseline.ci_high), workers
            assert np.array_equal(result.errors, baseline.errors), workers
            assert np.array_equal(result.bp_converged,
                                  baseline.bp_converged), workers

    def test_early_stop_spends_less_than_budget(self, pools):
        result = pools[2].run(100_000, 3, target_precision=0.05)
        assert result.stopped_early
        assert result.target_met
        assert result.shots_used < 100_000
        assert result.shots_requested == 100_000
        half_width = (result.ci_high - result.ci_low) / 2
        assert half_width <= 0.05

    def test_unreachable_target_consumes_the_budget(self, pools):
        sharded = pools[2]
        sharded.shard_shots = 64
        result = sharded.run(256, 3, target_precision=1e-6)
        assert result.shots_used == 256
        assert not result.stopped_early
        assert result.target_met is False

    def test_no_target_reports_interval_but_never_stops(self, pools):
        sharded = pools[1]
        sharded.shard_shots = 64
        result = sharded.run(256, 3)
        assert result.shots_used == 256
        assert result.target_met is None
        assert not result.stopped_early
        assert 0.0 <= result.ci_low <= result.ci_high <= 1.0

    def test_prior_tally_tightens_the_stop(self, phen_model):
        """A refine run carrying a pilot tally stops sooner than a cold
        run with the same target — and an already-met tally contributes
        zero shards."""
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=1, shard_shots=48) as sharded:
            cold = sharded.run(3000, 9, target_precision=0.03)
            warm = sharded.run(3000, 10, target_precision=0.03,
                               prior_tally=(cold.failures, cold.shots_used))
            assert warm.shots_used < cold.shots_used
            met = sharded.run(3000, 11, target_precision=0.3,
                              prior_tally=(cold.failures, cold.shots_used))
            assert met.shots_used == 0
            assert met.num_shards == 0
            assert met.stopped_early
            assert met.target_met
            # The reported interval bounds the combined tally — which
            # the result surfaces explicitly — not the (empty) run.
            assert met.prior_shots == cold.shots_used
            assert met.tally_shots == cold.shots_used
            assert met.tally_error_rate == cold.logical_error_rate
            assert met.ci_low <= met.tally_error_rate <= met.ci_high

    def test_invalid_prior_tally_rejected(self, phen_model):
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=1) as sharded:
            with pytest.raises(ValueError, match="prior_tally"):
                sharded.run(10, 0, prior_tally=(5, 2))


class TestStoppingPrefixPurity:
    """No shard beyond the stopping prefix contributes to the tally."""

    def test_in_process_runs_exactly_the_prefix(self, phen_model,
                                                monkeypatch):
        ran = []
        real = _PipelineState.run_shard

        def recording(self, priors, circuit, seed, shots, collect_errors):
            ran.append(shots)
            return real(self, priors, circuit, seed, shots, collect_errors)

        monkeypatch.setattr(_PipelineState, "run_shard", recording)
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=1, shard_shots=48) as sharded:
            result = sharded.run(3000, 7, target_precision=0.04)
        # The parent executed exactly the contributing prefix, nothing
        # beyond it, and the tally is built from those shards alone.
        assert len(ran) == result.num_shards
        assert sum(ran) == result.shots_used
        assert result.stopped_early
        assert sharded.last_run_stats["shards_run"] == result.num_shards

    def test_streamed_fold_matches_in_process_prefix(self, phen_model):
        """Workers may *run* shards beyond the prefix (in-flight when
        the stop hits) but fold exactly the in-process prefix."""
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=1, shard_shots=48) as local:
            reference = local.run(3000, 7, target_precision=0.04,
                                  collect_errors=True)
        with ShardedExperiment(handle, workers=4, shard_shots=48) as sharded:
            streamed = sharded.run(3000, 7, target_precision=0.04,
                                   collect_errors=True)
            stats = sharded.last_run_stats
        assert streamed.shots_used == reference.shots_used
        assert streamed.failures == reference.failures
        assert np.array_equal(streamed.errors, reference.errors)
        assert stats["shards_folded"] == reference.num_shards
        # Early stop never materializes the whole budget.
        assert stats["tasks_submitted"] < stats["num_shards"]


class TestWorkerCircuitCache:
    def _circuit_setup(self):
        code = surface_code(3)
        noise = HardwareNoiseModel.from_physical_error_rate(
            2e-3, round_latency_us=0.0
        )
        circuit = memory_experiment_circuit(code, noise, rounds=2)
        from repro.sim import detector_error_model
        dem = detector_error_model(circuit)
        handle = ExperimentHandle(
            dem.check_matrix, dem.observable_matrix, dem.priors,
            method="circuit", max_iterations=12,
        )
        return circuit, handle

    def test_circuit_ships_once_per_worker_not_per_shard(self):
        """Payload accounting plus the pickle-bytes instrumentation:
        the per-task pickle cost must collapse once the workers hold
        the circuit."""
        circuit, handle = self._circuit_setup()
        with ShardedExperiment(handle, workers=2, shard_shots=16) as sharded:
            executor = sharded._ensure_pool().executor
            task_bytes = []
            real_submit = executor.submit

            def recording_submit(fn, *args):
                task_bytes.append(len(pickle.dumps(args)))
                return real_submit(fn, *args)

            executor.submit = recording_submit
            result = sharded.run(480, 5, circuit=circuit)
            stats = dict(sharded.last_run_stats)
            executor.submit = real_submit
        assert result.shots_used == 480
        assert stats["num_shards"] == 30
        # The circuit rode along on (at most) one task per worker plus
        # any miss retries — never with every shard.
        payload_tasks = (stats["circuit_payload_tasks"]
                         + stats["circuit_cache_misses"])
        assert stats["circuit_payload_tasks"] >= 1
        assert payload_tasks < stats["tasks_submitted"] / 2
        # Pickle-bytes: keyed tasks are much smaller than payload tasks,
        # and the run as a whole ships far fewer bytes than the PR 3
        # behaviour (circuit with every task) would have.
        payload_size = max(task_bytes)
        keyed_size = min(task_bytes)
        assert keyed_size < payload_size / 3
        always_shipping_bytes = payload_size * len(task_bytes)
        assert sum(task_bytes) < 0.5 * always_shipping_bytes

    def test_cached_circuit_results_match_always_shipping(self):
        """Results are identical whether the circuit arrives by cache
        or by payload (workers=1 ships nothing at all)."""
        circuit, handle = self._circuit_setup()
        results = {}
        for workers in (1, 2, 4):
            with ShardedExperiment(handle, workers=workers,
                                   shard_shots=16) as sharded:
                results[workers] = sharded.run(480, 5, circuit=circuit,
                                               collect_errors=True)
        baseline = results[1]
        for workers, result in results.items():
            assert result.failures == baseline.failures, workers
            assert np.array_equal(result.errors, baseline.errors), workers

    def test_two_operating_points_get_distinct_keys(self):
        """A sweep's second point must not reuse the first point's
        cached circuit: fingerprints differ when noise rates differ."""
        from repro.parallel import circuit_fingerprint
        code = surface_code(3)
        circuits = [
            memory_experiment_circuit(
                code,
                HardwareNoiseModel.from_physical_error_rate(
                    p, round_latency_us=0.0),
                rounds=2,
            )
            for p in (1e-3, 2e-3)
        ]
        keys = {circuit_fingerprint(c) for c in circuits}
        assert len(keys) == 2
        # Same content -> same key (rebuilt object, no identity games).
        rebuilt = memory_experiment_circuit(
            code,
            HardwareNoiseModel.from_physical_error_rate(
                1e-3, round_latency_us=0.0),
            rounds=2,
        )
        assert circuit_fingerprint(rebuilt) in keys


class TestSweepPoolLifetime:
    """A mid-sweep failure must release the fused-pipeline worker pool."""

    def test_failing_point_releases_pool(self, monkeypatch):
        import repro.campaign.orchestrator as orchestrator_module

        created = []
        real_cls = orchestrator_module.MemoryExperiment

        class CapturingExperiment(real_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(orchestrator_module, "MemoryExperiment",
                            CapturingExperiment)

        real_run = MemoryExperiment.run
        calls = {"count": 0}

        def failing_run(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("injected mid-sweep failure")
            return real_run(self, *args, **kwargs)

        monkeypatch.setattr(MemoryExperiment, "run", failing_run)
        code = surface_code(3)
        with pytest.raises(RuntimeError, match="injected"):
            sensitivity_module.depth_speedup_ler(
                code, physical_error_rate=3e-3, speedups=(1.0, 2.0, 4.0),
                shots=96, rounds=2, workers=2,
            )
        assert len(created) == 1
        experiment = created[0]
        # The context manager released the pipeline (and its pool).
        assert experiment._pipeline is None

    def test_streamed_run_recovers_from_worker_error(self, phen_model):
        """A worker exception propagates, pending work is cancelled, and
        the same pool still services the next (valid) run."""
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=2, shard_shots=32) as sharded:
            bad_priors = np.full(3, 0.1)  # wrong length -> worker raises
            with pytest.raises(Exception):
                sharded.run(128, 0, priors=bad_priors)
            result = sharded.run(128, 0)
            assert result.shots_used == 128
        assert sharded.pool is None


class TestAdaptiveAllocation:
    def test_absolute_weights_favor_high_variance_points(self):
        allocations = allocate_shots(
            [(0, 200), (10, 200)], budget=1000, caps=[1000, 1000],
        )
        assert allocations[1] > allocations[0]

    def test_relative_weights_favor_low_rate_points(self):
        allocations = allocate_shots(
            [(2, 200), (40, 200)], budget=1000, caps=[1000, 1000],
            relative=True,
        )
        assert allocations[0] > allocations[1]

    def test_caps_and_empty_budget(self):
        assert allocate_shots([(1, 10)], budget=0, caps=[100]) == [0]
        assert allocate_shots([], budget=100, caps=[]) == []
        allocations = allocate_shots([(1, 10), (1, 10)], budget=1000,
                                     caps=[7, 1000])
        assert allocations[0] <= 7

    def test_allocation_is_deterministic(self):
        tallies = [(3, 128), (0, 128), (17, 128)]
        first = allocate_shots(tallies, 5000, [2000, 2000, 2000])
        second = allocate_shots(tallies, 5000, [2000, 2000, 2000])
        assert first == second


class TestAdaptiveSweep:
    def test_adaptive_sweep_concentrates_budget(self):
        """The noisy point gets the budget; quiet points stop early and
        every row reports its Wilson bounds."""
        code = surface_code(3)
        table = sweep_physical_error(
            code, round_latency_us=5040.0,
            physical_error_rates=[3e-3, 2e-2],
            shots=400, rounds=2, seed=3,
            target_precision=0.02, pilot_shots=64,
        )
        assert set(["shots_used", "ci_low", "ci_high",
                    "stopped_early"]) <= set(table.columns)
        quiet, noisy = table.rows
        assert quiet["shots_used"] < noisy["shots_used"]
        assert quiet["stopped_early"]
        for row in table.rows:
            assert 0.0 <= row["ci_low"] <= row["ci_high"] <= 1.0
            assert row["ci_low"] <= row["logical_error_rate"] <= row["ci_high"]
        # Global pool respected.
        assert sum(row["shots_used"] for row in table.rows) <= 800

    def test_adaptive_sweep_is_worker_count_invariant(self):
        """Pilot, allocation and refine are all prefix-deterministic, so
        the whole adaptive sweep matches across worker counts."""
        code = surface_code(3)
        rows = {}
        for workers in (1, 2):
            table = sweep_physical_error(
                code, round_latency_us=5040.0,
                physical_error_rates=[3e-3, 1e-2, 2e-2],
                shots=256, rounds=2, seed=3, workers=workers,
                shard_shots=32, target_precision=0.02, pilot_shots=64,
            )
            rows[workers] = table.rows
        assert rows[1] == rows[2]

    def test_fixed_budget_rows_unchanged_by_new_columns(self):
        code = surface_code(3)
        table = sweep_physical_error(
            code, round_latency_us=1000.0,
            physical_error_rates=[1e-3, 5e-3], shots=50, rounds=2,
        )
        for row in table.rows:
            assert row["shots_used"] == 50
            assert row["stopped_early"] is False

    def test_relative_target_spends_inversely_to_rate(self):
        """Relative targets route the budget to the low-rate point (the
        paper's threshold-scan regime)."""
        code = surface_code(3)
        table = sweep_physical_error(
            code, round_latency_us=5040.0,
            physical_error_rates=[8e-3, 3e-2],
            shots=1500, rounds=2, seed=5,
            target_precision=PrecisionTarget(half_width=0.5, relative=True),
            pilot_shots=128,
        )
        low_rate, high_rate = table.rows
        assert low_rate["logical_error_rate"] \
            < high_rate["logical_error_rate"]
        assert low_rate["shots_used"] > high_rate["shots_used"]
        assert high_rate["stopped_early"]
