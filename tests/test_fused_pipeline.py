"""Determinism suite for the fused sample→decode pipeline.

The contract under test (see ``repro.parallel.pipeline``): every shard
samples its own shots from a shard-indexed ``SeedSequence.spawn`` tree
and decodes them locally, so for a fixed ``(seed, shard_shots)`` the
results — failure counts, corrections, convergence flags — are
**bit-identical for any worker count** and equal to a shard-seeded
in-process run; and with ``workers > 1`` the parent process performs no
sampling at all.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.parallel.pipeline as pipeline_module
import repro.sim.frame as frame_module
from repro.circuits import memory_experiment_circuit
from repro.codes import code_by_name, surface_code
from repro.core.memory import MemoryExperiment
from repro.core.phenomenological import (
    build_phenomenological_model,
    sample_phenomenological_shard,
)
from repro.decoders.bposd import BPOSDDecoder
from repro.noise import HardwareNoiseModel
from repro.parallel import (
    ExperimentHandle,
    SharedPool,
    ShardedExperiment,
    shard_layout,
    shard_seed_tree,
)


@pytest.fixture(scope="module")
def bb72():
    return code_by_name("BB [[72,12,6]]")


@pytest.fixture(scope="module")
def phen_model(bb72):
    """A phenomenological model hot enough for a non-trivial OSD share."""
    noise = HardwareNoiseModel.from_physical_error_rate(
        3e-3, round_latency_us=100_000.0
    )
    return build_phenomenological_model(bb72, noise, rounds=2)


def _phen_handle(model, **decoder_kwargs) -> ExperimentHandle:
    return ExperimentHandle(
        model.check_matrix, model.observable_matrix, model.priors,
        method="phenomenological", max_iterations=12, **decoder_kwargs,
    )


class TestShardLayout:
    def test_even_split(self):
        assert shard_layout(256, 64) == [64, 64, 64, 64]

    def test_ragged_tail(self):
        assert shard_layout(150, 64) == [64, 64, 22]

    def test_zero_shots(self):
        assert shard_layout(0, 64) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            shard_layout(-1, 64)
        with pytest.raises(ValueError):
            shard_layout(10, 0)


class TestShardSeedTree:
    @given(st.integers(0, 2 ** 31), st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_tree_is_reproducible_and_children_independent(self, seed, n):
        a = shard_seed_tree(seed, n)
        b = shard_seed_tree(seed, n)
        assert len(a) == len(b) == n
        states = set()
        for child_a, child_b in zip(a, b):
            state = tuple(child_a.generate_state(4))
            assert state == tuple(child_b.generate_state(4))
            states.add(state)
        assert len(states) == n  # pairwise distinct streams

    @given(st.integers(0, 2 ** 31), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_stream_depends_only_on_shard_index(self, seed, n_small, extra):
        """Child ``i`` is the same whatever the total shard count — the
        stream is keyed on the shard index, never on the shot budget's
        tail or on how many shards (workers) run beside it."""
        small = shard_seed_tree(seed, n_small)
        large = shard_seed_tree(seed, n_small + extra)
        for child_small, child_large in zip(small, large):
            assert np.array_equal(child_small.generate_state(4),
                                  child_large.generate_state(4))

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=25, deadline=None)
    def test_tree_ignores_caller_spawn_history(self, seed):
        """The tree rebuilds from the root's value, so a ``SeedSequence``
        that has already spawned elsewhere yields the same children."""
        fresh = np.random.SeedSequence(seed)
        used = np.random.SeedSequence(seed)
        used.spawn(3)  # unrelated spawning must not shift the tree
        a = shard_seed_tree(fresh, 4)
        b = shard_seed_tree(used, 4)
        for child_a, child_b in zip(a, b):
            assert np.array_equal(child_a.generate_state(4),
                                  child_b.generate_state(4))

    def test_sampled_stream_matches_model_sample(self, phen_model):
        """Shard ``i``'s phenomenological sample is exactly
        ``model.sample`` seeded with the tree's child ``i``."""
        sizes = shard_layout(150, 64)
        seeds = shard_seed_tree(123, len(sizes))
        for size, seed in zip(sizes, seeds):
            reference = phen_model.sample(size, seed=np.random.SeedSequence(
                entropy=seed.entropy, spawn_key=seed.spawn_key))
            shard = sample_phenomenological_shard(
                phen_model.check_matrix, phen_model.observable_matrix,
                phen_model.priors, size, seed,
            )
            assert np.array_equal(reference[0], shard[0])
            assert np.array_equal(reference[1], shard[1])


class TestFusedDeterminism:
    def _run(self, handle, workers, shots=220, shard_shots=48, seed=7,
             **run_kwargs):
        with ShardedExperiment(handle, workers=workers,
                               shard_shots=shard_shots) as sharded:
            return sharded.run(shots, seed, collect_errors=True,
                               **run_kwargs)

    def test_bit_identical_across_worker_counts(self, phen_model):
        handle = _phen_handle(phen_model)
        results = {w: self._run(handle, w) for w in (1, 2, 4)}
        baseline = results[1]
        assert baseline.failures > 0  # non-trivial operating point
        for workers, result in results.items():
            assert result.failures == baseline.failures, workers
            assert np.array_equal(result.bp_converged,
                                  baseline.bp_converged), workers
            assert np.array_equal(result.errors, baseline.errors), workers

    def test_equals_shard_seeded_in_process_run(self, phen_model):
        """The pipeline result is exactly what sampling each shard with
        its tree child and decoding in-process produces."""
        handle = _phen_handle(phen_model)
        shots, shard_shots, seed = 220, 48, 7
        sizes = shard_layout(shots, shard_shots)
        seeds = shard_seed_tree(seed, len(sizes))
        decoder = BPOSDDecoder(handle.check_matrix, handle.priors,
                               max_iterations=handle.max_iterations)
        failures = 0
        errors_parts = []
        for size, shard_seed in zip(sizes, seeds):
            syndromes, observables = phen_model.sample(size, seed=shard_seed)
            decoded = decoder.decode_batch(syndromes)
            predicted = (decoded.errors
                         @ phen_model.observable_matrix.T) % 2
            failures += int(np.any(
                predicted.astype(bool) != observables.astype(bool), axis=1
            ).sum())
            errors_parts.append(decoded.errors)
        result = self._run(handle, workers=2, shots=shots,
                           shard_shots=shard_shots, seed=seed)
        assert result.failures == failures
        assert np.array_equal(result.errors, np.concatenate(errors_parts))

    def test_circuit_method_bit_identical_across_workers(self):
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
        results = {
            w: self._run(handle, w, shots=130, shard_shots=32, seed=5,
                         circuit=circuit)
            for w in (1, 2, 4)
        }
        baseline = results[1]
        for workers, result in results.items():
            assert result.failures == baseline.failures, workers
            assert np.array_equal(result.errors, baseline.errors), workers

    def test_priors_update_reaches_workers(self, phen_model):
        """A sweep's re-prior must take effect inside a warm pool."""
        handle = _phen_handle(phen_model)
        hot_priors = np.clip(phen_model.priors * 2.0, 0.0, 0.4)
        hot_handle = dataclasses.replace(handle, priors=hot_priors)
        fresh = self._run(hot_handle, workers=2)
        with ShardedExperiment(handle, workers=2,
                               shard_shots=48) as sharded:
            sharded.run(220, 7)  # warm the pool at the original priors
            repriored = sharded.run(220, 7, priors=hot_priors,
                                    collect_errors=True)
        assert repriored.failures == fresh.failures
        assert np.array_equal(repriored.errors, fresh.errors)

    def test_shots_zero(self, phen_model):
        handle = _phen_handle(phen_model)
        result = self._run(handle, workers=2, shots=0)
        assert result.failures == 0
        assert result.num_shards == 0
        assert result.bp_converged.shape == (0,)
        assert result.errors.shape[0] == 0
        assert result.logical_error_rate == 0.0
        assert result.bp_converged_fraction == 1.0

    def test_invalid_method_rejected(self, phen_model):
        with pytest.raises(ValueError):
            ExperimentHandle(
                phen_model.check_matrix, phen_model.observable_matrix,
                phen_model.priors, method="analytic",
            )

    def test_circuit_method_requires_circuit(self, phen_model):
        handle = ExperimentHandle(
            phen_model.check_matrix, phen_model.observable_matrix,
            phen_model.priors, method="circuit",
        )
        with ShardedExperiment(handle, workers=1) as sharded:
            with pytest.raises(ValueError, match="circuit"):
                sharded.run(10, 0)


class TestParentDoesNotSample:
    """With ``workers > 1`` sampling must run in the workers.

    The instrumentation wraps the samplers with recorders that delegate
    to the real implementation.  Worker processes inherit the wrapper on
    fork, but their recorded calls live in *their* address space — the
    parent-side lists below only see parent-side sampling.
    """

    def _recorder(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def recording(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    def test_phenomenological_sampling_runs_in_workers(self, phen_model,
                                                       monkeypatch):
        calls = self._recorder(monkeypatch, pipeline_module,
                               "sample_phenomenological_shard")
        handle = _phen_handle(phen_model)
        with ShardedExperiment(handle, workers=2, shard_shots=48) as sharded:
            result = sharded.run(220, 7)
        assert result.shots == 220
        assert calls == []  # the parent sampled nothing
        # Instrumentation sanity: the in-process reference does sample.
        with ShardedExperiment(handle, workers=1, shard_shots=48) as local:
            local.run(96, 7)
        assert len(calls) == 2

    def test_circuit_sampling_runs_in_workers(self, monkeypatch):
        """Instrumented ``FrameSimulator``: the parent never simulates."""
        calls = self._recorder(monkeypatch, frame_module.FrameSimulator,
                               "sample")
        code = surface_code(3)
        with MemoryExperiment(code=code, rounds=2, method="circuit",
                              seed=3, shard_shots=32,
                              workers=2) as experiment:
            result = experiment.run(2e-3, 0.0, shots=130)
        assert result.shots == 130
        assert calls == []
        with MemoryExperiment(code=code, rounds=2, method="circuit",
                              seed=3, shard_shots=32,
                              workers=1) as experiment:
            experiment.run(2e-3, 0.0, shots=130)
        assert len(calls) > 0


class TestMemoryExperimentFusedPipeline:
    def test_phenomenological_memory_results_identical(self, bb72):
        results = {}
        for workers in (1, 2, 4):
            with MemoryExperiment(code=bb72, rounds=2, seed=11,
                                  shard_shots=64,
                                  workers=workers) as experiment:
                results[workers] = experiment.run(3e-3, 100_000.0,
                                                  shots=240)
        baseline = results[1]
        assert baseline.failures > 0
        for workers, result in results.items():
            assert result.failures == baseline.failures, workers
            assert result.metadata == baseline.metadata, workers

    def test_num_shards_reported_and_worker_independent(self, bb72):
        with MemoryExperiment(code=bb72, rounds=2, seed=11,
                              shard_shots=64, workers=2) as experiment:
            result = experiment.run(3e-3, 100_000.0, shots=240)
        assert result.metadata["num_shards"] == 4

    def test_shard_shots_is_part_of_the_determinism_key(self, bb72):
        """Different shard sizes re-key the seed tree — document that
        comparisons require a fixed ``shard_shots``."""
        def run(shard_shots):
            with MemoryExperiment(code=bb72, rounds=2, seed=11,
                                  shard_shots=shard_shots) as experiment:
                return experiment.run(3e-3, 100_000.0, shots=240)
        a, b = run(64), run(32)
        # Both are valid Monte-Carlo estimates of the same point...
        assert a.shots == b.shots
        # ...but the realisations differ (with overwhelming probability).
        assert a.metadata["num_shards"] != b.metadata["num_shards"]


class TestSharedPoolLifecycle:
    """Close/``__del__`` idempotency and survival of worker exceptions
    when one pool is shared across sweeps."""

    def test_close_is_idempotent(self):
        pool = SharedPool(2)
        assert pool.workers == 2
        pool.close()
        pool.close()  # second close must be a no-op
        with pytest.raises(RuntimeError):
            _ = pool.executor

    def test_del_after_close_is_silent(self):
        pool = SharedPool(2)
        pool.close()
        pool.__del__()  # GC backstop after an explicit close

    def test_context_manager_closes(self):
        with SharedPool(2) as pool:
            assert pool.executor is not None
        with pytest.raises(RuntimeError):
            _ = pool.executor

    def test_pool_survives_worker_exception_across_sweeps(self, phen_model):
        """A worker exception (bad priors shape) must propagate to the
        caller without poisoning the shared pool: the next sweep on the
        same pool runs and stays bit-identical to a fresh-pool run."""
        handle = _phen_handle(phen_model)
        reference = None
        with ShardedExperiment(handle, workers=2,
                               shard_shots=48) as fresh:
            reference = fresh.run(220, 7, collect_errors=True)
        with SharedPool(2) as pool:
            first = ShardedExperiment(handle, pool=pool, shard_shots=48)
            with pytest.raises(Exception):
                first.run(220, 7, priors=np.ones(3) * 0.1)  # wrong shape
            second = ShardedExperiment(handle, pool=pool, shard_shots=48)
            result = second.run(220, 7, collect_errors=True)
            assert not pool.failed
        assert result.failures == reference.failures
        assert np.array_equal(result.errors, reference.errors)
