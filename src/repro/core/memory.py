"""Hardware-aware memory experiments: latency in, logical error rate out.

This is the paper's Section V-B pipeline.  Given a code, a compiled
execution latency (from any codesign) and a physical error rate, the
experiment

1. builds the hardware-aware noise model (base circuit noise + the
   Pauli-twirled decoherence channel parameterised by the latency),
2. samples ``shots`` memory experiments of ``rounds`` rounds of
   syndrome extraction, and
3. decodes each shot with BP+OSD and counts logical failures.

Two simulation methods are available: the fast ``"phenomenological"``
space-time model (default — used for the larger HGP/BB codes exactly
because the paper's comparisons only need the latency-driven *relative*
behaviour) and the fully ``"circuit"``-level detector error model
(exact circuit noise, practical for small codes and used to validate
the fast path in the test suite).

Both methods run on the fused sample→decode pipeline
(:class:`~repro.parallel.pipeline.ShardedExperiment`): the shot budget
splits into shards, each shard samples its own noise from a
shard-indexed ``SeedSequence.spawn`` tree and decodes it locally —
in-process for ``workers=1``, across a worker pool otherwise — and the
pipeline folds them in shard-index order, so the results are
bit-identical for every worker count at a fixed ``shard_shots``.  An
experiment's worker count is fixed when it is built; its sweep caches
(the space-time structure or DEM skeleton, and the pipeline with its
pool) then serve every operating point it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.builder import memory_experiment_circuit
from repro.codes.css import CSSCode
from repro.core.phenomenological import (
    build_phenomenological_model,
    build_spacetime_structure,
)
from repro.core.stats import PrecisionTarget, as_precision_target
from repro.decoders.bposd import BACKENDS
from repro.linalg.native import simulation_backend
from repro.noise.hardware import HardwareNoiseModel
from repro.parallel.pipeline import (
    ExperimentHandle,
    SharedPool,
    ShardedExperiment,
    resolve_workers,
)
from repro.sim.dem import DemStructureCache

__all__ = ["MemoryExperiment", "MemoryResult", "effective_rounds",
           "logical_error_rate"]


def effective_rounds(code: CSSCode, rounds: int | None = None) -> int:
    """The syndrome-extraction round count a ``rounds=`` knob resolves to.

    ``None`` defaults to the code distance, capped at 8 to keep the
    Monte-Carlo loop tractable — the exact rule
    :class:`MemoryExperiment` applies, exposed so callers that derive
    per-round quantities from stored tallies (the campaign result
    store) agree with it without building an experiment.
    """
    if rounds is not None:
        return int(rounds)
    distance = code.distance or 3
    return max(1, min(distance, 8))


@dataclass
class MemoryResult:
    """Outcome of a (possibly early-stopped) memory experiment.

    ``shots`` counts the shots this run contributed to the estimate;
    with a ``target_precision`` the run may stop before the
    ``max_shots`` budget (``stopped_early``).  ``ci_low``/``ci_high``
    bound the per-shot failure probability at ``confidence``, evaluated
    on the same tally the stop rule saw — when a ``prior_tally``
    (echoed back as ``prior_failures``/``prior_shots``) was carried in,
    that is the *combined* prior+run tally, not this run's
    ``logical_error_rate`` alone.
    """

    code_name: str
    physical_error_rate: float
    round_latency_us: float
    rounds: int
    shots: int
    failures: int
    method: str
    basis: str
    metadata: dict = field(default_factory=dict)
    max_shots: int | None = None
    ci_low: float = 0.0
    ci_high: float = 1.0
    stopped_early: bool = False
    confidence: float = 0.95
    prior_failures: int = 0
    prior_shots: int = 0

    @property
    def shots_used(self) -> int:
        """Alias for ``shots``: the shots that actually contribute."""
        return self.shots

    @property
    def tally_error_rate(self) -> float:
        """The combined prior+run estimate ``ci_low``/``ci_high`` bound."""
        total = self.prior_shots + self.shots
        if total == 0:
            return 0.0
        return (self.prior_failures + self.failures) / total

    @property
    def logical_error_rate(self) -> float:
        """Logical failure probability per shot (``rounds`` rounds)."""
        return self.failures / self.shots if self.shots else 0.0

    @property
    def logical_error_rate_per_round(self) -> float:
        """Per-round failure probability, assuming independent rounds."""
        if self.shots == 0:
            return 0.0
        per_shot = self.logical_error_rate
        if per_shot >= 1.0:
            return 1.0
        return 1.0 - (1.0 - per_shot) ** (1.0 / self.rounds)

    @property
    def standard_error(self) -> float:
        """Binomial standard error of the per-shot estimate."""
        if self.shots == 0:
            return 0.0
        p = self.logical_error_rate
        return math.sqrt(max(p * (1 - p), 1.0 / self.shots ** 2) / self.shots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemoryResult({self.code_name}, p={self.physical_error_rate:g}, "
            f"latency={self.round_latency_us:g}us, "
            f"LER={self.logical_error_rate:.3g})"
        )


@dataclass
class MemoryExperiment:
    """Configurable memory-experiment runner.

    Parameters
    ----------
    code:
        The CSS code under test.
    rounds:
        Syndrome-extraction rounds per shot (default: the code distance,
        capped at 8 to keep the Monte-Carlo loop tractable).
    basis:
        ``"Z"`` (default) or ``"X"`` memory.
    method:
        ``"phenomenological"`` (default) or ``"circuit"``.
    max_bp_iterations, osd_order:
        Decoder knobs passed to :class:`~repro.decoders.bposd.BPOSDDecoder`.
    backend:
        ``"packed"`` (default) uses the bit-packed shot-parallel kernels
        throughout (simulator, DEM, decoder); ``"native"`` additionally
        routes the decoder's hot kernels through the compiled C tier
        (bit-identical to ``"packed"``, silently falling back to it on
        hosts without a C toolchain; sampling and DEM extraction stay on
        the packed kernels either way); ``"bool"`` selects the boolean
        reference implementations.
    workers:
        Worker-process count for the fused sample→decode pipeline
        (``1``: in-process; ``0``: one worker per core), fixed for the
        experiment's life.  With ``workers > 1`` each worker samples
        *and* decodes its own shards; results are bit-identical for
        every value at a fixed ``shard_shots``.
    shard_shots:
        Shots per pipeline shard (default:
        :data:`~repro.decoders.bposd.BLOCK_SHOTS`).  Part of the
        determinism key: each shard samples from its own seed-tree
        child, so runs are comparable at a fixed value.
    seed:
        Root seed.  Every call to :meth:`run` derives an independent
        child seed via ``numpy.random.SeedSequence.spawn`` (so sweep
        points are sampled with decorrelated noise realisations), and
        that child roots the run's per-shard seed tree.  A caller that
        needs order-independent sampling — the campaign orchestrator,
        whose resumable store must reproduce a point no matter which
        other points were skipped — passes an explicit ``seed=`` to
        :meth:`run` instead.
    pool:
        Optional :class:`~repro.parallel.pipeline.SharedPool` to run
        the pipeline on — one process pool shared across several
        experiments (a campaign's sweeps).  Overrides ``workers`` with
        the pool's worker count; the pool is owned by the caller and
        survives :meth:`close`.  The pool carries the fault-recovery
        settings (shard deadline, rebuild budget); without one,
        ``workers > 1`` builds a pool with ``SharedPool``'s defaults.
    """

    code: CSSCode
    rounds: int | None = None
    basis: str = "Z"
    method: str = "phenomenological"
    max_bp_iterations: int = 40
    osd_order: int = 0
    seed: int = 0
    backend: str = "packed"
    workers: int = 1
    shard_shots: int | None = None
    pool: SharedPool | None = None

    def __post_init__(self) -> None:
        if self.method not in ("phenomenological", "circuit"):
            raise ValueError("method must be 'phenomenological' or 'circuit'")
        if self.backend not in BACKENDS:
            raise ValueError("backend must be 'packed', 'bool' or 'native'")
        if self.pool is not None:
            self.workers = self.pool.workers
        else:
            self.workers = resolve_workers(self.workers)
        self.rounds = effective_rounds(self.code, self.rounds)
        self._seed_sequence = np.random.SeedSequence(self.seed)
        # Sweep caches: the space-time structure (phenomenological), the
        # DEM fault signatures (circuit) and the pipeline (decoder graph
        # + worker pool) depend only on (code, rounds, basis, decoder
        # knobs) — all fixed for this experiment — so operating-point
        # sweeps reuse them and merely refresh the per-point priors.
        self._structure = None
        self._pipeline = None
        self._dem_cache = None

    def _spawn_seed(self) -> np.random.SeedSequence:
        """Child seed for the next run (decorrelated across sweep points)."""
        return self._seed_sequence.spawn(1)[0]

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the worker pool, if one was created (idempotent)."""
        if self._pipeline is not None:
            self._pipeline.close()
            self._pipeline = None

    def __enter__(self) -> "MemoryExperiment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def run(self, physical_error_rate: float, round_latency_us: float,
            shots: int = 200,
            target_precision: "float | PrecisionTarget | None" = None,
            prior_tally: tuple[int, int] = (0, 0),
            seed: "int | np.random.SeedSequence | None" = None
            ) -> MemoryResult:
        """Estimate the logical error rate at one operating point.

        ``target_precision`` streams the run through a Wilson interval
        and stops — deterministically, on the shard-prefix tally — once
        the half-width (absolute float, or a
        :class:`~repro.core.stats.PrecisionTarget` for relative
        targets) is reached within the ``shots`` budget.  ``prior_tally``
        carries ``(failures, shots)`` from earlier runs of this operating
        point into the stop rule (the adaptive sweep's pilot pass).

        ``seed`` overrides the experiment's sequentially spawned
        per-run seed with an explicit root for this run's shard tree —
        callers that must sample a point identically regardless of how
        many runs preceded it (the campaign's resumable store) use
        this; when omitted the experiment spawns the next child of its
        own root seed exactly as before.
        """
        budget = int(shots)
        target = as_precision_target(target_precision)
        if seed is None:
            run_seed = self._spawn_seed()
        elif isinstance(seed, np.random.SeedSequence):
            run_seed = seed
        else:
            run_seed = np.random.SeedSequence(int(seed))
        noise = HardwareNoiseModel.from_physical_error_rate(
            physical_error_rate, round_latency_us=round_latency_us
        )
        if self.method == "phenomenological":
            outcome, extra = self._run_phenomenological(
                noise, budget, target, prior_tally, run_seed)
        else:
            outcome, extra = self._run_circuit(
                noise, budget, target, prior_tally, run_seed)
        if target is not None:
            extra["target_met"] = outcome.target_met
        return MemoryResult(
            code_name=self.code.name,
            physical_error_rate=physical_error_rate,
            round_latency_us=round_latency_us,
            rounds=self.rounds,
            shots=outcome.shots,
            failures=outcome.failures,
            method=self.method,
            basis=self.basis,
            metadata=extra,
            max_shots=budget,
            ci_low=outcome.ci_low,
            ci_high=outcome.ci_high,
            stopped_early=outcome.stopped_early,
            confidence=outcome.confidence,
            prior_failures=outcome.prior_failures,
            prior_shots=outcome.prior_shots,
        )

    # ------------------------------------------------------------------
    def _pipeline_for(self, check_matrix: np.ndarray,
                      observable_matrix: np.ndarray,
                      priors: np.ndarray) -> ShardedExperiment:
        """The cached fused sample→decode pipeline for this experiment.

        Pipeline structure is cached by check-matrix *identity*: both
        sweep caches hand back the same matrix object across operating
        points, so points only refresh the priors (shipped per shard)
        and the worker pool persists across the sweep.
        """
        if (self._pipeline is None
                or self._pipeline.handle.check_matrix is not check_matrix):
            self.close()
            handle = ExperimentHandle(
                check_matrix, observable_matrix, priors, method=self.method,
                backend=self.backend, max_iterations=self.max_bp_iterations,
                osd_order=self.osd_order,
            )
            self._pipeline = ShardedExperiment(
                handle, workers=self.workers, shard_shots=self.shard_shots,
                pool=self.pool,
            )
        return self._pipeline

    def _run_phenomenological(self, noise: HardwareNoiseModel, shots: int,
                              target: PrecisionTarget | None,
                              prior_tally: tuple[int, int],
                              run_seed: np.random.SeedSequence) -> tuple:
        if self._structure is None:
            self._structure = build_spacetime_structure(
                self.code, rounds=self.rounds, basis=self.basis
            )
        model = build_phenomenological_model(
            self.code, noise, rounds=self.rounds, basis=self.basis,
            structure=self._structure,
        )
        pipeline = self._pipeline_for(
            model.check_matrix, model.observable_matrix, model.priors,
        )
        outcome = pipeline.run(shots, run_seed,
                               priors=model.priors,
                               target_precision=target,
                               prior_tally=prior_tally)
        return outcome, {
            "data_error_rate": model.data_error_rate,
            "measurement_error_rate": model.measurement_error_rate,
            "idle_error": noise.total_idle_error,
            "bp_converged_fraction": outcome.bp_converged_fraction,
            "num_shards": outcome.num_shards,
        }

    def _run_circuit(self, noise: HardwareNoiseModel, shots: int,
                     target: PrecisionTarget | None,
                     prior_tally: tuple[int, int],
                     run_seed: np.random.SeedSequence) -> tuple:
        circuit = memory_experiment_circuit(
            self.code, noise, rounds=self.rounds, basis=self.basis,
        )
        # The DEM fault signatures depend on where the circuit's faults
        # live, not on their rates; across sweep points only the priors
        # are recomputed (see DemStructureCache) and only the circuit —
        # whose noise arguments the point changed — is re-shipped to the
        # workers, never the DEM structure.
        if self._dem_cache is None:
            self._dem_cache = DemStructureCache(
                backend=simulation_backend(self.backend))
        dem = self._dem_cache.model_for(circuit)
        pipeline = self._pipeline_for(
            dem.check_matrix, dem.observable_matrix, dem.priors
        )
        outcome = pipeline.run(shots, run_seed, priors=dem.priors,
                               circuit=circuit, target_precision=target,
                               prior_tally=prior_tally)
        return outcome, {
            "num_detectors": dem.num_detectors,
            "num_mechanisms": dem.num_mechanisms,
            "idle_error": noise.total_idle_error,
            "bp_converged_fraction": outcome.bp_converged_fraction,
            "num_shards": outcome.num_shards,
        }


def logical_error_rate(code: CSSCode, physical_error_rate: float,
                       round_latency_us: float, shots: int = 200,
                       rounds: int | None = None, basis: str = "Z",
                       method: str = "phenomenological",
                       seed: int = 0, backend: str = "packed",
                       workers: int = 1,
                       shard_shots: int | None = None,
                       target_precision: "float | PrecisionTarget | None"
                       = None) -> MemoryResult:
    """One-call convenience wrapper around :class:`MemoryExperiment`.

    ``target_precision`` streams the run to a Wilson-interval half-width
    and stops early within ``shots`` (deterministically — see
    :mod:`repro.parallel.pipeline`).
    """
    with MemoryExperiment(
        code=code, rounds=rounds, basis=basis, method=method, seed=seed,
        backend=backend, workers=workers, shard_shots=shard_shots,
    ) as experiment:
        return experiment.run(physical_error_rate, round_latency_us,
                              shots=shots, target_precision=target_precision)
