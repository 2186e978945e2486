"""Fused sample→decode pipeline, sharded and *streamed* across workers.

PR 2 sharded the *decode* stage: the parent sampled every shot, then
pickled syndrome slices out to a process pool.  At 100k–1M shot budgets
that leaves the Pauli-frame sampler and the syndrome transfer as the
serial wall-clock floor.  This module moves the whole per-shard pipeline
into the worker: each shard **samples its own shots and decodes them
locally**, so syndromes never cross a process boundary and the sampling
of one shard overlaps the decoding of another.

PR 4 turns the executor from submit-all/gather-all into a **streaming
engine**: shard results are consumed as they complete, folded into a
running ``(failures, shots)`` tally, and fed through a Wilson
confidence interval (:mod:`repro.core.stats`); once the interval's
half-width reaches a caller-supplied ``target_precision`` the run stops
— outstanding shards are cancelled and unsubmitted work is never
materialized.  Low-noise operating points that would have burned their
whole fixed budget now spend only the shots their confidence width
actually needs.

Determinism contract
--------------------
Results must be **bit-identical for any** ``workers=`` — parallelism is
a wall-clock knob, never a statistics knob.  The sampled stream is
therefore keyed on ``(seed, shard_shots, shard_index)``, not on which
process runs a shard:

* ``shard_layout(shots, shard_shots)`` splits the shot budget into
  deterministic shard sizes (all ``shard_shots`` except a ragged tail);
* ``shard_seed_tree(seed, num_shards)`` derives one independent child
  ``SeedSequence`` per shard via ``SeedSequence.spawn`` — child ``i``
  depends only on the root entropy and the shard index ``i``;
* shard ``i`` samples its shots from child ``i`` and decodes them with
  the shared decoder recipe; results are merged by shard index, never
  by completion order.

Early stopping preserves the contract because the stop decision is
evaluated on the shard-**index prefix order** only: the tally grows by
folding shard 0, then shard 1, … in submission order — a shard that
completes out of order waits in a buffer until every lower-indexed
shard has been folded — and the rule (:class:`~repro.core.stats.PrecisionTarget`,
a pure function of the folded tally) is checked after each fold.  The
stopping prefix, and therefore the contributing shard set, the LER,
the corrections and the convergence flags, is identical for every
worker count; workers only change how much already-submitted work
beyond the prefix gets thrown away.  ``workers=1`` runs the identical
per-shard code path in the parent and is the cross-checked reference
(`tests/test_fused_pipeline.py`, `tests/test_streaming.py`).

Design
------
* :class:`ExperimentHandle` is a picklable recipe for the whole
  pipeline: the decoder recipe (:class:`~repro.parallel.sharded.DecoderHandle`
  — check matrix, priors, BP/OSD knobs, backend), the observable
  matrix, and the sampling method (``"phenomenological"`` samples
  mechanism errors against the check matrix; ``"circuit"`` frame-
  simulates a circuit shipped per operating point).
* Every multi-worker run streams through a :class:`SharedPool`: the
  caller's (a campaign's sweeps over different codes share **one**
  process pool), or one the :class:`ShardedExperiment` builds on its
  first multi-shard run, owns and closes.  Submission is bounded (a
  small in-flight window per worker), so an early stop leaves the tail
  of the budget unmaterialized instead of queued.
* One worker task, :func:`_run_shard`, and one payload-cache
  protocol.  Workers keep small LRUs keyed on content fingerprints:
  pipeline states by :func:`handle_fingerprint` (check/observable
  matrices and decoder knobs, not the priors) and, for the circuit
  method, circuits by :func:`circuit_fingerprint` (the same
  structural-key idea as ``DemStructureCache``'s fault skeleton, plus
  the noise rates).  The parent ships the handle — and the operating
  point's circuit — with only the first ``workers`` tasks of a run;
  later tasks carry the keys alone plus the per-point priors and the
  per-shard seed.  A worker that misses (it never saw a payload task)
  raises a retry sentinel so the parent resubmits that one shard with
  the payloads attached.  Per run, payloads cross the process boundary
  O(workers) times instead of O(shards) times
  (``ShardedExperiment.last_run_stats`` records the counts).
* The sweep caches stay in the parent: ``MemoryExperiment`` reuses its
  ``DemStructureCache`` / space-time structure across points and hands
  the pipeline the *same* check-matrix object each time, so the handle
  (and the workers' decoder structure) is built exactly once per sweep.
  Shard seeds, sizes and fold order never depend on the pool, so
  pooled runs stay bit-identical to in-process runs.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.phenomenological import sample_phenomenological_shard
from repro.core.stats import PrecisionTarget, as_precision_target, binomial_interval
from repro.linalg.bitops import pack_bits, packed_matmul
from repro.linalg.native import simulation_backend
from repro.parallel.faults import active_plan, apply_task_fault
from repro.parallel.sharded import DecoderHandle, resolve_workers
from repro.sim.frame import sample_circuit_shard

__all__ = [
    "ExperimentHandle",
    "PoolUnavailable",
    "SharedPool",
    "ShardedExperiment",
    "PipelineResult",
    "circuit_fingerprint",
    "handle_fingerprint",
    "shard_layout",
    "shard_seed_tree",
]


class PoolUnavailable(RuntimeError):
    """The worker pool died and could not be rebuilt within its retry
    budget.  The pipeline recovers by draining the remaining shards
    in-process (bit-identically — each shard is a pure function of its
    seed), so callers only see this if they ask the pool directly."""


def shard_layout(shots: int, shard_shots: int) -> list[int]:
    """Deterministic shard sizes for a shot budget.

    Every shard holds ``shard_shots`` shots except a possible ragged
    tail.  The layout depends only on ``(shots, shard_shots)`` — never
    on the worker count — which is what makes the per-shard seed tree
    (and therefore every sampled bit) worker-count independent.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shard_shots < 1:
        raise ValueError("shard_shots must be positive")
    sizes = [shard_shots] * (shots // shard_shots)
    if shots % shard_shots:
        sizes.append(shots % shard_shots)
    return sizes


def shard_seed_tree(seed, num_shards: int) -> list[np.random.SeedSequence]:
    """One independent child ``SeedSequence`` per shard.

    ``seed`` may be an int or a ``SeedSequence``; either way the tree is
    rebuilt from the root's ``(entropy, spawn_key)`` value, so the
    children depend only on the seed *value* and the shard index — not
    on how many times the caller's sequence object has spawned before,
    and not on which worker later consumes a child.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = np.random.SeedSequence(entropy=seed.entropy,
                                      spawn_key=seed.spawn_key)
    else:
        root = np.random.SeedSequence(seed)
    return root.spawn(num_shards) if num_shards else []


def circuit_fingerprint(circuit: Circuit) -> str:
    """Content key for the worker-side circuit cache.

    Digests every instruction (name, targets, noise arguments) plus the
    detector/observable counts — the same information as the DEM fault
    skeleton *and* the per-point noise rates, so two operating points
    of one sweep get distinct keys while re-runs of the same circuit
    hit the cache.  A stable digest (not ``hash()``) so parent and
    workers agree across processes.
    """
    hasher = hashlib.sha1()
    hasher.update(
        f"{circuit.num_detectors}|{circuit.num_observables}".encode()
    )
    for ins in circuit.instructions:
        hasher.update(
            repr((ins.name, ins.targets, ins.argument, ins.arguments)).encode()
        )
    return hasher.hexdigest()


def handle_fingerprint(handle: "ExperimentHandle") -> str:
    """Content key for the shared-pool worker-side state cache.

    Digests the pipeline *structure* — check/observable matrices,
    decoder knobs, backend and sampling method — but not the priors,
    which every shard task re-ships anyway (sweep points share one
    structure and differ only in priors).  Stable across processes
    (sha1 of the bytes, not ``hash()``), so parent and workers agree
    on which cached state a task addresses.
    """
    decoder = handle.decoder
    hasher = hashlib.sha1()
    hasher.update(repr((
        handle.method, decoder.backend, decoder.max_iterations,
        decoder.osd_order, decoder.scaling_factor, decoder.block_shots,
        decoder.factor_cache_size, decoder.check_matrix.shape,
        handle.observable_matrix.shape,
    )).encode())
    hasher.update(np.ascontiguousarray(decoder.check_matrix).tobytes())
    hasher.update(np.ascontiguousarray(handle.observable_matrix).tobytes())
    return hasher.hexdigest()


@dataclass
class PipelineResult:
    """Merged outcome of a (possibly early-stopped) sample→decode run.

    ``shots``/``failures``/``bp_converged``/``errors`` cover exactly
    the **contributing prefix** of shards — the folded shards 0..k of
    the stopping decision, identical for every worker count.
    ``shots_requested`` is the full budget the caller asked for;
    ``stopped_early`` says whether part of it was left unspent.

    A ``prior_tally`` carried into the run is echoed back as
    ``prior_failures``/``prior_shots``; the stop rule — and the
    reported ``ci_low``/``ci_high`` at ``confidence`` — are evaluated
    on the **combined** tally (``tally_failures``/``tally_shots``), so
    the interval always matches :attr:`tally_error_rate` (not
    :attr:`logical_error_rate`, which is this run's contribution
    alone).  ``target_met`` is ``None`` when no ``target_precision``
    was given.
    """

    shots: int
    failures: int
    bp_converged: np.ndarray
    num_shards: int
    errors: np.ndarray | None = None
    shots_requested: int | None = None
    stopped_early: bool = False
    target_met: bool | None = None
    ci_low: float = 0.0
    ci_high: float = 1.0
    confidence: float = 0.95
    prior_failures: int = 0
    prior_shots: int = 0

    def __post_init__(self) -> None:
        if self.shots_requested is None:
            self.shots_requested = self.shots

    @property
    def shots_used(self) -> int:
        """Alias for ``shots``: the shots that actually contribute."""
        return self.shots

    @property
    def tally_failures(self) -> int:
        """Failures of the stop-rule tally: prior + this run."""
        return self.prior_failures + self.failures

    @property
    def tally_shots(self) -> int:
        """Shots of the stop-rule tally: prior + this run."""
        return self.prior_shots + self.shots

    @property
    def tally_error_rate(self) -> float:
        """The estimate ``ci_low``/``ci_high`` actually bound."""
        if self.tally_shots == 0:
            return 0.0
        return self.tally_failures / self.tally_shots

    @property
    def logical_error_rate(self) -> float:
        return self.failures / self.shots if self.shots else 0.0

    @property
    def bp_converged_fraction(self) -> float:
        if self.bp_converged.size == 0:
            return 1.0
        return float(self.bp_converged.mean())


@dataclass(frozen=True)
class ExperimentHandle:
    """Picklable recipe for the fused sample→decode pipeline.

    ``decoder`` carries the check matrix, priors and decoder knobs (and
    the backend, which the sampling stage shares); ``observable_matrix``
    maps corrections and true errors to logical observables; ``method``
    selects the sampler: ``"phenomenological"`` draws mechanism errors
    against the check matrix, ``"circuit"`` frame-simulates the circuit
    shipped with each run.
    """

    decoder: DecoderHandle
    observable_matrix: np.ndarray
    method: str = "phenomenological"

    def __post_init__(self) -> None:
        if self.method not in ("phenomenological", "circuit"):
            raise ValueError("method must be 'phenomenological' or 'circuit'")

    @property
    def backend(self) -> str:
        return self.decoder.backend

    def build_state(self) -> "_PipelineState":
        """Construct the per-process sampling + decoding state."""
        return _PipelineState(self)


class _PipelineState:
    """Per-process state: the decoder plus packed projection matrices.

    Built once per process (lazily, on the first shard) and re-priored
    — never rebuilt — on subsequent shards and sweep points, exactly
    like PR 2's worker-side decoder cache.
    """

    def __init__(self, handle: ExperimentHandle) -> None:
        self.handle = handle
        self.decoder = handle.decoder.build()
        # ``"native"`` shares the packed sampling/projection path: the
        # native tier accelerates decoder kernels only, so both fast
        # backends sample identical bits (see linalg.native).
        self.sim_backend = simulation_backend(handle.backend)
        if self.sim_backend == "packed":
            self.packed_check = pack_bits(self.decoder.check_matrix, axis=1)
            self.packed_observable = pack_bits(handle.observable_matrix,
                                               axis=1)
        else:
            self.packed_check = None
            self.packed_observable = None

    # ------------------------------------------------------------------
    def predict_observables(self, errors: np.ndarray) -> np.ndarray:
        """``errors @ observable_matrix.T mod 2`` in the active backend."""
        if self.sim_backend == "packed":
            return packed_matmul(pack_bits(errors, axis=1),
                                 self.packed_observable)
        return (errors @ self.handle.observable_matrix.T) % 2

    def run_shard(self, priors: np.ndarray, circuit: Circuit | None,
                  seed: np.random.SeedSequence, shots: int,
                  collect_errors: bool
                  ) -> tuple[int, np.ndarray, np.ndarray | None]:
        """Sample and decode one shard; returns (failures, flags, errors).

        The single code path shared by the in-process reference and the
        pool workers — bit-identity across worker counts follows from
        everything here being a pure function of the arguments.
        """
        self.decoder.update_priors(priors)
        if self.handle.method == "phenomenological":
            syndromes, observables = sample_phenomenological_shard(
                self.decoder.check_matrix, self.handle.observable_matrix,
                priors, shots, seed, backend=self.sim_backend,
                packed_matrices=(self.packed_check, self.packed_observable)
                if self.sim_backend == "packed" else None,
            )
        else:
            if circuit is None:
                raise ValueError("the circuit method needs a circuit per run")
            sample = sample_circuit_shard(circuit, shots, seed,
                                          backend=self.sim_backend)
            syndromes, observables = sample.detectors, sample.observables
        decoded = self.decoder.decode_batch(syndromes)
        predicted = self.predict_observables(decoded.errors)
        failures = int(
            np.any(predicted.astype(bool) != observables.astype(bool),
                   axis=1).sum()
        )
        return (failures, decoded.bp_converged,
                decoded.errors if collect_errors else None)


class _CacheMiss(RuntimeError):
    """Raised by a worker whose cache lacks a task's key.

    ``args`` is ``(cache, key)``, ``cache`` being ``"handle"`` or
    ``"circuit"`` (plain-args exceptions pickle cleanly across the pool
    boundary).  The parent resubmits the shard with every payload
    attached; the retried shard runs the identical
    ``(priors, seed, shots)``, so the result is unchanged.
    """


#: How many pipeline states a worker retains.  A campaign typically
#: cycles through a handful of codes; states for evicted handles are
#: rebuilt on demand (cost: one decoder construction).
_STATE_CACHE_SIZE = 8

#: How many circuits a worker retains (sweeps revisit at most a couple
#: of operating points at a time; each circuit is a few KB).
_CIRCUIT_CACHE_SIZE = 4

# Per-process worker caches, filled by payload tasks: handle
# fingerprint -> built pipeline state (re-priored, never rebuilt, on
# later shards), and circuit fingerprint -> circuit (circuit method).
_STATE_CACHE: "OrderedDict[str, _PipelineState]" = OrderedDict()
_CIRCUIT_CACHE: "OrderedDict[str, Circuit]" = OrderedDict()


def _init_worker() -> None:
    _STATE_CACHE.clear()
    _CIRCUIT_CACHE.clear()


def _cached(cache: OrderedDict, capacity: int, name: str, key: str,
            payload, build=lambda payload: payload):
    """Resolve ``key`` in a worker LRU, filling it from ``payload``.

    A payload task stores ``build(payload)`` under its key; a key-only
    task resolves it from the cache or raises :class:`_CacheMiss` for
    the parent to retry with the payload attached.
    """
    value = cache.get(key)
    if value is None:
        if payload is None:
            raise _CacheMiss(name, key)
        value = build(payload)
        cache[key] = value
        while len(cache) > capacity:
            cache.popitem(last=False)
    cache.move_to_end(key)
    return value


def _run_shard(handle: ExperimentHandle | None, handle_key: str,
               priors: np.ndarray, circuit: Circuit | None,
               circuit_key: str | None,
               seed: np.random.SeedSequence, shots: int,
               collect_errors: bool, fault: tuple | None = None
               ) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Sample and decode one shard inside a pool worker.

    The pipeline state is addressed by ``handle_key`` and the circuit
    (circuit method only) by ``circuit_key``; ``handle``/``circuit``
    are the optional payloads that populate the caches (shipped with
    each run's first ``workers`` tasks).  ``fault`` is a parent-shipped
    injected fault (worker kill / delay — see
    :mod:`repro.parallel.faults`); ``None`` on every clean run.
    """
    apply_task_fault(fault)
    state = _cached(_STATE_CACHE, _STATE_CACHE_SIZE, "handle",
                    handle_key, handle,
                    build=lambda payload: payload.build_state())
    if circuit_key is not None:
        circuit = _cached(_CIRCUIT_CACHE, _CIRCUIT_CACHE_SIZE,
                          "circuit", circuit_key, circuit)
    return state.run_shard(priors, circuit, seed, shots, collect_errors)


class SharedPool:
    """One process pool serving many :class:`ShardedExperiment` instances.

    Every multi-worker run streams through a ``SharedPool``.  A campaign
    runs sweeps over different codes — different check matrices, hence
    different pipeline handles — and one pool keeps its executor alive
    across all of them, with per-handle worker state resolved through
    :func:`_run_shard`'s fingerprint-keyed cache.

    Pass it as the ``pool=`` of a ``ShardedExperiment`` or a
    ``MemoryExperiment``; the experiments then treat the pool as
    externally owned — their ``close()`` leaves it running.
    Use as a context manager, or call :meth:`close`, to shut it down.
    An experiment given no pool builds and owns one of its own.

    The pool is **self-healing**: when a worker dies (``os._exit``,
    OOM kill, segfault) the executor breaks, and :meth:`rebuild`
    respawns it — up to ``max_rebuilds`` times over the pool's
    lifetime, after which the pool is marked :attr:`failed` and every
    experiment bound to it degrades to in-process execution (results
    stay bit-identical; only the wall clock suffers).
    """

    def __init__(self, workers: int | None = None,
                 max_rebuilds: int = 2) -> None:
        self.workers = resolve_workers(workers)
        self.max_rebuilds = int(max_rebuilds)
        self.rebuilds = 0
        self._executor = None
        self._failed = False
        self._closed = False

    @property
    def executor(self):
        """The lazily created ``ProcessPoolExecutor``."""
        if self._closed:
            raise RuntimeError("shared pool is closed")
        if self._failed:
            raise PoolUnavailable(
                f"shared pool gave up after {self.rebuilds} rebuilds")
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
            )
        return self._executor

    @property
    def failed(self) -> bool:
        """True once the rebuild budget is exhausted — callers should
        run in-process instead of submitting to this pool."""
        return self._failed

    def rebuild(self):
        """Tear down a broken executor and respawn it (bounded).

        Raises :class:`PoolUnavailable` — and marks the pool
        :attr:`failed` — once ``max_rebuilds`` respawns have been
        spent.  The freshly spawned workers start with empty state
        caches, so callers must re-ship their payloads.
        """
        if self._executor is not None:
            # The pool is broken: don't wait on it, just drop it.
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self.rebuilds >= self.max_rebuilds:
            self._failed = True
            raise PoolUnavailable(
                f"shared pool gave up after {self.rebuilds} rebuilds")
        self.rebuilds += 1
        return self.executor

    def close(self) -> None:
        """Shut down the pool (idempotent; the pool is unusable after)."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def __enter__(self) -> "SharedPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass


@dataclass
class ShardedExperiment:
    """Stream a full sample→decode experiment across worker processes.

    Parameters
    ----------
    handle:
        The picklable pipeline recipe shared with every worker.
    workers:
        Worker-process count (``None`` -> 1 = in-process, ``0`` -> one
        per core).  Any value produces bit-identical results at fixed
        ``shard_shots``; with one worker no pool is created at all.
    shard_shots:
        Shots per shard (default: the decoder's ``block_shots``).  Part
        of the determinism key — changing it changes which seed-tree
        child samples which shot, so compare runs at a fixed value.  It
        is also the early-stop granularity: the stop rule is evaluated
        once per folded shard.
    pool:
        Optional :class:`SharedPool` to stream through — the worker
        count then comes from the pool, and :meth:`close` leaves the
        pool running (it is owned by the caller, typically a campaign
        spanning several experiments).  Without one, the first
        multi-shard run with ``workers > 1`` builds an owned
        ``SharedPool(workers, max_rebuilds=max_shard_retries)`` and
        :meth:`close` shuts it down.  Results are bit-identical either
        way.
    shard_timeout:
        Optional per-shard wall-clock limit (seconds).  A shard still
        pending past its deadline is treated exactly like a pool
        failure: the executor is rebuilt and the lost shards re-run
        with the same seed-tree children.  ``None`` (default) never
        times out — set it well above the slowest honest shard.
    max_shard_retries:
        How many pool failures (worker death / timeout) one :meth:`run`
        tolerates before degrading to in-process execution (default 3).
        An owned pool's rebuild budget is the same number, spent over
        the experiment's whole life: once a run gives up, the pool is
        marked failed and later runs go straight in-process.

    Fault tolerance: a dead worker breaks the whole
    ``ProcessPoolExecutor``; the run detects it (``BrokenExecutor`` or
    a ``shard_timeout`` expiry), respawns it with ``pool.rebuild()``,
    and re-submits every lost shard with its payload re-attached.  The
    retried shards run the identical ``(priors, seed, shots)``, and
    folds stay in shard-index order, so **results under any fault
    schedule are bit-identical to the fault-free run**.  When the pool
    cannot be rebuilt the remaining shards drain in-process
    (``last_run_stats["local_fallback"]``).

    The pool spawns its workers on the first multi-shard run and is
    reused across calls (a sweep pays the process-spawn cost once);
    :meth:`close` — or using the instance as a context manager —
    releases an owned pool.  ``last_run_stats`` records, for the most
    recent :meth:`run`, the submission/fold counters the
    instrumentation tests assert on.
    """

    handle: ExperimentHandle
    workers: int | None = None
    shard_shots: int | None = None
    pool: SharedPool | None = None
    shard_timeout: float | None = None
    max_shard_retries: int | None = None
    last_run_stats: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    _owns_pool: bool = field(default=False, init=False, repr=False)
    _local: _PipelineState | None = field(default=None, init=False,
                                          repr=False)
    _circuit_key_memo: tuple | None = field(default=None, init=False,
                                            repr=False)
    _handle_key: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.pool is not None:
            self.workers = self.pool.workers
        else:
            self.workers = resolve_workers(self.workers)
        if self.shard_shots is None:
            self.shard_shots = self.handle.decoder.block_shots
        if self.shard_shots < 1:
            raise ValueError("shard_shots must be positive")
        if self.max_shard_retries is None:
            self.max_shard_retries = 3
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be non-negative")

    # ------------------------------------------------------------------
    @property
    def local_state(self) -> _PipelineState:
        """The in-process pipeline state (built on first use)."""
        if self._local is None:
            self._local = self.handle.build_state()
        return self._local

    # ------------------------------------------------------------------
    def _circuit_key(self, circuit: Circuit) -> str:
        """Fingerprint of ``circuit``, memoized by object identity (the
        sweep hands the same circuit object to every shard of a point)."""
        if (self._circuit_key_memo is not None
                and self._circuit_key_memo[0] is circuit):
            return self._circuit_key_memo[1]
        key = circuit_fingerprint(circuit)
        self._circuit_key_memo = (circuit, key)
        return key

    # ------------------------------------------------------------------
    def run(self, shots: int, seed, priors: np.ndarray | None = None,
            circuit: Circuit | None = None,
            collect_errors: bool = False,
            target_precision: "float | PrecisionTarget | None" = None,
            confidence: float = 0.95,
            prior_tally: tuple[int, int] = (0, 0)) -> PipelineResult:
        """Sample and decode up to ``shots`` shots, streamed across the pool.

        ``seed`` roots the shard seed tree (int or ``SeedSequence``;
        see :func:`shard_seed_tree`).  ``priors`` refresh the decoder
        (and, for the phenomenological method, the sampler) at this
        operating point without rebuilding any structure; ``circuit``
        must carry the operating point's noisy circuit for the
        ``"circuit"`` method.  ``collect_errors=True`` additionally
        merges the per-shot corrections into the result (shipping them
        back from the workers — test/debug use, not the hot path).

        ``target_precision`` (a half-width float, or a
        :class:`~repro.core.stats.PrecisionTarget` for relative /
        non-default-confidence targets) enables early stopping: the run
        folds shard results in index order and stops at the first
        prefix whose Wilson interval is tight enough.  ``prior_tally``
        seeds the stop rule (and the reported interval) with
        ``(failures, shots)`` from earlier runs of the same operating
        point — the adaptive sweep's pilot pass uses this so a refine
        run stops as soon as the *combined* tally meets the target.
        """
        if priors is None:
            priors = self.handle.decoder.priors
        priors = np.asarray(priors, dtype=float)
        target = as_precision_target(target_precision, confidence=confidence)
        report_confidence = target.confidence if target is not None else confidence
        prior_failures, prior_shots = (int(prior_tally[0]),
                                       int(prior_tally[1]))
        if prior_failures < 0 or prior_shots < prior_failures:
            raise ValueError("prior_tally must be (failures, shots) with "
                             "0 <= failures <= shots")
        sizes = shard_layout(shots, self.shard_shots)
        seeds = shard_seed_tree(seed, len(sizes))

        stats = {
            "num_shards": len(sizes),
            "shards_run": 0,
            "shards_folded": 0,
            "tasks_submitted": 0,
            "circuit_payload_tasks": 0,
            "circuit_cache_misses": 0,
            "handle_payload_tasks": 0,
            "handle_cache_misses": 0,
            "pool_failures": 0,
            "shard_timeouts": 0,
            "shards_resubmitted": 0,
            "local_fallback": False,
        }
        tally_failures = prior_failures
        tally_shots = prior_shots
        met = target.met(tally_failures, tally_shots) if target else False
        outcomes: list[tuple] = []

        # A pool that already exhausted its rebuild budget (this run's
        # or a previous one's) is not worth submitting to: run the
        # identical per-shard code in-process instead.
        pool_dead = self.pool is not None and self.pool.failed
        if pool_dead:
            stats["local_fallback"] = True
        if not met:
            if self.workers <= 1 or len(sizes) <= 1 or pool_dead:
                outcomes, met = self._run_local(sizes, seeds, priors, circuit,
                                                collect_errors, target,
                                                tally_failures, tally_shots,
                                                stats)
            else:
                outcomes, met = self._run_streamed(sizes, seeds, priors,
                                                   circuit, collect_errors,
                                                   target, tally_failures,
                                                   tally_shots, stats)
        stats["shards_folded"] = len(outcomes)
        self.last_run_stats = stats

        failures = sum(outcome[0] for outcome in outcomes)
        used_shots = sum(sizes[: len(outcomes)])
        if outcomes:
            bp_converged = np.concatenate([o[1] for o in outcomes])
        else:
            bp_converged = np.zeros(0, dtype=bool)
        errors = None
        if collect_errors:
            if outcomes:
                errors = np.concatenate([o[2] for o in outcomes])
            else:
                errors = np.zeros(
                    (0, self.handle.decoder.check_matrix.shape[1]),
                    dtype=np.uint8,
                )
        ci_low, ci_high = binomial_interval(
            prior_failures + failures, prior_shots + used_shots,
            report_confidence,
        )
        return PipelineResult(
            shots=used_shots, failures=failures, bp_converged=bp_converged,
            num_shards=len(outcomes), errors=errors, shots_requested=shots,
            stopped_early=bool(met and len(outcomes) < len(sizes)),
            target_met=(None if target is None else bool(met)),
            ci_low=ci_low, ci_high=ci_high, confidence=report_confidence,
            prior_failures=prior_failures, prior_shots=prior_shots,
        )

    # ------------------------------------------------------------------
    def _run_local(self, sizes, seeds, priors, circuit, collect_errors,
                   target, tally_failures, tally_shots, stats):
        """In-process reference: fold shards in index order, stop at the
        first prefix meeting the target.  The exact decision sequence
        the streamed path reproduces."""
        outcomes = []
        met = False
        for size, shard_seed in zip(sizes, seeds):
            outcome = self.local_state.run_shard(priors, circuit, shard_seed,
                                                 size, collect_errors)
            stats["shards_run"] += 1
            outcomes.append(outcome)
            tally_failures += outcome[0]
            tally_shots += size
            if target is not None and target.met(tally_failures, tally_shots):
                met = True
                break
        return outcomes, met

    def _run_streamed(self, sizes, seeds, priors, circuit, collect_errors,
                      target, tally_failures, tally_shots, stats):
        """Streamed execution: bounded in-flight submission, completion
        buffered out of order, folds strictly in shard-index order.

        The stop rule only ever sees prefix tallies, so the stopping
        shard — and everything derived from it — matches `_run_local`
        bit for bit; completion order decides nothing but how much
        beyond-prefix work gets discarded.

        Fault tolerance: ``BrokenExecutor`` (a worker died) and shard
        timeouts both funnel into :func:`recover` — drop every pending
        future, respawn the pool's executor and re-submit the lost
        shards with payloads re-attached.  The retried shards run the
        identical ``(priors, seed, shots)``, so no fault schedule can
        change the folded prefix.  When the retry budget is spent, the
        remaining shards drain in-process (still in index order, still
        bit-identical).
        """
        needs_circuit = self.handle.method == "circuit"
        circuit_key = None
        if needs_circuit:
            if circuit is None:
                raise ValueError("the circuit method needs a circuit per run")
            circuit_key = self._circuit_key(circuit)
        if self._handle_key is None:
            self._handle_key = handle_fingerprint(self.handle)
        pool = self._ensure_pool()
        executor = pool.executor
        plan = active_plan()
        # Enough in-flight work to keep every worker busy while the
        # prefix folds, small enough that an early stop wastes at most
        # ~two shards per worker.
        max_inflight = max(2 * self.workers, 2)
        # The first `workers` tasks carry the heavyweight payloads (the
        # handle, and the circuit for the circuit method); later tasks
        # address the worker caches by key alone.
        payload_quota = self.workers

        pending: dict = {}
        deadlines: dict = {}
        ready: dict[int, tuple] = {}
        retries: dict[int, int] = {}
        outcomes: list[tuple] = []
        next_submit = 0
        met = False

        def submit(index: int, with_payload: bool) -> None:
            handle = self.handle if with_payload else None
            if handle is not None:
                stats["handle_payload_tasks"] += 1
            payload = circuit if (needs_circuit and with_payload) else None
            if payload is not None:
                stats["circuit_payload_tasks"] += 1
            stats["tasks_submitted"] += 1
            fault = plan.next_task_fault() if plan is not None else None
            future = executor.submit(
                _run_shard, handle, self._handle_key, priors, payload,
                circuit_key, seeds[index], sizes[index], collect_errors,
                fault,
            )
            pending[future] = index
            if self.shard_timeout is not None:
                deadlines[future] = monotonic() + self.shard_timeout

        def recover(extra_lost=()) -> None:
            """Pool failure: respawn the executor, re-submit lost shards.

            Every shard not yet in ``ready``/``outcomes`` — pending
            futures plus any index the caller already popped — re-runs
            with its original seed-tree child, and the fresh workers'
            empty caches get the payloads re-shipped, so recovery is
            invisible to the folded result.  A fresh pool that breaks
            before every lost shard is back in flight counts as one
            more failure.
            """
            nonlocal executor, payload_quota
            lost = set(extra_lost)
            while True:
                stats["pool_failures"] += 1
                # An owned pool's rebuild budget is max_shard_retries,
                # so its rebuild() raises here instead — and marks the
                # pool failed, which sends later runs straight
                # in-process.
                if (not self._owns_pool and stats["pool_failures"]
                        > self.max_shard_retries):
                    raise PoolUnavailable(
                        f"worker pool failed {stats['pool_failures']} "
                        f"times (max_shard_retries="
                        f"{self.max_shard_retries})")
                lost |= set(pending.values())
                for future in pending:
                    future.cancel()
                pending.clear()
                deadlines.clear()
                executor = pool.rebuild()
                payload_quota = self.workers
                stats["shards_resubmitted"] += len(lost)
                try:
                    for index in sorted(lost):
                        submit(index, with_payload=payload_quota > 0)
                        payload_quota = max(0, payload_quota - 1)
                    return
                except BrokenExecutor:
                    continue

        try:
            while True:
                try:
                    while (next_submit < len(sizes)
                           and len(pending) < max_inflight):
                        submit(next_submit, with_payload=payload_quota > 0)
                        payload_quota = max(0, payload_quota - 1)
                        next_submit += 1
                except BrokenExecutor:
                    recover()
                while len(outcomes) in ready:
                    outcome = ready.pop(len(outcomes))
                    outcomes.append(outcome)
                    tally_failures += outcome[0]
                    tally_shots += sizes[len(outcomes) - 1]
                    if target is not None and target.met(tally_failures,
                                                         tally_shots):
                        met = True
                        break
                if met or len(outcomes) == len(sizes):
                    break
                if not pending:
                    # A recovery emptied the in-flight window; loop back
                    # to the top-up before waiting on anything.
                    continue
                if self.shard_timeout is not None:
                    wait_budget = min(deadlines.values()) - monotonic()
                    if wait_budget <= 0:
                        stats["shard_timeouts"] += 1
                        recover()
                        continue
                    done, _ = wait(list(pending), timeout=wait_budget,
                                   return_when=FIRST_COMPLETED)
                    if not done:
                        # Nothing completed within the tightest
                        # deadline: the overdue shard is stuck.
                        stats["shard_timeouts"] += 1
                        recover()
                        continue
                else:
                    done, _ = wait(list(pending),
                                   return_when=FIRST_COMPLETED)
                for future in done:
                    index = pending.pop(future)
                    deadlines.pop(future, None)
                    try:
                        ready[index] = future.result()
                        stats["shards_run"] += 1
                    except _CacheMiss as miss:
                        # A retry re-ships every payload, so one retry
                        # always suffices for the worker that ran it.
                        stats[f"{miss.args[0]}_cache_misses"] += 1
                        if retries.get(index, 0) >= 2:
                            raise
                        retries[index] = retries.get(index, 0) + 1
                        submit(index, with_payload=True)
                    except BrokenExecutor:
                        # A worker died; the popped shard is lost along
                        # with everything still pending.
                        recover(extra_lost=(index,))
                        break
        except PoolUnavailable:
            # Retry budget spent: drain the remaining shards in-process,
            # keeping everything already folded or buffered.  Each shard
            # is a pure function of (priors, seed, shots), so the result
            # is still bit-identical to a clean run.
            stats["local_fallback"] = True
            while not met and len(outcomes) < len(sizes):
                index = len(outcomes)
                outcome = ready.pop(index, None)
                if outcome is None:
                    outcome = self.local_state.run_shard(
                        priors, circuit, seeds[index], sizes[index],
                        collect_errors)
                    stats["shards_run"] += 1
                outcomes.append(outcome)
                tally_failures += outcome[0]
                tally_shots += sizes[index]
                if target is not None and target.met(tally_failures,
                                                     tally_shots):
                    met = True
        finally:
            # Early stop or error: whatever is still queued is wasted
            # work — cancel it (running shards finish and are ignored).
            for future in pending:
                future.cancel()
        return outcomes, met

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> SharedPool:
        """The pool to stream through: the caller's, or one built (and
        owned) on first use, whose lifetime rebuild budget is
        ``max_shard_retries``."""
        if self.pool is None:
            self.pool = SharedPool(self.workers,
                                   max_rebuilds=self.max_shard_retries)
            self._owns_pool = True
        return self.pool

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the owned worker pool, if any (idempotent).

        A :class:`SharedPool` passed in at construction is owned by the
        caller and is deliberately left running.
        """
        if self._owns_pool:
            self.pool.close()
            self.pool = None
            self._owns_pool = False

    def __enter__(self) -> "ShardedExperiment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
