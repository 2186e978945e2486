"""Fused sample→decode pipeline, sharded and *streamed* across workers.

Each shard of a run **samples its own shots and decodes them** in the
process that runs it, so syndromes never cross a process boundary and
the sampling of one shard overlaps the decoding of another.  Shard
results fold into a running ``(failures, shots)`` tally; given a
``target_precision`` the tally feeds a Wilson confidence interval
(:mod:`repro.core.stats`) and the run stops once the interval's
half-width is reached — outstanding shards are cancelled and
unsubmitted work is never materialized, so low-noise operating points
spend only the shots their confidence width needs.

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

Early stopping preserves the contract because the stop rule
(:class:`~repro.core.stats.PrecisionTarget`, a pure function of the
folded tally) only ever sees shard-**index prefix** tallies.  The
stopping prefix, and therefore the contributing shard set, the LER,
the corrections and the convergence flags, is identical for every
worker count; workers only change how much already-submitted work
beyond the prefix gets thrown away.

One fold loop
-------------
:meth:`ShardedExperiment.run` is one loop over shard indices: fold
shard 0, then shard 1, …, evaluating the stop rule after each fold.
Shard ``i``'s outcome comes from the buffer the pool fills, or is
computed in-process by the identical per-shard code
(:meth:`_PipelineState.run_shard`) when the run has one worker or one
shard, when its pool was already marked failed, or once the pool gives
up mid-run.  A shard that completes out of order waits in the buffer
until every lower-indexed shard has been folded.  ``workers=1`` is the
cross-checked reference (`tests/test_fused_pipeline.py`,
`tests/test_streaming.py`).

The pool side (:class:`_PoolWindow`) only fills that buffer: a bounded
window of in-flight tasks.  Every submission — first tasks, top-up,
cache-miss re-ship, resubmission after a rebuild — goes through one
call, and every pool failure (a ``BrokenExecutor`` from a submission
or a result, an expired ``shard_timeout``) lands in one recovery path:
respawn the executor and requeue every lost shard with its original
seed-tree child.

Design
------
* :class:`ExperimentHandle` is the one picklable recipe of a run: the
  check and observable matrices, the default priors, the sampling
  method (``"phenomenological"`` samples mechanism errors against the
  check matrix; ``"circuit"`` frame-simulates a circuit shipped per
  operating point), the backend and the BP/OSD knobs.  Any process
  rebuilds the run's :class:`~repro.decoders.bposd.BPOSDDecoder` from
  it.
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
"""

from __future__ import annotations

import hashlib
import heapq
import os
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from time import monotonic

import numpy as np

from repro.circuits.circuit import Circuit
from repro.core.phenomenological import sample_phenomenological_shard
from repro.core.stats import PrecisionTarget, as_precision_target, binomial_interval
from repro.decoders.bposd import BLOCK_SHOTS, BPOSDDecoder
from repro.linalg.bitops import pack_bits, packed_matmul
from repro.linalg.native import simulation_backend
from repro.parallel.faults import active_plan, apply_task_fault
from repro.sim.frame import sample_circuit_shard

__all__ = [
    "ExperimentHandle",
    "PoolUnavailable",
    "SharedPool",
    "ShardedExperiment",
    "PipelineResult",
    "circuit_fingerprint",
    "handle_fingerprint",
    "resolve_workers",
    "shard_layout",
    "shard_seed_tree",
]


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers=`` knob: ``None`` -> 1, ``0`` -> cpu_count.

    ``None`` (the default everywhere) means "in-process, single core";
    ``0`` asks for one worker per available core; any positive integer
    is taken literally.  Negative values are rejected.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0 (0 = one per core) or None")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


class PoolUnavailable(RuntimeError):
    """The worker pool died and could not be rebuilt within its retry
    budget.  The pipeline recovers by running the remaining shards
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
    hasher = hashlib.sha1()
    hasher.update(repr((
        handle.method, handle.backend, handle.max_iterations,
        handle.osd_order, handle.check_matrix.shape,
        handle.observable_matrix.shape,
    )).encode())
    hasher.update(np.ascontiguousarray(handle.check_matrix).tobytes())
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

    ``check_matrix`` and ``priors`` define the decoding problem (the
    priors are a run's default; a run may ship its own);
    ``observable_matrix`` maps corrections and true errors to logical
    observables; ``method`` selects the sampler: ``"phenomenological"``
    draws mechanism errors against the check matrix, ``"circuit"``
    frame-simulates the circuit shipped with each run.  ``backend``
    (shared by the sampler and the decoder), ``max_iterations`` and
    ``osd_order`` are :class:`~repro.decoders.bposd.BPOSDDecoder`'s
    knobs, with its defaults.
    """

    check_matrix: np.ndarray
    observable_matrix: np.ndarray
    priors: np.ndarray
    method: str = "phenomenological"
    backend: str = "packed"
    max_iterations: int = 50
    osd_order: int = 0

    def __post_init__(self) -> None:
        if self.method not in ("phenomenological", "circuit"):
            raise ValueError("method must be 'phenomenological' or 'circuit'")


class _PipelineState:
    """Per-process state: the decoder plus packed projection matrices.

    Built once per process (lazily, on the first shard) and re-priored
    — never rebuilt — on subsequent shards and sweep points.
    """

    def __init__(self, handle: ExperimentHandle) -> None:
        self.handle = handle
        self.decoder = BPOSDDecoder(
            handle.check_matrix, handle.priors,
            max_iterations=handle.max_iterations,
            osd_order=handle.osd_order, backend=handle.backend,
        )
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
                    handle_key, handle, build=_PipelineState)
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

    The pool owns the fault-recovery settings of every run streamed
    through it.  It is **self-healing**: when a worker dies
    (``os._exit``, OOM kill, segfault) or a shard is still pending
    ``shard_timeout`` seconds after submission (``None``: wait
    forever), the run calls :meth:`rebuild`, which respawns the
    executor — up to ``max_rebuilds`` times over the pool's lifetime,
    after which the pool is marked :attr:`failed` and every experiment
    bound to it degrades to in-process execution (results stay
    bit-identical; only the wall clock suffers).
    """

    def __init__(self, workers: int | None = None, max_rebuilds: int = 2,
                 shard_timeout: float | None = None) -> None:
        if max_rebuilds < 0:
            raise ValueError("max_rebuilds must be non-negative")
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive (or None)")
        self.workers = resolve_workers(workers)
        self.max_rebuilds = int(max_rebuilds)
        self.shard_timeout = shard_timeout
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
        Shots per shard (default:
        :data:`~repro.decoders.bposd.BLOCK_SHOTS`).  Part of the
        determinism key — changing it changes which seed-tree child
        samples which shot, so compare runs at a fixed value.  It is
        also the early-stop granularity: the stop rule is evaluated once
        per folded shard.
    pool:
        Optional :class:`SharedPool` to stream through — the worker
        count then comes from the pool, and :meth:`close` leaves the
        pool running (it is owned by the caller, typically a campaign
        spanning several experiments).  Without one, the first
        multi-shard run with ``workers > 1`` builds an owned
        ``SharedPool(workers)`` and :meth:`close` shuts it down.
        Results are bit-identical either way.

    Fault tolerance: a dead worker breaks the whole
    ``ProcessPoolExecutor``; the run detects it (``BrokenExecutor`` or
    an expired ``pool.shard_timeout``), respawns it with
    ``pool.rebuild()``, and re-submits every lost shard with its
    payload re-attached.  The retried shards run the identical
    ``(priors, seed, shots)``, and folds stay in shard-index order, so
    **results under any fault schedule are bit-identical to the
    fault-free run**.  Once the pool's lifetime rebuild budget is
    spent the remaining shards run in-process
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
    last_run_stats: dict = field(default_factory=dict, init=False,
                                 repr=False, compare=False)
    _owns_pool: bool = field(default=False, init=False, repr=False)
    _local: _PipelineState | None = field(default=None, init=False,
                                          repr=False)
    _handle_key: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.pool is not None:
            self.workers = self.pool.workers
        else:
            self.workers = resolve_workers(self.workers)
        if self.shard_shots is None:
            self.shard_shots = BLOCK_SHOTS
        if self.shard_shots < 1:
            raise ValueError("shard_shots must be positive")

    # ------------------------------------------------------------------
    @property
    def local_state(self) -> _PipelineState:
        """The in-process pipeline state (built on first use)."""
        if self._local is None:
            self._local = _PipelineState(self.handle)
        return self._local

    # ------------------------------------------------------------------
    def run(self, shots: int, seed, priors: np.ndarray | None = None,
            circuit: Circuit | None = None,
            collect_errors: bool = False,
            target_precision: "float | PrecisionTarget | None" = None,
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
            priors = self.handle.priors
        priors = np.asarray(priors, dtype=float)
        target = as_precision_target(target_precision)
        report_confidence = target.confidence if target is not None else 0.95
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
        failures = 0
        used_shots = 0
        met = target is not None and target.met(prior_failures, prior_shots)
        window = None
        if self.pool is not None and self.pool.failed:
            # A pool that already exhausted its rebuild budget (this
            # run's or a previous one's) is not worth submitting to.
            stats["local_fallback"] = True
        elif not met and self.workers > 1 and len(sizes) > 1:
            window = _PoolWindow(self, sizes, seeds, priors, circuit,
                                 collect_errors, stats)
        outcomes: list[tuple] = []
        try:
            while not met and len(outcomes) < len(sizes):
                index = len(outcomes)
                outcome = window.take(index) if window is not None else None
                if outcome is None:
                    outcome = self.local_state.run_shard(
                        priors, circuit, seeds[index], sizes[index],
                        collect_errors)
                    stats["shards_run"] += 1
                outcomes.append(outcome)
                failures += outcome[0]
                used_shots += sizes[index]
                met = target is not None and target.met(
                    prior_failures + failures, prior_shots + used_shots)
        finally:
            # Early stop or error: whatever is still queued is wasted
            # work — cancel it (running shards finish and are ignored).
            if window is not None:
                window.cancel()
        stats["shards_folded"] = len(outcomes)
        self.last_run_stats = stats

        if outcomes:
            bp_converged = np.concatenate([o[1] for o in outcomes])
        else:
            bp_converged = np.zeros(0, dtype=bool)
        errors = None
        if collect_errors:
            if outcomes:
                errors = np.concatenate([o[2] for o in outcomes])
            else:
                errors = np.zeros((0, self.handle.check_matrix.shape[1]),
                                  dtype=np.uint8)
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
    def _ensure_pool(self) -> SharedPool:
        """The pool to stream through: the caller's, or one built (and
        owned) on first use."""
        if self.pool is None:
            self.pool = SharedPool(self.workers)
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


class _PoolWindow:
    """The pool side of one :meth:`ShardedExperiment.run`.

    Keeps at most ``2 * workers`` shard tasks in flight — enough to
    keep every worker busy while the prefix folds, few enough that an
    early stop wastes at most about two shards per worker — and
    buffers their outcomes by shard index for the run's fold to
    :meth:`take`.  :meth:`_submit` is the only place a task reaches
    the executor, and every pool failure, whether a submission or a
    result raises ``BrokenExecutor`` or a shard outlives
    ``shard_timeout``, lands in :meth:`_recover`.  Once the pool gives
    up, :meth:`take` serves only what is already buffered and the fold
    runs the rest in-process.
    """

    def __init__(self, experiment: ShardedExperiment, sizes: list[int],
                 seeds: list, priors: np.ndarray, circuit: Circuit | None,
                 collect_errors: bool, stats: dict) -> None:
        self.experiment = experiment
        self.sizes = sizes
        self.seeds = seeds
        self.priors = priors
        self.collect_errors = collect_errors
        self.stats = stats
        self.circuit = circuit
        self.circuit_key = None
        if experiment.handle.method == "circuit" and circuit is not None:
            self.circuit_key = circuit_fingerprint(circuit)
        if experiment._handle_key is None:
            experiment._handle_key = handle_fingerprint(experiment.handle)
        self.pool = experiment._ensure_pool()
        self.executor = self.pool.executor
        self.plan = active_plan()
        self.max_inflight = max(2 * experiment.workers, 2)
        # The first `workers` tasks carry the heavyweight payloads (the
        # handle, and the circuit for the circuit method); later tasks
        # address the worker caches by key alone.
        self.payload_quota = experiment.workers
        self.pending: dict = {}       # future -> shard index
        self.deadlines: dict = {}     # future -> monotonic deadline
        self.ready: dict[int, tuple] = {}
        self.lost: list[int] = []     # heap of shards to resubmit
        self.reship: set[int] = set()  # cache-missed: resubmit with payloads
        self.retries: dict[int, int] = {}
        self.next_fresh = 0
        self.gave_up = False

    def take(self, index: int) -> tuple | None:
        """Shard ``index``'s outcome, waiting on the pool as needed;
        ``None`` once the pool has given up on this run and the shard
        was never buffered."""
        while index not in self.ready and not self.gave_up:
            try:
                self._fill()
                self._collect()
            except PoolUnavailable:
                # Retry budget spent: keep what is buffered, let the
                # fold compute the rest in-process.
                self.gave_up = True
                self.stats["local_fallback"] = True
                self.cancel()
        return self.ready.pop(index, None)

    def cancel(self) -> None:
        """Drop every in-flight task (running shards finish, ignored)."""
        for future in self.pending:
            future.cancel()
        self.pending.clear()
        self.deadlines.clear()

    def _fill(self) -> None:
        """Top the window up: lost shards first, then fresh ones."""
        while len(self.pending) < self.max_inflight:
            if self.lost:
                index = heapq.heappop(self.lost)
            elif self.next_fresh < len(self.sizes):
                index = self.next_fresh
                self.next_fresh += 1
            else:
                return
            self._submit(index)

    def _submit(self, index: int) -> None:
        """Submit shard ``index`` — the one path to the executor."""
        stats = self.stats
        if index in self.reship:
            # A re-ship carries every payload, so one retry always
            # suffices for the worker that runs it.
            self.reship.discard(index)
            with_payload = True
        else:
            with_payload = self.payload_quota > 0
            self.payload_quota = max(0, self.payload_quota - 1)
        handle = self.experiment.handle if with_payload else None
        if handle is not None:
            stats["handle_payload_tasks"] += 1
        circuit = (self.circuit if with_payload
                   and self.circuit_key is not None else None)
        if circuit is not None:
            stats["circuit_payload_tasks"] += 1
        stats["tasks_submitted"] += 1
        fault = self.plan.next_task_fault() if self.plan is not None else None
        try:
            future = self.executor.submit(
                _run_shard, handle, self.experiment._handle_key,
                self.priors, circuit, self.circuit_key, self.seeds[index],
                self.sizes[index], self.collect_errors, fault,
            )
        except BrokenExecutor:
            self._recover(index)
            return
        self.pending[future] = index
        if self.pool.shard_timeout is not None:
            self.deadlines[future] = monotonic() + self.pool.shard_timeout

    def _collect(self) -> None:
        """Wait for the first completion, or for the tightest shard
        deadline, and buffer what finished."""
        stats = self.stats
        timeout = None
        if self.deadlines:
            timeout = min(self.deadlines.values()) - monotonic()
        done = ()
        if timeout is None or timeout > 0:
            done, _ = wait(list(self.pending), timeout=timeout,
                           return_when=FIRST_COMPLETED)
        if not done:
            # Nothing completed within the tightest deadline: the
            # overdue shard is stuck.
            stats["shard_timeouts"] += 1
            self._recover()
            return
        for future in done:
            index = self.pending.pop(future)
            self.deadlines.pop(future, None)
            try:
                self.ready[index] = future.result()
                stats["shards_run"] += 1
            except _CacheMiss as miss:
                stats[f"{miss.args[0]}_cache_misses"] += 1
                if self.retries.get(index, 0) >= 2:
                    raise
                self.retries[index] = self.retries.get(index, 0) + 1
                self.reship.add(index)
                heapq.heappush(self.lost, index)
            except BrokenExecutor:
                # A worker died; this shard is lost along with
                # everything still pending.
                self._recover(index)
                return

    def _recover(self, *also_lost: int) -> None:
        """Pool failure: respawn the executor, requeue every lost shard.

        Every shard neither buffered nor folded — queued for
        resubmission, in flight, or the one the caller just lost —
        re-runs with its original seed-tree child, and the fresh
        workers' empty caches get the payloads re-shipped, so recovery
        is invisible to the folded result.  A fresh pool that breaks
        before every lost shard is back in flight costs one more
        failure.  Once the pool's lifetime rebuild budget is spent,
        :meth:`SharedPool.rebuild` marks the pool failed (later runs go
        straight in-process) and raises :class:`PoolUnavailable`.
        """
        stats = self.stats
        stats["pool_failures"] += 1
        requeue = (set(also_lost) | set(self.lost)
                   | set(self.pending.values()))
        self.cancel()
        self.executor = self.pool.rebuild()
        self.payload_quota = self.experiment.workers
        self.reship.clear()
        self.lost = sorted(requeue)
        stats["shards_resubmitted"] += len(requeue)
