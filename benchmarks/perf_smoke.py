#!/usr/bin/env python
"""Performance smoke benchmark: packed vs boolean backends.

Times the three hot layers of the reproduction pipeline — frame
sampling, detector-error-model extraction and batched BP+OSD decoding —
plus the headline end-to-end memory experiment, in both the bit-packed
and the boolean reference backends, and writes the results to
``BENCH_sim.json`` at the repository root so future PRs have a
performance trajectory to regress against.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf_smoke.py

Budgets are fixed so numbers stay comparable across commits; scale them
with the environment variables below (e.g. for a quick CI sanity check):

* ``REPRO_PERF_SHOTS``        — end-to-end memory-experiment shots (10000)
* ``REPRO_PERF_DECODE_SHOTS`` — batched-decode shots            (2000)
* ``REPRO_PERF_FRAME_SHOTS``  — frame-sampling shots            (20000)
* ``REPRO_PERF_SHARD_SHOTS``  — sharded-section shots           (100000)
* ``REPRO_PERF_SWEEP_SHOTS``  — adaptive-sweep shots per point  (4000)
* ``REPRO_PERF_CAMPAIGN_BUDGET`` — campaign-resume global budget (3000)
* ``REPRO_PERF_SERVICE_BUDGET``  — served-campaign global budget    (900)

``"bool"`` is the per-shot reference oracle, so the two sections that
time it also check it: ``batched_decode`` raises ``RuntimeError`` when
the packed corrections or BP convergence flags differ from the
oracle's, and ``memory_experiment`` when the two LERs differ.  Their
``speedup`` compares packed against that oracle.

The ``native_decode`` section times the headline batched decode under
``backend="native"`` (the compiled C kernel tier of
:mod:`repro.linalg.native`) against ``backend="packed"``, records the
build fingerprint of the binary it measured, and asserts the outputs
are bit-identical.  On hosts without a C toolchain the section is
skipped with a recorded ``skipped_reason`` — never a failure.

Two sharded sections run the headline workload single- and multi-core
(``workers`` 1/2/4, packed backend only): ``sharded_memory_experiment``
times the full ``MemoryExperiment`` end to end, ``sharded_pipeline``
times the fused sample→decode pipeline (``ShardedExperiment``) in
isolation.  On a single-core host the multi-worker rows are **skipped**
(with a logged note and a ``skipped_workers`` record) — all workers
would share one core, so the committed scaling curve would be flat by
construction and meaningless; re-run on a multi-core host to record
real scaling.  The report carries ``cpu_count`` either way.

The ``adaptive_sweep`` section times the same multi-point LER sweep
twice — fixed per-point budget vs the adaptive pilot/allocate/refine
scheduler with streaming early stopping — at equal worst-case relative
Wilson half-width, and records the wall-clock reduction (target: >= 3x;
``check_bench.py`` gates it).  It runs single-worker, so it is *not*
skipped on 1-core hosts.

The ``campaign_resume`` section runs the bundled ``ci_smoke`` campaign
twice against one result store — cold, then resumed — and records that
the resumed run samples **zero** shots while rendering bit-identical
tables, plus the wall-clock ratio (``check_bench.py`` gates both; also
single-worker and 1-core-meaningful).

The ``service_requests`` section hosts ``repro serve`` in-process and
splits a served campaign request into its cold cost (real sampling)
and its cached cost (``POST /jobs`` → poll → ``GET /tables`` against a
warm store: zero shots sampled, byte-identical tables) plus plain
status-poll throughput — the serving tier's RPC-vs-compute budget.
``check_bench.py`` gates the caching contract and a cached-jobs/s
floor (``REPRO_CHECK_SERVICE_MIN``); single-worker, 1-core-meaningful.

This is a plain script (not a pytest benchmark) because the boolean
reference path is deliberately slow — minutes at the default budget —
and should only run when a perf data point is wanted.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.campaign import load_spec, run_campaign
from repro.circuits import memory_experiment_circuit
from repro.codes import code_by_name, surface_code
from repro.core.memory import MemoryExperiment
from repro.core.phenomenological import build_phenomenological_model
from repro.core.stats import PrecisionTarget
from repro.core.sweep import sweep_physical_error
from repro.decoders.bposd import BPOSDDecoder
from repro.noise import HardwareNoiseModel
from repro.parallel import ExperimentHandle, ShardedExperiment
from repro.sim import FrameSimulator, detector_error_model

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_sim.json"

#: Operating point for the headline benchmark: the paper's [[72,12,6]]
#: bivariate bicycle code at p = 1e-3 and a 50 ms round latency.
BB_CODE = "BB [[72,12,6]]"
PHYSICAL_ERROR_RATE = 1e-3
ROUND_LATENCY_US = 50_000.0


def _int_env(name: str, default: int) -> int:
    try:
        return max(int(os.environ.get(name, default)), 1)
    except ValueError:
        return default


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_frame_sampling(shots: int) -> dict:
    """Circuit-level frame sampling on a distance-5 surface-code memory."""
    code = surface_code(5)
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=100.0
    )
    circuit = memory_experiment_circuit(code, noise, rounds=3)
    timings = {}
    samples = {}
    for backend in ("packed", "bool"):
        simulator = FrameSimulator(circuit, seed=0, backend=backend)
        timings[backend], samples[backend] = _timed(
            lambda: simulator.sample(shots)
        )
    identical = bool(
        np.array_equal(samples["packed"].detectors, samples["bool"].detectors)
        and np.array_equal(samples["packed"].observables,
                           samples["bool"].observables)
    )
    return {
        "description": f"surface d=5 memory circuit, {shots} shots",
        "packed_seconds": timings["packed"],
        "bool_seconds": timings["bool"],
        "speedup": timings["bool"] / timings["packed"],
        "outputs_identical": identical,
    }


def bench_dem_extraction() -> dict:
    """Circuit-level DEM extraction on a distance-5 surface-code memory."""
    code = surface_code(5)
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=100.0
    )
    circuit = memory_experiment_circuit(code, noise, rounds=3)
    timings = {}
    models = {}
    for backend in ("packed", "bool"):
        timings[backend], models[backend] = _timed(
            lambda: detector_error_model(circuit, backend=backend)
        )
    identical = bool(
        np.array_equal(models["packed"].check_matrix,
                       models["bool"].check_matrix)
        and np.allclose(models["packed"].priors, models["bool"].priors)
    )
    return {
        "description": "surface d=5 memory circuit, "
                       f"{models['packed'].num_mechanisms} mechanisms",
        "packed_seconds": timings["packed"],
        "bool_seconds": timings["bool"],
        "speedup": timings["bool"] / timings["packed"],
        "outputs_identical": identical,
    }


def bench_batched_decode(shots: int) -> dict:
    """Batched BP+OSD decode of phenomenological BB-code syndromes."""
    code = code_by_name(BB_CODE)
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=ROUND_LATENCY_US
    )
    model = build_phenomenological_model(code, noise, rounds=6)
    syndromes, _ = model.sample(shots, seed=0)
    timings = {}
    results = {}
    for backend in ("packed", "bool"):
        decoder = BPOSDDecoder(model.check_matrix, model.priors,
                               max_iterations=40, backend=backend)
        timings[backend], results[backend] = _timed(
            lambda: decoder.decode_batch(syndromes)
        )
    packed, oracle = results["packed"], results["bool"]
    if not (np.array_equal(packed.errors, oracle.errors)
            and np.array_equal(packed.bp_converged, oracle.bp_converged)):
        raise RuntimeError("batched decode: packed corrections or BP "
                           "convergence flags differ from the bool oracle")
    converged = {backend: float(result.bp_converged.mean())
                 for backend, result in results.items()}
    return {
        "description": f"{BB_CODE} phenomenological syndromes, {shots} shots",
        "packed_seconds": timings["packed"],
        "bool_seconds": timings["bool"],
        "speedup": timings["bool"] / timings["packed"],
        "bp_converged_fraction": converged,
    }


def run_native_decode_comparison(shots: int) -> dict:
    """Native C kernel tier vs packed numpy on the headline decode.

    Same workload as ``bench_batched_decode`` (phenomenological BB-code
    syndromes, 40 BP iterations) timed under ``backend="native"`` vs
    ``backend="packed"``.  On hosts without a C toolchain the section
    is **skipped** — recorded as a ``skipped_reason`` entry, never a
    failure — because there is nothing to measure: the native backend
    falls back to the packed kernels.  When the tier is available the
    section records the build fingerprint (compiler, flags, source
    hash) alongside the timings, so committed numbers are traceable to
    the binary that produced them.  Shared by ``perf_smoke.py``
    (committed section) and ``check_bench.py`` (>= 2x regression gate)
    so both measure the identical workload.
    """
    from repro.linalg.native import (
        get_kernels,
        native_available,
        native_unavailable_reason,
    )

    section: dict = {
        "description": f"{BB_CODE} phenomenological syndromes, {shots} "
                       f"shots, native C kernels vs packed numpy",
    }
    if not native_available():
        reason = native_unavailable_reason() or "native tier unavailable"
        section["skipped_reason"] = reason
        print(f"  note: native tier unavailable ({reason}); "
              "section skipped", flush=True)
        return section
    kernels = get_kernels()
    section["build_fingerprint"] = kernels.fingerprint

    code = code_by_name(BB_CODE)
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=ROUND_LATENCY_US
    )
    model = build_phenomenological_model(code, noise, rounds=6)
    syndromes, _ = model.sample(shots, seed=0)
    timings = {}
    results = {}
    for backend in ("packed", "native"):
        decoder = BPOSDDecoder(model.check_matrix, model.priors,
                               max_iterations=40, backend=backend)
        timings[backend], results[backend] = _timed(
            lambda: decoder.decode_batch(syndromes)
        )
    section.update({
        "native_active": True,
        "packed_seconds": timings["packed"],
        "native_seconds": timings["native"],
        "speedup": timings["packed"] / timings["native"],
        "outputs_identical": bool(
            np.array_equal(results["packed"].errors,
                           results["native"].errors)
            and np.array_equal(results["packed"].bp_converged,
                               results["native"].bp_converged)
        ),
    })
    return section


def time_memory_experiment(shots: int, backend: str = "packed",
                           workers: int = 1,
                           warmup_shots: int = 0) -> tuple[float, object]:
    """Time one end-to-end headline memory experiment.

    Shared by the backend comparison, the multi-core scaling section and
    the ``check_bench.py`` regression gate so all three measure the
    identical workload.  ``warmup_shots > 0`` runs a throwaway point
    first so the timed run measures steady-state throughput (structure
    and decoder caches built, pool spawned) — the regression gate uses
    this so reduced budgets aren't dominated by fixed setup costs; the
    perf_smoke sections themselves stay cold for comparability with the
    committed trajectory.
    """
    code = code_by_name(BB_CODE)
    with MemoryExperiment(code=code, seed=0, backend=backend,
                          workers=workers) as experiment:
        if warmup_shots > 0:
            experiment.run(PHYSICAL_ERROR_RATE, ROUND_LATENCY_US,
                           shots=warmup_shots)
        return _timed(
            lambda: experiment.run(PHYSICAL_ERROR_RATE, ROUND_LATENCY_US,
                                   shots=shots)
        )


def bench_memory_experiment(shots: int) -> dict:
    """Headline: end-to-end 10k-shot BB-code memory experiment."""
    timings = {}
    lers = {}
    for backend in ("packed", "bool"):
        timings[backend], result = time_memory_experiment(shots,
                                                          backend=backend)
        lers[backend] = result.logical_error_rate
    if lers["packed"] != lers["bool"]:
        raise RuntimeError(f"memory experiment: packed LER {lers['packed']} "
                           f"!= bool oracle LER {lers['bool']}")
    return {
        "description": f"{BB_CODE} memory experiment, {shots} shots, "
                       f"p={PHYSICAL_ERROR_RATE:g}, "
                       f"latency={ROUND_LATENCY_US:g}us",
        "packed_seconds": timings["packed"],
        "bool_seconds": timings["bool"],
        "speedup": timings["bool"] / timings["packed"],
        "logical_error_rate": lers,
    }


#: Worker counts the scaling sections sweep on a multi-core host.
SCALING_WORKERS = (1, 2, 4)

SINGLE_CORE_NOTE = (
    "cpu_count == 1: multi-worker rows skipped — all workers would share "
    "one core, so the scaling curve would be flat by construction.  "
    "Re-run perf_smoke.py on a multi-core host to record real scaling."
)


def resolve_scaling_workers(
        workers_list: tuple[int, ...] = SCALING_WORKERS
) -> tuple[tuple[int, ...], list[int], str | None]:
    """(workers to run, workers skipped, note) for the scaling sections."""
    if (os.cpu_count() or 1) > 1:
        return workers_list, [], None
    kept = tuple(w for w in workers_list if w <= 1) or (1,)
    skipped = [w for w in workers_list if w > 1]
    return kept, skipped, SINGLE_CORE_NOTE


def _scaling_section(description: str, runner,
                     workers_list: tuple[int, ...]) -> dict:
    """Sweep ``runner(workers) -> (seconds, failures)`` over workers."""
    workers_list, skipped, note = resolve_scaling_workers(workers_list)
    per_workers = {}
    failures = set()
    for workers in workers_list:
        seconds, shots, run_failures = runner(workers)
        failures.add(run_failures)
        per_workers[str(workers)] = {
            "seconds": seconds,
            "shots_per_second": shots / seconds,
        }
    base = per_workers[str(workers_list[0])]["seconds"]
    section = {
        "description": description,
        "workers": per_workers,
        "speedup_vs_single": {
            w: base / stats["seconds"] for w, stats in per_workers.items()
        },
        "results_identical": len(failures) == 1,
    }
    if skipped:
        section["skipped_workers"] = skipped
        section["skip_note"] = note
        print(f"  note: {note}", flush=True)
    return section


def bench_sharded_memory(shots: int,
                         workers_list: tuple[int, ...] = SCALING_WORKERS
                         ) -> dict:
    """Multi-core scaling: the headline experiment sharded across workers.

    Packed backend only (the boolean reference is orders of magnitude
    off this budget).  Results are bit-identical across worker counts —
    the section records that alongside the throughputs.
    """
    def runner(workers):
        seconds, result = time_memory_experiment(shots, workers=workers)
        return seconds, shots, result.failures

    return _scaling_section(
        f"{BB_CODE} memory experiment, {shots} shots, packed backend, "
        f"workers sweep",
        runner, workers_list,
    )


def build_pipeline_handle() -> ExperimentHandle:
    """The headline workload as a fused-pipeline recipe (shared with
    ``check_bench.py`` so the gate measures the identical pipeline)."""
    code = code_by_name(BB_CODE)
    noise = HardwareNoiseModel.from_physical_error_rate(
        PHYSICAL_ERROR_RATE, round_latency_us=ROUND_LATENCY_US
    )
    model = build_phenomenological_model(code, noise, rounds=6)
    return ExperimentHandle(
        model.check_matrix, model.observable_matrix, model.priors,
        method="phenomenological", max_iterations=40,
    )


def time_sharded_pipeline(shots: int, workers: int = 1,
                          warmup_shots: int = 0,
                          shard_shots: int | None = None
                          ) -> tuple[float, object]:
    """Time one fused sample→decode pipeline run at the headline point.

    Pass a ``shard_shots`` below ``warmup_shots`` when measuring
    multi-worker runs at reduced budgets: a warmup that fits in one
    shard executes in-process and would leave pool spawn plus the
    workers' decoder builds inside the timed region.
    """
    handle = build_pipeline_handle()
    with ShardedExperiment(handle, workers=workers,
                           shard_shots=shard_shots) as sharded:
        if warmup_shots > 0:
            sharded.run(warmup_shots, seed=1)
        return _timed(lambda: sharded.run(shots, seed=0))


def bench_sharded_pipeline(shots: int,
                           workers_list: tuple[int, ...] = SCALING_WORKERS
                           ) -> dict:
    """The fused sample→decode pipeline in isolation, workers 1/2/4.

    Unlike ``sharded_memory_experiment`` this times
    ``ShardedExperiment.run`` directly — no noise-model or structure
    (re)builds — so the row is a clean measure of the sample+decode
    hot loop and of how it scales when every worker samples and decodes
    its own shards.
    """
    handle = build_pipeline_handle()

    def runner(workers):
        with ShardedExperiment(handle, workers=workers) as sharded:
            seconds, result = _timed(lambda: sharded.run(shots, seed=0))
        return seconds, shots, result.failures

    return _scaling_section(
        f"{BB_CODE} fused sample+decode pipeline, {shots} shots, "
        f"packed backend, workers sweep",
        runner, workers_list,
    )


#: Operating points of the adaptive-sweep benchmark: same BB code and
#: 50 ms latency as the headline, physical error rates whose LERs span
#: ~0.002 to ~0.12 — so, at equal *relative* confidence width, the
#: shots each point needs vary by ~70x while a fixed budget spends the
#: same everywhere.
ADAPTIVE_SWEEP_RATES = (1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3)

#: Shard size for both sweeps of the comparison: small enough that the
#: streaming engine can stop a point mid-run at useful granularity.
ADAPTIVE_SWEEP_SHARD_SHOTS = 256


def run_adaptive_sweep_comparison(shots: int) -> dict:
    """Fixed-budget vs adaptive sweep at equal worst-case Wilson width.

    Runs the LER sweep twice over :data:`ADAPTIVE_SWEEP_RATES`: once
    with a fixed ``shots`` budget per point, then adaptively
    (pilot/allocate/refine + streaming early stop) with the *relative*
    half-width target set to the widest relative interval the fixed
    sweep achieved — i.e. the adaptive sweep must deliver at least the
    fixed sweep's worst confidence quality, from the same average
    per-point budget, and is timed on how much faster it gets there.
    Shared by ``perf_smoke.py`` (committed section) and
    ``check_bench.py`` (regression gate) so both measure the identical
    workload.
    """
    code = code_by_name(BB_CODE)

    def run_sweep(target):
        return sweep_physical_error(
            code, ROUND_LATENCY_US, ADAPTIVE_SWEEP_RATES, shots=shots,
            seed=0, shard_shots=ADAPTIVE_SWEEP_SHARD_SHOTS,
            target_precision=target,
            pilot_shots=None if target is None else max(64, shots // 16),
        )

    fixed_seconds, fixed_table = _timed(lambda: run_sweep(None))
    # A zero-failure fixed row has no defined relative width: the fixed
    # sweep itself failed to measure that point, so it is excluded from
    # the target *and*, symmetrically, from the adaptive width check —
    # the comparison only holds the adaptive sweep to widths the fixed
    # sweep actually achieved.
    measurable = [
        index for index, row in enumerate(fixed_table.rows)
        if row["logical_error_rate"] > 0
    ]
    if not measurable:
        raise RuntimeError(
            "fixed sweep observed no failures at any point; increase the "
            "adaptive-sweep budget (REPRO_PERF_SWEEP_SHOTS / "
            "REPRO_CHECK_SHOTS)"
        )
    target_relative = max(
        ((fixed_table.rows[i]["ci_high"] - fixed_table.rows[i]["ci_low"])
         / 2.0) / fixed_table.rows[i]["logical_error_rate"]
        for i in measurable
    )
    target = PrecisionTarget(half_width=target_relative, relative=True)
    adaptive_seconds, adaptive_table = _timed(lambda: run_sweep(target))

    def row_width_ok(row):
        ler = row["logical_error_rate"]
        if ler <= 0:
            return False
        half = (row["ci_high"] - row["ci_low"]) / 2.0
        return half <= target_relative * ler * (1.0 + 1e-9)

    return {
        "description": f"{BB_CODE} LER sweep over p={ADAPTIVE_SWEEP_RATES}, "
                       f"fixed {shots} shots/point vs adaptive "
                       f"(pilot/allocate/refine + streaming early stop) at "
                       f"equal worst-case relative Wilson half-width",
        "fixed_seconds": fixed_seconds,
        "adaptive_seconds": adaptive_seconds,
        "speedup": fixed_seconds / adaptive_seconds,
        "target_relative_half_width": target_relative,
        "fixed_shots_total": shots * len(ADAPTIVE_SWEEP_RATES),
        "adaptive_shots_total": sum(
            row["shots_used"] for row in adaptive_table.rows),
        "adaptive_shots_per_point": [
            row["shots_used"] for row in adaptive_table.rows],
        "adaptive_stopped_early": [
            bool(row["stopped_early"]) for row in adaptive_table.rows],
        "measured_points": len(measurable),
        "width_ok": all(row_width_ok(adaptive_table.rows[i])
                        for i in measurable),
    }


def run_campaign_resume_comparison(budget: int) -> dict:
    """Cold vs store-resumed run of the bundled ``ci_smoke`` campaign.

    The cold run samples the campaign under its global budget and
    appends every point to a fresh result store; the resumed run must
    serve every point from the store — zero shots sampled — and render
    bit-identical tables.  Shared by ``perf_smoke.py`` (committed
    section) and ``check_bench.py`` (regression gate: correctness of
    the resume contract plus the wall-clock ratio).
    """
    import tempfile

    spec = load_spec("ci_smoke")
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "campaign_store.jsonl")
        cold_seconds, cold = _timed(
            lambda: run_campaign(spec, store=store, budget=budget))
        resumed_seconds, resumed = _timed(
            lambda: run_campaign(spec, store=store, budget=budget))
    tables_identical = all(
        a.to_json() == b.to_json()
        for a, b in zip(cold.tables, resumed.tables)
    )
    return {
        "description": f"ci_smoke campaign ({spec.num_points} points, "
                       f"budget {budget}), cold vs store-resumed",
        "budget": budget,
        "cold_seconds": cold_seconds,
        "resumed_seconds": resumed_seconds,
        "speedup": cold_seconds / max(resumed_seconds, 1e-9),
        "cold_shots_sampled": cold.shots_sampled,
        "resumed_shots_sampled": resumed.shots_sampled,
        "points_resumed": resumed.points_reused,
        "points_total": resumed.points_total,
        "tables_identical": tables_identical,
    }


def run_service_requests_comparison(budget: int,
                                    cached_jobs: int = 10,
                                    status_requests: int = 200) -> dict:
    """Served-campaign throughput: cold job vs cached resubmissions.

    Hosts the ``repro serve`` stack in-process (real sockets, real
    HTTP) on a temporary store, runs the bundled ``ci_smoke`` campaign
    once cold, then measures two request classes against the warm
    store: *cached resubmissions* — each a full ``POST /jobs`` →
    poll-to-done → ``GET /tables`` round trip that must sample zero
    shots and return byte-identical tables — and plain *status polls*
    (``GET /jobs/<id>``).  The cold/cached split is the serving-tier
    counterpart of the accelerator papers' RPC-vs-compute budget: it
    shows how much of a served request is HTTP + queue plumbing once
    the Monte Carlo work is cached.  Shared by ``perf_smoke.py``
    (committed section) and ``check_bench.py`` (regression gate:
    the zero-sampling/bit-identity contract plus a floor on cached
    jobs/second under ``REPRO_CHECK_SERVICE_MIN``).
    """
    import tempfile

    from repro.service import ServiceClient, ServiceThread

    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "served_store.jsonl")
        with ServiceThread(store) as service:
            client = ServiceClient(service.url)

            def run_job():
                view = client.submit("ci_smoke", budget=budget)
                final = client.wait(view["job"], poll=0.005)
                if final["state"] != "done":
                    raise RuntimeError(
                        f"served job ended {final['state']}: "
                        f"{final['error']}")
                return final, client.tables_bytes(view["job"])

            cold_seconds, (cold, cold_bytes) = _timed(run_job)

            cached_sampled = 0
            identical = True
            def run_cached():
                nonlocal cached_sampled, identical
                for _ in range(cached_jobs):
                    final, body = run_job()
                    cached_sampled += final["stats"]["shots_sampled"]
                    identical &= body == cold_bytes
            cached_seconds, _ = _timed(run_cached)

            job_id = cold["job"]
            status_seconds, _ = _timed(
                lambda: [client.job(job_id)
                         for _ in range(status_requests)])

    cached_per_job = cached_seconds / cached_jobs
    return {
        "description": f"ci_smoke (budget {budget}) served over HTTP: "
                       "cold job vs cached resubmissions vs status polls",
        "budget": budget,
        "cold_seconds": cold_seconds,
        "cold_shots_sampled": cold["stats"]["shots_sampled"],
        "cached_jobs": cached_jobs,
        "cached_seconds": cached_seconds,
        "cached_jobs_per_second": cached_jobs / max(cached_seconds, 1e-9),
        "cached_shots_sampled": cached_sampled,
        "cached_tables_identical": identical,
        "speedup": cold_seconds / max(cached_per_job, 1e-9),
        "status_requests": status_requests,
        "status_requests_per_second":
            status_requests / max(status_seconds, 1e-9),
    }


def main() -> None:
    shots = _int_env("REPRO_PERF_SHOTS", 10_000)
    decode_shots = _int_env("REPRO_PERF_DECODE_SHOTS", 2_000)
    frame_shots = _int_env("REPRO_PERF_FRAME_SHOTS", 20_000)
    shard_shots = _int_env("REPRO_PERF_SHARD_SHOTS", 100_000)
    sweep_shots = _int_env("REPRO_PERF_SWEEP_SHOTS", 4_000)
    campaign_budget = _int_env("REPRO_PERF_CAMPAIGN_BUDGET", 3_000)
    service_budget = _int_env("REPRO_PERF_SERVICE_BUDGET", 900)

    sections = {}
    print(f"frame sampling ({frame_shots} shots)...", flush=True)
    sections["frame_sampling"] = bench_frame_sampling(frame_shots)
    print("dem extraction...", flush=True)
    sections["dem_extraction"] = bench_dem_extraction()
    print(f"batched decode ({decode_shots} shots)...", flush=True)
    sections["batched_decode"] = bench_batched_decode(decode_shots)
    print(f"native decode ({decode_shots} shots, native C kernels vs "
          "packed)...", flush=True)
    sections["native_decode"] = run_native_decode_comparison(decode_shots)
    print(f"memory experiment ({shots} shots, slow: runs the boolean "
          "reference too)...", flush=True)
    sections["memory_experiment"] = bench_memory_experiment(shots)
    print(f"sharded memory experiment ({shard_shots} shots, "
          "workers 1/2/4)...", flush=True)
    sections["sharded_memory_experiment"] = bench_sharded_memory(shard_shots)
    print(f"sharded pipeline ({shard_shots} shots, workers 1/2/4)...",
          flush=True)
    sections["sharded_pipeline"] = bench_sharded_pipeline(shard_shots)
    print(f"adaptive sweep ({sweep_shots} shots/point fixed vs adaptive)...",
          flush=True)
    sections["adaptive_sweep"] = run_adaptive_sweep_comparison(sweep_shots)
    print(f"campaign resume (ci_smoke, budget {campaign_budget}, cold vs "
          "resumed)...", flush=True)
    sections["campaign_resume"] = run_campaign_resume_comparison(
        campaign_budget)
    print(f"service requests (ci_smoke, budget {service_budget}, cold job "
          "vs cached resubmissions over HTTP)...", flush=True)
    sections["service_requests"] = run_service_requests_comparison(
        service_budget)

    report = {
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "budgets": {
            "memory_experiment_shots": shots,
            "batched_decode_shots": decode_shots,
            "native_decode_shots": decode_shots,
            "frame_sampling_shots": frame_shots,
            "sharded_memory_experiment_shots": shard_shots,
            "adaptive_sweep_shots": sweep_shots,
            "campaign_resume_budget": campaign_budget,
            "service_requests_budget": service_budget,
        },
        "sections": sections,
        "headline_speedup": sections["memory_experiment"]["speedup"],
    }
    OUTPUT_PATH.write_text(json.dumps(report, indent=2) + "\n")

    print()
    for name, section in sections.items():
        if "bool_seconds" not in section:
            continue
        print(f"{name:20s} packed {section['packed_seconds']:8.2f}s  "
              f"bool {section['bool_seconds']:8.2f}s  "
              f"speedup {section['speedup']:6.1f}x")
    native = sections["native_decode"]
    if "skipped_reason" in native:
        print(f"native_decode        skipped: {native['skipped_reason']}")
    else:
        print(f"{'native_decode':20s} packed {native['packed_seconds']:8.2f}s"
              f"  native {native['native_seconds']:6.2f}s  "
              f"speedup {native['speedup']:6.1f}x (target >= 2x)")
    for name in ("sharded_memory_experiment", "sharded_pipeline"):
        sharded = sections[name]
        print(f"{name}:")
        for workers, stats in sharded["workers"].items():
            print(f"  workers={workers:<3s}        {stats['seconds']:8.2f}s  "
                  f"{stats['shots_per_second']:10.0f} shots/s  "
                  f"x{sharded['speedup_vs_single'][workers]:.2f} vs 1 worker")
        if sharded.get("skipped_workers"):
            print(f"  (skipped workers {sharded['skipped_workers']}: "
                  "single-core host)")
    adaptive = sections["adaptive_sweep"]
    print("adaptive_sweep:")
    print(f"  fixed    {adaptive['fixed_seconds']:8.2f}s  "
          f"({adaptive['fixed_shots_total']} shots)")
    print(f"  adaptive {adaptive['adaptive_seconds']:8.2f}s  "
          f"({adaptive['adaptive_shots_total']} shots)  "
          f"x{adaptive['speedup']:.2f} at equal width "
          f"(width_ok={adaptive['width_ok']}, target >= 3x)")
    campaign = sections["campaign_resume"]
    print("campaign_resume:")
    print(f"  cold     {campaign['cold_seconds']:8.2f}s  "
          f"({campaign['cold_shots_sampled']} shots sampled)")
    print(f"  resumed  {campaign['resumed_seconds']:8.2f}s  "
          f"({campaign['resumed_shots_sampled']} shots sampled)  "
          f"x{campaign['speedup']:.2f}  "
          f"tables_identical={campaign['tables_identical']}")
    service = sections["service_requests"]
    print("service_requests:")
    print(f"  cold job {service['cold_seconds']:8.2f}s  "
          f"({service['cold_shots_sampled']} shots sampled)")
    print(f"  cached   {service['cached_jobs_per_second']:8.1f} jobs/s  "
          f"({service['cached_shots_sampled']} shots sampled, "
          f"tables_identical={service['cached_tables_identical']})")
    print(f"  status   {service['status_requests_per_second']:8.0f} "
          "requests/s")
    print(f"\nheadline speedup: {report['headline_speedup']:.1f}x "
          f"(target >= 5x) on {report['cpu_count']} cores; "
          f"wrote {OUTPUT_PATH}")


if __name__ == "__main__":
    main()
