"""The library layers the traced run attributes time to.

:func:`install` wraps each layer's public entry points with spans and
counters (see ``README.md`` for the layer table); :func:`layer_metrics`
turns a finished trace into the ``per_layer`` metrics named in
``BENCHMARK.json``.  Nothing here changes what the wrapped calls
compute: every wrapper calls the original with the same arguments and
returns its result untouched.
"""

from __future__ import annotations

import os
import pickle
import statistics

from spans import Patches, Tracer, self_times, spanned

#: Compiler module -> the family named in ``qccd.compile_s.<family>``.
COMPILER_FAMILIES = ("ejf", "dynamic", "mesh", "variants", "cyclone")

#: Every per-layer metric, in ``BENCHMARK.json`` order, with its unit.
PER_LAYER = {
    "qccd.compile_s": "s",
    **{f"qccd.compile_s.{family}": "s" for family in COMPILER_FAMILIES},
    "qccd.compiles": "count",
    "qccd.ops_emitted": "count",
    "codes.build_s": "s",
    "phenom.model_s": "s",
    "phenom.sample_s": "s",
    "phenom.shots": "count",
    "circuits.build_s": "s",
    "sim.dem_s": "s",
    "sim.dem_builds": "count",
    "sim.frame_s": "s",
    "sim.frame_shots": "count",
    "bp.s": "s",
    "bp.shots": "count",
    "bp.iterations": "count",
    "bp.converged_share": "fraction",
    "osd.s": "s",
    "osd.shots": "count",
    "osd.factor_hit_share": "fraction",
    "linalg.native_active": "flag",
    "pipeline.self_s": "s",
    "pipeline.shards": "count",
    "pipeline.resubmits": "count",
    "pipeline.payload_bytes": "bytes",
    "pool.cpu_util": "fraction",
    "campaign.self_s": "s",
    "campaign.alloc_s": "s",
    "campaign.points_reused": "count",
    "campaign.shots_sampled": "count",
    "store.append_s": "s",
    "store.appends": "count",
    "store.bytes_written": "bytes",
    "store.refresh_s": "s",
    "store.read_s": "s",
    "http.post_ms": "ms",
    "http.poll_ms": "ms",
    "http.tables_ms": "ms",
    "queue.wait_ms": "ms",
    "queue.exec_ms": "ms",
    "service.protocol_s": "s",
    "gen.lateness_ms": "ms",
    "gen.backlog_max": "count",
    "unattributed_share": "fraction",
    "trace.overhead_share": "fraction",
}

#: Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "codes.build": "codes.build_s",
    "phenom.model": "phenom.model_s",
    "phenom.sample": "phenom.sample_s",
    "circuits.build": "circuits.build_s",
    "sim.dem": "sim.dem_s",
    "sim.frame": "sim.frame_s",
    "bp": "bp.s",
    "osd": "osd.s",
    "pipeline": "pipeline.self_s",
    "campaign": "campaign.self_s",
    "campaign.alloc": "campaign.alloc_s",
    "store.append": "store.append_s",
    "store.refresh": "store.refresh_s",
    "store.read": "store.read_s",
    "service.protocol": "service.protocol_s",
    **{f"qccd.compile.{family}": f"qccd.compile_s.{family}"
       for family in COMPILER_FAMILIES},
}

#: Client spans whose median duration is reported in milliseconds.
LATENCY_SPANS = {"http.post": "http.post_ms", "http.poll": "http.poll_ms",
                 "http.tables": "http.tables_ms"}

#: The harness's span around each traced repetition: time left in its
#: self time is what no layer accounts for.
ROOT_SPAN = "bench.timed"


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; ``restore()`` undoes it."""
    from repro.campaign import orchestrator
    from repro.campaign.store import ResultStore
    from repro.circuits import builder
    from repro.codes import library
    from repro.core import phenomenological, sweep
    from repro.decoders.bp import BeliefPropagationDecoder
    from repro.decoders.bposd import BPOSDDecoder
    from repro.parallel.pipeline import ShardedExperiment
    from repro.qccd import compilers
    from repro.service import protocol
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobQueue
    from repro.sim import frame
    from repro.sim.dem import DemStructureCache

    patches = Patches()
    add = tracer.add

    # qccd: each concrete Compiler.compile, attributed to the module
    # (family) of the instance's class.  Nested compiles (a subclass
    # calling up) count once.
    def compile_done(_, args, kwargs, result):
        if not tracer.inside("qccd.compile."):
            add("qccd.compiles")
            add("qccd.ops_emitted", result.num_operations)

    for name in compilers.__all__:
        cls = getattr(compilers, name)
        if isinstance(cls, type) and "compile" in vars(cls):
            patches.set(cls, "compile", spanned(
                tracer, vars(cls)["compile"],
                lambda args: "qccd.compile."
                + type(args[0]).__module__.rsplit(".", 1)[-1],
                after=compile_done))

    patches.function(library.code_by_name, spanned(
        tracer, library.code_by_name, "codes.build"))

    patches.function(phenomenological.build_phenomenological_model, spanned(
        tracer, phenomenological.build_phenomenological_model,
        "phenom.model"))
    patches.function(phenomenological.sample_phenomenological_shard, spanned(
        tracer, phenomenological.sample_phenomenological_shard,
        "phenom.sample",
        after=lambda _, args, kw, r: add("phenom.shots",
                                         kw.get("shots", args[3]
                                                if len(args) > 3 else 0))))

    patches.function(builder.memory_experiment_circuit, spanned(
        tracer, builder.memory_experiment_circuit, "circuits.build"))
    patches.set(DemStructureCache, "model_for", spanned(
        tracer, DemStructureCache.model_for, "sim.dem",
        before=lambda args, kw: args[0].builds,
        after=lambda builds, args, kw, r: add("sim.dem_builds",
                                              args[0].builds - builds)))
    patches.function(frame.sample_circuit_shard, spanned(
        tracer, frame.sample_circuit_shard, "sim.frame",
        after=lambda _, args, kw, r: add("sim.frame_shots",
                                         kw.get("shots", args[1]
                                                if len(args) > 1 else 0))))

    def bp_done(_, args, kw, result):
        add("bp.shots", result.errors.shape[0])
        add("bp.iterations", result.iterations)
        add("bp.converged", int(result.converged.sum()))

    patches.set(BeliefPropagationDecoder, "decode_batch", spanned(
        tracer, BeliefPropagationDecoder.decode_batch, "bp", after=bp_done))

    def osd_done(hits, args, kw, result):
        decoder = args[0]
        add("osd.shots", int((~result.bp_converged).sum()))
        add("osd.factor_hits", decoder._packed.factor_cache_hits - hits)
        tracer.counters["linalg.native_active"] = max(
            tracer.counters["linalg.native_active"],
            float(decoder.native_active))

    patches.set(BPOSDDecoder, "decode_batch", spanned(
        tracer, BPOSDDecoder.decode_batch, "osd",
        before=lambda args, kw: args[0]._packed.factor_cache_hits,
        after=osd_done))

    def pipeline_done(_, args, kw, result):
        experiment = args[0]
        stats = experiment.last_run_stats
        add("pipeline.shards", stats["shards_run"])
        add("pipeline.resubmits", stats["shards_resubmitted"])
        # Computed, not observed: what one shard task pickles for a
        # pool worker (priors, seed, size), times the shards run, plus
        # the circuit once on the circuit method.
        priors = kw.get("priors")
        if priors is None:
            priors = experiment.handle.decoder.priors
        per_task = len(pickle.dumps((priors, args[2], args[1])))
        circuit = kw.get("circuit")
        add("pipeline.payload_bytes", stats["shards_run"] * per_task
            + (len(pickle.dumps(circuit)) if circuit is not None else 0))

    patches.set(ShardedExperiment, "run", spanned(
        tracer, ShardedExperiment.run, "pipeline", after=pipeline_done))

    def campaign_done(_, args, kw, result):
        add("campaign.points_reused", result.points_reused)
        add("campaign.shots_sampled", result.shots_sampled)

    patches.function(orchestrator.run_campaign, spanned(
        tracer, orchestrator.run_campaign, "campaign", after=campaign_done))
    patches.function(sweep.allocate_shots, spanned(
        tracer, sweep.allocate_shots, "campaign.alloc"))

    def store_size(args, kw):
        path = args[0].path
        return path.stat().st_size if path.exists() else 0

    def append_done(size, args, kw, result):
        add("store.appends")
        add("store.bytes_written", os.path.getsize(args[0].path) - size)

    patches.set(ResultStore, "append", spanned(
        tracer, ResultStore.append, "store.append", before=store_size,
        after=append_done))
    patches.set(ResultStore, "refresh", spanned(
        tracer, ResultStore.refresh, "store.refresh"))
    for method in ("get", "final_for"):
        patches.set(ResultStore, method, spanned(
            tracer, vars(ResultStore)[method], "store.read"))

    for method, span in (("submit", "http.post"), ("job", "http.poll"),
                         ("tables_bytes", "http.tables")):
        patches.set(ServiceClient, method, spanned(
            tracer, vars(ServiceClient)[method], span))
    for function in (protocol.parse_submission, protocol.encode_json):
        patches.function(function, spanned(tracer, function,
                                           "service.protocol"))
    patches.set(JobQueue, "submit", spanned(
        tracer, JobQueue.submit, "service.protocol"))
    return patches


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], counters: dict,
                  samples: dict) -> dict[str, float]:
    """Every per-layer metric of a finished trace.

    ``samples`` carries values the harness measured outside the spans
    (``queue.wait_ms``, ``gen.lateness_ms``, ``pool.cpu_util``, ...);
    each is reported as its median, ``gen.backlog_max`` as its maximum.
    """
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    selfs = self_times(spans)
    root_total = root_self = 0.0
    for span, seconds in zip(spans, selfs):
        name = span["name"]
        metric = SELF_TIME_METRICS.get(name)
        if metric is not None:
            metrics[metric] += seconds
        if name.startswith("qccd.compile."):
            metrics["qccd.compile_s"] += seconds
        if name == ROOT_SPAN and span["end_ns"] is not None:
            root_total += (span["end_ns"] - span["start_ns"]) / 1e9
            root_self += seconds
    for name, metric in LATENCY_SPANS.items():
        metrics[metric] = _median(
            (s["end_ns"] - s["start_ns"]) / 1e6 for s in spans
            if s["name"] == name and s["end_ns"] is not None)
    for name in ("qccd.compiles", "qccd.ops_emitted", "phenom.shots",
                 "sim.dem_builds", "sim.frame_shots", "bp.shots",
                 "bp.iterations", "osd.shots", "linalg.native_active",
                 "pipeline.shards", "pipeline.resubmits",
                 "pipeline.payload_bytes", "campaign.points_reused",
                 "campaign.shots_sampled", "store.appends",
                 "store.bytes_written"):
        metrics[name] = float(counters.get(name, 0.0))
    if counters.get("bp.shots"):
        metrics["bp.converged_share"] = (counters.get("bp.converged", 0.0)
                                         / counters["bp.shots"])
    if counters.get("osd.shots"):
        metrics["osd.factor_hit_share"] = (
            counters.get("osd.factor_hits", 0.0) / counters["osd.shots"])
    for name in ("queue.wait_ms", "queue.exec_ms", "gen.lateness_ms",
                 "pool.cpu_util", "trace.overhead_share"):
        metrics[name] = _median(samples.get(name, ()))
    metrics["gen.backlog_max"] = max(samples.get("gen.backlog_max", ()),
                                     default=0.0)
    metrics["unattributed_share"] = (root_self / root_total
                                     if root_total else 0.0)
    return metrics
