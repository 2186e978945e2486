"""The campaign orchestrator: every sweep, one budget, one pool.

A campaign runs one pilot/allocate/refine schedule
(:func:`_pilot_and_refine`) **across sweeps**: every curve point of
every sweep joins a single pool, and the global shot budget flows to
whichever points — in whichever sweeps — still need confidence width.

This module is the only code that samples a point.  The standalone
sweeps (:func:`~repro.campaign.kinds.run_sweep_kind`,
:func:`~repro.core.sweep.sweep_physical_error`,
:func:`~repro.core.sweep.sweep_architectures`) are one-sweep campaigns
on no store (:func:`run_standalone_sweep`), so each equals, byte for
byte, the one-sweep :func:`run_campaign` of the same sweep.

What a sweep *means* is delegated to the sweep-kind registry
(:mod:`repro.campaign.kinds`): each kind expands its spec into
:class:`~repro.campaign.kinds.ExpandedPoint` entries — the static table
cells, the operating point, optional per-point overrides (own code,
rounds, basis, shard size, BP iterations, budget pins) and an optional
differential-oracle check.  Points with ``sampled=False`` (the analytic
compiler/swap tables) appear in the result tables but never touch the
budget or the store.  Points carrying an
:class:`~repro.campaign.kinds.OracleCheck` (the ``scenario_sweep``
kind) are replayed after every sampling stage by
:func:`~repro.campaign.scenarios.run_scenario` on the reference backend
(``workers=1``) and must match bit for bit — a mismatch minimizes the
scenario to a replayable JSON file and raises
:class:`~repro.campaign.scenarios.ScenarioMismatch`.  Oracle re-runs
are a *check*, not an estimate, so their shots do not count against
the campaign budget.

Determinism and resume
----------------------
The seed rule: every point samples stage *s* (pilot 0, refine round
*r* is *r + 1*) from ``SeedSequence(entropy=spec.seed,
spawn_key=(sweep_index, point_index, s))`` — a pure function of the
spec, never of execution order — so a point's tally does not depend on
which other points ran before it, nor on the worker count.  A
standalone sweep is sweep 0 of its one-sweep campaign.  (Points that
carry their own entropy — a scenario's stored seed — use
``SeedSequence(entropy=point_entropy, spawn_key=(s,))`` instead, so the
stored scenario file replays identically outside the campaign.)
Completed points are appended to a :class:`~repro.campaign.store.ResultStore`
the moment the campaign finalises them; a re-run against the same store
reuses every record (zero shots sampled) and re-renders the identical
tables, because rows are a pure function of the stored tallies
(:func:`~repro.core.sweep.tally_point_fields`).

All sweeps share one :class:`~repro.parallel.pipeline.SharedPool` — the
campaign spawns worker processes once (none at ``workers=1``), and the
workers keep per-code pipeline state in a fingerprint-keyed cache.
Results are bit-identical for any worker count.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, field, replace

import numpy as np

from repro.campaign.coordination import (
    LeaseLost,
    LeaseManager,
    WorkerIdentity,
)
from repro.campaign.kinds import ExpandedPoint, OracleCheck, kind_by_name
from repro.campaign.scenarios import report_scenario_mismatch, run_scenario
from repro.campaign.spec import CampaignSpec, SweepSpec
from repro.campaign.store import ResultStore, fingerprint
from repro.codes import code_by_name
from repro.codes.css import CSSCode
from repro.core.memory import MemoryExperiment, effective_rounds
from repro.core.results import PRECISION_COLUMNS, ResultTable
from repro.core.stats import PrecisionTarget
from repro.core.sweep import allocate_shots, tally_point_fields
from repro.parallel.faults import active_plan
from repro.parallel.pipeline import SharedPool

__all__ = ["CampaignInterrupted", "CampaignResult", "JoinedCampaign",
           "run_campaign"]

#: Hard ceiling on refine rounds — each round spends real budget, so
#: this only guards against a pathological no-progress loop.
_MAX_REFINE_ROUNDS = 8

#: Smallest refine allocation worth dispatching (one worthwhile shard).
_MIN_REFINE_SHOTS = 32


class CampaignInterrupted(RuntimeError):
    """A campaign stopped cleanly before finishing its budget.

    Raised when the ``stop`` callback (wired to SIGINT/SIGTERM by the
    CLI) or an injected ``sigterm_after_points`` fault fires: every
    point already finalised has been flushed to the store, no further
    sampling starts, and the pool is released on the way out.  A rerun
    against the same store resumes from everything flushed."""


def _point_seed(seed: int, sweep_index: int, point_index: int,
                stage: int) -> np.random.SeedSequence:
    """The seed for one (point, stage): pilot is stage 0, refine round
    ``r`` is stage ``r + 1``.  A pure function of the spec's seed and
    the point's position — execution order never enters."""
    return np.random.SeedSequence(
        entropy=seed, spawn_key=(sweep_index, point_index, stage))


@dataclass
class _CampaignPoint:
    """One estimation point, expanded from a sweep spec via its kind."""

    sweep_index: int
    point_index: int
    sweep: SweepSpec
    row: dict
    sampled: bool
    physical_error_rate: float
    round_latency_us: float
    rounds: int
    target: PrecisionTarget
    cap: int
    pilot: int
    key: str
    params: dict
    code: object = None
    basis: str = "Z"
    shard_shots: int | None = None
    max_bp_iterations: int = 40
    experiment_key: str = ""
    seed_entropy: int | None = None
    oracle: OracleCheck | None = None
    tally: list[int] = field(default_factory=lambda: [0, 0])
    reused: bool = False
    # Per-stage sampling log: [{"stage", "allocation", "failures",
    # "shots"}, ...], checkpointed to the store after every fresh stage
    # so a crash mid-point resumes from folded stages.  ``replay`` is
    # the stage → entry map rebuilt from such a partial record.
    stage_log: list = field(default_factory=list)
    replay: dict | None = None

    def fields(self) -> dict:
        return tally_point_fields(self.tally[0], self.tally[1], self.rounds,
                                  self.target, self.cap)

    def settled(self, failures: int, shots: int) -> bool:
        """Whether a tally of this point is final on merit: target met
        or cap reached."""
        return self.target.met(failures, shots) or shots >= self.cap

    def reset(self, failures: int = 0, shots: int = 0) -> None:
        """Drop this run's sampling of the point: the tally becomes
        ``(failures, shots)`` and nothing is logged or replayed."""
        self.tally[:] = [failures, shots]
        self.stage_log.clear()
        self.replay = None


@dataclass
class CampaignResult:
    """Outcome of a campaign run: the tables plus the budget ledger.

    ``shots_sampled`` counts fresh Monte-Carlo work this run performed;
    ``shots_reused`` counts tallies served by whole-point store
    records; ``shots_replayed`` counts stages served by *partial*
    checkpoint records (a crash mid-point left a stage log behind).
    Their sum never exceeds ``budget`` (store records count against the
    budget exactly as they did when first sampled).  ``points_total``
    and ``targets_met`` count *sampled* points only — analytic rows
    (``compiler_comparison``, ``swap_kind``) have no budget story.

    Joined (multi-host) runs add three fields: ``shots_external``
    counts points finalised *by other workers* during this run (so
    every worker's ``spent`` reports the same global total and writes
    byte-identical summaries); ``shots_forfeited`` counts work this
    worker discarded after losing a lease mid-point (outside ``spent``
    — the usurper's final record carries those shots); ``worker`` is
    this process's lease identity.
    """

    spec: CampaignSpec
    tables: list[ResultTable]
    budget: int
    points_total: int
    points_reused: int
    shots_sampled: int
    shots_reused: int
    targets_met: int
    store_path: str | None = None
    shots_replayed: int = 0
    shots_external: int = 0
    shots_forfeited: int = 0
    worker: str | None = None

    @property
    def spent(self) -> int:
        return (self.shots_sampled + self.shots_reused
                + self.shots_replayed + self.shots_external)

    def summary_table(self) -> ResultTable:
        """Per-sweep rollup.  Deliberately free of the sampled/reused
        split (that is this *run's* ledger, see :meth:`stats_dict`), so
        a resumed campaign saves byte-identical summary files."""
        table = ResultTable(
            title=f"Campaign {self.spec.name}: "
                  f"{self.spent}/{self.budget} shots spent",
            columns=["sweep", "points", "shots_used", "targets_met"],
        )
        for sweep, sweep_table in zip(self.spec.sweeps, self.tables):
            sampled = [row for row in sweep_table.rows
                       if "shots_used" in row]
            table.add_row(
                sweep=sweep.name, points=len(sampled),
                shots_used=sum(row["shots_used"] for row in sampled),
                targets_met=sum(
                    1 for row in sampled
                    if sweep.target.met(row["failures"],
                                        row["shots_used"])),
            )
        return table

    def stats_dict(self) -> dict:
        """JSON-safe run ledger (what ``repro campaign --summary``
        writes): budget, sampled-vs-reused shots, resumed points."""
        return {
            "campaign": self.spec.name,
            "budget": self.budget,
            "spent": self.spent,
            "shots_sampled": self.shots_sampled,
            "shots_reused": self.shots_reused,
            "shots_replayed": self.shots_replayed,
            "shots_external": self.shots_external,
            "shots_forfeited": self.shots_forfeited,
            "points_total": self.points_total,
            "points_reused": self.points_reused,
            "targets_met": self.targets_met,
            "store": self.store_path,
            "worker": self.worker,
        }


def _point_final(point: _CampaignPoint, stored_keys: set[str]) -> bool:
    """Whether a sampled point can no longer change in this run."""
    return (point.reused or point.key in stored_keys
            or point.settled(*point.tally))


def _progress_snapshot(spec: CampaignSpec, points: list[_CampaignPoint],
                       phase: str, round_index: int | None, budget: int,
                       shots_sampled: int, shots_reused: int,
                       shots_replayed: int, shots_external: int,
                       stored_keys: set[str]) -> dict:
    """JSON-safe view of a running campaign for progress callbacks.

    This is the payload ``repro serve`` exposes at ``GET /jobs/<id>``,
    so it is part of the service protocol: points done, the shot
    ledger so far, and per-sweep confidence-interval widths (the
    worst remaining half-width per sweep, relative when the sweep's
    target is).  A pure function of its inputs — emitting progress
    never perturbs the run.
    """
    sweeps = []
    for sweep_index, sweep in enumerate(spec.sweeps):
        sweep_points = [point for point in points
                        if point.sweep_index == sweep_index and point.sampled]
        max_half_width = None
        for point in sweep_points:
            failures, shots = point.tally
            if shots <= 0:
                continue
            fields = tally_point_fields(failures, shots, point.rounds,
                                        point.target, point.cap)
            half = (fields["ci_high"] - fields["ci_low"]) / 2.0
            if point.target.relative and fields["logical_error_rate"] > 0:
                half /= fields["logical_error_rate"]
            if max_half_width is None or half > max_half_width:
                max_half_width = half
        sweeps.append({
            "sweep": sweep.name,
            "kind": sweep.kind,
            "points": len(sweep_points),
            "points_final": sum(1 for point in sweep_points
                                if _point_final(point, stored_keys)),
            "max_ci_half_width": max_half_width,
            "target": sweep.target.to_dict(),
        })
    sampled = [point for point in points if point.sampled]
    return {
        "phase": phase,
        "round": round_index,
        "budget": budget,
        "points_total": len(sampled),
        "points_final": sum(1 for point in sampled
                            if _point_final(point, stored_keys)),
        "shots_sampled": shots_sampled,
        "shots_reused": shots_reused,
        "shots_replayed": shots_replayed,
        "shots_external": shots_external,
        "sweeps": sweeps,
    }


def _sweep_points(sweep: SweepSpec, sweep_index: int,
                  expanded_points: list[ExpandedPoint],
                  code: CSSCode | None, budget: int, per_point: int,
                  seed: int, campaign_fp: str) -> list[_CampaignPoint]:
    """Resolve one sweep's expanded points against the sweep's knobs.

    A point's own overrides (code, rounds, basis, shard size, BP
    iterations, budget pins) win over the sweep's fields.  The
    store key of a sampled point fingerprints everything that shapes
    its tally: the campaign fingerprint, the point's position, its
    full experiment configuration and the kind-specific parameters the
    expansion attached.  Unsampled points get no key (they never reach
    the store).
    """
    points = []
    cap_default = (sweep.max_shots if sweep.max_shots is not None
                   else budget)
    cap_default = max(1, min(int(cap_default), budget))
    if sweep.pilot_shots is not None:
        pilot_default = max(1, int(sweep.pilot_shots))
    else:
        # A quarter of the per-point budget share, clamped to [32, 512].
        pilot_default = max(_MIN_REFINE_SHOTS, min(int(per_point) // 4, 512))
    for point_index, expanded in enumerate(expanded_points):
        point_code = expanded.code if expanded.code is not None else code
        rounds = effective_rounds(
            point_code,
            expanded.rounds if expanded.rounds is not None
            else sweep.rounds) if point_code is not None else 1
        basis = (expanded.basis if expanded.basis is not None
                 else sweep.basis)
        shard_shots = (expanded.shard_shots
                       if expanded.shard_shots is not None
                       else sweep.shard_shots)
        max_bp = (expanded.max_bp_iterations
                  if expanded.max_bp_iterations is not None
                  else sweep.max_bp_iterations)
        if not expanded.sampled:
            points.append(_CampaignPoint(
                sweep_index=sweep_index, point_index=point_index,
                sweep=sweep, row=dict(expanded.row), sampled=False,
                physical_error_rate=expanded.physical_error_rate,
                round_latency_us=expanded.round_latency_us,
                rounds=rounds, target=sweep.target, cap=0, pilot=0,
                key="", params={},
            ))
            continue
        cap = cap_default
        if expanded.cap is not None:
            cap = max(1, min(int(expanded.cap), budget))
        pilot = (pilot_default if expanded.pilot is None
                 else max(1, int(expanded.pilot)))
        pilot = min(pilot, cap)
        params = {
            "campaign": campaign_fp,
            "sweep": sweep.name,
            "kind": sweep.kind,
            "sweep_index": sweep_index,
            "point_index": point_index,
            "code": point_code.name if point_code is not None else "",
            "method": sweep.method,
            "basis": basis,
            "backend": sweep.backend,
            "rounds": rounds,
            "shard_shots": shard_shots,
            "max_bp_iterations": max_bp,
            "osd_order": sweep.osd_order,
            "physical_error_rate": expanded.physical_error_rate,
            "round_latency_us": expanded.round_latency_us,
            "target": sweep.target.to_dict(),
            "cap": cap,
            "pilot": pilot,
            "seed": (expanded.seed_entropy
                     if expanded.seed_entropy is not None else seed),
        }
        params.update(expanded.params)
        points.append(_CampaignPoint(
            sweep_index=sweep_index, point_index=point_index,
            sweep=sweep, row=dict(expanded.row), sampled=True,
            physical_error_rate=expanded.physical_error_rate,
            round_latency_us=expanded.round_latency_us,
            rounds=rounds, target=sweep.target, cap=cap, pilot=pilot,
            key=fingerprint(params), params=params,
            code=point_code, basis=basis, shard_shots=shard_shots,
            max_bp_iterations=max_bp, experiment_key=expanded.experiment_key,
            seed_entropy=expanded.seed_entropy,
            oracle=expanded.oracle,
        ))
    return points


def _expand_points(spec: CampaignSpec, budget: int,
                   campaign_fp: str) -> list[_CampaignPoint]:
    """Expand the spec via each sweep's kind (latencies compiled here).

    Every sweep expands once; the per-point budget share divides the
    budget by the sampled points those expansions hold."""
    expansions = []
    for sweep in spec.sweeps:
        kind = kind_by_name(sweep.kind)
        code = code_by_name(sweep.code) if kind.needs_code else None
        expansions.append((sweep, code, kind.expand(sweep, code)))
    sampled = sum(point.sampled for _, _, expanded in expansions
                  for point in expanded)
    per_point = max(1, budget // max(1, sampled))
    points = []
    for sweep_index, (sweep, code, expanded) in enumerate(expansions):
        points += _sweep_points(sweep, sweep_index, expanded, code, budget,
                                per_point, spec.seed, campaign_fp)
    return points


def _partition_points(points: list[_CampaignPoint], budget: int) -> None:
    """Statically partition the global budget across the sampled points.

    Joined (multi-host) mode cannot run the *global* variance-weighted
    allocator — it would need every worker's live tallies, exactly the
    coordination traffic the design forbids.  Instead each point gets a
    fixed share (budget // n, remainder to the earliest points) as its
    cap, and each point's pilot/refine schedule becomes a pure function
    of that point alone — so any worker that claims it produces the
    bit-identical tally, and ``--join`` with N hosts equals ``--join``
    with one.  The share, the clamped pilot and a ``coordination``
    marker are folded into the point's params (and thus its store key),
    so joined records and plain-campaign records never cross-match.
    """
    sampled = [point for point in points if point.sampled]
    if not sampled:
        return
    base, remainder = divmod(budget, len(sampled))
    for index, point in enumerate(sampled):
        share = max(1, base + (1 if index < remainder else 0))
        point.cap = max(1, min(point.cap, share))
        point.pilot = max(1, min(point.pilot, point.cap))
        point.params = dict(point.params, cap=point.cap, pilot=point.pilot,
                            coordination="lease-v1")
        point.key = fingerprint(point.params)


def _build_tables(spec: CampaignSpec,
                  points: list[_CampaignPoint]) -> list[ResultTable]:
    tables = []
    for sweep_index, sweep in enumerate(spec.sweeps):
        kind = kind_by_name(sweep.kind)
        sweep_points = [point for point in points
                        if point.sweep_index == sweep_index]
        columns = list(kind.static_columns(sweep))
        any_sampled = any(point.sampled for point in sweep_points)
        if kind.sampled and any_sampled:
            columns += (["failures", "logical_error_rate", "ler_per_round"]
                        + PRECISION_COLUMNS)
        elif kind.sampled:
            columns += ["logical_error_rate"]
        table = ResultTable(
            title=f"{spec.name} / {sweep.name}: {kind.title(sweep)}",
            columns=columns,
        )
        for point in sweep_points:
            row = dict(point.row)
            if point.sampled:
                row.update(point.fields())
            elif kind.sampled:
                row["logical_error_rate"] = float("nan")
            table.add_row(**row)
        tables.append(table)
    return tables


class _PointRunner:
    """The per-point stage work shared by plain and joined campaigns.

    The schedule (:func:`_pilot_and_refine`) hands every pilot/refine
    stage of a point to :meth:`sample`, which serves it from a partial
    checkpoint when one logged the same allocation, and otherwise
    samples it on the point's cached experiment, cross-checks it
    against the oracle (if any), logs it and checkpoints the log.
    :meth:`finalize` writes the point's final record.
    ``provenance(point)`` adds fields to every record (joined workers
    stamp the lease ``epoch`` and ``worker``).

    ``shots_sampled`` counts fresh Monte-Carlo work, ``shots_replayed``
    stages served from checkpoints.  A context manager: closing it
    releases every experiment and the pool it built when no ``pool``
    was lent.  ``shard_timeout`` and ``max_shard_retries`` configure
    that built pool only, and :class:`SharedPool` checks them at any
    worker count; a lent pool keeps its own settings.
    """

    def __init__(self, spec: CampaignSpec, store: ResultStore | None,
                 campaign_fp: str, workers: int = 1,
                 pool: SharedPool | None = None,
                 shard_timeout: float | None = None,
                 max_shard_retries: int | None = None,
                 provenance=None) -> None:
        self.spec = spec
        self.store = store
        self.campaign_fp = campaign_fp
        self.provenance = provenance
        self.shots_sampled = 0
        self.shots_replayed = 0
        self.points_finalized = 0
        self._stack = ExitStack()
        self._experiments: dict = {}
        if pool is None:
            # Worker processes spawn on the first multi-shard run with
            # workers > 1 only; a one-worker pool starts none.
            budget = ({} if max_shard_retries is None
                      else {"max_rebuilds": max_shard_retries})
            pool = self._stack.enter_context(SharedPool(
                workers, shard_timeout=shard_timeout, **budget))
        self.pool = pool

    def __enter__(self) -> "_PointRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._experiments.clear()
        self._stack.close()

    # ------------------------------------------------------------------
    def experiment(self, point: _CampaignPoint) -> MemoryExperiment:
        """The point's experiment, cached per sweep and experiment key."""
        key = (point.sweep_index, point.experiment_key)
        experiment = self._experiments.get(key)
        if experiment is None:
            sweep = point.sweep
            experiment = self._stack.enter_context(MemoryExperiment(
                code=point.code, rounds=point.rounds, basis=point.basis,
                method=sweep.method, max_bp_iterations=point.max_bp_iterations,
                osd_order=sweep.osd_order, backend=sweep.backend,
                shard_shots=point.shard_shots, pool=self.pool,
            ))
            self._experiments[key] = experiment
        return experiment

    def seed(self, point: _CampaignPoint,
             stage: int) -> np.random.SeedSequence:
        if point.seed_entropy is not None:
            return np.random.SeedSequence(entropy=point.seed_entropy,
                                          spawn_key=(int(stage),))
        return _point_seed(self.spec.seed, point.sweep_index,
                           point.point_index, stage)

    def sample(self, point: _CampaignPoint, allocation: int,
               prior: tuple[int, int], stage: int) -> tuple[int, int]:
        """Run (or replay) one stage; returns ``(failures, shots)``."""
        if point.replay is not None:
            logged = point.replay.get(stage)
            if (logged is not None
                    and int(logged["allocation"]) == int(allocation)):
                # Completed stage from a partial checkpoint: serve the
                # logged tally, sample nothing.  (The oracle check
                # already passed when the stage first ran.)
                failures = int(logged["failures"])
                used = int(logged["shots"])
                self.shots_replayed += used
                point.stage_log.append({
                    "stage": stage, "allocation": int(allocation),
                    "failures": failures, "shots": used,
                })
                return failures, used
            # Allocation diverged: drop the rest of the log and
            # re-sample — stage seeds make that bit-identical anyway.
            point.replay = None
        result = self.experiment(point).run(
            point.physical_error_rate, point.round_latency_us,
            shots=allocation, target_precision=point.target,
            prior_tally=prior, seed=self.seed(point, stage),
        )
        if point.oracle is not None:
            # The stage's replay on the reference backend (workers=1,
            # no pool) — the call a stored scenario file replays with.
            # It seeds the stage as self.seed does, so the oracle
            # re-draws the fast run's exact shots.  Oracle shots are a
            # check, not an estimate — they never count against the
            # campaign budget.
            check = run_scenario(
                point.oracle.scenario, backend=point.oracle.reference,
                shots=allocation, stage=stage, prior_tally=prior,
                target=point.target)
            if ((check.failures, check.shots)
                    != (result.failures, result.shots)):
                report_scenario_mismatch(
                    point.oracle.scenario, point.sweep.backend,
                    point.oracle.reference, point.oracle.failure_dir,
                    detail=(f"campaign {self.spec.name!r} sweep "
                            f"{point.sweep.name!r} stage {stage}: "
                            f"fast ({result.failures}, {result.shots}) "
                            f"!= oracle ({check.failures}, "
                            f"{check.shots})"))
        self.shots_sampled += int(result.shots)
        point.stage_log.append({
            "stage": stage, "allocation": int(allocation),
            "failures": int(result.failures), "shots": int(result.shots),
        })
        self._append(point, partial=True, stages=list(point.stage_log),
                     failures=sum(e["failures"] for e in point.stage_log),
                     shots=sum(e["shots"] for e in point.stage_log))
        return result.failures, result.shots

    def finalize(self, point: _CampaignPoint) -> None:
        """Append the point's final record (superseding its partial
        checkpoints); an injected interrupt may fire right after."""
        self._append(point, failures=point.tally[0], shots=point.tally[1])
        self.points_finalized += 1
        plan = active_plan()
        if plan is not None and plan.take_sigterm(self.points_finalized):
            # Injected stand-in for SIGTERM: exercise the same
            # flush/raise path the real signal handlers reach via
            # ``stop``, deterministically placed after this point.
            raise CampaignInterrupted(
                f"injected interrupt after {self.points_finalized} points")

    def _append(self, point: _CampaignPoint, **fields) -> None:
        if self.store is None:
            return
        record = {
            "key": point.key,
            "campaign": self.campaign_fp,
            "spec_name": self.spec.name,
            "sweep": point.sweep.name,
            "params": point.params,
            **fields,
        }
        if self.provenance is not None:
            record.update(self.provenance(point))
        self.store.append(record)


def _interrupted(message: str) -> None:
    raise CampaignInterrupted(message)


def _replay_log(record: dict) -> dict:
    """The stage -> log entry map of a partial checkpoint record."""
    return {int(entry["stage"]): entry for entry in record.get("stages", ())}


def _pilot_and_refine(sample, points: list[_CampaignPoint], budget: int,
                      spent: int = 0, stop=None, interrupt=_interrupted,
                      after_pilot=None, after_round=None,
                      before_round=None) -> None:
    """The pilot/allocate/refine schedule of every campaign point.

    Spends ``budget`` on ``points`` (``spent`` of it already gone);
    ``sample(point, allocation, prior, stage)`` runs one stage (pilot
    0, refine round *r* is *r + 1*) with the point's tally so far
    carried into the stop rule, and its ``(failures, shots)`` add to
    ``point.tally``.

    1. **Pilot**: a streamed taste of every point, in order, within
       what is left of the budget.
    2. **Allocate**: each round splits ``budget - spent`` across the
       unsettled points by estimated variance (:func:`allocate_shots`,
       one relative flag per point), floors each share at
       ``_MIN_REFINE_SHOTS`` for forward progress, then clamps it to
       the point's remaining cap and the remaining budget.
    3. **Refine**: the round runs its points in order.  The loop ends
       when every point is settled, the budget is gone, a round made no
       progress, or after ``_MAX_REFINE_ROUNDS`` rounds.

    Every decision is a pure function of the tallies, so a re-run
    reproduces the schedule bit for bit.  ``stop`` is polled before
    each pilot, before each round, before each refine stage and after
    the loop; once it fires, ``interrupt(message)`` must raise.
    ``after_pilot(point)``, ``before_round(round_index)`` and
    ``after_round(round_index)`` let :func:`run_campaign` flush, adopt
    and report; ``before_round`` returns shots adopted from other
    writers, which count as spent.
    """
    def poll(stage: str) -> None:
        if stop is not None and stop():
            interrupt(f"campaign interrupted during {stage}")

    def run(point: _CampaignPoint, allocation: int, stage: int) -> int:
        failures, used = sample(point, allocation, tuple(point.tally), stage)
        point.tally[0] += failures
        point.tally[1] += used
        return used

    for point in points:
        poll("pilot")
        allocation = min(point.pilot, point.cap, max(0, budget - spent))
        if allocation > 0:
            spent += run(point, allocation, 0)
        if after_pilot is not None:
            after_pilot(point)
    for round_index in range(_MAX_REFINE_ROUNDS):
        poll("refine")
        if before_round is not None:
            spent += before_round(round_index)
        unsettled = [point for point in points
                     if not point.settled(*point.tally)]
        if not unsettled or spent >= budget:
            break
        allocations = allocate_shots(
            [tuple(point.tally) for point in unsettled], budget - spent,
            [point.cap - point.tally[1] for point in unsettled],
            relative=[point.target.relative for point in unsettled])
        progressed = False
        for point, allocation in zip(unsettled, allocations):
            poll("refine")
            allocation = min(point.cap - point.tally[1],
                             max(allocation, _MIN_REFINE_SHOTS),
                             max(0, budget - spent))
            if allocation > 0:
                used = run(point, allocation, round_index + 1)
                spent += used
                progressed = progressed or used > 0
        if after_round is not None:
            after_round(round_index)
        if not progressed:
            break
    poll("refine")


class JoinedCampaign:
    """One joined worker's view of a multi-host campaign.

    N of these (one per host/process, sharing one store file) cooperate
    through the lease protocol: each scans for points without a final
    record, claims a batch whose leases are free or expired, runs each
    claimed point to completion under heartbeat renewals, and releases.
    The budget is statically partitioned per point
    (:func:`_partition_points`), so every point's schedule is a pure
    function of the point — whichever worker runs it, the tally and
    therefore the tables are bit-identical, and N workers produce the
    same tables as one.

    A context manager (owns the worker pool and experiment cache, both
    released on exit):

    >>> with JoinedCampaign(spec, store, worker=identity) as joined:
    ...     result = joined.run()

    ``step()`` performs a single scheduling iteration (claim + run one
    batch) and returns a status string — the unit tests drive two
    workers by alternating ``step()`` calls.  ``clock`` and ``sleep``
    are injectable for deterministic expiry tests.
    """

    def __init__(self, spec: CampaignSpec,
                 store: "ResultStore | str",
                 worker: WorkerIdentity | None = None,
                 workers: int = 1,
                 budget: int | None = None,
                 lease_ttl: float | None = None,
                 claim_batch: int | None = None,
                 shard_timeout: float | None = None,
                 max_shard_retries: int | None = None,
                 stop=None,
                 progress=None,
                 clock=time.time,
                 sleep=time.sleep) -> None:
        spec.validate_names()
        if store is None:
            raise ValueError("a joined campaign requires a shared store")
        if not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.spec = spec
        self.store = store
        self.worker = worker if worker is not None else \
            WorkerIdentity.generate()
        self.budget = int(budget) if budget is not None else spec.budget
        if self.budget < 1:
            raise ValueError("budget must be a positive shot count")
        ttl = 60.0 if lease_ttl is None else float(lease_ttl)
        self.claim_batch = 2 if claim_batch is None else int(claim_batch)
        if self.claim_batch < 1:
            raise ValueError("claim batch must be positive")
        self.poll_interval = min(1.0, ttl / 3.0)
        self.stop = stop
        self.progress = progress
        self.clock = clock
        self.sleep = sleep
        self.campaign_fp = spec.fingerprint(budget=self.budget)
        self.points = _expand_points(spec, self.budget, self.campaign_fp)
        _partition_points(self.points, self.budget)
        self.sampled = [point for point in self.points if point.sampled]
        self.by_key = {point.key: point for point in self.sampled}
        self.manager = LeaseManager(store, self.worker, ttl, clock=clock)
        self.shots_forfeited = 0
        self.finalized_by_us: set[str] = set()
        store.refresh()
        self.reused_at_start = {point.key for point in self.sampled
                                if self._final(point.key) is not None}
        self.runner = _PointRunner(
            spec, store, self.campaign_fp, workers=workers,
            shard_timeout=shard_timeout, max_shard_retries=max_shard_retries,
            provenance=lambda point: {
                "epoch": self.manager.held.get(point.key, 0),
                "worker": str(self.worker),
            })

    # ------------------------------------------------------------------
    def __enter__(self) -> "JoinedCampaign":
        return self

    def __exit__(self, *exc_info) -> None:
        self.runner.close()

    # ------------------------------------------------------------------
    def _final(self, key: str) -> dict | None:
        """The store's winning record for ``key`` if it is final (not a
        partial checkpoint), else ``None``."""
        record = self.store.get(key)
        return None if record is None or record.get("partial") else record

    def _sample(self, point: _CampaignPoint, allocation: int,
                prior: tuple[int, int], stage: int) -> tuple[int, int]:
        # Liveness first: if the lease was usurped (our heartbeats were
        # too slow, or suppressed by a fault plan), LeaseLost propagates
        # to _run_point which forfeits the whole point.
        self.manager.heartbeat(point.key)
        return self.runner.sample(point, allocation, prior, stage)

    def _run_point(self, point: _CampaignPoint) -> str:
        """Run one claimed point to completion (or forfeit it)."""
        runner = self.runner
        before_sampled = runner.shots_sampled
        before_replayed = runner.shots_replayed
        try:
            if self._final(point.key) is not None:
                # Finalised between our scan and our claim winning.
                self.manager.release(point.key)
                return "external"
            point.reset()
            record = self.store.get(point.key)
            if record is not None:
                # A dead (or usurped) owner left per-stage checkpoints:
                # replay them instead of re-sampling — bit-identical,
                # because stage seeds are pure functions of the spec.
                point.replay = _replay_log(record)
            # The partitioned cap is the point's whole budget.  A stop
            # mid-point leaves its stage log checkpointed, so whoever
            # claims it next replays the log.
            _pilot_and_refine(self._sample, [point], point.cap,
                              stop=self.stop)
            runner.finalize(point)
            self.manager.release(point.key)
            self.finalized_by_us.add(point.key)
            return "done"
        except LeaseLost:
            # Usurped: un-count everything this run put into the point
            # — the usurper's final record carries those shots — and
            # reset it so a later reclaim rebuilds from the store.
            forfeited = ((runner.shots_sampled - before_sampled)
                         + (runner.shots_replayed - before_replayed))
            runner.shots_sampled = before_sampled
            runner.shots_replayed = before_replayed
            self.shots_forfeited += forfeited
            point.reset()
            return "lost"

    # ------------------------------------------------------------------
    def step(self) -> str:
        """One scheduling iteration.  Returns ``"complete"`` (every
        point has a final record), ``"worked"`` (claimed and ran a
        batch), ``"contended"`` (lost every claim race), or
        ``"waiting"`` (all remaining points are under live leases held
        elsewhere — poll again after a sleep)."""
        if self.stop is not None and self.stop():
            self.manager.abandon_all()
            raise CampaignInterrupted("joined campaign interrupted")
        self.store.refresh()
        pending = [point for point in self.sampled
                   if point.key not in self.finalized_by_us
                   and self._final(point.key) is None]
        if not pending:
            return "complete"
        now = self.clock()
        claimable = [point.key for point in pending
                     if point.key not in self.manager.held
                     and self.manager.claimable(point.key, now)]
        if not claimable:
            return "waiting"
        won = self.manager.claim(claimable[:self.claim_batch])
        if not won:
            return "contended"
        for key in won:
            self._run_point(self.by_key[key])
        self._emit("join")
        return "worked"

    def _emit(self, phase: str) -> None:
        """Progress for a served joined worker: finals in the shared
        store count as done whichever worker paid for them."""
        if self.progress is None:
            return
        stored = {point.key for point in self.sampled
                  if self._final(point.key) is not None}
        self.progress(_progress_snapshot(
            self.spec, self.points, phase, None, self.budget,
            self.runner.shots_sampled, 0, self.runner.shots_replayed, 0,
            stored))

    def run(self) -> CampaignResult:
        """Claim and run until every point has a final record."""
        try:
            while True:
                status = self.step()
                if status == "complete":
                    return self.result()
                if status in ("waiting", "contended"):
                    self.sleep(self.poll_interval)
        except CampaignInterrupted:
            # Graceful exit: give the held leases back immediately so
            # surviving workers need not wait out the TTL.  (Injected
            # crashes — InjectedFault — deliberately do NOT abandon:
            # a dead process cannot clean up, and the whole point is
            # exercising TTL-expiry reclaim.)
            self.manager.abandon_all()
            raise

    def result(self) -> CampaignResult:
        """Assemble this worker's result (tables from the shared store).

        Every final record is attributed exactly once: our own
        sampling/replay, reuse (final before we started), or external
        (another worker finalised it during the run) — so ``spent`` is
        the same global total on every worker and the summary tables
        are byte-identical."""
        self.store.refresh()
        shots_reused = 0
        shots_external = 0
        for point in self.sampled:
            record = self._final(point.key)
            if record is None:
                continue
            if point.key not in self.finalized_by_us:
                shots = int(record["shots"])
                if point.key in self.reused_at_start:
                    shots_reused += shots
                else:
                    shots_external += shots
                point.tally[:] = [int(record["failures"]), shots]
        targets_met = sum(
            1 for point in self.sampled
            if point.target.met(point.tally[0], point.tally[1]))
        return CampaignResult(
            spec=self.spec,
            tables=_build_tables(self.spec, self.points),
            budget=self.budget,
            points_total=len(self.sampled),
            points_reused=len(self.reused_at_start),
            shots_sampled=self.runner.shots_sampled,
            shots_reused=shots_reused,
            shots_replayed=self.runner.shots_replayed,
            targets_met=targets_met,
            store_path=str(self.store.path),
            shots_external=shots_external,
            shots_forfeited=self.shots_forfeited,
            worker=str(self.worker),
        )


def run_campaign(spec: CampaignSpec,
                 store: "ResultStore | str | None" = None,
                 workers: int = 1,
                 budget: int | None = None,
                 shard_timeout: float | None = None,
                 max_shard_retries: int | None = None,
                 stop=None,
                 join: bool = False,
                 worker_id: "WorkerIdentity | str | None" = None,
                 lease_ttl: float | None = None,
                 claim_batch: int | None = None,
                 progress=None,
                 pool: "SharedPool | None" = None) -> CampaignResult:
    """Run (or resume) a campaign under its global shot budget.

    ``store`` enables resume: a path or :class:`ResultStore` whose
    records — keyed on the campaign fingerprint plus each point's
    parameters — are reused instead of re-sampled.  Beyond whole-point
    records, the orchestrator checkpoints a per-stage sampling log
    into the store after every pilot/refine stage of every point, so a
    crash mid-point resumes by *replaying* the logged stages (their
    seeds are pure functions of the spec, so replay is bit-identical
    and costs zero sampling) instead of re-sampling the point from
    scratch.  ``workers`` sizes the shared process pool every sweep
    streams through (``1``: in-process; ``0``: one per core; results
    bit-identical for any value).  ``budget`` overrides the spec's
    global budget, e.g. to dry-run ``paper_figures`` at a fraction of
    the paper's shots (the override participates in the store key:
    runs at different budgets never cross-contaminate).

    ``shard_timeout`` (default: wait forever) and
    ``max_shard_retries`` (default 2) are the per-shard deadline and
    the lifetime rebuild budget of the pool the run builds (see
    :class:`~repro.parallel.pipeline.SharedPool`, which rejects an
    invalid value at any worker count); a lent ``pool`` keeps its own.
    Like every execution setting they are run arguments, never spec
    keys, so they never reach the store key and results are
    bit-identical under any valid value.  ``stop`` is an optional
    zero-argument callable polled between units of work; once it
    returns true the campaign flushes everything finalised, releases
    the pool and raises :class:`CampaignInterrupted` — the CLI wires
    SIGINT/SIGTERM to it.

    ``join=True`` switches to multi-host mode (see
    :class:`JoinedCampaign`): this process becomes one worker among
    possibly many sharing ``store``, claiming points under leases of
    ``lease_ttl`` seconds (default 60; renewed while sampling),
    ``claim_batch`` at a time (default 2), polling every
    ``min(1, lease_ttl / 3)`` seconds while rivals hold live leases.
    ``worker_id`` labels this worker (a ``host:pid:token`` triple, or
    any string used as the host label of a generated identity).  The
    budget is statically partitioned per point, so joined tables are
    bit-identical for any number of workers — but differ from a
    non-joined run of the same spec (the store keys differ too, so the
    two modes never cross-contaminate).

    ``progress`` is an optional callback receiving a JSON-safe
    snapshot dict (see :func:`_progress_snapshot`) after the reuse
    scan, after every pilot point, after every refine round and at
    completion — ``repro serve`` wires it to job status.  ``pool``
    lends an externally owned :class:`SharedPool` to the run (the
    service shares one pool across every job); the campaign then
    neither creates nor closes a pool, sizes the experiments to
    ``pool.workers`` and recovers from faults under the pool's own
    settings.

    A store shared with another live plain run of the *same spec and
    budget* is re-read before every allocation round: fresh points that
    gained a final record there — final on merit, i.e. target met or
    cap reached — are adopted instead of re-sampled, counted as
    ``shots_external`` against this run's budget exactly like the
    start-of-run reuse scan.  ``--join`` workers may share the file,
    but their records are keyed apart (:func:`_partition_points`), so a
    plain run never reuses or adopts them.
    """
    if join:
        if store is None:
            raise ValueError("a joined campaign requires a shared store "
                             "(--join needs --store)")
        if isinstance(worker_id, WorkerIdentity):
            worker = worker_id
        elif worker_id:
            worker = WorkerIdentity.parse(str(worker_id))
        else:
            worker = WorkerIdentity.generate()
        with JoinedCampaign(
                spec, store, worker=worker, workers=workers, budget=budget,
                lease_ttl=lease_ttl, claim_batch=claim_batch,
                shard_timeout=shard_timeout,
                max_shard_retries=max_shard_retries, stop=stop,
                progress=progress) as joined:
            return joined.run()

    spec.validate_names()
    effective_budget = int(budget) if budget is not None else spec.budget
    if effective_budget < 1:
        raise ValueError("budget must be a positive shot count")
    campaign_fp = spec.fingerprint(budget=effective_budget)
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    if store is not None:
        # A long-lived ResultStore instance may predate another
        # process's appends; fold them in before deciding what to
        # reuse vs re-sample.
        store.refresh()

    points = _expand_points(spec, effective_budget, campaign_fp)
    sampled_points = [point for point in points if point.sampled]

    shots_reused = 0
    for point in sampled_points:
        record = store.get(point.key) if store is not None else None
        if record is None:
            continue
        if record.get("partial"):
            # A crash left a per-stage checkpoint behind: the point is
            # still fresh (it runs through pilot/refine as usual), but
            # every logged stage is served from the log instead of
            # sampled — bit-identical, because stage seeds are pure
            # functions of the spec.
            point.replay = _replay_log(record)
            continue
        point.tally = [int(record["failures"]), int(record["shots"])]
        point.reused = True
        shots_reused += point.tally[1]

    shots_external = 0
    fresh = [point for point in sampled_points if not point.reused]

    # Interruption safety: flush a fresh point to the store the moment
    # it can no longer change — target met or per-point cap reached —
    # so a killed campaign resumes everything already finalised.  The
    # remaining (budget-exhausted) points are flushed at the end.
    stored_keys: set[str] = set()

    # An externally owned pool (the service lends its pool to every
    # job) is used, never closed.
    runner = _PointRunner(spec, store, campaign_fp, workers=workers,
                          pool=pool, shard_timeout=shard_timeout,
                          max_shard_retries=max_shard_retries)

    def emit(phase: str, round_index: int | None = None) -> None:
        if progress is None:
            return
        progress(_progress_snapshot(
            spec, points, phase, round_index, effective_budget,
            runner.shots_sampled, shots_reused, runner.shots_replayed,
            shots_external, stored_keys))

    def adopt_external(round_index: int | None = None) -> int:
        """Fold in finals appended by other processes since we last
        looked — the mid-run counterpart of the start-of-run reuse
        scan, so a long-running served job benefits from another plain
        run of the same spec and budget feeding the same store file
        (``--join`` workers' records never match a plain run's keys).
        Only records final *on merit* — target met or cap reached — are
        adopted; a record final merely because another run's budget ran
        out keeps sampling here.  Returns the adopted shots, which count
        against this run's budget exactly like start-of-run reuse."""
        nonlocal shots_external
        if store is None or store.refresh() == 0:
            return 0
        adopted = 0
        for point in fresh:
            if point.key in stored_keys:
                continue
            # ``final_for``, not ``get``: this run's own in-flight
            # partial checkpoints land *after* a rival's final under
            # the same key, and plain last-wins would hide it.
            record = store.final_for(point.key)
            if record is None:
                continue
            failures = int(record["failures"])
            shots = int(record["shots"])
            if not point.settled(failures, shots):
                continue
            point.reset(failures, shots)
            stored_keys.add(point.key)
            if store.get(point.key) is not record:
                # Our own partial checkpoint shadows the adopted final
                # in file order; re-append it so a later cold resume
                # reuses the point instead of replaying the stale log.
                store.append({k: v for k, v in record.items()
                              if k != "version"})
            shots_external += shots
            adopted += shots
        if adopted:
            emit("external", round_index)
        return adopted

    def flush(point: _CampaignPoint, force: bool = False) -> None:
        if store is None or point.key in stored_keys:
            return
        if force or point.settled(*point.tally):
            stored_keys.add(point.key)
            runner.finalize(point)

    def interrupt(message: str) -> None:
        """Stop cleanly: flush whatever already finalised, raise."""
        for point in fresh:
            flush(point)
        raise CampaignInterrupted(message)

    def flush_pilot(point: _CampaignPoint) -> None:
        flush(point)
        emit("pilot")

    def flush_round(round_index: int) -> None:
        for point in fresh:
            flush(point)
        emit("refine", round_index)

    with runner:
        emit("reuse")
        _pilot_and_refine(runner.sample, fresh, effective_budget,
                          shots_reused, stop=stop, interrupt=interrupt,
                          after_pilot=flush_pilot, after_round=flush_round,
                          before_round=adopt_external)

        # One last look before force-flushing: a final that landed
        # elsewhere after our last round must win over our
        # budget-exhausted tally (force-flushing ours would clobber
        # the merit-final record under last-wins resume).
        adopt_external()

        # Whatever is left stopped because the global budget ran out —
        # final for this campaign, so it is stored too.
        for point in fresh:
            flush(point, force=True)
        emit("final")

    targets_met = sum(
        1 for point in sampled_points
        if point.target.met(point.tally[0], point.tally[1]))
    return CampaignResult(
        spec=spec,
        tables=_build_tables(spec, points),
        budget=effective_budget,
        points_total=len(sampled_points),
        points_reused=len(sampled_points) - len(fresh),
        shots_sampled=runner.shots_sampled,
        shots_reused=shots_reused,
        shots_replayed=runner.shots_replayed,
        shots_external=shots_external,
        targets_met=targets_met,
        store_path=str(store.path) if store is not None else None,
    )


#: The target of a fixed-budget standalone sweep: no tally of practical
#: size is this tight, so every point spends exactly its cap.
_FIXED_BUDGET_TARGET = PrecisionTarget(half_width=1e-9)


def run_standalone_sweep(sweep: SweepSpec, *, shots: int, seed: int,
                         target: PrecisionTarget | None = None,
                         points: list[ExpandedPoint] | None = None,
                         code: CSSCode | None = None, workers: int = 1
                         ) -> list[_CampaignPoint]:
    """Run one sweep as a one-sweep campaign on no store.

    The engine behind :func:`~repro.campaign.kinds.run_sweep_kind`,
    :func:`~repro.core.sweep.sweep_physical_error` and
    :func:`~repro.core.sweep.sweep_architectures`.  ``points`` defaults
    to the kind's expansion of ``sweep``; callers holding raw latencies
    or :class:`~repro.core.codesign.Codesign` objects build their own.
    ``code`` stands in for the registry lookup of ``sweep.code`` (codes
    outside the registry).

    Without a ``target`` every sampled point gets ``pilot = cap =
    shots`` (a kind's pins win) under an unreachable target, so the
    budget is the sum of the caps and no point stops early.  With one,
    the campaign's pilot/allocate/refine loop spends ``shots`` per
    point on average under the sweep's ``max_shots``/``pilot_shots``.
    Either way the sweep is sweep 0 under the module's seed rule, so
    the returned points carry the same tallies as the one-sweep
    :func:`run_campaign` of the rewritten sweep, for any ``workers``.
    """
    kind = kind_by_name(sweep.kind)
    if code is None and kind.needs_code:
        code = code_by_name(sweep.code)
    if points is None:
        points = kind.expand(sweep, code)
    sampled = [point for point in points if point.sampled]
    if target is None:
        sweep = replace(sweep, target=_FIXED_BUDGET_TARGET,
                        max_shots=shots, pilot_shots=shots)
        budget = sum(shots if point.cap is None else point.cap
                     for point in sampled)
    else:
        sweep = replace(sweep, target=target)
        budget = shots * len(sampled)
    resolved = _sweep_points(sweep, 0, points, code, budget,
                             max(1, shots), seed, campaign_fp="")
    fresh = [point for point in resolved if point.sampled]
    if fresh:
        spec = CampaignSpec(name=sweep.name, sweeps=(sweep,),
                            budget=budget, seed=seed)
        with _PointRunner(spec, None, "", workers=workers) as runner:
            _pilot_and_refine(runner.sample, fresh, budget)
    return resolved
