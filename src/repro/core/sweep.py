"""Parameter sweeps behind the evaluation figures.

Two sweeps recur throughout the paper: the physical-error-rate sweep of
a fixed codesign (the LER curves of Figures 5, 14, 15, 17, 18) and the
architecture sweep at a fixed operating point (Figures 6, 13, 16, 19,
20).  Both return :class:`~repro.core.results.ResultTable` rows so the
benchmarks can print exactly the series the paper plots.

Adaptive shot allocation
------------------------
A fixed per-point shot budget wastes most of its wall-clock: at equal
confidence widths, the shots a point *needs* vary by orders of
magnitude across a sweep (binomial variance ``p(1-p)`` for absolute
widths; ``(1-p)/p`` for relative ones).  With ``target_precision=`` the
sweeps therefore run a **pilot / allocate / refine loop** instead of a
fixed budget:

1. **Pilot** — every point gets a small budget (``pilot_shots``),
   streamed through the early-stopping pipeline (points that already
   meet the target stop right there).
2. **Allocate** — the remaining global budget (``shots`` × number of
   points) is split across the unmet points proportional to their
   estimated per-shot variance (:func:`allocate_shots`), so shots
   concentrate where they actually buy confidence width.
3. **Refine** — each unmet point streams through its allocation with
   the pilot tally carried into the stop rule (``prior_tally``), and
   the loop repeats with updated estimates until every point meets the
   target or the global budget is spent.

Every step is a pure function of shard-prefix tallies, so the whole
adaptive sweep inherits the pipeline's determinism contract: results
are bit-identical for any ``workers=`` at fixed ``shard_shots`` /
``target_precision`` / ``pilot_shots``.

This module holds the allocation engine; the sampling itself is the
campaign orchestrator's.  :func:`sweep_physical_error` and
:func:`sweep_architectures` run as one-sweep campaigns on no store
(:func:`~repro.campaign.orchestrator.run_standalone_sweep`), so their
rows equal that campaign's rows and follow its seed rule.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.codes.css import CSSCode
from repro.core.codesign import Codesign
from repro.core.results import PRECISION_COLUMNS, ResultTable
from repro.core.spacetime import spacetime_cost
from repro.core.stats import PrecisionTarget, as_precision_target, binomial_interval

__all__ = [
    "AdaptivePoint",
    "allocate_shots",
    "default_pilot_shots",
    "run_adaptive_refine",
    "sweep_architectures",
    "sweep_physical_error",
    "tally_point_fields",
]

#: Hard ceiling on refine rounds — each round spends real budget, so
#: this only guards against a pathological no-progress loop.
_MAX_REFINE_ROUNDS = 8

#: Smallest refine allocation worth dispatching (one worthwhile shard).
_MIN_REFINE_SHOTS = 32


def default_pilot_shots(per_point_budget: int) -> int:
    """Pilot sizing shared by the sweep and campaign schedulers: a
    quarter of the per-point budget share, clamped to [32, 512]."""
    return max(_MIN_REFINE_SHOTS, min(int(per_point_budget) // 4, 512))


def _estimated_rate(failures: int, shots: int) -> float:
    """Laplace-smoothed failure-rate estimate (defined at 0 failures)."""
    return (failures + 1.0) / (shots + 2.0)


def allocate_shots(tallies: Sequence[tuple[int, int]], budget: int,
                   caps: Sequence[int],
                   relative: "bool | Sequence[bool]" = False) -> list[int]:
    """Split ``budget`` shots across points proportional to variance.

    ``tallies`` holds each point's observed ``(failures, shots)``;
    ``caps`` bounds what each point may still receive.  The weight is
    the estimated per-shot variance of what the target constrains: the
    absolute estimate's variance ``p(1-p)`` by default, or the relative
    estimate's ``(1-p)/p`` for relative targets (low-rate points need
    the extra shots there).  ``relative`` may be one flag for the whole
    sweep or one flag per point — the campaign orchestrator pools
    points whose sweeps target different width kinds, and a uniform
    flag sequence allocates identically to the scalar (the single-sweep
    degeneracy the property tests pin down).  Rates are
    Laplace-smoothed so zero-failure pilots still produce usable
    weights.  Pure arithmetic on the inputs — allocation is part of
    the determinism contract.
    """
    if isinstance(relative, bool):
        flags: Sequence[bool] = [relative] * len(tallies)
    else:
        flags = list(relative)
        if len(flags) != len(tallies):
            raise ValueError("one relative flag per tally required")
    if budget <= 0 or not tallies:
        return [0] * len(tallies)
    weights = []
    for (failures, shots), point_relative in zip(tallies, flags):
        p = _estimated_rate(failures, shots)
        weights.append((1.0 - p) / p if point_relative else p * (1.0 - p))
    total = sum(weights)
    if total <= 0.0:
        weights = [1.0] * len(tallies)
        total = float(len(tallies))
    allocations = []
    for weight, cap in zip(weights, caps):
        share = int(budget * weight / total)
        allocations.append(max(0, min(cap, share)))
    return allocations


@dataclass
class AdaptivePoint:
    """One estimation point of an adaptive allocate/refine run.

    ``runner(shots, prior_tally, round_index)`` spends up to ``shots``
    on the point (with the accumulated tally carried into the stop
    rule) and returns the ``(failures, shots)`` it actually used;
    ``cap`` bounds the point's total spend and ``tally`` accumulates
    across rounds.  :func:`run_adaptive_refine` drives a pool of these
    — the same engine serves one sweep's points
    (:func:`sweep_physical_error`) and a whole campaign's
    (:mod:`repro.campaign`).
    """

    target: PrecisionTarget
    cap: int
    runner: Callable[[int, tuple[int, int], int], tuple[int, int]]
    tally: list[int] = field(default_factory=lambda: [0, 0])

    @property
    def met(self) -> bool:
        return self.target.met(self.tally[0], self.tally[1])

    @property
    def exhausted(self) -> bool:
        return self.tally[1] >= self.cap


def run_adaptive_refine(points: Sequence[AdaptivePoint], global_budget: int,
                        spent: int = 0,
                        after_round: Callable[[int], None] | None = None,
                        should_stop: Callable[[], bool] | None = None,
                        before_round: Callable[[int], int | None] | None
                        = None) -> int:
    """Allocate / refine until every point is tight or the budget is gone.

    Each round re-allocates the remaining ``global_budget - spent``
    across the unmet points by estimated variance
    (:func:`allocate_shots`), floors starved points at
    ``_MIN_REFINE_SHOTS`` for forward progress, and runs them in point
    order — a deterministic function of the accumulated tallies, which
    is what lets a campaign re-run reproduce a sweep bit for bit.
    Returns the total spend (the ``spent`` argument plus every shot the
    refine rounds used).

    ``after_round(round_index)`` is invoked after each completed round
    — the campaign uses it to flush freshly finalised points to its
    result store, so an interrupted run keeps everything already tight.

    ``should_stop()`` is polled before each round and before each
    point's runner; once it returns true the engine stops cleanly
    without starting further work (tallies accumulated so far are left
    intact for the caller to flush) — this is the graceful-interrupt
    hook the campaign's SIGINT/SIGTERM handling rides on.

    ``before_round(round_index)`` is invoked before the round's
    allocation is computed; mutating point tallies there is allowed.
    The campaign uses it to fold in result-store records appended by
    other processes (``--join`` workers, other served jobs) so finals
    paid for elsewhere stop receiving allocations.  Its return value
    (if not ``None``) is added to ``spent`` — adopted shots count
    against the global budget exactly like the start-of-run reuse scan.
    """
    for round_index in range(_MAX_REFINE_ROUNDS):
        if should_stop is not None and should_stop():
            break
        if before_round is not None:
            adopted = before_round(round_index)
            if adopted:
                spent += int(adopted)
        unmet = [index for index, point in enumerate(points)
                 if not point.exhausted and not point.met]
        remaining = global_budget - spent
        if not unmet or remaining <= 0:
            break
        allocations = allocate_shots(
            [tuple(points[i].tally) for i in unmet], remaining,
            [points[i].cap - points[i].tally[1] for i in unmet],
            relative=[points[i].target.relative for i in unmet],
        )
        progressed = False
        for index, allocation in zip(unmet, allocations):
            if should_stop is not None and should_stop():
                return spent
            point = points[index]
            point_cap = point.cap - point.tally[1]
            allocation = min(point_cap, max(allocation, _MIN_REFINE_SHOTS),
                             max(0, global_budget - spent))
            if allocation <= 0:
                continue
            failures, used = point.runner(allocation, tuple(point.tally),
                                          round_index)
            point.tally[0] += failures
            point.tally[1] += used
            spent += used
            progressed = progressed or used > 0
        if after_round is not None:
            after_round(round_index)
        if not progressed:
            break
    return spent


def tally_point_fields(failures: int, shots: int, rounds: int,
                       target: PrecisionTarget, cap: int) -> dict:
    """Row fragment for a pilot+refine tally (mirrors ``MemoryResult``).

    A pure function of the accumulated tally — the campaign result
    store re-derives rows from stored tallies through exactly this
    function, which is what makes resumed tables bit-identical."""
    ler = failures / shots if shots else 0.0
    if shots == 0 or ler >= 1.0:
        per_round = ler
    else:
        per_round = 1.0 - (1.0 - ler) ** (1.0 / rounds)
    low, high = binomial_interval(failures, shots, target.confidence)
    met = target.met(failures, shots)
    return {
        "failures": failures,
        "logical_error_rate": ler,
        "ler_per_round": per_round,
        "shots_used": shots,
        "ci_low": low,
        "ci_high": high,
        "stopped_early": bool(met and shots < cap),
    }


def _sample_rows(code: CSSCode,
                 points: Sequence[tuple[dict, float, float]], *,
                 shots: int, seed: int, target_precision, workers: int,
                 **sweep_fields) -> list[dict]:
    """Sample ``(row, p, latency)`` points as a one-sweep campaign.

    ``sweep_fields`` (kind, decoder and budget knobs) build the
    :class:`~repro.campaign.spec.SweepSpec` the campaign engine runs
    (:func:`~repro.campaign.orchestrator.run_standalone_sweep`).
    Returns each row merged with its tally fields.
    """
    if not points:
        return []
    # ``repro.campaign`` imports ``repro.core``: reach it lazily.
    from repro.campaign.kinds import ExpandedPoint
    from repro.campaign.orchestrator import run_standalone_sweep
    from repro.campaign.spec import SweepSpec

    sweep = SweepSpec(name=sweep_fields["kind"], code=code.name,
                      **sweep_fields)
    resolved = run_standalone_sweep(
        sweep, shots=shots, seed=seed,
        target=as_precision_target(target_precision), code=code,
        workers=workers,
        points=[ExpandedPoint(row=row, physical_error_rate=p,
                              round_latency_us=latency)
                for row, p, latency in points])
    return [{**point.row, **point.fields()} for point in resolved]


def sweep_physical_error(code: CSSCode, round_latency_us: float,
                         physical_error_rates: Iterable[float],
                         shots: int = 200, rounds: int | None = None,
                         method: str = "phenomenological",
                         label: str = "", seed: int = 0,
                         backend: str = "packed",
                         workers: int = 1,
                         shard_shots: int | None = None,
                         target_precision: "float | PrecisionTarget | None"
                         = None,
                         max_shots: int | None = None,
                         pilot_shots: int | None = None) -> ResultTable:
    """Logical error rate vs physical error rate at a fixed latency.

    ``workers`` runs each point's fused sample→decode pipeline across
    that many worker processes (``0``: one per core) — every worker
    samples and decodes its own shard, and the results are bit-identical
    for any worker count at a fixed ``shard_shots``.  The structure
    caches and the worker pool are shared by all points of the sweep.
    ``shard_shots`` overrides the default shots-per-shard (the decoder's
    block size).

    With ``target_precision`` the sweep switches to the adaptive
    pilot/allocate/refine scheduler (module docstring): ``shots``
    becomes the *average* per-point budget of a global pool,
    ``max_shots`` caps any single point and ``pilot_shots`` sizes the
    pilot pass.  Every row reports ``shots_used``, the Wilson bounds
    and whether the point stopped early.
    """
    rates = list(physical_error_rates)
    table = ResultTable(
        title=f"LER sweep: {code.name} ({label or 'latency ' + str(round_latency_us) + ' us'})",
        columns=["p", "round_latency_us", "failures", "logical_error_rate",
                 "ler_per_round"] + PRECISION_COLUMNS,
    )
    for row in _sample_rows(
            code,
            [({"p": p, "round_latency_us": round_latency_us}, p,
              round_latency_us) for p in rates],
            shots=shots, seed=seed, target_precision=target_precision,
            workers=workers, kind="physical_error",
            physical_error_rates=tuple(rates), rounds=rounds,
            method=method, backend=backend, shard_shots=shard_shots,
            max_shots=max_shots, pilot_shots=pilot_shots):
        table.add_row(**row)
    return table


def sweep_architectures(code: CSSCode, codesigns: Sequence[Codesign],
                        physical_error_rate: float | None = None,
                        shots: int = 200, rounds: int | None = None,
                        method: str = "phenomenological",
                        seed: int = 0, workers: int = 1,
                        shard_shots: int | None = None,
                        target_precision: "float | PrecisionTarget | None"
                        = None,
                        max_shots: int | None = None,
                        pilot_shots: int | None = None) -> ResultTable:
    """Compare codesigns on one code: latency, spatial cost and (optionally) LER.

    ``workers`` runs each codesign's fused sample→decode pipeline across
    worker processes (``0``: one per core), sharing one pool across the
    sweep; ``shard_shots`` overrides the shots-per-shard default.  With
    ``target_precision`` the LER estimates run on the adaptive
    pilot/allocate/refine scheduler across all codesigns (see
    :func:`sweep_physical_error`).
    """
    columns = ["codesign", "execution_time_us", "num_traps", "num_junctions",
               "num_ancilla", "dac_count", "spacetime_cost",
               "parallelization"]
    if physical_error_rate is not None:
        columns += ["p", "logical_error_rate"] + PRECISION_COLUMNS
    table = ResultTable(
        title=f"Architecture sweep: {code.name}", columns=columns,
    )
    rows = []
    for codesign in codesigns:
        compiled = codesign.compile(code)
        rows.append({
            "codesign": codesign.name,
            "execution_time_us": compiled.execution_time_us,
            "num_traps": compiled.metadata.get("num_traps", 0),
            "num_junctions": compiled.metadata.get("num_junctions", 0),
            "num_ancilla": compiled.metadata.get("num_ancilla", 0),
            "dac_count": compiled.metadata.get("dac_count", 0),
            "spacetime_cost": spacetime_cost(compiled).cost,
            "parallelization": compiled.parallelization_fraction,
        })
    if physical_error_rate is not None:
        rows = _sample_rows(
            code,
            [({**row, "p": physical_error_rate}, physical_error_rate,
              row["execution_time_us"]) for row in rows],
            shots=shots, seed=seed, target_precision=target_precision,
            workers=workers, kind="architectures",
            codesigns=tuple(codesign.name for codesign in codesigns),
            physical_error_rate=physical_error_rate, rounds=rounds,
            method=method, shard_shots=shard_shots, max_shots=max_shots,
            pilot_shots=pilot_shots)
        for row in rows:
            del row["failures"], row["ler_per_round"]
    for row in rows:
        table.add_row(**row)
    return table
