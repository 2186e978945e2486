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

This module holds the allocation rule (:func:`allocate_shots`) and the
row fields of a tally (:func:`tally_point_fields`).  The schedule that
drives them (``_pilot_and_refine``) and the sampling are the campaign
orchestrator's (:mod:`repro.campaign.orchestrator`).
:func:`sweep_physical_error` and :func:`sweep_architectures` run as
one-sweep campaigns on no store
(:func:`~repro.campaign.orchestrator.run_standalone_sweep`), so their
rows equal that campaign's rows and follow its seed rule.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.codes.css import CSSCode
from repro.core.codesign import Codesign
from repro.core.results import PRECISION_COLUMNS, ResultTable
from repro.core.spacetime import spacetime_cost
from repro.core.stats import PrecisionTarget, as_precision_target, binomial_interval

__all__ = [
    "allocate_shots",
    "sweep_architectures",
    "sweep_physical_error",
    "tally_point_fields",
]


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
