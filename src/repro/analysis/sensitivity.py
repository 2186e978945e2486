"""Sensitivity studies (Figures 5, 9, 13, 17, 18, 21).

Each function sweeps one architectural or timing knob, recompiles the
affected codesign(s) and — where the paper's figure reports logical
error rates — re-runs the hardware-aware memory experiment with the new
latency.  Every LER-producing sweep accepts ``workers=`` (``0``: one
worker per core) to run the fused sample→decode pipeline across a
process pool shared by all of the sweep's points, and ``pool=`` (a
:class:`~repro.parallel.pipeline.SharedPool`) to share that pool with
*other* sweeps — a campaign running several sensitivity studies spawns
one set of worker processes for all of them.  Results are bit-identical
for any worker count, pooled or not.

These functions are thin wrappers: each builds a
:class:`~repro.campaign.spec.SweepSpec` for its registered sweep kind
(:mod:`repro.campaign.kinds`) and runs it through
:func:`~repro.campaign.kinds.run_sweep_kind` as a one-sweep campaign
on no store, so its rows equal that campaign's.  ``shots`` is a fixed
per-point budget, or with ``target_precision`` the average budget of
the campaign's pilot/allocate/refine loop (``max_shots`` capping any
one point).  The same kinds power the ``paper_figures_full`` campaign
spec, where every figure shares one global budget and one result
store.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.campaign.kinds import run_sweep_kind
from repro.campaign.spec import SweepSpec
from repro.codes.css import CSSCode
from repro.core.results import ResultTable
from repro.parallel.pipeline import SharedPool

__all__ = [
    "depth_speedup_ler",
    "junction_crossing_sensitivity",
    "trap_arrangement_sensitivity",
    "loose_capacity_sensitivity",
    "operation_time_sensitivity",
    "swap_kind_sensitivity",
]


def _run(kind: str, code: CSSCode, params: dict,
         physical_error_rate: float | None, shots: int,
         rounds: int | None, seed: int, workers: int,
         target_precision, max_shots: int | None,
         pool: SharedPool | None) -> ResultTable:
    sweep = SweepSpec(name=kind, code=code.name, kind=kind,
                      physical_error_rate=physical_error_rate,
                      params=params, rounds=rounds)
    return run_sweep_kind(sweep, code=code, shots=shots, seed=seed,
                          workers=workers, pool=pool,
                          target_precision=target_precision,
                          max_shots=max_shots)


def depth_speedup_ler(code: CSSCode, physical_error_rate: float = 5e-4,
                      speedups: Iterable[float] = (1.0, 2.0, 4.0),
                      shots: int = 200, rounds: int | None = None,
                      seed: int = 0, workers: int = 1,
                      target_precision=None,
                      max_shots: int | None = None,
                      pool: SharedPool | None = None) -> ResultTable:
    """Figure 5: LER improvement when the baseline latency is divided by k.

    The baseline grid schedule is compiled once; its latency is then
    scaled by each speedup factor before the memory experiment runs.
    """
    return _run("depth_speedup", code, {"speedups": list(speedups)},
                physical_error_rate, shots, rounds, seed, workers,
                target_precision, max_shots, pool)


def junction_crossing_sensitivity(code: CSSCode,
                                  physical_error_rate: float = 1e-4,
                                  reductions: Iterable[float] = (
                                      0.0, 0.3, 0.5, 0.7, 0.9),
                                  shots: int = 200, rounds: int | None = None,
                                  seed: int = 0, workers: int = 1,
                                  target_precision=None,
                                  max_shots: int | None = None,
                                  pool: SharedPool | None = None
                                  ) -> ResultTable:
    """Figure 9: mesh junction network LER vs junction-crossing reduction.

    The baseline grid row is included as the reference the mesh must
    beat (the paper finds the crossover near a 70% reduction).
    """
    return _run("junction_crossing", code,
                {"reductions": list(reductions)}, physical_error_rate,
                shots, rounds, seed, workers, target_precision, max_shots,
                pool)


def trap_arrangement_sensitivity(code: CSSCode,
                                 trap_counts: Iterable[int] | None = None,
                                 physical_error_rate: float = 1e-4,
                                 shots: int = 200, rounds: int | None = None,
                                 include_ler: bool = True,
                                 seed: int = 0, workers: int = 1,
                                 target_precision=None,
                                 max_shots: int | None = None,
                                 pool: SharedPool | None = None
                                 ) -> ResultTable:
    """Figure 13: Cyclone performance across "tight" trap/capacity points.

    Each point is a Cyclone ring with ``x`` traps and just enough
    capacity for its share of data and ancilla ions; one-trap
    configurations degenerate to a single long chain with no shuttling
    (and painfully slow gates), the base form ``x = m/2`` is the
    sparsest, and the optimum usually sits in between.
    """
    params = {"include_ler": include_ler}
    if trap_counts is not None:
        params["trap_counts"] = list(trap_counts)
    return _run("trap_arrangement", code, params, physical_error_rate,
                shots, rounds, seed, workers, target_precision, max_shots,
                pool)


def loose_capacity_sensitivity(code: CSSCode,
                               capacities: Iterable[int] = (5, 8, 12, 20),
                               physical_error_rate: float = 1e-4,
                               shots: int = 200, rounds: int | None = None,
                               seed: int = 0, workers: int = 1,
                               target_precision=None,
                               max_shots: int | None = None,
                               pool: SharedPool | None = None) -> ResultTable:
    """Figure 17: baseline LER when given extra ("loose") trap capacity.

    The paper finds negligible improvement, confirming the baseline is
    limited by roadblocks rather than by capacity pressure.
    """
    return _run("loose_capacity", code, {"capacities": list(capacities)},
                physical_error_rate, shots, rounds, seed, workers,
                target_precision, max_shots, pool)


def operation_time_sensitivity(code: CSSCode,
                               reductions: Iterable[float] = (
                                   0.0, 0.25, 0.5, 0.75),
                               physical_error_rate: float = 1e-4,
                               shots: int = 200, rounds: int | None = None,
                               seed: int = 0, workers: int = 1,
                               target_precision=None,
                               max_shots: int | None = None,
                               pool: SharedPool | None = None) -> ResultTable:
    """Figure 18: LER as gate and shuttling times are reduced by r.

    Both the baseline and Cyclone are recompiled with the improved
    operation times; as r grows the gap closes because the code's own
    error-correcting ability becomes the limiting factor.
    """
    return _run("operation_time", code, {"reductions": list(reductions)},
                physical_error_rate, shots, rounds, seed, workers,
                target_precision, max_shots, pool)


def swap_kind_sensitivity(code: CSSCode) -> ResultTable:
    """Figure 21: IonSWAP vs GateSWAP execution times for both codesigns.

    IonSWAP cost scales with the in-chain interaction distance while
    GateSWAP is three CX gates; the paper finds the baseline prefers
    IonSWAP and Cyclone GateSWAP, with Cyclone keeping its advantage
    either way.
    """
    sweep = SweepSpec(name="swap_kind", code=code.name, kind="swap_kind")
    return run_sweep_kind(sweep, code=code)
