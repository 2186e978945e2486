"""The sweep-kind registry: every figure as a campaign-runnable kind.

A :class:`SweepKind` packages what used to be a bespoke figure function
— how a sweep spec expands into concrete estimation points, which
static columns its table carries, how the table is titled — behind one
name that a :class:`~repro.campaign.spec.SweepSpec` can reference.  The
original two kinds (``physical_error``, ``architectures``) live here
now, next to the migrated sensitivity studies (Figures 5, 9, 13, 17,
18, 20, 21) and the randomized ``scenario_sweep`` fuzz kind, so one
campaign spec (``paper_figures_full``) reproduces every figure table
under one global shot budget with full store-resume, and
:func:`run_sweep_kind` runs any one of them standalone.

Registering a custom kind::

    from repro.campaign.kinds import KindParam, SweepKind, register_kind

    register_kind(SweepKind(
        name="my_kind",
        description="what the sweep varies",
        params=(KindParam("knobs", "list[float]", [1.0, 2.0], "..."),),
        expand=my_expand,          # (sweep, code) -> [ExpandedPoint, ...]
        static_columns=lambda sweep: ["knob", "round_latency_us"],
        title=lambda sweep: f"my kind ({sweep.code})",
    ))

``expand`` returns :class:`ExpandedPoint` entries; each carries its
table row's static cells, the operating point ``(p, latency)`` the
memory experiment runs at, the fingerprint material for the result
store, and optional per-point overrides (own code, rounds, basis, shard
size, BP iterations, budget pins, a differential-oracle check).  Points
with ``sampled=False`` are analytic rows (compiled latencies only) that
never cost budget.

Execution paths
---------------
The campaign orchestrator (:mod:`repro.campaign.orchestrator`) is the
only code that samples a point.  A campaign drives every sweep's
expansion through one global pilot/allocate/refine budget with
store-resume; :func:`run_sweep_kind` runs one sweep standalone at a
fixed per-point budget as a one-sweep campaign on no store, so its rows
equal that campaign's rows (the seed rule is the orchestrator's).  A
sweep that should spend its shots adaptively, under a precision target,
runs as a campaign.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.campaign.scenarios import (
    Scenario,
    build_scenario,
    generate_scenario,
)
from repro.codes import available_codes
from repro.codes.css import CSSCode
from repro.core.codesign import available_codesigns, codesign_by_name
from repro.core.results import ResultTable
from repro.decoders.bposd import BACKENDS
from repro.qccd.compilers import CycloneCompiler, EJFGridCompiler
from repro.qccd.timing import OperationTimes, SwapKind

__all__ = [
    "ExpandedPoint",
    "KindParam",
    "OracleCheck",
    "SweepKind",
    "available_kinds",
    "kind_by_name",
    "kind_params",
    "register_kind",
    "run_sweep_kind",
    "validate_sweep",
    "validate_sweep_names",
]


@dataclass(frozen=True)
class KindParam:
    """One entry of a kind's parameter schema.

    ``type`` is a human-readable annotation (``"int"``,
    ``"list[float]"``, ...) shown by ``repro campaign --list-specs``;
    ``default`` applies when a sweep's ``params`` omit the key.
    """

    name: str
    type: str
    default: object
    doc: str = ""


@dataclass(frozen=True)
class OracleCheck:
    """A differential check attached to a point: replay each sampling
    stage with :func:`~repro.campaign.scenarios.run_scenario` on the
    ``reference`` backend (``workers=1``, no pool) and require a
    bit-identical tally; on mismatch the ``scenario`` is minimized and
    written under ``failure_dir``."""

    reference: str
    scenario: Scenario
    failure_dir: str


@dataclass
class ExpandedPoint:
    """One concrete estimation point produced by a kind's ``expand``.

    ``row`` holds the static table cells; ``params`` the extra
    JSON-safe material that distinguishes this point in the result
    store's fingerprint key.  ``None`` overrides (code, rounds, basis,
    shard size, BP iterations) fall back to the sweep's fields; the
    method, backend and OSD order are always the sweep's.
    ``cap``/``pilot`` pin the campaign budget for the point (a scenario
    samples exactly its own shot count); ``seed_entropy`` replaces the
    campaign's positional seed with the point's own stored entropy, so
    the point replays identically outside the campaign.  Points sharing
    an ``experiment_key`` share one
    :class:`~repro.core.memory.MemoryExperiment` ("" — the whole sweep
    shares one).
    """

    row: dict
    params: dict = field(default_factory=dict)
    physical_error_rate: float = 0.0
    round_latency_us: float = 0.0
    sampled: bool = True
    code: CSSCode | None = None
    rounds: int | None = None
    basis: str | None = None
    shard_shots: int | None = None
    max_bp_iterations: int | None = None
    experiment_key: str = ""
    cap: int | None = None
    pilot: int | None = None
    seed_entropy: int | None = None
    oracle: OracleCheck | None = None


@dataclass(frozen=True)
class SweepKind:
    """A registered sweep kind: expansion, table shape, validation.

    ``expand(sweep, code)`` produces the points, once per run (its
    *sampled* points are the campaign budget denominator);
    ``static_columns`` / ``title`` shape the result table.
    ``sampled=False`` marks kinds whose tables are purely
    compiled quantities (no Monte-Carlo column at all);
    ``needs_code=False`` frees the sweep from naming a registry code
    (``scenario_sweep`` generates its own).  ``validate`` runs at spec
    construction, ``validate_names`` against the registries just
    before real work.
    """

    name: str
    description: str
    expand: Callable[[object, "CSSCode | None"], list[ExpandedPoint]]
    static_columns: Callable[[object], list[str]]
    title: Callable[[object], str]
    params: tuple[KindParam, ...] = ()
    sampled: bool = True
    needs_code: bool = True
    validate: "Callable[[object], None] | None" = None
    validate_names: "Callable[[object], None] | None" = None


_KINDS: dict[str, SweepKind] = {}


def register_kind(kind: SweepKind) -> SweepKind:
    """Register a sweep kind under its name (unique, stable)."""
    if kind.name in _KINDS:
        raise ValueError(f"sweep kind {kind.name!r} is already registered")
    _KINDS[kind.name] = kind
    return kind


def available_kinds() -> list[str]:
    """Names accepted as ``SweepSpec.kind``, sorted."""
    return sorted(_KINDS)


def kind_by_name(name: str) -> SweepKind:
    """Look up a registered sweep kind (ValueError on unknown names)."""
    try:
        return _KINDS[name]
    except KeyError:
        raise ValueError(f"unknown sweep kind {name!r}; registered kinds: "
                         f"{available_kinds()}") from None


def kind_params(sweep) -> dict:
    """The sweep's kind parameters: schema defaults + spec overrides."""
    kind = kind_by_name(sweep.kind)
    values = {param.name: param.default for param in kind.params}
    values.update(getattr(sweep, "params", {}))
    return values


def validate_sweep(sweep) -> None:
    """Structural validation shared by every kind (spec construction)."""
    kind = kind_by_name(sweep.kind)
    known = {param.name for param in kind.params}
    unknown = set(getattr(sweep, "params", {})) - known
    if unknown:
        raise ValueError(f"sweep {sweep.name!r}: unknown {sweep.kind} "
                         f"params {sorted(unknown)}")
    if kind.needs_code and not sweep.code:
        raise ValueError(f"sweep {sweep.name!r}: kind {sweep.kind!r} "
                         "needs a code")
    if kind.validate is not None:
        kind.validate(sweep)


def validate_sweep_names(sweep) -> None:
    """Registry-level validation (deferred so spec building stays cheap)."""
    kind = kind_by_name(sweep.kind)
    if kind.needs_code and sweep.code not in available_codes():
        raise ValueError(f"sweep {sweep.name!r}: unknown code "
                         f"{sweep.code!r}")
    if kind.validate_names is not None:
        kind.validate_names(sweep)


# ----------------------------------------------------------------------
# Standalone execution: a one-sweep campaign on no store.

def run_sweep_kind(sweep, *, code: CSSCode | None = None, shots: int = 200,
                   seed: int = 0, workers: int = 1) -> ResultTable:
    """Run one sweep standalone, as a one-sweep campaign on no store.

    Every sampled point runs ``shots`` shots (a kind's own pin, such as
    a scenario's shot count, wins); a sweep that should spend its shots
    adaptively under a precision target runs as a one-sweep
    :func:`~repro.campaign.orchestrator.run_campaign`.  ``code``
    overrides the registry lookup of ``sweep.code``, so a code outside
    the registry can run any kind.  Points carrying an
    :class:`OracleCheck` are re-run on the reference backend and must
    match bit for bit
    (:class:`~repro.campaign.scenarios.ScenarioMismatch` otherwise).
    """
    # The orchestrator imports this module.
    from repro.campaign.orchestrator import run_standalone_sweep

    kind = kind_by_name(sweep.kind)
    points = run_standalone_sweep(sweep, shots=shots, seed=seed, code=code,
                                  workers=workers)
    columns = list(kind.static_columns(sweep))
    if kind.sampled:
        columns = columns + ["logical_error_rate"]
    table = ResultTable(title=kind.title(sweep), columns=columns)
    for point in points:
        row = dict(point.row)
        if kind.sampled:
            row["logical_error_rate"] = (
                point.fields()["logical_error_rate"] if point.sampled
                else float("nan"))
        table.add_row(**row)
    return table


# ----------------------------------------------------------------------
# Builtin kinds.

def _operating_point(sweep, default: float) -> float:
    p = getattr(sweep, "physical_error_rate", None)
    return default if p is None else float(p)


def _check_codesigns(sweep, names) -> None:
    for name in names:
        if name not in available_codesigns():
            raise ValueError(f"sweep {sweep.name!r}: unknown codesign "
                             f"{name!r}")


# -- physical_error ----------------------------------------------------

def _expand_physical_error(sweep, code):
    latency = codesign_by_name(sweep.codesign).compile(
        code).execution_time_us
    return [
        ExpandedPoint(row={"p": p, "round_latency_us": latency},
                      params={"codesign": sweep.codesign},
                      physical_error_rate=p, round_latency_us=latency)
        for p in sweep.physical_error_rates
    ]


def _validate_physical_error(sweep) -> None:
    if not sweep.physical_error_rates:
        raise ValueError(f"sweep {sweep.name!r}: physical_error sweeps "
                         "need physical_error_rates")


register_kind(SweepKind(
    name="physical_error",
    description="LER curve of one codesign across physical error rates "
                "(Figures 14/15).",
    expand=_expand_physical_error,
    static_columns=lambda sweep: ["p", "round_latency_us"],
    title=lambda sweep: f"{sweep.code} ({sweep.codesign})",
    validate=_validate_physical_error,
    validate_names=lambda sweep: _check_codesigns(sweep, [sweep.codesign]),
))


# -- architectures -----------------------------------------------------

def _expand_architectures(sweep, code):
    points = []
    for name in sweep.codesigns:
        latency = codesign_by_name(name).compile(code).execution_time_us
        points.append(ExpandedPoint(
            row={"codesign": name, "execution_time_us": latency,
                 "p": sweep.physical_error_rate},
            params={"codesign": name},
            physical_error_rate=sweep.physical_error_rate,
            round_latency_us=latency))
    return points


def _validate_architectures(sweep) -> None:
    if not sweep.codesigns:
        raise ValueError(f"sweep {sweep.name!r}: architectures sweeps "
                         "need codesigns")
    if sweep.physical_error_rate is None:
        raise ValueError(f"sweep {sweep.name!r}: architectures sweeps "
                         "need a physical_error_rate")


register_kind(SweepKind(
    name="architectures",
    description="Codesigns compared at one fixed operating point "
                "(Figures 6/16/19).",
    expand=_expand_architectures,
    static_columns=lambda sweep: ["codesign", "execution_time_us", "p"],
    title=lambda sweep: f"{sweep.code} (p={sweep.physical_error_rate:g})",
    validate=_validate_architectures,
    validate_names=lambda sweep: _check_codesigns(sweep, sweep.codesigns),
))


# -- depth_speedup (Figure 5) ------------------------------------------

def _expand_depth_speedup(sweep, code):
    values = kind_params(sweep)
    p = _operating_point(sweep, 5e-4)
    latency = codesign_by_name("baseline").compile(code).execution_time_us
    points = []
    for speedup in values["speedups"]:
        scaled = latency / speedup
        points.append(ExpandedPoint(
            row={"speedup": speedup, "round_latency_us": scaled},
            params={"speedup": speedup},
            physical_error_rate=p, round_latency_us=scaled))
    return points


register_kind(SweepKind(
    name="depth_speedup",
    description="Figure 5: LER when the baseline latency is divided by "
                "each speedup factor (physical_error_rate defaults to "
                "5e-4).",
    params=(KindParam("speedups", "list[float]", [1.0, 2.0, 4.0],
                      "divisors applied to the compiled baseline "
                      "latency"),),
    expand=_expand_depth_speedup,
    static_columns=lambda sweep: ["speedup", "round_latency_us"],
    title=lambda sweep: (
        f"Fig. 5 — LER vs baseline depth speedup ({sweep.code}, "
        f"p={_operating_point(sweep, 5e-4):g})"),
))


# -- junction_crossing (Figure 9) --------------------------------------

def _expand_junction_crossing(sweep, code):
    values = kind_params(sweep)
    p = _operating_point(sweep, 1e-4)
    baseline = codesign_by_name("baseline").compile(code)
    points = [ExpandedPoint(
        row={"design": "baseline_grid", "junction_reduction": 0.0,
             "execution_time_us": baseline.execution_time_us},
        params={"design": "baseline_grid", "junction_reduction": 0.0},
        physical_error_rate=p,
        round_latency_us=baseline.execution_time_us)]
    for reduction in values["reductions"]:
        times = OperationTimes(junction_improvement_factor=reduction)
        mesh = codesign_by_name("mesh_junction", times=times).compile(code)
        points.append(ExpandedPoint(
            row={"design": "mesh_junction", "junction_reduction": reduction,
                 "execution_time_us": mesh.execution_time_us},
            params={"design": "mesh_junction",
                    "junction_reduction": reduction},
            physical_error_rate=p,
            round_latency_us=mesh.execution_time_us))
    return points


register_kind(SweepKind(
    name="junction_crossing",
    description="Figure 9: mesh-junction LER vs junction-crossing-time "
                "reduction, with the baseline grid as reference row "
                "(physical_error_rate defaults to 1e-4).",
    params=(KindParam("reductions", "list[float]",
                      [0.0, 0.3, 0.5, 0.7, 0.9],
                      "junction crossing time reduction fractions"),),
    expand=_expand_junction_crossing,
    static_columns=lambda sweep: ["design", "junction_reduction",
                                  "execution_time_us"],
    title=lambda sweep: (
        f"Fig. 9 — junction crossing sensitivity ({sweep.code}, "
        f"p={_operating_point(sweep, 1e-4):g})"),
))


# -- trap_arrangement (Figure 13) --------------------------------------

def _expand_trap_arrangement(sweep, code):
    values = kind_params(sweep)
    p = _operating_point(sweep, 1e-4)
    m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
    counts = values["trap_counts"]
    if counts is None:
        counts = sorted({1, 9, 25, 64, m_basis // 2, m_basis})
    include_ler = bool(values["include_ler"])
    points = []
    for x in counts:
        x = max(1, min(int(x), m_basis)) if m_basis else 1
        compiled = CycloneCompiler(num_traps=x).compile(code)
        points.append(ExpandedPoint(
            row={"num_traps": x,
                 "trap_capacity": compiled.metadata["trap_capacity"],
                 "chain_length": compiled.metadata["chain_length"],
                 "execution_time_us": compiled.execution_time_us},
            params={"num_traps": x},
            physical_error_rate=p,
            round_latency_us=compiled.execution_time_us,
            sampled=include_ler))
    return points


register_kind(SweepKind(
    name="trap_arrangement",
    description="Figure 13: Cyclone across tight trap/ion arrangements "
                "(trap_counts defaults to a spread derived from the "
                "code; physical_error_rate defaults to 1e-4).",
    params=(
        KindParam("trap_counts", "list[int] | null", None,
                  "Cyclone trap counts (null: derived from the code)"),
        KindParam("include_ler", "bool", True,
                  "sample LERs (false: compiled quantities only)"),
    ),
    expand=_expand_trap_arrangement,
    static_columns=lambda sweep: ["num_traps", "trap_capacity",
                                  "chain_length", "execution_time_us"],
    title=lambda sweep: (
        f"Fig. 13 — Cyclone trap/ion arrangement sensitivity "
        f"({sweep.code}, p={_operating_point(sweep, 1e-4):g})"),
))


# -- loose_capacity (Figure 17) ----------------------------------------

def _expand_loose_capacity(sweep, code):
    values = kind_params(sweep)
    p = _operating_point(sweep, 1e-4)
    points = []
    for capacity in values["capacities"]:
        compiled = EJFGridCompiler(trap_capacity=capacity).compile(code)
        points.append(ExpandedPoint(
            row={"trap_capacity": capacity,
                 "execution_time_us": compiled.execution_time_us},
            params={"trap_capacity": capacity},
            physical_error_rate=p,
            round_latency_us=compiled.execution_time_us))
    return points


register_kind(SweepKind(
    name="loose_capacity",
    description="Figure 17: baseline LER with loosely fitting trap "
                "capacities (physical_error_rate defaults to 1e-4).",
    params=(KindParam("capacities", "list[int]", [5, 8, 12, 20],
                      "baseline grid trap capacities"),),
    expand=_expand_loose_capacity,
    static_columns=lambda sweep: ["trap_capacity", "execution_time_us"],
    title=lambda sweep: (
        f"Fig. 17 — baseline sensitivity to loose trap capacity "
        f"({sweep.code}, p={_operating_point(sweep, 1e-4):g})"),
))


# -- operation_time (Figure 18) ----------------------------------------

_OPERATION_TIME_DESIGNS = ("baseline", "cyclone")


def _expand_operation_time(sweep, code):
    values = kind_params(sweep)
    p = _operating_point(sweep, 1e-4)
    points = []
    for reduction in values["reductions"]:
        times = OperationTimes(improvement_factor=reduction)
        for design in _OPERATION_TIME_DESIGNS:
            compiled = codesign_by_name(design, times=times).compile(code)
            points.append(ExpandedPoint(
                row={"reduction": reduction, "design": design,
                     "execution_time_us": compiled.execution_time_us},
                params={"reduction": reduction, "design": design},
                physical_error_rate=p,
                round_latency_us=compiled.execution_time_us))
    return points


register_kind(SweepKind(
    name="operation_time",
    description="Figure 18: baseline and Cyclone as gate/shuttle times "
                "are uniformly reduced (physical_error_rate defaults "
                "to 1e-4).",
    params=(KindParam("reductions", "list[float]", [0.0, 0.25, 0.5, 0.75],
                      "uniform gate/shuttle time reduction fractions"),),
    expand=_expand_operation_time,
    static_columns=lambda sweep: ["reduction", "design",
                                  "execution_time_us"],
    title=lambda sweep: (
        f"Fig. 18 — gate/shuttle time reduction sensitivity "
        f"({sweep.code}, p={_operating_point(sweep, 1e-4):g})"),
))


# -- compiler_comparison (Figure 20, no sampling) ----------------------

_COMPILER_SET = ["baseline", "baseline2", "baseline3", "cyclone"]
_SHUTTLE_COMPONENTS = ("split", "move", "junction_cross", "merge",
                       "rebalance", "swap")


def _expand_compiler_comparison(sweep, code):
    points = []
    for name in kind_params(sweep)["compilers"]:
        compiled = codesign_by_name(name).compile(code)
        breakdown = compiled.component_breakdown()
        shuttle = sum(breakdown.get(key, 0.0)
                      for key in _SHUTTLE_COMPONENTS)
        points.append(ExpandedPoint(
            row={"compiler": name,
                 "execution_time_us": compiled.execution_time_us,
                 "unrolled_total_us": compiled.serialized_time_us,
                 "unrolled_gate_us": breakdown.get("gate", 0.0),
                 "unrolled_shuttle_us": shuttle,
                 "unrolled_measurement_us": breakdown.get("measurement",
                                                          0.0),
                 "parallelization_fraction":
                     compiled.parallelization_fraction},
            sampled=False))
    return points


register_kind(SweepKind(
    name="compiler_comparison",
    description="Figure 20: execution time, unrolled components and "
                "parallelization per compiler (no sampling).",
    params=(KindParam("compilers", "list[str]", list(_COMPILER_SET),
                      "codesign names to compile and compare"),),
    expand=_expand_compiler_comparison,
    static_columns=lambda sweep: [
        "compiler", "execution_time_us", "unrolled_total_us",
        "unrolled_gate_us", "unrolled_shuttle_us",
        "unrolled_measurement_us", "parallelization_fraction"],
    title=lambda sweep: f"Fig. 20 — compiler sensitivity ({sweep.code})",
    sampled=False,
    validate_names=lambda sweep: _check_codesigns(
        sweep, kind_params(sweep)["compilers"]),
))


# -- swap_kind (Figure 21, no sampling) --------------------------------

def _expand_swap_kind(sweep, code):
    points = []
    for swap_kind in (SwapKind.GATE_SWAP, SwapKind.ION_SWAP):
        times = OperationTimes(swap_kind=swap_kind)
        for design in ("baseline", "cyclone"):
            compiled = codesign_by_name(design, times=times).compile(code)
            points.append(ExpandedPoint(
                row={"design": design, "swap_kind": swap_kind.value,
                     "execution_time_us": compiled.execution_time_us},
                sampled=False))
    return points


register_kind(SweepKind(
    name="swap_kind",
    description="Figure 21: IonSWAP vs GateSWAP execution times for "
                "baseline and Cyclone (no sampling).",
    expand=_expand_swap_kind,
    static_columns=lambda sweep: ["design", "swap_kind",
                                  "execution_time_us"],
    title=lambda sweep: (
        f"Fig. 21 — IonSWAP vs GateSWAP sensitivity ({sweep.code})"),
    sampled=False,
))


# -- scenario_sweep (randomized differential fuzzing) ------------------

def _expand_scenario_sweep(sweep, code):
    del code  # scenarios bring their own generated codes
    values = kind_params(sweep)
    points = []
    for index in range(int(values["num_scenarios"])):
        scenario = generate_scenario(int(values["scenario_seed"]), index,
                                     shots=int(values["shots"]))
        scenario_code, latency = build_scenario(scenario)
        points.append(ExpandedPoint(
            row={"scenario": scenario.name, "code": scenario_code.name,
                 "codesign": scenario.codesign, "rounds": scenario.rounds,
                 "p": scenario.physical_error_rate,
                 "round_latency_us": latency,
                 "oracle_backend": values["check_backend"]},
            params={"scenario": scenario.to_dict(),
                    "oracle_backend": values["check_backend"]},
            physical_error_rate=scenario.physical_error_rate,
            round_latency_us=latency,
            code=scenario_code,
            rounds=scenario.rounds,
            basis=scenario.basis,
            shard_shots=scenario.shard_shots,
            max_bp_iterations=scenario.max_bp_iterations,
            experiment_key=scenario.name,
            cap=scenario.shots,
            pilot=scenario.shots,
            seed_entropy=scenario.seed,
            oracle=OracleCheck(reference=values["check_backend"],
                               scenario=scenario,
                               failure_dir=values["failure_dir"]),
        ))
    return points


def _validate_scenario_sweep(sweep) -> None:
    values = kind_params(sweep)
    if int(values["num_scenarios"]) < 1:
        raise ValueError(f"sweep {sweep.name!r}: num_scenarios must be "
                         "positive")
    if int(values["shots"]) < 1:
        raise ValueError(f"sweep {sweep.name!r}: scenario shots must be "
                         "positive")
    if values["check_backend"] not in BACKENDS:
        raise ValueError(f"sweep {sweep.name!r}: check_backend must be "
                         "'packed', 'bool' or 'native'")
    # A scenario file records neither knob, and its replay
    # (run_scenario) runs the phenomenological method at OSD-0.
    if sweep.method != "phenomenological" or sweep.osd_order != 0:
        raise ValueError(f"sweep {sweep.name!r}: a scenario sweep runs "
                         "the phenomenological method at osd_order 0, "
                         "as its scenario files replay")


register_kind(SweepKind(
    name="scenario_sweep",
    description="Randomized scenarios (generated codes, trap topologies "
                "and noise models) cross-checked bit-for-bit against a "
                "reference-backend oracle; mismatches are minimized to "
                "replayable JSON files.",
    params=(
        KindParam("num_scenarios", "int", 8,
                  "scenarios to generate"),
        KindParam("scenario_seed", "int", 0,
                  "entropy of the deterministic scenario stream"),
        KindParam("shots", "int", 128,
                  "shots sampled per scenario"),
        KindParam("check_backend", "str", "bool",
                  "reference oracle backend (runs workers=1, no pool)"),
        KindParam("failure_dir", "str", "scenario-failures",
                  "directory for minimized failure scenario files"),
    ),
    expand=_expand_scenario_sweep,
    static_columns=lambda sweep: ["scenario", "code", "codesign", "rounds",
                                  "p", "round_latency_us",
                                  "oracle_backend"],
    title=lambda sweep: (
        f"scenario fuzz (n={kind_params(sweep)['num_scenarios']}, "
        f"seed={kind_params(sweep)['scenario_seed']}, "
        f"oracle={kind_params(sweep)['check_backend']})"),
    needs_code=False,
    validate=_validate_scenario_sweep,
))
