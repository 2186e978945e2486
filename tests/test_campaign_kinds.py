"""The sweep-kind registry and bit-identity of the migrated figures.

Every bespoke figure function that moved onto the kind registry is
parity-tested here against a frozen replica of its legacy
implementation: same code, same seed, same shot budget — the rendered
tables must match byte for byte (``to_json``).  The replicas are
deliberate copies of the pre-migration code paths (one
:class:`MemoryExperiment` per sweep, one ``run`` per table row in
order), seeded by the campaign's rule: row *i* samples from
``SeedSequence(entropy=seed, spawn_key=(0, i, 0))``.  If a kind's
expansion ever reorders points or re-seeds differently, these tests
catch it.  A standalone sweep must also equal, row for row, the
one-sweep campaign of the same sweep.

The campaign-level tests exercise multi-kind specs: a mini campaign
mixing sampled, analytic and migrated kinds resumes from its store
with zero re-sampling and byte-identical tables, including after a
simulated mid-campaign interruption.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from numpy.random import SeedSequence

import repro.campaign.kinds as kinds_module
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    run_campaign,
    run_sweep_kind,
)
from repro.campaign.kinds import (
    KindParam,
    SweepKind,
    available_kinds,
    kind_by_name,
    kind_params,
    register_kind,
)
from repro.campaign.scenarios import generate_scenario, run_scenario
from repro.codes import code_by_name
from repro.core.codesign import codesign_by_name
from repro.core.memory import MemoryExperiment
from repro.core.results import ResultTable
from repro.core.stats import PrecisionTarget
from repro.core.sweep import sweep_architectures, sweep_physical_error
from repro.qccd.compilers import CycloneCompiler, EJFGridCompiler
from repro.qccd.timing import OperationTimes, SwapKind

CODE = "surface-d3"
P = 3e-2  # every sampled row sees failures, so LER cells are compared
SHOTS = 96
ROUNDS = 2
SEED = 3


# ----------------------------------------------------------------------
# Frozen legacy replicas (pre-registry implementations, verbatim).

def _legacy_ler(experiment, p, latency, shots, seed, index):
    return experiment.run(
        p, latency, shots=shots,
        seed=SeedSequence(entropy=seed, spawn_key=(0, index, 0)),
    ).logical_error_rate


def _legacy_depth_speedup(code, p, speedups, shots, rounds, seed):
    baseline = codesign_by_name("baseline").compile(code)
    latency = baseline.execution_time_us
    table = ResultTable(
        title=f"Fig. 5 — LER vs baseline depth speedup ({code.name}, "
              f"p={p:g})",
        columns=["speedup", "round_latency_us", "logical_error_rate"],
    )
    with MemoryExperiment(code=code, rounds=rounds, seed=seed) as experiment:
        for index, speedup in enumerate(speedups):
            scaled = latency / speedup
            table.add_row(
                speedup=speedup, round_latency_us=scaled,
                logical_error_rate=_legacy_ler(experiment, p, scaled, shots,
                                               seed, index),
            )
    return table


def _legacy_junction(code, p, reductions, shots, rounds, seed):
    table = ResultTable(
        title=f"Fig. 9 — junction crossing sensitivity ({code.name}, "
              f"p={p:g})",
        columns=["design", "junction_reduction", "execution_time_us",
                 "logical_error_rate"],
    )
    with MemoryExperiment(code=code, rounds=rounds, seed=seed) as experiment:
        baseline = codesign_by_name("baseline").compile(code)
        table.add_row(
            design="baseline_grid", junction_reduction=0.0,
            execution_time_us=baseline.execution_time_us,
            logical_error_rate=_legacy_ler(
                experiment, p, baseline.execution_time_us, shots, seed, 0),
        )
        for index, reduction in enumerate(reductions, start=1):
            times = OperationTimes(junction_improvement_factor=reduction)
            mesh = codesign_by_name("mesh_junction",
                                    times=times).compile(code)
            table.add_row(
                design="mesh_junction", junction_reduction=reduction,
                execution_time_us=mesh.execution_time_us,
                logical_error_rate=_legacy_ler(
                    experiment, p, mesh.execution_time_us, shots, seed,
                    index),
            )
    return table


def _legacy_trap_arrangement(code, p, trap_counts, shots, rounds, seed,
                             include_ler=True):
    m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
    if trap_counts is None:
        trap_counts = sorted({1, 9, 25, 64, m_basis // 2, m_basis})
    table = ResultTable(
        title=f"Fig. 13 — Cyclone trap/ion arrangement sensitivity "
              f"({code.name}, p={p:g})",
        columns=["num_traps", "trap_capacity", "chain_length",
                 "execution_time_us", "logical_error_rate"],
    )
    with MemoryExperiment(code=code, rounds=rounds, seed=seed) as experiment:
        for index, x in enumerate(trap_counts):
            x = max(1, min(int(x), m_basis)) if m_basis else 1
            compiled = CycloneCompiler(num_traps=x).compile(code)
            row = {
                "num_traps": x,
                "trap_capacity": compiled.metadata["trap_capacity"],
                "chain_length": compiled.metadata["chain_length"],
                "execution_time_us": compiled.execution_time_us,
                "logical_error_rate": float("nan"),
            }
            if include_ler:
                row["logical_error_rate"] = _legacy_ler(
                    experiment, p, compiled.execution_time_us, shots, seed,
                    index)
            table.add_row(**row)
    return table


def _legacy_loose_capacity(code, p, capacities, shots, rounds, seed):
    table = ResultTable(
        title=f"Fig. 17 — baseline sensitivity to loose trap capacity "
              f"({code.name}, p={p:g})",
        columns=["trap_capacity", "execution_time_us", "logical_error_rate"],
    )
    with MemoryExperiment(code=code, rounds=rounds, seed=seed) as experiment:
        for index, capacity in enumerate(capacities):
            compiled = EJFGridCompiler(trap_capacity=capacity).compile(code)
            table.add_row(
                trap_capacity=capacity,
                execution_time_us=compiled.execution_time_us,
                logical_error_rate=_legacy_ler(
                    experiment, p, compiled.execution_time_us, shots, seed,
                    index),
            )
    return table


def _legacy_operation_time(code, p, reductions, shots, rounds, seed):
    table = ResultTable(
        title=f"Fig. 18 — gate/shuttle time reduction sensitivity "
              f"({code.name}, p={p:g})",
        columns=["reduction", "design", "execution_time_us",
                 "logical_error_rate"],
    )
    with MemoryExperiment(code=code, rounds=rounds, seed=seed) as experiment:
        index = 0
        for reduction in reductions:
            times = OperationTimes(improvement_factor=reduction)
            for design in ("baseline", "cyclone"):
                compiled = codesign_by_name(design, times=times).compile(code)
                table.add_row(
                    reduction=reduction, design=design,
                    execution_time_us=compiled.execution_time_us,
                    logical_error_rate=_legacy_ler(
                        experiment, p, compiled.execution_time_us, shots,
                        seed, index),
                )
                index += 1
    return table


def _legacy_compiler_comparison(code, compilers):
    table = ResultTable(
        title=f"Fig. 20 — compiler sensitivity ({code.name})",
        columns=["compiler", "execution_time_us", "unrolled_total_us",
                 "unrolled_gate_us", "unrolled_shuttle_us",
                 "unrolled_measurement_us", "parallelization_fraction"],
    )
    for name in compilers:
        compiled = codesign_by_name(name).compile(code)
        breakdown = compiled.component_breakdown()
        shuttle = sum(
            breakdown.get(key, 0.0)
            for key in ("split", "move", "junction_cross", "merge",
                        "rebalance", "swap")
        )
        table.add_row(
            compiler=name,
            execution_time_us=compiled.execution_time_us,
            unrolled_total_us=compiled.serialized_time_us,
            unrolled_gate_us=breakdown.get("gate", 0.0),
            unrolled_shuttle_us=shuttle,
            unrolled_measurement_us=breakdown.get("measurement", 0.0),
            parallelization_fraction=compiled.parallelization_fraction,
        )
    return table


def _legacy_swap_kind(code):
    table = ResultTable(
        title=f"Fig. 21 — IonSWAP vs GateSWAP sensitivity ({code.name})",
        columns=["design", "swap_kind", "execution_time_us"],
    )
    for swap_kind in (SwapKind.GATE_SWAP, SwapKind.ION_SWAP):
        times = OperationTimes(swap_kind=swap_kind)
        for design in ("baseline", "cyclone"):
            compiled = codesign_by_name(design, times=times).compile(code)
            table.add_row(
                design=design, swap_kind=swap_kind.value,
                execution_time_us=compiled.execution_time_us,
            )
    return table


# ----------------------------------------------------------------------
# Registry semantics.

class TestRegistry:
    def test_all_builtin_kinds_registered(self):
        assert set(available_kinds()) >= {
            "physical_error", "architectures", "depth_speedup",
            "junction_crossing", "trap_arrangement", "loose_capacity",
            "operation_time", "compiler_comparison", "swap_kind",
            "scenario_sweep",
        }

    def test_unknown_kind_error_names_registered_kinds(self):
        with pytest.raises(ValueError, match="unknown sweep kind 'bogus'"):
            kind_by_name("bogus")
        with pytest.raises(ValueError, match="registered kinds"):
            kind_by_name("bogus")

    def test_duplicate_registration_rejected(self):
        existing = kind_by_name("physical_error")
        with pytest.raises(ValueError, match="already registered"):
            register_kind(existing)

    def test_custom_kind_registers_and_runs(self):
        custom = SweepKind(
            name="test_only_latency",
            description="compiled latency per codesign (test-only)",
            params=(KindParam("designs", "list[str]",
                              ["baseline", "cyclone"], "codesigns"),),
            expand=lambda sweep, code: [
                kinds_module.ExpandedPoint(
                    row={"design": name,
                         "execution_time_us": codesign_by_name(name)
                         .compile(code).execution_time_us},
                    sampled=False)
                for name in kind_params(sweep)["designs"]
            ],
            static_columns=lambda sweep: ["design", "execution_time_us"],
            title=lambda sweep: f"latency ({sweep.code})",
            sampled=False,
        )
        register_kind(custom)
        try:
            sweep = SweepSpec(name="s", code=CODE, kind="test_only_latency")
            table = run_sweep_kind(sweep)
            assert [row["design"] for row in table.rows] == \
                ["baseline", "cyclone"]
            assert all(row["execution_time_us"] > 0 for row in table.rows)
        finally:
            del kinds_module._KINDS["test_only_latency"]

    def test_kind_params_merges_schema_defaults(self):
        sweep = SweepSpec(name="s", code=CODE, kind="depth_speedup",
                          params={"speedups": [2.0]})
        assert kind_params(sweep) == {"speedups": [2.0]}
        sweep = SweepSpec(name="s", code=CODE, kind="depth_speedup")
        assert kind_params(sweep) == {"speedups": [1.0, 2.0, 4.0]}

    def test_unknown_param_key_rejected(self):
        with pytest.raises(ValueError,
                           match=r"unknown depth_speedup params"):
            SweepSpec(name="s", code=CODE, kind="depth_speedup",
                      params={"bogus": 1})

    def test_params_survive_spec_round_trip(self):
        sweep = SweepSpec(name="s", code=CODE, kind="loose_capacity",
                          params={"capacities": [5, 9]})
        assert SweepSpec.from_dict(sweep.to_dict()) == sweep


# ----------------------------------------------------------------------
# Bit-identity parity: registered kind vs frozen legacy replica.

def _kind_table(kind, params, **sweep_fields):
    sweep = SweepSpec(name="parity", code=CODE, kind=kind, params=params,
                      rounds=ROUNDS, **sweep_fields)
    return run_sweep_kind(sweep, shots=SHOTS, seed=SEED)


def _assert_sampled_parity(table, legacy):
    """Byte parity of a sampled table whose every LER cell is nonzero,
    so the comparison covers the sampled column, not just the static
    ones."""
    assert all(row["logical_error_rate"] > 0 for row in table.rows)
    assert table.to_json() == legacy.to_json()


class TestKindParity:
    def test_fig05_depth_speedup(self):
        code = code_by_name(CODE)
        legacy = _legacy_depth_speedup(code, P, (1.0, 2.0, 4.0),
                                       SHOTS, ROUNDS, SEED)
        table = _kind_table("depth_speedup", {"speedups": [1.0, 2.0, 4.0]},
                            physical_error_rate=P)
        _assert_sampled_parity(table, legacy)

    def test_fig09_junction_crossing(self):
        code = code_by_name(CODE)
        legacy = _legacy_junction(code, P, (0.0, 0.7), SHOTS, ROUNDS, SEED)
        table = _kind_table("junction_crossing", {"reductions": [0.0, 0.7]},
                            physical_error_rate=P)
        _assert_sampled_parity(table, legacy)

    def test_fig13_trap_arrangement(self):
        code = code_by_name(CODE)
        legacy = _legacy_trap_arrangement(code, P, (1, 4), SHOTS, ROUNDS,
                                          SEED)
        table = _kind_table("trap_arrangement", {"trap_counts": [1, 4]},
                            physical_error_rate=P)
        _assert_sampled_parity(table, legacy)

    def test_fig13_compiled_only(self):
        code = code_by_name(CODE)
        legacy = _legacy_trap_arrangement(code, P, (1, 4), SHOTS, ROUNDS,
                                          SEED, include_ler=False)
        table = _kind_table("trap_arrangement",
                            {"trap_counts": [1, 4], "include_ler": False},
                            physical_error_rate=P)
        assert table.to_json() == legacy.to_json()

    def test_fig17_loose_capacity(self):
        code = code_by_name(CODE)
        legacy = _legacy_loose_capacity(code, P, (5, 8), SHOTS, ROUNDS, SEED)
        table = _kind_table("loose_capacity", {"capacities": [5, 8]},
                            physical_error_rate=P)
        _assert_sampled_parity(table, legacy)

    def test_fig18_operation_time(self):
        code = code_by_name(CODE)
        legacy = _legacy_operation_time(code, P, (0.0, 0.5), SHOTS, ROUNDS,
                                        SEED)
        table = _kind_table("operation_time", {"reductions": [0.0, 0.5]},
                            physical_error_rate=P)
        _assert_sampled_parity(table, legacy)

    def test_fig20_compiler_comparison(self):
        code = code_by_name(CODE)
        legacy = _legacy_compiler_comparison(
            code, ("baseline", "baseline2", "baseline3", "cyclone"))
        table = _kind_table("compiler_comparison", {})
        assert table.to_json() == legacy.to_json()

    def test_fig21_swap_kind(self):
        code = code_by_name(CODE)
        legacy = _legacy_swap_kind(code)
        table = _kind_table("swap_kind", {})
        assert table.to_json() == legacy.to_json()


# ----------------------------------------------------------------------
# A standalone sweep is the one-sweep campaign of the same sweep.

NOISY_P = 3e-2  # every point sees failures at these budgets
SHARD = 16      # several shards per point, so workers=2 uses the pool
UNREACHABLE = PrecisionTarget(half_width=1e-9)


def _one_sweep_campaign(sweep, budget, workers):
    spec = CampaignSpec(name="one_sweep", sweeps=(sweep,), budget=budget,
                        seed=SEED)
    return run_campaign(spec, workers=workers).tables[0]


def _assert_rows_match(standalone, campaign):
    """Every standalone cell equals the campaign's cell in its column."""
    shared = [column for column in standalone.columns
              if column in campaign.columns]
    assert "logical_error_rate" in shared
    assert any(row["logical_error_rate"] > 0 for row in standalone.rows)
    assert ([{c: row[c] for c in shared} for row in standalone.rows]
            == [{c: row[c] for c in shared} for row in campaign.rows])


@pytest.mark.parametrize("workers", [1, 2])
class TestStandaloneIsOneSweepCampaign:
    def test_sampled_kind(self, workers):
        sweep = SweepSpec(name="fig5", code=CODE, kind="depth_speedup",
                          physical_error_rate=NOISY_P,
                          params={"speedups": [1.0, 2.0, 4.0]},
                          rounds=ROUNDS, shard_shots=SHARD)
        standalone = run_sweep_kind(sweep, shots=48, seed=SEED,
                                    workers=workers)
        campaign = _one_sweep_campaign(
            replace(sweep, target=UNREACHABLE, max_shots=48,
                    pilot_shots=48), 3 * 48, workers)
        _assert_rows_match(standalone, campaign)

    def test_scenario_sweep_runs_its_oracle(self, workers, tmp_path,
                                            monkeypatch):
        backends = []
        real_run = MemoryExperiment.run

        def recording_run(self, *args, **kwargs):
            backends.append(self.backend)
            return real_run(self, *args, **kwargs)

        sweep = SweepSpec(name="fuzz", kind="scenario_sweep",
                          params={"num_scenarios": 2, "shots": 48,
                                  "scenario_seed": 11,
                                  "failure_dir": str(tmp_path)})
        monkeypatch.setattr(MemoryExperiment, "run", recording_run)
        standalone = run_sweep_kind(sweep, seed=SEED, workers=workers)
        # Each scenario samples once at its pinned shot count, and the
        # bool oracle re-draws the same shots.
        assert backends == ["packed", "bool"] * 2
        monkeypatch.setattr(MemoryExperiment, "run", real_run)
        campaign = _one_sweep_campaign(replace(sweep, target=UNREACHABLE),
                                       2 * 48, workers)
        _assert_rows_match(standalone, campaign)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("target", [None, 0.05])
    def test_sweep_physical_error(self, workers, target):
        code = code_by_name(CODE)
        latency = codesign_by_name("cyclone").compile(code).execution_time_us
        rates = (1e-2, NOISY_P)
        pilot = None if target is None else 16
        standalone = sweep_physical_error(
            code, latency, rates, shots=64, rounds=ROUNDS, seed=SEED,
            workers=workers, shard_shots=SHARD, target_precision=target,
            pilot_shots=pilot)
        sweep = SweepSpec(name="ler", code=CODE, kind="physical_error",
                          codesign="cyclone", physical_error_rates=rates,
                          rounds=ROUNDS, shard_shots=SHARD)
        if target is None:
            sweep = replace(sweep, target=UNREACHABLE, max_shots=64,
                            pilot_shots=64)
        else:
            sweep = replace(sweep, target=PrecisionTarget(half_width=target),
                            pilot_shots=pilot)
        campaign = _one_sweep_campaign(sweep, 2 * 64, workers)
        _assert_rows_match(standalone, campaign)
        assert standalone.columns == campaign.columns

    def test_sweep_architectures(self, workers):
        code = code_by_name(CODE)
        standalone = sweep_architectures(
            code, [codesign_by_name("baseline"), codesign_by_name("cyclone")],
            physical_error_rate=NOISY_P, shots=48, rounds=ROUNDS, seed=SEED,
            workers=workers, shard_shots=SHARD)
        sweep = SweepSpec(name="arch", code=CODE, kind="architectures",
                          codesigns=("baseline", "cyclone"),
                          physical_error_rate=NOISY_P, rounds=ROUNDS,
                          shard_shots=SHARD, target=UNREACHABLE,
                          max_shots=48, pilot_shots=48)
        campaign = _one_sweep_campaign(sweep, 2 * 48, workers)
        _assert_rows_match(standalone, campaign)


class TestScenarioSweepReplays:
    """A scenario sweep samples exactly what its scenario files replay."""

    @pytest.mark.parametrize("knob", [{"method": "circuit"},
                                      {"osd_order": 2}])
    def test_unreplayable_knobs_rejected(self, knob):
        # A scenario file records neither knob; run_scenario runs the
        # phenomenological method at OSD-0.
        with pytest.raises(ValueError, match="scenario sweep"):
            SweepSpec(name="fuzz", kind="scenario_sweep", **knob)

    def test_rows_equal_run_scenario_replays(self, tmp_path):
        sweep = SweepSpec(name="fuzz", kind="scenario_sweep",
                          params={"num_scenarios": 3, "shots": 48,
                                  "scenario_seed": 11,
                                  "failure_dir": str(tmp_path)})
        table = _one_sweep_campaign(sweep, 3 * 48, workers=1)
        replays = [run_scenario(generate_scenario(11, index, shots=48),
                                target=sweep.target)
                   for index in range(3)]
        assert ([(row["failures"], row["shots_used"]) for row in table.rows]
                == [(replay.failures, replay.shots) for replay in replays])
        assert any(replay.failures for replay in replays)


# ----------------------------------------------------------------------
# Multi-kind campaigns: resume across every kind.

def _multi_kind_spec(budget: int = 700) -> CampaignSpec:
    return CampaignSpec.from_dict({
        "name": "multi_kind",
        "budget": budget,
        "seed": 5,
        "sweeps": [
            {"name": "ler", "code": "repetition-d3",
             "kind": "physical_error", "codesign": "cyclone",
             "physical_error_rates": [5e-3, 2e-2],
             "target": {"half_width": 0.04}, "rounds": 2,
             "pilot_shots": 32, "shard_shots": 64},
            {"name": "speedup", "code": CODE, "kind": "depth_speedup",
             "physical_error_rate": 5e-3,
             "params": {"speedups": [1.0, 2.0]},
             "target": {"half_width": 0.05}, "rounds": 2,
             "pilot_shots": 32, "shard_shots": 64},
            {"name": "traps", "code": CODE, "kind": "trap_arrangement",
             "physical_error_rate": 5e-3,
             "params": {"trap_counts": [1, 4], "include_ler": False}},
            {"name": "swaps", "code": CODE, "kind": "swap_kind"},
            {"name": "fuzz", "kind": "scenario_sweep",
             "params": {"num_scenarios": 2, "shots": 48,
                        "scenario_seed": 11}},
        ],
    })


class TestMultiKindCampaign:
    def test_resume_reuses_every_kind(self, tmp_path):
        spec = _multi_kind_spec()
        store = tmp_path / "store.jsonl"
        cold = run_campaign(spec, store=store)
        assert cold.shots_sampled > 0
        warm = run_campaign(spec, store=store)
        assert warm.shots_sampled == 0
        assert warm.points_reused == warm.points_total == cold.points_total
        assert len(warm.tables) == len(cold.tables)
        for one, two in zip(cold.tables, warm.tables):
            assert one.to_json() == two.to_json()
        # Analytic kinds render rows without costing budget.
        by_title = {table.title: table for table in warm.tables}
        swap_table = next(t for t in warm.tables if "Fig. 21" in t.title)
        assert len(swap_table.rows) == 4
        assert by_title  # every sweep produced a table

    def test_interrupted_multi_kind_campaign_resumes(self, tmp_path,
                                                     monkeypatch):
        spec = _multi_kind_spec()
        store = tmp_path / "store.jsonl"
        appended = {"n": 0}
        original_run = MemoryExperiment.run
        original_append = ResultStore.append

        def counting_append(self, record):
            # Mid-point checkpoints append partial records too; the
            # interrupt should trigger after two *finalised* points.
            if not record.get("partial"):
                appended["n"] += 1
            return original_append(self, record)

        def dying_run(self, *args, **kwargs):
            if appended["n"] >= 2:
                raise KeyboardInterrupt("simulated ^C mid-campaign")
            return original_run(self, *args, **kwargs)

        monkeypatch.setattr(ResultStore, "append", counting_append)
        monkeypatch.setattr(MemoryExperiment, "run", dying_run)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(spec, store=store)
        monkeypatch.setattr(MemoryExperiment, "run", original_run)
        assert len(ResultStore(store)) >= 2

        resumed = run_campaign(spec, store=store)
        assert resumed.points_reused >= 2
        assert resumed.points_reused <= resumed.points_total
        # A third run replays every kind from the store: nothing sampled.
        final = run_campaign(spec, store=store)
        assert final.shots_sampled == 0
        assert final.points_reused == final.points_total
        for one, two in zip(resumed.tables, final.tables):
            assert one.to_json() == two.to_json()


# ----------------------------------------------------------------------
# A kind describes its points once: the expansion is also the count.

class TestOneExpansionPerRun:
    def test_custom_kind_expands_once(self):
        calls = {"n": 0}

        def expand(sweep, code):
            calls["n"] += 1
            return [kinds_module.ExpandedPoint(
                row={"knob": knob, "round_latency_us": 100.0},
                params={"knob": knob},
                physical_error_rate=P, round_latency_us=100.0)
                for knob in kind_params(sweep)["knobs"]]

        register_kind(SweepKind(
            name="test_only_counted",
            description="sampled points from the docs' recipe (test-only)",
            params=(KindParam("knobs", "list[float]", [1.0, 2.0],
                              "knobs"),),
            expand=expand,
            static_columns=lambda sweep: ["knob", "round_latency_us"],
            title=lambda sweep: f"counted ({sweep.code})",
        ))
        try:
            sweep = SweepSpec(name="s", code=CODE, kind="test_only_counted",
                              rounds=ROUNDS)
            result = run_campaign(CampaignSpec(
                name="counted", sweeps=(sweep,), budget=64, seed=SEED))
            result.summary_table()
            summary = result.summary_table()
        finally:
            del kinds_module._KINDS["test_only_counted"]
        assert calls["n"] == 1
        assert summary.column("points") == [2]
        assert result.points_total == 2

    def test_summary_counts_sampled_rows(self):
        spec = CampaignSpec.from_dict({
            "name": "sampled_and_analytic",
            "budget": 128,
            "seed": SEED,
            "sweeps": [
                {"name": "ler", "code": CODE, "kind": "physical_error",
                 "codesign": "cyclone", "physical_error_rates": [1e-2, P],
                 "rounds": ROUNDS, "pilot_shots": 32},
                {"name": "swaps", "code": CODE, "kind": "swap_kind"},
            ],
        })
        result = run_campaign(spec)
        summary = result.summary_table()
        assert summary.column("sweep") == ["ler", "swaps"]
        assert summary.column("points") == [2, 0]
        assert summary.column("shots_used") == [result.spent, 0]
        assert len(result.tables[1].rows) == 4
