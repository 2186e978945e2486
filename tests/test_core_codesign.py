"""Tests for codesigns, spacetime cost, result tables and sweeps."""

from __future__ import annotations

import pytest

from repro.codes import code_by_name, surface_code
from repro.core import (
    Codesign,
    available_codesigns,
    codesign_by_name,
    spacetime_comparison,
    spacetime_cost,
    sweep_architectures,
    sweep_physical_error,
)
from repro.core.results import ResultTable
from repro.qccd import OperationTimes
from repro.qccd.compilers import CycloneCompiler


@pytest.fixture(scope="module")
def bb72():
    return code_by_name("BB [[72,12,6]]")


class TestCodesignRegistry:
    def test_registry_contains_paper_designs(self):
        names = available_codesigns()
        for expected in ("baseline", "cyclone", "alternate_grid",
                         "mesh_junction", "ejf_ring", "baseline2", "baseline3",
                         "baseline_grid_dynamic"):
            assert expected in names

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            codesign_by_name("warp_drive")

    def test_compiler_overrides_forwarded(self):
        codesign = codesign_by_name("cyclone", num_traps=16)
        assert codesign.compiler.num_traps == 16

    def test_with_times_propagates_to_compiler(self, bb72):
        slow = codesign_by_name("cyclone")
        fast = codesign_by_name("cyclone",
                                times=OperationTimes(improvement_factor=0.5))
        assert fast.compile(bb72).execution_time_us < \
            slow.compile(bb72).execution_time_us

    def test_codesign_compile_and_spatial_summary(self, bb72):
        codesign = codesign_by_name("cyclone")
        compiled = codesign.compile(bb72)
        assert compiled.metadata["num_traps"] == 36
        assert compiled.metadata["dac_count"] == 1

    def test_custom_codesign_wrapping(self, bb72):
        custom = Codesign(name="custom", compiler=CycloneCompiler(num_traps=9))
        compiled = custom.compile(bb72)
        assert compiled.metadata["num_traps"] == 9


class TestSpacetime:
    def test_cost_product(self, bb72):
        compiled = codesign_by_name("cyclone").compile(bb72)
        cost = spacetime_cost(compiled)
        assert cost.cost == pytest.approx(
            cost.num_traps * cost.num_ancilla * cost.execution_time_us
        )

    def test_cyclone_beats_baseline_spacetime(self, bb72):
        baseline = codesign_by_name("baseline").compile(bb72)
        cyclone = codesign_by_name("cyclone").compile(bb72)
        comparison = spacetime_comparison(baseline, cyclone)
        assert comparison["improvement_factor"] > 5
        assert comparison["trap_ratio"] >= 2
        assert comparison["ancilla_ratio"] == pytest.approx(2.0)

    def test_relative_to_self_is_one(self, bb72):
        compiled = codesign_by_name("cyclone").compile(bb72)
        cost = spacetime_cost(compiled)
        assert cost.relative_to(cost) == pytest.approx(1.0)


class TestResultTable:
    def test_add_and_render(self):
        table = ResultTable(title="demo", columns=["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a="x", b=1e-6)
        text = table.to_text()
        assert "demo" in text
        assert "1e-06" in text or "1.000e-06" in text
        assert len(table) == 2

    def test_unknown_column_rejected(self):
        table = ResultTable(title="demo", columns=["a"])
        with pytest.raises(KeyError):
            table.add_row(b=1)

    def test_column_access(self):
        table = ResultTable(title="demo", columns=["a"])
        table.add_row(a=1)
        table.add_row(a=2)
        assert table.column("a") == [1, 2]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_empty_table_renders_header(self):
        table = ResultTable(title="empty", columns=["col"])
        assert "col" in table.to_text()


class TestSweeps:
    def test_physical_error_sweep_rows(self):
        code = surface_code(3)
        table = sweep_physical_error(code, round_latency_us=1000.0,
                                     physical_error_rates=[1e-3, 5e-3],
                                     shots=50, rounds=2)
        assert len(table) == 2
        lers = table.column("logical_error_rate")
        assert all(0.0 <= value <= 1.0 for value in lers)

    def test_ler_increases_with_p(self):
        code = surface_code(3)
        table = sweep_physical_error(code, round_latency_us=50_000.0,
                                     physical_error_rates=[1e-4, 2e-2],
                                     shots=150, rounds=2, seed=11)
        low, high = table.column("logical_error_rate")
        assert high >= low

    def test_architecture_sweep_without_ler(self, bb72):
        designs = [codesign_by_name("baseline"), codesign_by_name("cyclone")]
        table = sweep_architectures(bb72, designs)
        assert len(table) == 2
        assert "logical_error_rate" not in table.columns
        exec_times = dict(zip(table.column("codesign"),
                              table.column("execution_time_us")))
        assert exec_times["cyclone"] < exec_times["baseline"]

    def test_architecture_sweep_with_ler(self):
        code = surface_code(3)
        designs = [codesign_by_name("cyclone")]
        table = sweep_architectures(code, designs, physical_error_rate=1e-3,
                                    shots=40, rounds=2)
        assert "logical_error_rate" in table.columns
        assert len(table) == 1
