"""Tests for the analysis helpers behind the paper's figures."""

from __future__ import annotations

import pytest

from repro.analysis import (
    confusion_matrix,
    parallel_vs_serial_speedup,
    speedup_table,
)
from repro.campaign import SweepSpec, run_sweep_kind
from repro.codes import code_by_name, surface_code


@pytest.fixture(scope="module")
def bb72():
    return code_by_name("BB [[72,12,6]]")


def _figure(kind, code, params=None, shots=200, **sweep_fields):
    """One figure's table: its sweep kind run standalone on ``code``."""
    sweep = SweepSpec(name=kind, code=code.name, kind=kind,
                      params=params or {}, **sweep_fields)
    return run_sweep_kind(sweep, code=code, shots=shots)


class TestParallelismAnalysis:
    def test_single_code_speedup(self, bb72):
        data = parallel_vs_serial_speedup(bb72)
        assert data["speedup"] == pytest.approx(
            data["serial_depth"] / data["parallel_depth"]
        )
        assert data["speedup"] > 10

    def test_speedup_table_custom_codes(self):
        table = speedup_table(["BB [[72,12,6]]", "BB [[144,12,12]]"])
        assert len(table) == 2
        speedups = table.column("speedup")
        assert speedups[1] > speedups[0]


class TestConfusionMatrix:
    def test_four_cells_and_cyclone_wins(self, bb72):
        table = confusion_matrix(bb72)
        assert len(table) == 4
        rows = {
            (row["software"], row["hardware"]): row["execution_time_us"]
            for row in table.rows
        }
        assert set(rows) == {("static", "grid"), ("dynamic", "grid"),
                             ("static", "circle"), ("dynamic", "circle")}
        # The coordinated codesign (dynamic + circle = Cyclone) is fastest,
        # and the mismatched static + circle cell is the slowest.
        assert rows[("dynamic", "circle")] == min(rows.values())
        assert rows[("static", "circle")] == max(rows.values())


class TestSensitivityAnalyses:
    def test_depth_speedup_improves_ler(self, bb72):
        table = _figure("depth_speedup", bb72, {"speedups": [1.0, 4.0]},
                        physical_error_rate=5e-4, shots=120, rounds=3)
        lers = table.column("logical_error_rate")
        assert lers[1] <= lers[0] + 0.05

    def test_junction_sensitivity_monotone_latency(self, bb72):
        table = _figure("junction_crossing", bb72,
                        {"reductions": [0.0, 0.7]}, shots=30, rounds=2)
        mesh_rows = [row for row in table.rows
                     if row["design"] == "mesh_junction"]
        assert mesh_rows[0]["execution_time_us"] > \
            mesh_rows[1]["execution_time_us"]

    def test_trap_arrangement_rows(self, bb72):
        table = _figure("trap_arrangement", bb72,
                        {"trap_counts": [1, 9, 36], "include_ler": False})
        assert len(table) == 3
        single_trap = table.rows[0]
        assert single_trap["num_traps"] == 1
        assert single_trap["chain_length"] >= bb72.num_qubits

    def test_loose_capacity_changes_little(self, bb72):
        table = _figure("loose_capacity", bb72, {"capacities": [5, 10]},
                        shots=30, rounds=2)
        times = table.column("execution_time_us")
        assert len(times) == 2
        assert all(t > 0 for t in times)

    def test_operation_time_reduction_closes_gap(self, bb72):
        table = _figure("operation_time", bb72, {"reductions": [0.0, 0.75]},
                        shots=30, rounds=2)
        assert len(table) == 4
        baseline_rows = [r for r in table.rows if r["design"] == "baseline"]
        assert baseline_rows[1]["execution_time_us"] < \
            baseline_rows[0]["execution_time_us"]

    def test_swap_kind_sensitivity(self, bb72):
        table = _figure("swap_kind", bb72)
        assert len(table) == 4
        cyclone_rows = {row["swap_kind"]: row["execution_time_us"]
                        for row in table.rows if row["design"] == "cyclone"}
        baseline_rows = {row["swap_kind"]: row["execution_time_us"]
                         for row in table.rows if row["design"] == "baseline"}
        # Cyclone keeps its advantage under either swap implementation.
        for kind in cyclone_rows:
            assert cyclone_rows[kind] < baseline_rows[kind]


class TestCompilerComparison:
    def test_rows_and_parallelization(self):
        code = surface_code(5)
        table = _figure("compiler_comparison", code)
        assert len(table) == 4
        assert set(table.column("compiler")) == {
            "baseline", "baseline2", "baseline3", "cyclone"
        }
        for row in table.rows:
            assert row["unrolled_total_us"] >= row["execution_time_us"]
            assert 0.0 <= row["parallelization_fraction"] <= 1.0

    def test_cyclone_has_highest_parallelization(self, bb72):
        table = _figure("compiler_comparison", bb72)
        by_name = {row["compiler"]: row["parallelization_fraction"]
                   for row in table.rows}
        assert by_name["cyclone"] == max(by_name.values())
