"""Tests for the QCCD compilers (EJF baseline, dynamic, variants, mesh, Cyclone)."""

from __future__ import annotations

import pytest

from repro.codes import code_by_name, surface_code, x_then_z_schedule
from repro.qccd import OperationTimes, OpKind, QCCDDevice
from repro.qccd.compilers import (
    Compiler,
    CycloneCompiler,
    DynamicTimesliceCompiler,
    EJFGridCompiler,
    MeshJunctionCompiler,
    MoveBatchingCompiler,
    ShuttleMinimizingCompiler,
    cyclone_worst_case_bound_us,
)
from repro.qccd.compilers.ejf import build_device_for


@pytest.fixture(scope="module")
def bb72():
    return code_by_name("BB [[72,12,6]]")


@pytest.fixture(scope="module")
def surface5():
    return surface_code(5)


class TestDeviceBuilder:
    def test_grid_device_for_code(self, surface5):
        device = build_device_for(surface5, "baseline_grid", trap_capacity=5)
        assert device.name == "baseline_grid"
        assert device.num_traps == 25

    def test_ring_device_sized_to_fit(self, surface5):
        device = build_device_for(surface5, "ring", trap_capacity=5)
        assert device.total_capacity() >= 25 + 24

    def test_unknown_topology_rejected(self, surface5):
        with pytest.raises(ValueError):
            build_device_for(surface5, "torus", trap_capacity=5)

    def test_insufficient_capacity_rejected(self, surface5):
        with pytest.raises(ValueError):
            build_device_for(surface5, "ring", trap_capacity=5, num_traps=2)


class TestEJFCompiler:
    def test_schedules_every_gate(self, surface5):
        compiled = EJFGridCompiler().compile(surface5)
        assert compiled.gate_count() == surface5.total_cnot_count
        assert compiled.execution_time_us > 0

    def test_measurement_included_by_default(self, surface5):
        compiled = EJFGridCompiler().compile(surface5)
        assert compiled.count(OpKind.MEASUREMENT) == surface5.num_stabilizers

    def test_metadata_records_spatial_figures(self, surface5):
        compiled = EJFGridCompiler().compile(surface5)
        assert compiled.metadata["num_traps"] == 25
        assert compiled.metadata["dac_count"] == 25
        assert compiled.metadata["num_ancilla"] == 24

    def test_roadblocks_are_reported(self, bb72):
        compiled = EJFGridCompiler().compile(bb72)
        assert compiled.metadata["roadblock_events"] > 0
        assert compiled.metadata["roadblock_wait_us"] > 0

    def test_faster_operation_times_reduce_latency(self, surface5):
        slow = EJFGridCompiler().compile(surface5)
        fast = EJFGridCompiler(
            times=OperationTimes(improvement_factor=0.5)
        ).compile(surface5)
        assert fast.execution_time_us < slow.execution_time_us

    def test_ring_topology_is_much_slower(self, bb72):
        grid = EJFGridCompiler().compile(bb72)
        ring = EJFGridCompiler(topology="ring", label="ejf_ring").compile(bb72)
        assert ring.execution_time_us > grid.execution_time_us

    def test_explicit_schedule_accepted(self, surface5):
        schedule = x_then_z_schedule(surface5)
        compiled = EJFGridCompiler().compile(surface5, schedule)
        assert compiled.gate_count() == schedule.total_gates


class TestDynamicCompiler:
    def test_schedules_every_gate(self, surface5):
        compiled = DynamicTimesliceCompiler().compile(surface5)
        assert compiled.gate_count() == surface5.total_cnot_count

    def test_timeslice_barriers_monotone(self, surface5):
        # No gate of timeslice k+1 starts before every gate of timeslice
        # k has finished.  Within a slice gates overlap freely, so op
        # starts need not be sorted.
        timeslices = x_then_z_schedule(surface5).timeslices
        slice_of = {(surface5.num_qubits + gate.stabilizer, gate.data): index
                    for index, timeslice in enumerate(timeslices)
                    for gate in timeslice}
        compiled = DynamicTimesliceCompiler().compile(surface5)
        gate_ops = [op for op in compiled.operations if op.kind is OpKind.GATE]
        first_start = [float("inf")] * len(timeslices)
        last_end = [0.0] * len(timeslices)
        for op in gate_ops:
            index = slice_of[op.qubits]
            first_start[index] = min(first_start[index], op.start_us)
            last_end[index] = max(last_end[index], op.end_us)
        for index in range(len(timeslices) - 1):
            assert first_start[index + 1] >= last_end[index]
        assert compiled.execution_time_us >= max(op.end_us for op in gate_ops)


class TestVariantCompilers:
    def test_shuttle_minimizing_covers_all_gates(self, surface5):
        compiled = ShuttleMinimizingCompiler().compile(surface5)
        assert compiled.gate_count() == surface5.total_cnot_count

    def test_shuttle_minimizing_searches_one_path_per_shuttle(
            self, bb72, monkeypatch):
        # Either ion of a gate travels the same path on the undirected
        # device graph, so choosing which one moves needs no search of
        # its own: the only path search is the shuttle's.
        calls = {"shortest_path": 0, "shuttle_ion": 0}

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return method(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        counted(QCCDDevice, "shortest_path")
        counted(Compiler, "shuttle_ion")
        ShuttleMinimizingCompiler().compile(bb72)
        assert calls["shuttle_ion"] > 0
        assert calls["shortest_path"] == calls["shuttle_ion"]

    def test_move_batching_covers_all_gates(self, surface5):
        compiled = MoveBatchingCompiler().compile(surface5)
        assert compiled.gate_count() == surface5.total_cnot_count

    def test_move_batching_uses_fewer_shuttles_than_baseline(self, bb72):
        baseline = EJFGridCompiler().compile(bb72)
        batching = MoveBatchingCompiler().compile(bb72)
        assert batching.shuttle_count() < baseline.shuttle_count()

    def test_labels_distinguish_compilers(self, surface5):
        assert "baseline2" in ShuttleMinimizingCompiler().compile(
            surface5).architecture
        assert "baseline3" in MoveBatchingCompiler().compile(
            surface5).architecture


class TestMeshCompiler:
    def test_gate_count(self, surface5):
        compiled = MeshJunctionCompiler().compile(surface5)
        assert compiled.gate_count() == surface5.total_cnot_count

    def test_junction_reduction_speeds_it_up(self, bb72):
        default = MeshJunctionCompiler().compile(bb72)
        faster = MeshJunctionCompiler(
            times=OperationTimes(junction_improvement_factor=0.7)
        ).compile(bb72)
        assert faster.execution_time_us < default.execution_time_us

    def test_spatially_quadratic_junction_count(self, bb72):
        compiled = MeshJunctionCompiler().compile(bb72)
        side = compiled.metadata["mesh_side"]
        assert compiled.metadata["num_junctions"] == side * side


class TestCycloneCompiler:
    def test_gate_count_matches_code(self, bb72):
        compiled = CycloneCompiler().compile(bb72)
        assert compiled.gate_count() == bb72.total_cnot_count

    def test_base_form_uses_half_the_ancillas(self, bb72):
        compiled = CycloneCompiler().compile(bb72)
        assert compiled.metadata["num_ancilla"] == bb72.num_stabilizers // 2
        assert compiled.metadata["num_traps"] == bb72.num_stabilizers // 2

    def test_no_roadblocks(self, bb72):
        compiled = CycloneCompiler().compile(bb72)
        assert compiled.metadata["roadblock_events"] == 0

    def test_execution_within_worst_case_bound(self, bb72):
        compiled = CycloneCompiler().compile(bb72)
        bound = compiled.metadata["worst_case_bound_us"]
        assert compiled.execution_time_us <= bound * 1.05

    def test_bound_formula_matches_helper(self, bb72):
        times = OperationTimes()
        compiled = CycloneCompiler(times=times).compile(bb72)
        expected = cyclone_worst_case_bound_us(
            bb72, compiled.metadata["num_traps"], times,
            compiled.metadata["chain_length"],
        )
        assert compiled.metadata["worst_case_bound_us"] == pytest.approx(expected)

    def test_single_trap_has_no_shuttling(self, surface5):
        compiled = CycloneCompiler(num_traps=1).compile(surface5)
        assert compiled.count(OpKind.SPLIT) == 0
        assert compiled.count(OpKind.MERGE) == 0
        assert compiled.gate_count() == surface5.total_cnot_count

    def test_dense_configuration_pays_long_chain_gates(self, bb72):
        base = CycloneCompiler().compile(bb72)
        dense = CycloneCompiler(num_traps=4).compile(bb72)
        assert dense.metadata["chain_length"] > base.metadata["chain_length"]

    def test_explicit_capacity_respected(self, bb72):
        compiled = CycloneCompiler(num_traps=12, trap_capacity=50).compile(bb72)
        assert compiled.metadata["trap_capacity"] == 50

    def test_capacity_never_below_tight_requirement(self, bb72):
        compiled = CycloneCompiler(num_traps=12, trap_capacity=1).compile(bb72)
        assert compiled.metadata["trap_capacity"] >= \
            compiled.metadata["data_per_trap"] + \
            compiled.metadata["ancilla_per_trap"]

    def test_faster_than_baseline_grid(self, bb72):
        cyclone = CycloneCompiler().compile(bb72)
        baseline = EJFGridCompiler().compile(bb72)
        assert cyclone.execution_time_us < baseline.execution_time_us

    def test_constant_dac_count(self, bb72):
        compiled = CycloneCompiler().compile(bb72)
        assert compiled.metadata["dac_count"] == 1
