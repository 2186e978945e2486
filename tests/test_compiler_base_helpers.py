"""Tests for the shared compiler infrastructure (resources, routing, rebalance)."""

from __future__ import annotations

import pytest

from repro.codes import surface_code
from repro.qccd import OpKind, OperationTimes, ring_device
from repro.qccd.compilers import EJFGridCompiler, ResourceTracker
from repro.qccd.compilers.ejf import build_device_for
from repro.qccd.mapping import QubitPlacement, greedy_cluster_mapping
from repro.qccd.schedule import CompiledSchedule


class TestResourceTracker:
    def test_initially_available_at_zero(self):
        tracker = ResourceTracker()
        assert tracker.available("T0") == 0.0
        assert tracker.earliest_start(["T0", "T1"], not_before=5.0) == 5.0

    def test_reservation_blocks_future_requests(self):
        tracker = ResourceTracker()
        tracker.reserve(["T0"], start=0.0, duration=100.0)
        assert tracker.earliest_start(["T0"]) == 100.0
        assert tracker.earliest_start(["T1"]) == 0.0

    def test_wait_accounting(self):
        tracker = ResourceTracker()
        tracker.reserve(["T0"], start=0.0, duration=100.0)
        start = tracker.earliest_start(["T0"], not_before=10.0)
        tracker.reserve(["T0"], start=start, duration=10.0, requested_at=10.0)
        assert tracker.total_wait_us == pytest.approx(90.0)
        assert tracker.wait_events == 1

    def test_no_wait_recorded_when_resource_free(self):
        tracker = ResourceTracker()
        tracker.reserve(["T0"], start=5.0, duration=10.0, requested_at=5.0)
        assert tracker.total_wait_us == 0.0
        assert tracker.wait_events == 0


class TestShuttleIon:
    def _setup(self):
        code = surface_code(3)
        compiler = EJFGridCompiler()
        device = build_device_for(code, "baseline_grid", trap_capacity=4)
        placement = greedy_cluster_mapping(code, device)
        placement.apply_to_device(device)
        compiled = CompiledSchedule(architecture="test", code_name=code.name)
        tracker = ResourceTracker()
        return compiler, device, placement, compiled, tracker

    def test_shuttle_emits_split_moves_merge(self):
        compiler, device, placement, compiled, tracker = self._setup()
        ion = 0
        source = placement.trap_of(ion)
        target = next(t for t in device.trap_ids()
                      if t != source and device.free_space(t) > 0)
        finish = compiler.shuttle_ion(compiled, device, tracker, ion, source,
                                      target, 0.0)
        kinds = [op.kind for op in compiled.operations]
        assert OpKind.SWAP in kinds
        assert OpKind.SPLIT in kinds
        assert OpKind.MERGE in kinds
        assert finish >= compiler.times.split + compiler.times.merge
        assert device.ion_location(ion) == target

    def test_shuttle_into_full_trap_triggers_rebalance(self):
        compiler, device, placement, compiled, tracker = self._setup()
        ion = 0
        source = placement.trap_of(ion)
        target = next(t for t in device.trap_ids()
                      if t != source and device.free_space(t) == 0)
        compiler.shuttle_ion(compiled, device, tracker, ion, source, target,
                             0.0)
        assert compiled.count(OpKind.REBALANCE) >= 1

    def test_gate_on_trap_reserves_the_trap(self):
        compiler, device, placement, compiled, tracker = self._setup()
        trap = placement.trap_of(0)
        end_first = compiler.gate_on_trap(compiled, device, tracker, trap,
                                          (0, 1), 0.0)
        end_second = compiler.gate_on_trap(compiled, device, tracker, trap,
                                           (2, 3), 0.0)
        assert end_second >= end_first  # serialized on the same trap
        assert compiled.gate_count() == 2

    def test_measure_ancillas_parallel_across_traps(self):
        compiler, device, placement, compiled, tracker = self._setup()
        code = surface_code(3)
        ancillas = [code.num_qubits + s for s in range(code.num_stabilizers)]
        finish = compiler.measure_ancillas(compiled, device, tracker, ancillas,
                                           0.0)
        assert compiled.count(OpKind.MEASUREMENT) == code.num_stabilizers
        # Parallel across traps: total time is far below the serial sum.
        assert finish < code.num_stabilizers * compiler.times.measurement()


class TestRingRouting:
    def test_ring_shuttle_passes_through_traps(self):
        code = surface_code(3)
        compiler = EJFGridCompiler(topology="ring", label="ejf_ring")
        device = build_device_for(code, "ring", trap_capacity=4)
        placement = greedy_cluster_mapping(code, device)
        placement.apply_to_device(device)
        compiled = CompiledSchedule(architecture="test", code_name=code.name)
        tracker = ResourceTracker()
        traps = device.trap_ids()
        source, target = traps[0], traps[len(traps) // 2]
        ion = device.ions_in(source)[0]
        compiler.shuttle_ion(compiled, device, tracker, ion, source, target,
                             0.0)
        transit_notes = [op.note for op in compiled.operations
                         if op.kind is OpKind.MOVE]
        assert any("transit" in note for note in transit_notes)

    def test_occupied_transit_costs_more_than_empty(self):
        times = OperationTimes()
        device = ring_device(num_traps=6, trap_capacity=3)
        compiler = EJFGridCompiler(topology="ring")
        placement = QubitPlacement({0: "T0", 1: "T2"})
        placement.apply_to_device(device)
        compiled = CompiledSchedule(architecture="test", code_name="x")
        tracker = ResourceTracker()
        # Path T0 -> T2 passes through T1 (empty): cheap transit.
        finish_empty = compiler.shuttle_ion(compiled, device, tracker, 0,
                                            "T0", "T2", 0.0)
        # Now place a blocker in T3 and go T2 -> T4 through it.
        device.place_ion(5, "T3")
        start = finish_empty
        finish_blocked = compiler.shuttle_ion(compiled, device, tracker, 0,
                                              "T2", "T4", start)
        assert (finish_blocked - start) > (finish_empty - 0.0)
        del times
