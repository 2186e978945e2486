"""The baseline compiler: greedy cluster mapping + static EJF scheduling.

This reproduces the software policy of the paper's baseline (Murali et
al.'s QCCDSim policy): the syndrome-extraction circuit is treated as a
gate DAG (successive gates on the same qubit are ordered), and gates are
dispatched earliest-job-first.  Whenever the two qubits of a CNOT sit in
different traps the ancilla ion is shuttled to the data ion's trap,
reserving every trap, junction and segment along the way — which is
where grid roadblocks serialize the nominally parallel circuit.

The compiler is topology-agnostic: hand it a baseline grid, the
alternate grid, or a ring device (the paper's Figure 6 "static EJF on a
circle" configuration) and it will schedule on whatever connectivity it
finds.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule, x_then_z_schedule
from repro.qccd.compilers.base import Compiler, ResourceTracker
from repro.qccd.hardware import QCCDDevice
from repro.qccd.mapping import QubitPlacement, greedy_cluster_mapping
from repro.qccd.schedule import CompiledSchedule
from repro.qccd.topologies import (
    alternate_grid_device,
    baseline_grid_device,
    ring_device,
)

__all__ = ["EJFGridCompiler", "build_device_for"]


def build_device_for(code: CSSCode, topology: str, trap_capacity: int,
                     side_length: int | None = None,
                     num_traps: int | None = None) -> QCCDDevice:
    """Build a device of the requested topology sized for ``code``.

    The grid baselines use an l x l layout with l = ceil(sqrt(n)) as in
    Section V-A; the ring sizes itself to hold all data and ancilla
    qubits at the given capacity unless ``num_traps`` is forced.
    """
    total_qubits = code.num_qubits + code.num_stabilizers
    if topology in ("baseline_grid", "grid"):
        device = baseline_grid_device(code.num_qubits, trap_capacity,
                                      side_length=side_length)
    elif topology == "alternate_grid":
        device = alternate_grid_device(code.num_qubits, trap_capacity,
                                       side_length=side_length)
    elif topology in ("ring", "circle"):
        traps = num_traps or max(
            int(math.ceil(total_qubits / trap_capacity)), 2
        )
        device = ring_device(traps, trap_capacity)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if device.total_capacity() < total_qubits:
        raise ValueError(
            f"{topology} with capacity {trap_capacity} cannot hold "
            f"{total_qubits} qubits"
        )
    return device


@dataclass
class EJFGridCompiler(Compiler):
    """Baseline-1: static earliest-job-first scheduling of the gate DAG.

    Its :meth:`compile` is the one skeleton of every routing compiler:
    build the device, place the qubits (:meth:`_place`), emit the gates
    (:meth:`_schedule_gates`, which routes each through
    :meth:`_execute_gate`), then measure every ancilla where it ended
    up.  The dynamic, baseline-2 and baseline-3 compilers each override
    one or two of those steps.
    """

    topology: str = "baseline_grid"
    trap_capacity: int = 5
    side_length: int | None = None
    num_traps: int | None = None
    #: Name recorded in the compiled schedule.
    label: str = field(default="baseline_ejf")

    # ------------------------------------------------------------------
    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        if schedule is None:
            schedule = x_then_z_schedule(code)
        device = build_device_for(code, self.topology, self.trap_capacity,
                                  self.side_length, self.num_traps)
        self._place(code, device).apply_to_device(device)
        compiled = CompiledSchedule(
            architecture=f"{self.label}:{device.name}", code_name=code.name,
            metadata={
                "topology": device.name,
                "num_traps": device.num_traps,
                "num_junctions": device.num_junctions,
                "trap_capacity": self.trap_capacity,
                "dac_count": device.dac_count,
                "num_ancilla": code.num_stabilizers,
            },
        )
        tracker = ResourceTracker()
        finish = self._schedule_gates(compiled, code, schedule, device,
                                      tracker)
        ancillas = range(code.num_qubits,
                         code.num_qubits + code.num_stabilizers)
        compiled.metadata["execution_time_us"] = self.measure_ancillas(
            compiled, device, tracker, ancillas, finish)
        compiled.metadata["roadblock_wait_us"] = tracker.total_wait_us
        compiled.metadata["roadblock_events"] = tracker.wait_events
        return compiled

    # ------------------------------------------------------------------
    def _place(self, code: CSSCode, device: QCCDDevice) -> QubitPlacement:
        """The initial mapping: greedy interaction clusters."""
        return greedy_cluster_mapping(code, device)

    def _schedule_gates(self, compiled: CompiledSchedule, code: CSSCode,
                        schedule: StabilizerSchedule, device: QCCDDevice,
                        tracker: ResourceTracker) -> float:
        """Emit every gate of ``schedule``; return when the last finishes."""
        gates = [gate for timeslice in schedule.timeslices
                 for gate in timeslice]
        num_data = code.num_qubits

        # Build the per-qubit dependency chains (the gate DAG).
        predecessors: list[list[int]] = [[] for _ in gates]
        successors: list[list[int]] = [[] for _ in gates]
        last_gate_on_qubit: dict[int, int] = {}
        for index, gate in enumerate(gates):
            ancilla_qubit = num_data + gate.stabilizer
            for qubit in (ancilla_qubit, gate.data):
                if qubit in last_gate_on_qubit:
                    previous = last_gate_on_qubit[qubit]
                    predecessors[index].append(previous)
                    successors[previous].append(index)
                last_gate_on_qubit[qubit] = index

        unscheduled_preds = [len(p) for p in predecessors]
        finish_time = [0.0 for _ in gates]
        ready_heap: list[tuple[float, int]] = []
        for index, count in enumerate(unscheduled_preds):
            if count == 0:
                heapq.heappush(ready_heap, (0.0, index))

        qubit_available: dict[int, float] = {}
        scheduled = 0
        while ready_heap:
            ready_time, index = heapq.heappop(ready_heap)
            gate = gates[index]
            ancilla_qubit = num_data + gate.stabilizer
            ready_time = max(
                ready_time,
                qubit_available.get(ancilla_qubit, 0.0),
                qubit_available.get(gate.data, 0.0),
            )
            finish = self._execute_gate(
                compiled, device, tracker, ancilla_qubit, gate.data,
                ready_time,
            )
            finish_time[index] = finish
            qubit_available[ancilla_qubit] = finish
            qubit_available[gate.data] = finish
            scheduled += 1
            for successor in successors[index]:
                unscheduled_preds[successor] -= 1
                if unscheduled_preds[successor] == 0:
                    earliest = max(
                        finish_time[p] for p in predecessors[successor]
                    )
                    heapq.heappush(ready_heap, (earliest, successor))

        if scheduled != len(gates):  # pragma: no cover - sanity guard
            raise RuntimeError("EJF scheduling left gates unscheduled")
        return max(finish_time, default=0.0)

    def _execute_gate(self, compiled: CompiledSchedule, device: QCCDDevice,
                      tracker: ResourceTracker, ancilla_qubit: int,
                      data_qubit: int, ready_time: float) -> float:
        """Shuttle the ancilla to the data ion's trap and run the gate there."""
        ancilla_trap = device.ion_location(ancilla_qubit)
        data_trap = device.ion_location(data_qubit)
        clock = ready_time
        if ancilla_trap != data_trap:
            clock = self.shuttle_ion(
                compiled, device, tracker, ancilla_qubit, ancilla_trap,
                data_trap, clock,
            )
        return self.gate_on_trap(
            compiled, device, tracker, data_trap,
            (ancilla_qubit, data_qubit), clock,
        )
