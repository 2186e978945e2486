"""Alternative baseline compilers used in the Figure 20 sensitivity study.

The paper compares its baseline against two further published compilers
run on the same architecture: "Baseline 2" (Saki et al., *Muzzle the
Shuttle*) which minimises shuttling through mapping and move-direction
choices, and "Baseline 3" (Khan et al., *MoveLess*) which batches a
shuttled ion's pending work to avoid excess movement.  We reproduce
their distinguishing heuristics on top of the shared EJF machinery:

* :class:`ShuttleMinimizingCompiler` — prefers already co-located gates
  and moves whichever ion (ancilla or data) has the shorter path.
* :class:`MoveBatchingCompiler` — when an ancilla arrives at a trap, it
  immediately executes every remaining gate it has with data in that
  trap before anything else is dispatched for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule, x_then_z_schedule
from repro.qccd.compilers.base import ResourceTracker
from repro.qccd.compilers.ejf import EJFGridCompiler
from repro.qccd.hardware import QCCDDevice
from repro.qccd.mapping import QubitPlacement, greedy_cluster_mapping
from repro.qccd.schedule import CompiledSchedule

__all__ = ["ShuttleMinimizingCompiler", "MoveBatchingCompiler"]


@dataclass
class ShuttleMinimizingCompiler(EJFGridCompiler):
    """Baseline-2: co-location-first dispatch and cheapest-direction moves."""

    label: str = "baseline2_shuttle_min"

    def _execute_gate(self, compiled: CompiledSchedule, device: QCCDDevice,
                      tracker: ResourceTracker, placement: QubitPlacement,
                      ancilla_qubit: int, data_qubit: int,
                      ready_time: float) -> float:
        ancilla_trap = placement.trap_of(ancilla_qubit)
        data_trap = placement.trap_of(data_qubit)
        clock = ready_time
        if ancilla_trap != data_trap:
            # Move whichever ion has the shorter path (and, on ties, the
            # one whose destination trap has free space).
            to_data = len(device.shortest_path(ancilla_trap, data_trap))
            to_ancilla = len(device.shortest_path(data_trap, ancilla_trap))
            move_data = to_ancilla < to_data or (
                to_ancilla == to_data
                and device.free_space(ancilla_trap) > device.free_space(data_trap)
            )
            if move_data:
                clock = self.shuttle_ion(
                    compiled, device, tracker, data_qubit, data_trap,
                    ancilla_trap, clock, placement,
                )
                gate_trap = ancilla_trap
            else:
                clock = self.shuttle_ion(
                    compiled, device, tracker, ancilla_qubit, ancilla_trap,
                    data_trap, clock, placement,
                )
                gate_trap = data_trap
        else:
            gate_trap = data_trap
        return self.gate_on_trap(
            compiled, device, tracker, gate_trap,
            (ancilla_qubit, data_qubit), clock,
        )

    def _schedule_gates(self, code, schedule, device, placement):
        # Re-order the flattened gate list so that gates whose qubits are
        # already co-located come first within each timeslice (the
        # shuttle-muzzling dispatch preference), then defer to EJF.
        reordered_slices = []
        for timeslice in schedule.timeslices:
            co_located = []
            needs_shuttle = []
            for gate in timeslice:
                ancilla_trap = placement.trap_of(code.num_qubits + gate.stabilizer)
                if placement.trap_of(gate.data) == ancilla_trap:
                    co_located.append(gate)
                else:
                    needs_shuttle.append(gate)
            reordered_slices.append(co_located + needs_shuttle)
        reordered = StabilizerSchedule(
            code=schedule.code, timeslices=reordered_slices,
            policy=schedule.policy + "+colocated_first",
            metadata=dict(schedule.metadata),
        )
        return super()._schedule_gates(code, reordered, device, placement)


@dataclass
class MoveBatchingCompiler(EJFGridCompiler):
    """Baseline-3: batch all of an ancilla's work at each trap it visits."""

    label: str = "baseline3_move_batching"

    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        if schedule is None:
            schedule = x_then_z_schedule(code)
        device = self._build_device(code)
        placement = greedy_cluster_mapping(code, device)
        placement.apply_to_device(device)
        return self._schedule_batched(code, device, placement)

    def _build_device(self, code: CSSCode) -> QCCDDevice:
        from repro.qccd.compilers.ejf import build_device_for

        return build_device_for(code, self.topology, self.trap_capacity,
                                self.side_length, self.num_traps)

    def _schedule_batched(self, code: CSSCode, device: QCCDDevice,
                          placement: QubitPlacement) -> CompiledSchedule:
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
        num_data = code.num_qubits

        # Pending work: per stabilizer, data qubits grouped by current trap.
        ancilla_available: dict[int, float] = {}
        qubit_available: dict[int, float] = {}
        heap: list[tuple[float, int]] = []
        pending: dict[int, list[int]] = {}
        for stabilizer, (_, support) in enumerate(code.stabilizer_supports()):
            pending[stabilizer] = list(support)
            heapq.heappush(heap, (0.0, stabilizer))

        makespan = 0.0
        while heap:
            ready_time, stabilizer = heapq.heappop(heap)
            remaining = pending[stabilizer]
            if not remaining:
                continue
            ancilla_qubit = num_data + stabilizer
            ancilla_trap = placement.trap_of(ancilla_qubit)
            ready_time = max(ready_time, ancilla_available.get(ancilla_qubit, 0.0))

            # Visit the nearest trap holding pending data for this ancilla.
            lengths = device.trap_distances(ancilla_trap)
            # Tie-break equidistant traps by name: iterating the raw set
            # would make the schedule depend on the interpreter's hash
            # seed (set order of strings varies across processes).
            target_trap = min(
                {placement.trap_of(q) for q in remaining},
                key=lambda trap: (lengths.get(trap, float("inf")), trap),
            )
            clock = ready_time
            if target_trap != ancilla_trap:
                clock = self.shuttle_ion(
                    compiled, device, tracker, ancilla_qubit, ancilla_trap,
                    target_trap, clock, placement,
                )
            # Execute every pending gate whose data sits in this trap.
            here = [q for q in remaining if placement.trap_of(q) == target_trap]
            for data_qubit in here:
                start = max(clock, qubit_available.get(data_qubit, 0.0))
                clock = self.gate_on_trap(
                    compiled, device, tracker, target_trap,
                    (ancilla_qubit, data_qubit), start,
                )
                qubit_available[data_qubit] = clock
                remaining.remove(data_qubit)
            ancilla_available[ancilla_qubit] = clock
            makespan = max(makespan, clock)
            if remaining:
                heapq.heappush(heap, (clock, stabilizer))

        if self.include_measurement:
            ancillas = [num_data + s for s in range(code.num_stabilizers)]
            makespan = self.measure_ancillas(
                compiled, device, tracker, ancillas, placement, makespan
            )
        compiled.metadata["execution_time_us"] = makespan
        compiled.metadata["roadblock_wait_us"] = tracker.total_wait_us
        compiled.metadata["roadblock_events"] = tracker.wait_events
        return compiled
