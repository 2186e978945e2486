"""Alternative baseline compilers used in the Figure 20 sensitivity study.

The paper compares its baseline against two further published compilers
run on the same architecture: "Baseline 2" (Saki et al., *Muzzle the
Shuttle*) which minimises shuttling through mapping and move-direction
choices, and "Baseline 3" (Khan et al., *MoveLess*) which batches a
shuttled ion's pending work to avoid excess movement.  We reproduce
their distinguishing heuristics as overrides of single steps of
:class:`~repro.qccd.compilers.ejf.EJFGridCompiler`'s compile, which
builds the device, places the qubits and measures the ancillas for both:

* :class:`ShuttleMinimizingCompiler` — dispatches already co-located
  gates first within each timeslice, and moves the data ion into the
  ancilla's trap when that trap has more free space (the ancilla
  otherwise).
* :class:`MoveBatchingCompiler` — when an ancilla arrives at a trap, it
  immediately executes every remaining gate it has with data in that
  trap before anything else is dispatched for it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule
from repro.qccd.compilers.base import ResourceTracker
from repro.qccd.compilers.ejf import EJFGridCompiler
from repro.qccd.hardware import QCCDDevice
from repro.qccd.schedule import CompiledSchedule

__all__ = ["ShuttleMinimizingCompiler", "MoveBatchingCompiler"]


@dataclass
class ShuttleMinimizingCompiler(EJFGridCompiler):
    """Baseline-2: co-location-first dispatch and roomier-trap moves.

    Either ion of a gate travels the same path (the device graph is
    undirected), so the direction rule looks only at free space: the
    data ion moves when the ancilla's trap has strictly more of it.
    """

    label: str = "baseline2_shuttle_min"

    def _execute_gate(self, compiled: CompiledSchedule, device: QCCDDevice,
                      tracker: ResourceTracker, ancilla_qubit: int,
                      data_qubit: int, ready_time: float) -> float:
        ion, source = ancilla_qubit, device.ion_location(ancilla_qubit)
        target = device.ion_location(data_qubit)
        if device.free_space(source) > device.free_space(target):
            ion, source, target = data_qubit, target, source
        clock = ready_time
        if source != target:
            clock = self.shuttle_ion(compiled, device, tracker, ion, source,
                                     target, clock)
        return self.gate_on_trap(
            compiled, device, tracker, target,
            (ancilla_qubit, data_qubit), clock,
        )

    def _schedule_gates(self, compiled: CompiledSchedule, code: CSSCode,
                        schedule: StabilizerSchedule, device: QCCDDevice,
                        tracker: ResourceTracker) -> float:
        # Re-order each timeslice so that gates whose qubits are already
        # co-located come first (the shuttle-muzzling dispatch
        # preference), then defer to EJF.
        reordered_slices = []
        for timeslice in schedule.timeslices:
            co_located = []
            needs_shuttle = []
            for gate in timeslice:
                ancilla_trap = device.ion_location(
                    code.num_qubits + gate.stabilizer)
                if device.ion_location(gate.data) == ancilla_trap:
                    co_located.append(gate)
                else:
                    needs_shuttle.append(gate)
            reordered_slices.append(co_located + needs_shuttle)
        reordered = StabilizerSchedule(
            code=schedule.code, timeslices=reordered_slices,
            policy=schedule.policy + "+colocated_first",
            metadata=dict(schedule.metadata),
        )
        return super()._schedule_gates(compiled, code, reordered, device,
                                       tracker)


@dataclass
class MoveBatchingCompiler(EJFGridCompiler):
    """Baseline-3: batch all of an ancilla's work at each trap it visits."""

    label: str = "baseline3_move_batching"

    def _schedule_gates(self, compiled: CompiledSchedule, code: CSSCode,
                        schedule: StabilizerSchedule, device: QCCDDevice,
                        tracker: ResourceTracker) -> float:
        """Route each ancilla from trap to trap through its pending gates.

        The gate order comes from the code's stabilizer supports, not
        from ``schedule``.
        """
        num_data = code.num_qubits

        # Pending work: per stabilizer, the data qubits it still has to meet.
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
            ancilla_trap = device.ion_location(ancilla_qubit)
            ready_time = max(ready_time,
                             ancilla_available.get(ancilla_qubit, 0.0))

            # Visit the nearest trap holding pending data for this ancilla.
            lengths = device.trap_distances(ancilla_trap)
            # Tie-break equidistant traps by name: iterating the raw set
            # would make the schedule depend on the interpreter's hash
            # seed (set order of strings varies across processes).
            target_trap = min(
                {device.ion_location(q) for q in remaining},
                key=lambda trap: (lengths.get(trap, float("inf")), trap),
            )
            clock = ready_time
            if target_trap != ancilla_trap:
                clock = self.shuttle_ion(
                    compiled, device, tracker, ancilla_qubit, ancilla_trap,
                    target_trap, clock,
                )
            # Execute every pending gate whose data sits in this trap.
            here = [q for q in remaining
                    if device.ion_location(q) == target_trap]
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
        return makespan
