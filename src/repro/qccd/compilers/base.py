"""Shared compiler infrastructure: resources, routing, op emission.

The grid compilers are resource-reservation schedulers: every trap,
junction and shuttle segment is a resource with an ``available_at``
time; an operation starts no earlier than the availability of every
resource it touches.  A shuttle whose path passes through a busy trap
therefore *waits* — that waiting is exactly the "roadblock"
serialization the paper identifies in 2D grids.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule
from repro.qccd.hardware import QCCDDevice
from repro.qccd.schedule import CompiledSchedule, OpKind
from repro.qccd.timing import OperationTimes

__all__ = ["ResourceTracker", "Compiler"]


class ResourceTracker:
    """Earliest-availability bookkeeping for named hardware resources."""

    def __init__(self) -> None:
        self._available_at: dict[str, float] = {}
        self.total_wait_us = 0.0
        self.wait_events = 0

    def available(self, resource: str) -> float:
        return self._available_at.get(resource, 0.0)

    def earliest_start(self, resources, not_before: float = 0.0) -> float:
        start = not_before
        for resource in resources:
            start = max(start, self.available(resource))
        return start

    def reserve(self, resources, start: float, duration: float,
                requested_at: float | None = None) -> float:
        """Mark resources busy during [start, start + duration).

        ``requested_at`` (if given) lets the tracker accumulate how much
        waiting the reservation experienced — the roadblock statistic.
        """
        if requested_at is not None and start > requested_at + 1e-12:
            self.total_wait_us += start - requested_at
            self.wait_events += 1
        end = start + duration
        for resource in resources:
            self._available_at[resource] = max(self.available(resource), end)
        return end


@dataclass
class Compiler(abc.ABC):
    """Base class: compile one round of syndrome extraction for a code."""

    times: OperationTimes = field(default_factory=OperationTimes)

    @abc.abstractmethod
    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        """Produce the compiled schedule of one syndrome-extraction round."""

    # ------------------------------------------------------------------
    # Helpers shared by the routing compilers.  The device's occupancy is
    # the only record of where an ion is: every move goes through it.
    # ------------------------------------------------------------------
    def shuttle_ion(self, compiled: CompiledSchedule, device: QCCDDevice,
                    tracker: ResourceTracker, ion: int, source: str,
                    target: str, not_before: float) -> float:
        """Emit the atomic operations moving ``ion`` from ``source`` to ``target``.

        Returns the finish time; the device then holds ``ion`` in
        ``target``.  The path is the shortest node path on the device
        graph.  Resources reserved per leg:

        * a swap (to bring the ion to the trap edge) and a split at the
          source trap,
        * a move per segment, a crossing per junction, and a transit
          reservation for every intermediate trap (the roadblock point),
        * a merge at the target trap, preceded by a rebalance if the
          target trap is at capacity.
        """
        times = self.times
        path = device.shortest_path(source, target)
        clock = not_before

        # Swap the ion to the edge of its chain, then split it out.
        chain = device.chain_length(source)
        swap_duration = times.swap(chain_length=chain)
        start = tracker.earliest_start([source], clock)
        clock = tracker.reserve([source], start, swap_duration,
                                requested_at=clock)
        compiled.add(OpKind.SWAP, start, swap_duration, (ion,), source)

        start = tracker.earliest_start([source], clock)
        clock = tracker.reserve([source], start, times.split,
                                requested_at=clock)
        compiled.add(OpKind.SPLIT, start, times.split, (ion,), source)

        # Traverse the path.
        for previous, node in zip(path, path[1:]):
            segment = f"seg:{min(previous, node)}|{max(previous, node)}"
            start = tracker.earliest_start([segment], clock)
            clock = tracker.reserve([segment], start, times.move,
                                    requested_at=clock)
            compiled.add(OpKind.MOVE, start, times.move, (ion,), segment)
            if node == target:
                break
            if device.is_junction(node):
                degree = device.junction_crossing_degree(node)
                duration = times.junction_crossing(degree)
                start = tracker.earliest_start([node], clock)
                clock = tracker.reserve([node], start, duration,
                                        requested_at=clock)
                compiled.add(OpKind.JUNCTION_CROSS, start, duration, (ion,),
                             node)
            else:
                # Transit through an intermediate trap: the trap must be
                # free of gates/other shuttles for the transit duration.
                # Passing through an *occupied* trap requires the resident
                # chain to be merged with and split from the transiting
                # ion, which is the expensive "trap roadblock" the paper
                # identifies; an empty trap is traversed at the move cost.
                if device.occupancy(node) > 0:
                    duration = times.merge + times.move + times.split
                    note = "trap roadblock transit"
                else:
                    duration = times.move
                    note = "empty trap transit"
                start = tracker.earliest_start([node], clock)
                clock = tracker.reserve([node], start, duration,
                                        requested_at=clock)
                compiled.add(OpKind.MOVE, start, duration, (ion,), node,
                             note=note)

        # Rebalance if the destination has no free space.
        if device.free_space(target) <= 0:
            clock = self._rebalance(compiled, device, tracker, target, clock)

        start = tracker.earliest_start([target], clock)
        clock = tracker.reserve([target], start, times.merge,
                                requested_at=clock)
        compiled.add(OpKind.MERGE, start, times.merge, (ion,), target)

        device.place_ion(ion, target, enforce_capacity=False)
        return clock

    def _rebalance(self, compiled: CompiledSchedule, device: QCCDDevice,
                   tracker: ResourceTracker, trap: str,
                   not_before: float) -> float:
        """Move one ion out of a full trap to the nearest trap with space."""
        times = self.times
        victims = device.ions_in(trap)
        if not victims:
            return not_before
        victim = victims[-1]
        destination = self._nearest_trap_with_space(device, trap)
        if destination is None:
            # Nowhere to put the ion: model the cost and over-fill.
            start = tracker.earliest_start([trap], not_before)
            end = tracker.reserve([trap], start, times.rebalance(),
                                  requested_at=not_before)
            compiled.add(OpKind.REBALANCE, start, times.rebalance(), (victim,),
                         trap, note="forced overfill")
            return end
        start = tracker.earliest_start([trap, destination], not_before)
        end = tracker.reserve([trap, destination], start, times.rebalance(),
                              requested_at=not_before)
        compiled.add(OpKind.REBALANCE, start, times.rebalance(), (victim,),
                     f"{trap}->{destination}")
        device.place_ion(victim, destination, enforce_capacity=False)
        return end

    @staticmethod
    def _nearest_trap_with_space(device: QCCDDevice, trap: str) -> str | None:
        """The closest other trap with free space (ties by name)."""
        for candidate in device.traps_by_distance(trap):
            if device.free_space(candidate) > 0:
                return candidate
        return None

    def gate_on_trap(self, compiled: CompiledSchedule, device: QCCDDevice,
                     tracker: ResourceTracker, trap: str,
                     qubits: tuple[int, ...], not_before: float,
                     note: str = "") -> float:
        """Reserve a trap for one two-qubit gate and emit the op."""
        duration = self.times.two_qubit_gate(device.chain_length(trap))
        start = tracker.earliest_start([trap], not_before)
        end = tracker.reserve([trap], start, duration, requested_at=not_before)
        compiled.add(OpKind.GATE, start, duration, qubits, trap, note=note)
        return end

    def measure_ancillas(self, compiled: CompiledSchedule, device: QCCDDevice,
                         tracker: ResourceTracker, ancillas,
                         not_before: float) -> float:
        """Measure every ancilla in place (serial within a trap, parallel across)."""
        finish = not_before
        for ancilla in ancillas:
            trap = device.ion_location(ancilla)
            duration = self.times.measurement()
            start = tracker.earliest_start([trap], not_before)
            end = tracker.reserve([trap], start, duration)
            compiled.add(OpKind.MEASUREMENT, start, duration, (ancilla,), trap)
            finish = max(finish, end)
        return finish
