"""The "dynamic software" policy: schedule whole timeslices at once.

Section III-A's maximally parallel schedules are sequences of
timeslices; the dynamic policy dispatches *every* gate of a timeslice
concurrently and only moves to the next timeslice when all of them (and
their shuttles) have completed.  On a roadblock-free topology this
realises the ideal parallelism; on a grid the concurrent shuttles
contend for traps and junctions, and the paper finds it performs even
worse than the greedy static baseline (Figure 4a / Figure 6).

The compiler runs :class:`~repro.qccd.compilers.ejf.EJFGridCompiler`'s
skeleton and replaces two of its steps: the placement and the gate
dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule
from repro.qccd.compilers.base import ResourceTracker
from repro.qccd.compilers.ejf import EJFGridCompiler
from repro.qccd.hardware import QCCDDevice
from repro.qccd.mapping import QubitPlacement, round_robin_mapping
from repro.qccd.schedule import CompiledSchedule

__all__ = ["DynamicTimesliceCompiler"]


@dataclass
class DynamicTimesliceCompiler(EJFGridCompiler):
    """Dynamic timeslice dispatch on an arbitrary topology."""

    label: str = "dynamic_timeslice"

    def _place(self, code: CSSCode, device: QCCDDevice) -> QubitPlacement:
        """The balanced round-robin placement.

        The paper's dynamic policy assigns stabilizers to ancillas on
        the fly rather than exploiting a locality-aware cluster mapping,
        which is part of why it roadblocks so badly on a grid
        (Figure 4a).
        """
        return round_robin_mapping(code, device)

    def _schedule_gates(self, compiled: CompiledSchedule, code: CSSCode,
                        schedule: StabilizerSchedule, device: QCCDDevice,
                        tracker: ResourceTracker) -> float:
        """Dispatch each timeslice at the barrier the previous one set."""
        barrier = 0.0
        for timeslice in schedule.timeslices:
            slice_finish = barrier
            for gate in timeslice:
                finish = self._execute_gate(
                    compiled, device, tracker,
                    code.num_qubits + gate.stabilizer, gate.data, barrier,
                )
                slice_finish = max(slice_finish, finish)
            barrier = slice_finish
        return barrier
