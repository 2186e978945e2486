"""The mesh junction network compiler (Section III-C).

The mesh design removes *trap* roadblocks by routing every ancilla
through a dense (n/4) x (n/4) fabric of degree-4 junctions, converting
them into cheaper *junction* roadblocks.  Its costs are dominated by two
terms the paper calls out:

* temporally, every scheduled path crosses O(n/4) degree-4 junctions, so
  a batch of concurrent gates still pays ~(n/2 - 1) * jc of junction
  crossing time per timeslice unless junction crossings become much
  faster (Figure 9 sweeps exactly that), and
* spatially, the junction count scales as (n/4)^2.

The compiler follows the paper's own analytic cost model: gates of each
maximally parallel timeslice are dispatched in batches of at most n/4
concurrent paths; each batch pays split + per-junction crossing + moves
+ merge + the gate itself, with conservative (serial) batch scheduling
inside a timeslice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule, x_then_z_schedule
from repro.qccd.compilers.base import Compiler
from repro.qccd.schedule import CompiledSchedule, OpKind
from repro.qccd.topologies import mesh_junction_device

__all__ = ["MeshJunctionCompiler"]


@dataclass
class MeshJunctionCompiler(Compiler):
    """Semi-analytic compiler for the dense junction-mesh design."""

    trap_capacity: int = 5
    #: Junctions crossed per scheduled batch of concurrent paths.  ``None``
    #: uses the paper's own estimate of n/2 - 1 high-degree junctions hit
    #: per time slice (Section III-C).
    path_junctions: int | None = None
    label: str = "mesh_junction"

    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        if schedule is None:
            schedule = x_then_z_schedule(code)
        times = self.times
        n = code.num_qubits
        device = mesh_junction_device(n, self.trap_capacity)
        mesh_side = device.metadata["mesh_side"]
        path_junctions = self.path_junctions
        if path_junctions is None:
            path_junctions = max(n // 2 - 1, 1)
        batch_size = max(n // 4, 1)

        compiled = CompiledSchedule(
            architecture=f"{self.label}:mesh", code_name=code.name,
            metadata={
                "topology": "mesh_junction",
                "num_traps": device.num_traps,
                "num_junctions": device.num_junctions,
                "trap_capacity": self.trap_capacity,
                "dac_count": device.dac_count,
                "num_ancilla": code.num_stabilizers,
                "mesh_side": mesh_side,
                "path_junctions": path_junctions,
                "batch_size": batch_size,
            },
        )

        junction_cross = times.junction_crossing(4)
        gate_time = times.two_qubit_gate(max(self.trap_capacity, 2))
        clock = 0.0
        for slice_index, timeslice in enumerate(schedule.timeslices):
            gates = list(timeslice)
            num_batches = int(math.ceil(len(gates) / batch_size)) if gates else 0
            for batch_index in range(num_batches):
                batch = gates[batch_index * batch_size:(batch_index + 1) * batch_size]
                batch_qubits = tuple(g.data for g in batch)
                start = clock
                compiled.add(OpKind.SPLIT, start, times.split, batch_qubits,
                             "mesh", note=f"slice {slice_index}",
                             multiplicity=len(batch))
                cursor = start + times.split
                for _ in range(path_junctions):
                    compiled.add(OpKind.MOVE, cursor, times.move, batch_qubits,
                                 "mesh", multiplicity=len(batch))
                    cursor += times.move
                    compiled.add(OpKind.JUNCTION_CROSS, cursor, junction_cross,
                                 batch_qubits, "mesh", multiplicity=len(batch))
                    cursor += junction_cross
                compiled.add(OpKind.MERGE, cursor, times.merge, batch_qubits,
                             "mesh", multiplicity=len(batch))
                cursor += times.merge
                compiled.add(OpKind.GATE, cursor, gate_time, batch_qubits,
                             "mesh", note=f"{len(batch)} concurrent gates",
                             multiplicity=len(batch))
                cursor += gate_time
                clock = cursor

        duration = times.measurement()
        compiled.add(OpKind.MEASUREMENT, clock, duration, (), "mesh",
                     note="ancilla readout")
        clock += duration

        compiled.metadata["execution_time_us"] = clock
        compiled.metadata["roadblock_wait_us"] = 0.0
        compiled.metadata["roadblock_events"] = 0
        return compiled
