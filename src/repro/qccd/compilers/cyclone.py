"""The Cyclone compiler: lockstep rotation of ancillas around a ring.

Cyclone (Section IV) is a software-hardware codesign:

* **Hardware** — a ring of ``x`` traps (base form: ``x = m/2`` where
  ``m`` is the total number of stabilizers) with L-shaped corner
  junctions; data qubits are distributed across the traps in balanced
  partitions and ``m/2`` ancilla ions sit one (or
  ``ceil((m/2)/x)``) per trap.
* **Software** — a symmetric, roadblock-free schedule: in every step
  each trap executes the gates between its resident ancillas and the
  resident data qubits that belong to the ancillas' assigned stabilizers
  (serially within the trap, in parallel across traps), then *all*
  ancillas gate-swap to the trap edge, split, move one position around
  the ring (crossing a corner junction where present) and merge, in
  lockstep.  After one full rotation every X stabilizer has met every
  data qubit; the second rotation measures the Z stabilizers with the
  same (reused) ancillas.

Because every ancilla moves in the same direction at the same moment
there are no roadblocks, total movement is bounded (two rotations), the
per-step cost is uniform across the machine, and a single broadcast
control signal suffices (constant DAC count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.codes.css import CSSCode
from repro.codes.scheduling import StabilizerSchedule
from repro.qccd.compilers.base import Compiler
from repro.qccd.mapping import balanced_data_partition
from repro.qccd.schedule import CompiledSchedule, OpKind
from repro.qccd.timing import OperationTimes
from repro.qccd.topologies import ring_device

__all__ = ["CycloneCompiler", "cyclone_worst_case_bound_us"]


def cyclone_worst_case_bound_us(code: CSSCode, num_traps: int,
                                times: OperationTimes,
                                chain_length: int | None = None) -> float:
    """The closed-form worst-case execution bound of Section IV-A.

    ``2x * (s + ceil(m_basis / x) * (t + g * ceil(n / x)))`` where ``x``
    is the trap count, ``m_basis = max(|X|, |Z|)`` the per-basis
    stabilizer count (ancillas are reused between the X and Z
    rotations), ``s`` the combined split/move/junction-cross/merge cost,
    ``t`` the swap cost and ``g`` the two-qubit gate time at the trap's
    chain length.
    """
    x = max(int(num_traps), 1)
    m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
    ancilla_per_trap = math.ceil(m_basis / x) if m_basis else 0
    data_per_trap = math.ceil(code.num_qubits / x)
    if chain_length is None:
        chain_length = data_per_trap + ancilla_per_trap
    gate = times.two_qubit_gate(chain_length)
    swap = times.swap(chain_length=chain_length)
    shuttle = times.combined_shuttle if x > 1 else 0.0
    return 2 * x * (shuttle + ancilla_per_trap * (swap + gate * data_per_trap))


@dataclass
class CycloneCompiler(Compiler):
    """Compile a code onto the Cyclone ring codesign.

    Parameters
    ----------
    num_traps:
        Number of traps ``x`` on the ring.  ``None`` selects the base
        form ``x = max(|X|, |Z|)`` (one ancilla per trap).
    trap_capacity:
        Ion capacity per trap.  ``None`` selects the "tight" capacity:
        exactly the resident data + ancilla count.

    Each rotation ends with the measurement of its ancillas.
    """

    num_traps: int | None = None
    trap_capacity: int | None = None
    label: str = "cyclone"

    # ------------------------------------------------------------------
    def compile(self, code: CSSCode,
                schedule: StabilizerSchedule | None = None) -> CompiledSchedule:
        del schedule  # Cyclone derives its own symmetric schedule.
        m_basis = max(code.num_x_stabilizers, code.num_z_stabilizers)
        x = self.num_traps if self.num_traps is not None else max(m_basis, 1)
        x = max(int(x), 1)

        data_partition = balanced_data_partition(code.num_qubits, x)
        ancilla_partition = balanced_data_partition(m_basis, x)
        data_per_trap = max(len(part) for part in data_partition)
        ancilla_per_trap = max((len(part) for part in ancilla_partition),
                               default=0)
        tight_capacity = data_per_trap + ancilla_per_trap
        capacity = self.trap_capacity or tight_capacity
        capacity = max(capacity, tight_capacity)

        device = ring_device(x, capacity)
        chain_length = data_per_trap + ancilla_per_trap

        compiled = CompiledSchedule(
            architecture=f"{self.label}:ring", code_name=code.name,
            metadata={
                "topology": "ring",
                "num_traps": x,
                "num_junctions": device.num_junctions,
                "trap_capacity": capacity,
                "dac_count": device.dac_count,
                "num_ancilla": m_basis,
                "data_per_trap": data_per_trap,
                "ancilla_per_trap": ancilla_per_trap,
                "chain_length": chain_length,
                "worst_case_bound_us": cyclone_worst_case_bound_us(
                    code, x, self.times, chain_length
                ),
            },
        )

        clock = 0.0
        rotations = []
        x_supports = [set(code.x_stabilizer_support(i))
                      for i in range(code.num_x_stabilizers)]
        z_supports = [set(code.z_stabilizer_support(j))
                      for j in range(code.num_z_stabilizers)]
        rotations.append(("X", x_supports, 0))
        rotations.append(("Z", z_supports, code.num_x_stabilizers))

        corner_count = device.metadata.get("corner_junctions", 0)
        for basis, supports, stabilizer_offset in rotations:
            clock = self._rotation(
                compiled, code, basis, supports, stabilizer_offset,
                data_partition, ancilla_partition, x, chain_length, clock,
                corner_count,
            )
            duration = self.times.measurement()
            compiled.add(
                OpKind.MEASUREMENT, clock, duration,
                tuple(code.num_qubits + stabilizer_offset + a
                      for a in range(len(supports))),
                location="ring", note=f"{basis} ancilla readout",
                multiplicity=max(len(supports), 1),
            )
            clock += duration

        compiled.metadata["execution_time_us"] = clock
        compiled.metadata["roadblock_wait_us"] = 0.0
        compiled.metadata["roadblock_events"] = 0
        return compiled

    # ------------------------------------------------------------------
    def _rotation(self, compiled: CompiledSchedule, code: CSSCode, basis: str,
                  supports: list[set[int]], stabilizer_offset: int,
                  data_partition: list[list[int]],
                  ancilla_partition: list[list[int]], x: int,
                  chain_length: int, clock: float,
                  corner_count: int) -> float:
        """One full rotation measuring all stabilizers of one basis."""
        times = self.times
        gate_time = times.two_qubit_gate(chain_length)
        swap_time = times.swap(chain_length=chain_length)
        num_data = code.num_qubits

        for step in range(x):
            # --- Stage 1: gates in every trap, in parallel across traps.
            step_gate_time = 0.0
            for trap_index in range(x):
                trap_gate_time = 0.0
                # Ancilla group currently resident in this trap.
                source_group = (trap_index - step) % x
                for local_index, ancilla in enumerate(
                        ancilla_partition[source_group]):
                    if ancilla >= len(supports):
                        continue
                    overlap = supports[ancilla].intersection(
                        data_partition[trap_index]
                    )
                    for data_qubit in sorted(overlap):
                        compiled.add(
                            OpKind.GATE, clock + trap_gate_time, gate_time,
                            (num_data + stabilizer_offset + ancilla, data_qubit),
                            location=f"T{trap_index}",
                            note=f"{basis} step {step}",
                        )
                        trap_gate_time += gate_time
                    del local_index
                step_gate_time = max(step_gate_time, trap_gate_time)
            clock += step_gate_time

            # --- Stage 2: lockstep rotation of every ancilla.  One entry
            # per stage is emitted with multiplicity x: every trap performs
            # the identical operation simultaneously under the broadcast
            # control signal.
            if x > 1:
                rotate_time = (
                    swap_time + times.split + times.move + times.merge
                )
                if corner_count:
                    rotate_time += times.junction_crossing(2)
                compiled.add(
                    OpKind.SWAP, clock, swap_time, (), "ring",
                    note="lockstep swap to trap edge", multiplicity=x,
                )
                compiled.add(
                    OpKind.SPLIT, clock + swap_time, times.split, (), "ring",
                    note="lockstep split", multiplicity=x,
                )
                compiled.add(
                    OpKind.MOVE, clock + swap_time + times.split, times.move,
                    (), "ring", note="lockstep move", multiplicity=x,
                )
                if corner_count:
                    compiled.add(
                        OpKind.JUNCTION_CROSS,
                        clock + swap_time + times.split + times.move,
                        times.junction_crossing(2), (), "ring corners",
                        note="corner crossing", multiplicity=corner_count,
                    )
                compiled.add(
                    OpKind.MERGE, clock + rotate_time - times.merge,
                    times.merge, (), "ring", note="lockstep merge",
                    multiplicity=x,
                )
                clock += rotate_time
        return clock
