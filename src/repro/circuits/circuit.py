r"""A minimal stabilizer-circuit intermediate representation.

The instruction set is intentionally close to Stim's:

Gates and state preparation
    ``R`` (reset to \|0>), ``RX`` (reset to \|+>), ``H``, ``CX``
Measurements
    ``M`` (Z basis), ``MX`` (X basis) — every measurement appends one bit
    to the global measurement record
Noise channels
    ``X_ERROR``, ``Z_ERROR``, ``DEPOLARIZE1``, ``DEPOLARIZE2``,
    ``PAULI_CHANNEL_1`` (independent px/py/pz), and measurement flip
    noise expressed through the ``flip_probability`` field of ``M``/``MX``
Annotations
    ``TICK`` (layer separator), ``DETECTOR`` (parity of measurement
    record indices, deterministic without noise), ``OBSERVABLE_INCLUDE``
    (adds measurement record indices to a logical observable)

Measurement record indices in ``DETECTOR`` / ``OBSERVABLE_INCLUDE``
targets are *absolute* indices into the order measurements appear in the
circuit (0-based).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Instruction", "Circuit"]

GATE_NAMES = {"R", "RX", "H", "CX", "M", "MX"}
NOISE_NAMES = {
    "X_ERROR",
    "Z_ERROR",
    "DEPOLARIZE1",
    "DEPOLARIZE2",
    "PAULI_CHANNEL_1",
}
ANNOTATION_NAMES = {"TICK", "DETECTOR", "OBSERVABLE_INCLUDE"}
TWO_QUBIT_GATES = {"CX"}
MEASUREMENT_NAMES = {"M", "MX"}

VALID_NAMES = GATE_NAMES | NOISE_NAMES | ANNOTATION_NAMES


@dataclass(frozen=True)
class Instruction:
    """One circuit instruction.

    ``targets`` are qubit indices for gates/noise, or absolute
    measurement-record indices for ``DETECTOR``/``OBSERVABLE_INCLUDE``.
    ``argument`` carries the error probability for noise channels, the
    measurement flip probability for measurements, or the observable
    index for ``OBSERVABLE_INCLUDE``.  ``arguments`` carries the
    (px, py, pz) triple for ``PAULI_CHANNEL_1``.
    """

    name: str
    targets: tuple[int, ...] = ()
    argument: float = 0.0
    arguments: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in VALID_NAMES:
            raise ValueError(f"unknown instruction {self.name!r}")
        if self.name == "CX" and len(self.targets) % 2 != 0:
            raise ValueError("CX requires an even number of targets")
        if self.name == "PAULI_CHANNEL_1" and len(self.arguments) != 3:
            raise ValueError("PAULI_CHANNEL_1 needs (px, py, pz)")

    @property
    def is_noise(self) -> bool:
        return self.name in NOISE_NAMES

    @property
    def is_measurement(self) -> bool:
        return self.name in MEASUREMENT_NAMES


class Circuit:
    """An ordered list of instructions plus bookkeeping.

    The class tracks the number of qubits touched, the number of
    measurements, detectors and observables, and offers convenience
    ``append_*`` helpers used by the circuit builders.
    """

    def __init__(self) -> None:
        self.instructions: list[Instruction] = []
        self._num_qubits = 0
        self._num_measurements = 0
        self._num_detectors = 0
        self._observables: set[int] = set()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def append(self, name: str, targets=(), argument: float = 0.0,
               arguments: tuple[float, ...] = ()) -> Instruction:
        """Append an instruction and update bookkeeping; returns it."""
        if isinstance(targets, int):
            targets = (targets,)
        instruction = Instruction(
            name=name,
            targets=tuple(int(t) for t in targets),
            argument=float(argument),
            arguments=tuple(float(a) for a in arguments),
        )
        self.instructions.append(instruction)
        if name in GATE_NAMES or name in NOISE_NAMES:
            if instruction.targets:
                self._num_qubits = max(
                    self._num_qubits, max(instruction.targets) + 1
                )
        if name in MEASUREMENT_NAMES:
            self._num_measurements += len(instruction.targets)
        if name == "DETECTOR":
            self._num_detectors += 1
        if name == "OBSERVABLE_INCLUDE":
            self._observables.add(int(argument))
        return instruction

    def tick(self) -> None:
        self.append("TICK")

    def measure(self, targets, basis: str = "Z",
                flip_probability: float = 0.0) -> list[int]:
        """Measure qubits and return the absolute record indices produced."""
        if isinstance(targets, int):
            targets = (targets,)
        targets = tuple(int(t) for t in targets)
        start = self._num_measurements
        name = "M" if basis == "Z" else "MX"
        self.append(name, targets, argument=flip_probability)
        return list(range(start, start + len(targets)))

    def detector(self, measurement_indices) -> None:
        """Declare a detector over absolute measurement-record indices."""
        self.append("DETECTOR", tuple(measurement_indices))

    def observable_include(self, measurement_indices, observable: int) -> None:
        """Add measurement records to logical observable ``observable``."""
        self.append(
            "OBSERVABLE_INCLUDE", tuple(measurement_indices),
            argument=observable,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_measurements(self) -> int:
        return self._num_measurements

    @property
    def num_detectors(self) -> int:
        return self._num_detectors

    @property
    def num_observables(self) -> int:
        return (max(self._observables) + 1) if self._observables else 0

    def count(self, name: str) -> int:
        """Number of instructions with the given name."""
        return sum(1 for ins in self.instructions if ins.name == name)

    def gate_count(self, name: str) -> int:
        """Total number of gate applications of ``name`` (counting targets).

        For two-qubit gates each pair counts once.
        """
        total = 0
        for ins in self.instructions:
            if ins.name != name:
                continue
            if name in TWO_QUBIT_GATES:
                total += len(ins.targets) // 2
            else:
                total += len(ins.targets)
        return total

    def without_noise(self) -> "Circuit":
        """A copy of this circuit with every noise channel removed.

        Measurement flip probabilities are zeroed; detectors and
        observables are preserved.
        """
        clean = Circuit()
        for ins in self.instructions:
            if ins.is_noise:
                continue
            if ins.is_measurement:
                clean.append(ins.name, ins.targets, argument=0.0)
            else:
                clean.append(ins.name, ins.targets, ins.argument, ins.arguments)
        return clean

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({len(self.instructions)} instructions, "
            f"{self.num_qubits} qubits, {self.num_measurements} measurements, "
            f"{self.num_detectors} detectors)"
        )

    def to_text(self) -> str:
        """A human-readable listing (useful in tests and debugging)."""
        lines = []
        for ins in self.instructions:
            name = ins.name
            if ins.arguments:
                name += "(" + ",".join(f"{a:g}" for a in ins.arguments) + ")"
            elif ins.argument:
                name += f"({ins.argument:g})"
            parts = [name] + [str(t) for t in ins.targets]
            lines.append(" ".join(parts))
        return "\n".join(lines)
