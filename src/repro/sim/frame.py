"""A vectorized Pauli-frame simulator.

For stabilizer circuits under Pauli noise, the deviation of a noisy run
from the noiseless reference run is fully captured by a *Pauli frame*:
which X and Z flips each qubit currently carries.  Propagating the frame
through Clifford gates and recording which measurements it flips
reproduces the statistics of detection events and logical-observable
flips exactly — the same trick Stim's frame simulator uses.

Two storage backends propagate all shots simultaneously:

* ``backend="packed"`` (default) — frames, measurement records,
  detectors and observables are bit-packed along the shot axis into
  ``uint64`` words (64 shots per word, see :mod:`repro.linalg.bitops`),
  so every gate is a handful of word-level XORs.
* ``backend="bool"`` — the original one-byte-per-bit boolean layout,
  kept as the reference implementation.

Both backends draw stochastic noise through the *same* RNG calls in the
same order (the Bernoulli comparisons happen on unpacked uniform draws,
which the packed backend then packs), so for a fixed seed their outputs
are bit-identical — a property the test suite checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit
from repro.linalg.bitops import (
    WORD_DTYPE,
    bit_mask,
    num_words,
    pack_bits,
    unpack_bits,
)

__all__ = ["FrameSimulator", "SampleResult", "FaultInjection",
           "sample_circuit_shard"]


@dataclass
class SampleResult:
    """Sampled detection events and observable flips.

    ``detectors`` has shape ``(shots, num_detectors)`` and
    ``observables`` shape ``(shots, num_observables)``; both are boolean.
    ``measurements`` (optional) holds the raw measurement-flip record.
    """

    detectors: np.ndarray
    observables: np.ndarray
    measurements: np.ndarray | None = None

    @property
    def shots(self) -> int:
        return int(self.detectors.shape[0])


@dataclass(frozen=True)
class FaultInjection:
    """A deterministic fault to inject during propagation (DEM probing).

    The fault applies to exactly one shot row.  ``x_flips`` / ``z_flips``
    are qubit indices whose frame bits get toggled just *before* the
    instruction at ``instruction_index`` executes.  ``measurement_flip``
    optionally names a qubit whose measurement outcome (within that
    instruction, which must then be a measurement) is flipped.
    """

    instruction_index: int
    shot: int
    x_flips: tuple[int, ...] = ()
    z_flips: tuple[int, ...] = ()
    measurement_flip: int | None = None


def sample_circuit_shard(circuit: Circuit, shots: int, seed,
                         backend: str = "packed",
                         return_measurements: bool = False) -> SampleResult:
    """Sample one shard of a circuit-level experiment from its own seed.

    This is the shard-local sampling entry point of the fused
    sample→decode pipeline (:mod:`repro.parallel.pipeline`): every shard
    of a sharded experiment draws its noise from an independent
    ``SeedSequence`` child stream, so the concatenation of shard samples
    is bit-identical no matter which process — parent or any worker —
    executes the shard.  ``seed`` accepts anything
    ``numpy.random.default_rng`` does, including a ``SeedSequence``.
    """
    simulator = FrameSimulator(circuit, seed=seed, backend=backend)
    return simulator.sample(shots, return_measurements=return_measurements)


class FrameSimulator:
    """Samples detection events from an annotated stabilizer circuit."""

    def __init__(self, circuit: Circuit, seed: int | None = None,
                 backend: str = "packed") -> None:
        if backend not in ("packed", "bool"):
            raise ValueError("backend must be 'packed' or 'bool'")
        self.circuit = circuit
        self.backend = backend
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    def sample(self, shots: int, return_measurements: bool = False) -> SampleResult:
        """Sample ``shots`` noisy executions of the circuit."""
        return self._run(shots, sample_noise=True,
                         faults=None, return_measurements=return_measurements)

    def propagate_faults(self, faults: list[FaultInjection],
                         shots: int) -> SampleResult:
        """Propagate deterministic faults with all stochastic noise disabled.

        Each fault touches only its own shot row, so ``shots`` rows give
        the detector/observable signature of ``shots`` independent
        faults in a single vectorized pass.
        """
        by_instruction: dict[int, list[FaultInjection]] = {}
        for fault in faults:
            by_instruction.setdefault(fault.instruction_index, []).append(fault)
        return self._run(shots, sample_noise=False, faults=by_instruction,
                         return_measurements=False)

    # ------------------------------------------------------------------
    def _run(self, shots: int, sample_noise: bool,
             faults: dict[int, list[FaultInjection]] | None,
             return_measurements: bool) -> SampleResult:
        circuit = self.circuit
        num_qubits = circuit.num_qubits
        rng = self._rng
        packed = self.backend == "packed"

        if packed:
            rows = num_words(shots)
            def alloc(columns: int) -> np.ndarray:
                return np.zeros((rows, columns), dtype=WORD_DTYPE)
        else:
            rows = shots
            def alloc(columns: int) -> np.ndarray:
                return np.zeros((rows, columns), dtype=bool)

        def bernoulli(probability: float, width: int) -> np.ndarray:
            """Per-(shot, target) Bernoulli mask in the backend's layout.

            The uniform draw itself is always unpacked so both backends
            consume the RNG identically and stay bit-for-bit comparable.
            """
            draw = rng.random((shots, width)) < probability
            return pack_bits(draw, axis=0) if packed else draw

        def as_layout(mask: np.ndarray) -> np.ndarray:
            return pack_bits(mask, axis=0) if packed else mask

        x_frame = alloc(num_qubits)
        z_frame = alloc(num_qubits)
        measurements = alloc(circuit.num_measurements)
        detectors = alloc(circuit.num_detectors)
        observables = alloc(max(circuit.num_observables, 0))

        measurement_cursor = 0
        detector_cursor = 0

        for instruction_index, ins in enumerate(circuit.instructions):
            pending_measure_flips: list[tuple[int, int]] = []
            if faults and instruction_index in faults:
                for fault in faults[instruction_index]:
                    if packed:
                        word, mask = fault.shot >> 6, bit_mask(fault.shot)
                        if fault.x_flips:
                            x_frame[word, list(fault.x_flips)] ^= mask
                        if fault.z_flips:
                            z_frame[word, list(fault.z_flips)] ^= mask
                    else:
                        if fault.x_flips:
                            x_frame[fault.shot, list(fault.x_flips)] ^= True
                        if fault.z_flips:
                            z_frame[fault.shot, list(fault.z_flips)] ^= True
                    if fault.measurement_flip is not None:
                        pending_measure_flips.append(
                            (fault.shot, fault.measurement_flip)
                        )

            name = ins.name
            targets = list(ins.targets)

            if name == "TICK":
                continue
            if name == "R" or name == "RX":
                x_frame[:, targets] = 0
                z_frame[:, targets] = 0
            elif name == "H":
                x_frame[:, targets], z_frame[:, targets] = (
                    z_frame[:, targets].copy(), x_frame[:, targets].copy()
                )
            elif name == "CX":
                controls = targets[0::2]
                targs = targets[1::2]
                x_frame[:, targs] ^= x_frame[:, controls]
                z_frame[:, controls] ^= z_frame[:, targs]
            elif name in ("M", "MX"):
                flips = x_frame[:, targets] if name == "M" else z_frame[:, targets]
                flips = flips.copy()
                if sample_noise and ins.argument > 0:
                    flips ^= bernoulli(ins.argument, len(targets))
                for shot, qubit in pending_measure_flips:
                    position = targets.index(qubit)
                    if packed:
                        flips[shot >> 6, position] ^= bit_mask(shot)
                    else:
                        flips[shot, position] ^= True
                measurements[
                    :, measurement_cursor:measurement_cursor + len(targets)
                ] = flips
                measurement_cursor += len(targets)
                # After measurement the qubit is in a definite eigenstate of
                # the measured basis; the conjugate frame component is moot.
                if name == "M":
                    z_frame[:, targets] = 0
                else:
                    x_frame[:, targets] = 0
            elif name == "X_ERROR":
                if sample_noise and ins.argument > 0:
                    x_frame[:, targets] ^= bernoulli(ins.argument, len(targets))
            elif name == "Z_ERROR":
                if sample_noise and ins.argument > 0:
                    z_frame[:, targets] ^= bernoulli(ins.argument, len(targets))
            elif name == "DEPOLARIZE1":
                if sample_noise and ins.argument > 0:
                    x_mask, z_mask = self._depolarize1_masks(
                        rng, targets, ins.argument, shots
                    )
                    x_frame[:, targets] ^= as_layout(x_mask)
                    z_frame[:, targets] ^= as_layout(z_mask)
            elif name == "PAULI_CHANNEL_1":
                if sample_noise and any(ins.arguments):
                    x_mask, z_mask = self._pauli_channel1_masks(
                        rng, targets, ins.arguments, shots
                    )
                    x_frame[:, targets] ^= as_layout(x_mask)
                    z_frame[:, targets] ^= as_layout(z_mask)
            elif name == "DEPOLARIZE2":
                if sample_noise and ins.argument > 0:
                    controls = targets[0::2]
                    targs = targets[1::2]
                    xc, zc, xt, zt = self._depolarize2_masks(
                        rng, len(controls), ins.argument, shots
                    )
                    x_frame[:, controls] ^= as_layout(xc)
                    z_frame[:, controls] ^= as_layout(zc)
                    x_frame[:, targs] ^= as_layout(xt)
                    z_frame[:, targs] ^= as_layout(zt)
            elif name == "DETECTOR":
                value = np.zeros(rows, dtype=WORD_DTYPE if packed else bool)
                for record in targets:
                    value ^= measurements[:, record]
                detectors[:, detector_cursor] = value
                detector_cursor += 1
            elif name == "OBSERVABLE_INCLUDE":
                observable = int(ins.argument)
                value = np.zeros(rows, dtype=WORD_DTYPE if packed else bool)
                for record in targets:
                    value ^= measurements[:, record]
                observables[:, observable] ^= value
            else:  # pragma: no cover - guarded by Instruction validation
                raise ValueError(f"unhandled instruction {name}")

        if packed:
            detectors = unpack_bits(detectors, shots, axis=0)
            observables = unpack_bits(observables, shots, axis=0)
            if return_measurements:
                measurements = unpack_bits(measurements, shots, axis=0)

        return SampleResult(
            detectors=detectors,
            observables=observables,
            measurements=measurements if return_measurements else None,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _depolarize1_masks(rng, targets, probability, shots):
        hit = rng.random((shots, len(targets))) < probability
        which = rng.integers(0, 3, size=(shots, len(targets)))
        # which: 0 -> X, 1 -> Y, 2 -> Z
        return hit & (which != 2), hit & (which != 0)

    @staticmethod
    def _pauli_channel1_masks(rng, targets, probabilities, shots):
        px, py, pz = probabilities
        draw = rng.random((shots, len(targets)))
        apply_x = draw < px
        apply_y = (draw >= px) & (draw < px + py)
        apply_z = (draw >= px + py) & (draw < px + py + pz)
        return apply_x | apply_y, apply_z | apply_y

    @staticmethod
    def _depolarize2_masks(rng, num_pairs, probability, shots):
        hit = rng.random((shots, num_pairs)) < probability
        # Pick one of the 15 non-identity two-qubit Paulis uniformly.
        which = rng.integers(1, 16, size=(shots, num_pairs))
        # Bits of `which`: (x_c, z_c, x_t, z_t) — value 0 excluded above.
        return (hit & ((which & 1) != 0), hit & ((which & 2) != 0),
                hit & ((which & 4) != 0), hit & ((which & 8) != 0))
