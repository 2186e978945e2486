"""Detector error model (DEM) extraction from noisy circuits.

Every stochastic noise instruction in a circuit decomposes into a set of
*elementary faults* (a single Pauli applied at a single location, or a
single measurement-record flip), each occurring with a known
probability.  Because fault propagation is linear over GF(2), the effect
of any combination of faults on the detectors and logical observables is
the XOR of the individual effects.  The DEM therefore consists of:

* a binary check matrix ``H`` (detectors x faults),
* a binary observable matrix ``L`` (observables x faults), and
* a prior probability per fault,

where faults with identical (detector, observable) signatures are merged
(their probabilities combined as the probability of an odd number of
them occurring).  This matrix view is what the BP+OSD decoders consume —
the same role ``stim.Circuit.detector_error_model()`` plays in the
Stim/QuITS toolchain the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.circuit import Circuit, Instruction
from repro.sim.frame import FrameSimulator, FaultInjection

__all__ = [
    "DetectorErrorModel",
    "DemStructure",
    "DemStructureCache",
    "build_dem_structure",
    "detector_error_model",
]


@dataclass
class DetectorErrorModel:
    """Merged fault mechanisms of a noisy circuit.

    ``check_matrix`` has shape ``(num_detectors, num_mechanisms)``;
    ``observable_matrix`` has shape ``(num_observables, num_mechanisms)``;
    ``priors`` has one probability per mechanism.
    """

    check_matrix: np.ndarray
    observable_matrix: np.ndarray
    priors: np.ndarray

    @property
    def num_detectors(self) -> int:
        return int(self.check_matrix.shape[0])

    @property
    def num_mechanisms(self) -> int:
        return int(self.check_matrix.shape[1])

    @property
    def num_observables(self) -> int:
        return int(self.observable_matrix.shape[0])


@dataclass(frozen=True)
class _ElementaryFault:
    instruction_index: int
    probability: float
    x_flips: tuple[int, ...] = ()
    z_flips: tuple[int, ...] = ()
    measurement_flip: int | None = None


def _enumerate_faults(circuit: Circuit) -> list[_ElementaryFault]:
    faults: list[_ElementaryFault] = []
    for index, ins in enumerate(circuit.instructions):
        faults.extend(_faults_for_instruction(index, ins))
    return [fault for fault in faults if fault.probability > 0]


def _faults_for_instruction(index: int, ins: Instruction) -> list[_ElementaryFault]:
    name = ins.name
    faults: list[_ElementaryFault] = []
    if name == "X_ERROR":
        for qubit in ins.targets:
            faults.append(_ElementaryFault(index, ins.argument, x_flips=(qubit,)))
    elif name == "Z_ERROR":
        for qubit in ins.targets:
            faults.append(_ElementaryFault(index, ins.argument, z_flips=(qubit,)))
    elif name == "DEPOLARIZE1":
        share = ins.argument / 3.0
        for qubit in ins.targets:
            faults.append(_ElementaryFault(index, share, x_flips=(qubit,)))
            faults.append(_ElementaryFault(index, share, x_flips=(qubit,),
                                           z_flips=(qubit,)))
            faults.append(_ElementaryFault(index, share, z_flips=(qubit,)))
    elif name == "PAULI_CHANNEL_1":
        px, py, pz = ins.arguments
        for qubit in ins.targets:
            faults.append(_ElementaryFault(index, px, x_flips=(qubit,)))
            faults.append(_ElementaryFault(index, py, x_flips=(qubit,),
                                           z_flips=(qubit,)))
            faults.append(_ElementaryFault(index, pz, z_flips=(qubit,)))
    elif name == "DEPOLARIZE2":
        share = ins.argument / 15.0
        controls = ins.targets[0::2]
        targs = ins.targets[1::2]
        for control, target in zip(controls, targs):
            for pattern in range(1, 16):
                x_flips = []
                z_flips = []
                if pattern & 1:
                    x_flips.append(control)
                if pattern & 2:
                    z_flips.append(control)
                if pattern & 4:
                    x_flips.append(target)
                if pattern & 8:
                    z_flips.append(target)
                faults.append(_ElementaryFault(
                    index, share,
                    x_flips=tuple(x_flips), z_flips=tuple(z_flips),
                ))
    elif name in ("M", "MX") and ins.argument > 0:
        for qubit in ins.targets:
            faults.append(_ElementaryFault(
                index, ins.argument, measurement_flip=qubit
            ))
    return faults


def _fault_skeleton(circuit: Circuit,
                    faults: list[_ElementaryFault]) -> tuple:
    """Noise-rate-independent fingerprint of a circuit's fault list.

    Two circuits with the same skeleton have elementary faults at the
    same locations with the same Pauli/measurement effects — only the
    probabilities differ — so they share one set of merged detector and
    observable signatures.  Changing a noise rate between zero and
    non-zero changes the skeleton (zero-probability faults are pruned)
    and correctly invalidates any cached structure.
    """
    return (
        circuit.num_detectors,
        circuit.num_observables,
        tuple(
            (fault.instruction_index, fault.x_flips, fault.z_flips,
             fault.measurement_flip)
            for fault in faults
        ),
    )


def _propagate_signatures(circuit: Circuit, faults: list[_ElementaryFault],
                          backend: str, chunk_shots: int):
    """Yield ``(faults_chunk, detector_bits, observable_bits)`` blocks.

    The boolean reference backend propagates every fault in one dense
    pass (one shot row per fault), which materialises an
    ``O(faults x measurements)`` boolean array.  The packed backend
    instead walks the fault list in chunks of ``chunk_shots`` faults,
    each propagated as 64-fault words, so peak memory is bounded by the
    chunk size regardless of how many mechanisms the circuit has.
    """
    if backend == "bool":
        chunk_shots = len(faults)
    for start in range(0, len(faults), chunk_shots):
        chunk = faults[start:start + chunk_shots]
        injections = [
            FaultInjection(
                instruction_index=fault.instruction_index,
                shot=shot,
                x_flips=fault.x_flips,
                z_flips=fault.z_flips,
                measurement_flip=fault.measurement_flip,
            )
            for shot, fault in enumerate(chunk)
        ]
        simulator = FrameSimulator(circuit, backend=backend)
        result = simulator.propagate_faults(injections, shots=len(chunk))
        yield chunk, result.detectors, result.observables


@dataclass(frozen=True)
class DemStructure:
    """Noise-rate-independent part of a detector error model.

    The merged detector/observable signature matrices and the mapping
    from elementary faults to merged columns depend only on *where* the
    circuit's faults live and what they flip — not on their
    probabilities.  Operating-point sweeps (physical error rate,
    latency) therefore build this once per circuit family and recompute
    only the per-point priors via :meth:`priors_for`, skipping the
    frame-propagation pass that dominates DEM extraction.
    """

    check_matrix: np.ndarray
    observable_matrix: np.ndarray
    #: Merged-column index of each elementary fault (-1: no effect on
    #: any detector or observable, so the fault has no column).
    fault_columns: np.ndarray
    skeleton: tuple

    @property
    def num_detectors(self) -> int:
        return int(self.check_matrix.shape[0])

    @property
    def num_mechanisms(self) -> int:
        return int(self.check_matrix.shape[1])

    def priors_for(self, probabilities: np.ndarray) -> np.ndarray:
        """Merged per-column priors for one operating point.

        ``probabilities`` holds one probability per elementary fault, in
        fault-enumeration order.  Faults merged into the same column are
        combined as the probability of an odd number of them firing —
        the same accumulation (in the same order) a cold
        :func:`detector_error_model` build performs, so the result is
        bit-identical to an uncached extraction.
        """
        probabilities = np.asarray(probabilities, dtype=float)
        if probabilities.shape[0] != self.fault_columns.shape[0]:
            raise ValueError("need one probability per elementary fault")
        priors = np.zeros(self.num_mechanisms, dtype=float)
        for column, probability in zip(self.fault_columns, probabilities):
            if column < 0:
                continue
            existing = priors[column]
            priors[column] = (existing * (1 - probability)
                              + probability * (1 - existing))
        return priors


def build_dem_structure(circuit: Circuit,
                        faults: list[_ElementaryFault] | None = None,
                        backend: str = "packed",
                        chunk_shots: int = 2048) -> DemStructure:
    """Propagate every elementary fault and merge identical signatures.

    This is the expensive half of :func:`detector_error_model`; the
    cheap half (per-point priors) is :meth:`DemStructure.priors_for`.
    """
    if backend not in ("packed", "bool"):
        raise ValueError("backend must be 'packed' or 'bool'")
    if chunk_shots < 1:
        raise ValueError("chunk_shots must be positive")
    if faults is None:
        faults = _enumerate_faults(circuit)
    if not faults:
        return DemStructure(
            check_matrix=np.zeros((circuit.num_detectors, 0), dtype=np.uint8),
            observable_matrix=np.zeros((circuit.num_observables, 0),
                                       dtype=np.uint8),
            fault_columns=np.zeros(0, dtype=np.intp),
            skeleton=_fault_skeleton(circuit, faults),
        )
    merged: dict[bytes, int] = {}
    columns_detectors: list[np.ndarray] = []
    columns_observables: list[np.ndarray] = []
    fault_columns = np.full(len(faults), -1, dtype=np.intp)
    position = 0
    blocks = _propagate_signatures(circuit, faults, backend, chunk_shots)
    for chunk, detector_signatures, observable_signatures in blocks:
        for fault_index in range(len(chunk)):
            detector_bits = detector_signatures[fault_index]
            observable_bits = observable_signatures[fault_index]
            if detector_bits.any() or observable_bits.any():
                key = detector_bits.tobytes() + b"|" + observable_bits.tobytes()
                column = merged.get(key)
                if column is None:
                    column = len(columns_detectors)
                    merged[key] = column
                    # Copy: the bits are views into the chunk's signature
                    # block, and keeping views alive would pin every
                    # chunk's full array, defeating the chunked memory
                    # bound.
                    columns_detectors.append(detector_bits.copy())
                    columns_observables.append(observable_bits.copy())
                fault_columns[position] = column
            position += 1
    if columns_detectors:
        check_matrix = np.array(columns_detectors, dtype=np.uint8).T
        observable_matrix = np.array(columns_observables, dtype=np.uint8).T
    else:
        check_matrix = np.zeros((circuit.num_detectors, 0), dtype=np.uint8)
        observable_matrix = np.zeros((circuit.num_observables, 0),
                                     dtype=np.uint8)
    return DemStructure(
        check_matrix=check_matrix,
        observable_matrix=observable_matrix,
        fault_columns=fault_columns,
        skeleton=_fault_skeleton(circuit, faults),
    )


class DemStructureCache:
    """Reuse one :class:`DemStructure` across circuit-level sweep points.

    ``model_for`` extracts the DEM of a circuit, rebuilding the merged
    signatures only when the circuit's fault skeleton changes; sweeps
    that vary only noise *rates* (the common case — physical error rate
    or latency) pay the fault-propagation cost once.  ``builds`` counts
    structure rebuilds so tests and benchmarks can assert cache hits.
    """

    def __init__(self, backend: str = "packed",
                 chunk_shots: int = 2048) -> None:
        if backend not in ("packed", "bool"):
            raise ValueError("backend must be 'packed' or 'bool'")
        self.backend = backend
        self.chunk_shots = int(chunk_shots)
        self.builds = 0
        self._structure: DemStructure | None = None

    def model_for(self, circuit: Circuit) -> DetectorErrorModel:
        """DEM of ``circuit``, reusing cached signatures when valid."""
        faults = _enumerate_faults(circuit)
        skeleton = _fault_skeleton(circuit, faults)
        if self._structure is None or self._structure.skeleton != skeleton:
            self._structure = build_dem_structure(
                circuit, faults=faults, backend=self.backend,
                chunk_shots=self.chunk_shots,
            )
            self.builds += 1
        probabilities = np.array(
            [fault.probability for fault in faults], dtype=float
        )
        return DetectorErrorModel(
            check_matrix=self._structure.check_matrix,
            observable_matrix=self._structure.observable_matrix,
            priors=self._structure.priors_for(probabilities),
        )


def detector_error_model(circuit: Circuit, merge: bool = True,
                         backend: str = "packed",
                         chunk_shots: int = 2048) -> DetectorErrorModel:
    """Extract the detector error model of a noisy circuit.

    Parameters
    ----------
    circuit:
        The noisy annotated circuit.
    merge:
        Merge mechanisms with identical detector/observable signatures
        (default).  Disabling the merge keeps one column per elementary
        fault, which is occasionally useful for debugging.
    backend:
        ``"packed"`` (default) propagates faults 64 per machine word in
        bounded-memory chunks; ``"bool"`` is the dense boolean reference
        path.  Both produce identical models.
    chunk_shots:
        Faults propagated per packed block (ignored by ``"bool"``).
    """
    if backend not in ("packed", "bool"):
        raise ValueError("backend must be 'packed' or 'bool'")
    if chunk_shots < 1:
        raise ValueError("chunk_shots must be positive")
    faults = _enumerate_faults(circuit)

    if not merge:
        if not faults:
            return DetectorErrorModel(
                check_matrix=np.zeros((circuit.num_detectors, 0),
                                      dtype=np.uint8),
                observable_matrix=np.zeros((circuit.num_observables, 0),
                                           dtype=np.uint8),
                priors=np.zeros(0, dtype=float),
            )
        blocks = _propagate_signatures(circuit, faults, backend, chunk_shots)
        detector_columns = []
        observable_columns = []
        for _, detector_bits, observable_bits in blocks:
            detector_columns.append(detector_bits.T.astype(np.uint8))
            observable_columns.append(observable_bits.T.astype(np.uint8))
        return DetectorErrorModel(
            check_matrix=np.hstack(detector_columns),
            observable_matrix=np.hstack(observable_columns),
            priors=np.array([fault.probability for fault in faults]),
        )

    structure = build_dem_structure(circuit, faults=faults, backend=backend,
                                    chunk_shots=chunk_shots)
    return DetectorErrorModel(
        check_matrix=structure.check_matrix,
        observable_matrix=structure.observable_matrix,
        priors=structure.priors_for(
            np.array([fault.probability for fault in faults], dtype=float)
        ),
    )
