"""Operation timing model for QCCD hardware (Section II-B-1).

Default constants follow the paper / QCCDSim:

* split: 80 µs, merge: 80 µs, move across a shuttling zone: 10 µs,
* junction crossing: 10 / 100 / 120 µs for degree 2 / 3 / 4,
* two-qubit gate: constant for chains of up to 12 ions, degrading
  quadratically beyond ~15 ions (the paper notes gate times "scale very
  poorly after capacities greater than around 15"),
* GateSwap: three CX gates; IonSwap: ``s*d + s*(d-1) + 42`` µs where
  ``d`` is the interaction distance of the ion from the chain end.

A uniform ``improvement_factor`` scales gate and shuttling times for the
Figure 18 sensitivity study.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["OperationTimes", "SwapKind"]


class SwapKind(enum.Enum):
    """Which physical mechanism implements in-chain reordering swaps."""

    GATE_SWAP = "gate_swap"
    ION_SWAP = "ion_swap"


@dataclass(frozen=True)
class OperationTimes:
    """Timing constants (microseconds) for QCCD atomic operations."""

    split_us: float = 80.0
    merge_us: float = 80.0
    move_us: float = 10.0
    junction_cross_degree2_us: float = 10.0
    junction_cross_degree3_us: float = 100.0
    junction_cross_degree4_us: float = 120.0
    base_two_qubit_gate_us: float = 100.0
    one_qubit_gate_us: float = 5.0
    measurement_us: float = 100.0
    gate_scaling_chain_length: int = 12
    ion_swap_constant_us: float = 42.0
    rebalance_us: float = 300.0
    swap_kind: SwapKind = SwapKind.GATE_SWAP
    #: Uniform fractional reduction r applied to gate and shuttling times
    #: (0 = paper defaults, 0.5 = everything twice as fast).
    improvement_factor: float = 0.0
    #: Fractional reduction applied to junction crossing times only
    #: (Figure 9's optimism knob for the mesh junction network).
    junction_improvement_factor: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.improvement_factor < 1.0:
            raise ValueError("improvement_factor must be in [0, 1)")
        if not 0.0 <= self.junction_improvement_factor < 1.0:
            raise ValueError("junction_improvement_factor must be in [0, 1)")

    # ------------------------------------------------------------------
    def _scaled(self, value: float) -> float:
        return value * (1.0 - self.improvement_factor)

    @property
    def split(self) -> float:
        return self._scaled(self.split_us)

    @property
    def merge(self) -> float:
        return self._scaled(self.merge_us)

    @property
    def move(self) -> float:
        return self._scaled(self.move_us)

    def junction_crossing(self, degree: int) -> float:
        """Crossing time for a junction of the given connectivity degree."""
        if degree <= 2:
            base = self.junction_cross_degree2_us
        elif degree == 3:
            base = self.junction_cross_degree3_us
        else:
            base = self.junction_cross_degree4_us
        return self._scaled(base) * (1.0 - self.junction_improvement_factor)

    def two_qubit_gate(self, chain_length: int = 2) -> float:
        """Two-qubit gate time as a function of the host chain length.

        Constant up to :attr:`gate_scaling_chain_length` ions, then
        growing quadratically — the behaviour the paper cites as the
        limiting factor for dense, few-trap configurations.
        """
        chain_length = max(int(chain_length), 2)
        base = self.base_two_qubit_gate_us
        if chain_length > self.gate_scaling_chain_length:
            ratio = chain_length / self.gate_scaling_chain_length
            base = base * ratio * ratio
        return self._scaled(base)

    def one_qubit_gate(self) -> float:
        return self._scaled(self.one_qubit_gate_us)

    def measurement(self) -> float:
        return self._scaled(self.measurement_us)

    def gate_swap(self, chain_length: int = 2) -> float:
        """In-chain swap implemented as three CX gates."""
        return 3.0 * self.two_qubit_gate(chain_length)

    def ion_swap(self, interaction_distance: int) -> float:
        """Position-based swap: s*d + s*(d-1) + 42 µs (paper, Section IV-D)."""
        distance = max(int(interaction_distance), 1)
        return (
            self.split * distance
            + self.split * (distance - 1)
            + self._scaled(self.ion_swap_constant_us)
        )

    def swap(self, chain_length: int = 2, interaction_distance: int = 1) -> float:
        """Swap cost under the configured :class:`SwapKind`."""
        if self.swap_kind is SwapKind.GATE_SWAP:
            return self.gate_swap(chain_length)
        return self.ion_swap(interaction_distance)

    def rebalance(self) -> float:
        return self._scaled(self.rebalance_us)

    @property
    def combined_shuttle(self) -> float:
        """split + move + degree-2 junction crossing + merge.

        This is the per-step shuttling cost ``s`` in the Cyclone
        worst-case runtime formula of Section IV-A.
        """
        return (
            self.split + self.move + self.junction_crossing(2) + self.merge
        )
