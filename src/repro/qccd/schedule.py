"""Compiled schedules: the output of every QCCD compiler.

A compiled schedule is a list of timed operations (gates, splits, moves,
junction crossings, merges, swaps, rebalances, measurements) from which
the execution latency (makespan), the serialized "unrolled" component
times, and the achieved parallelization fraction are derived — the
quantities plotted in Figures 19 and 20 and fed into the hardware-aware
noise model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["OpKind", "ScheduleOp", "CompiledSchedule"]


class OpKind(enum.Enum):
    """Atomic operation categories tracked by the schedule."""

    GATE = "gate"
    ONE_QUBIT_GATE = "one_qubit_gate"
    SWAP = "swap"
    SPLIT = "split"
    MOVE = "move"
    JUNCTION_CROSS = "junction_cross"
    MERGE = "merge"
    REBALANCE = "rebalance"
    MEASUREMENT = "measurement"
    STALL = "stall"


#: Kinds that correspond to shuttling (movement) work.
SHUTTLE_KINDS = {
    OpKind.SPLIT,
    OpKind.MOVE,
    OpKind.JUNCTION_CROSS,
    OpKind.MERGE,
    OpKind.REBALANCE,
}


@dataclass(frozen=True)
class ScheduleOp:
    """One timed operation in a compiled schedule.

    ``multiplicity`` records how many identical physical operations the
    entry stands for (Cyclone's lockstep stages are emitted once but
    happen simultaneously in every trap); it weights the serialized
    "unrolled" metrics without affecting the makespan.
    """

    kind: OpKind
    start_us: float
    duration_us: float
    qubits: tuple[int, ...] = ()
    location: str = ""
    note: str = ""
    multiplicity: int = 1

    @property
    def end_us(self) -> float:
        return self.start_us + self.duration_us

    @property
    def unrolled_duration_us(self) -> float:
        return self.duration_us * self.multiplicity


@dataclass
class CompiledSchedule:
    """The timed operation list produced by a compiler, plus metadata."""

    architecture: str
    code_name: str
    operations: list[ScheduleOp] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, kind: OpKind, start_us: float, duration_us: float,
            qubits: tuple[int, ...] = (), location: str = "",
            note: str = "", multiplicity: int = 1) -> ScheduleOp:
        op = ScheduleOp(kind, start_us, duration_us, qubits, location, note,
                        multiplicity)
        self.operations.append(op)
        return op

    # ------------------------------------------------------------------
    # Aggregate metrics
    # ------------------------------------------------------------------
    @property
    def execution_time_us(self) -> float:
        """Makespan: completion time of the last operation."""
        if "execution_time_us" in self.metadata:
            return float(self.metadata["execution_time_us"])
        if not self.operations:
            return 0.0
        return max(op.end_us for op in self.operations)

    @property
    def num_operations(self) -> int:
        return len(self.operations)

    def count(self, kind: OpKind) -> int:
        """Number of physical operations of a kind (multiplicity-weighted)."""
        return sum(op.multiplicity for op in self.operations if op.kind is kind)

    def total_duration(self, kind: OpKind | None = None) -> float:
        """Sum of operation durations (the fully serialized 'unrolled' time)."""
        if kind is None:
            return sum(op.unrolled_duration_us for op in self.operations)
        return sum(
            op.unrolled_duration_us for op in self.operations if op.kind is kind
        )

    def component_breakdown(self) -> dict[str, float]:
        """Unrolled (serialized) time per operation category.

        This is the component-wise breakdown plotted in Figure 20: the
        total time each category of operation would take if executed one
        after another with no parallelism.
        """
        breakdown: dict[str, float] = {}
        for op in self.operations:
            breakdown[op.kind.value] = (
                breakdown.get(op.kind.value, 0.0) + op.unrolled_duration_us
            )
        return breakdown

    @property
    def serialized_time_us(self) -> float:
        """Total unrolled time (sum of all operation durations)."""
        return self.total_duration()

    @property
    def parallelization_fraction(self) -> float:
        """Achieved parallelism: 1 - makespan / serialized time.

        0 means fully serial execution; values close to 1 mean most
        operations overlap (Figure 20's '% parallelization' uses the
        equivalent ratio of actual to serialized execution time).
        """
        serialized = self.serialized_time_us
        if serialized <= 0:
            return 0.0
        return max(0.0, 1.0 - self.execution_time_us / serialized)

    def gate_count(self) -> int:
        return self.count(OpKind.GATE)

    def shuttle_count(self) -> int:
        return sum(
            op.multiplicity for op in self.operations
            if op.kind in SHUTTLE_KINDS
        )

    def max_concurrency(self) -> int:
        """Largest number of simultaneously active operations.

        An operation ending exactly when another starts is not counted
        as overlapping with it.
        """
        if not self.operations:
            return 0
        events: list[tuple[float, int]] = []
        for op in self.operations:
            events.append((op.start_us, 1))
            events.append((op.end_us, -1))
        # Sorting (time, delta) processes ends (-1) before starts (+1) at
        # identical timestamps.
        events.sort()
        active = 0
        best = 0
        for _, delta in events:
            active += delta
            best = max(best, active)
        return best

    def summary(self) -> dict[str, float]:
        """A compact dictionary of headline metrics."""
        return {
            "architecture": self.architecture,
            "code": self.code_name,
            "execution_time_us": self.execution_time_us,
            "serialized_time_us": self.serialized_time_us,
            "parallelization_fraction": self.parallelization_fraction,
            "num_operations": float(self.num_operations),
            "gate_count": float(self.gate_count()),
            "shuttle_count": float(self.shuttle_count()),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledSchedule({self.architecture}, {self.code_name}, "
            f"{self.num_operations} ops, "
            f"{self.execution_time_us:.1f} us)"
        )
