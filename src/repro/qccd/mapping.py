"""Initial placement of data and ancilla qubits onto traps.

The baseline compiler of Murali et al. maps program qubits by greedily
clustering the interaction graph: qubits that interact often are packed
into the same trap (up to its capacity) so that as many gates as
possible run without shuttling.  The dynamic and Cyclone compilers use
simpler balanced placements because their schedules move ancillas
anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.codes.css import CSSCode
from repro.qccd.hardware import QCCDDevice

__all__ = [
    "QubitPlacement",
    "interaction_graph",
    "greedy_cluster_mapping",
    "round_robin_mapping",
    "balanced_data_partition",
]


@dataclass
class QubitPlacement:
    """Mapping between program qubits and traps.

    Program qubit indexing convention: data qubits are ``0..n-1`` and
    ancilla qubits ``n..n+m-1`` (ancilla ``n + s`` serves global
    stabilizer ``s``), matching the circuit builder.
    """

    qubit_to_trap: dict[int, str] = field(default_factory=dict)

    def trap_of(self, qubit: int) -> str:
        return self.qubit_to_trap[qubit]

    def occupancy(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for trap in self.qubit_to_trap.values():
            counts[trap] = counts.get(trap, 0) + 1
        return counts

    def apply_to_device(self, device: QCCDDevice,
                        enforce_capacity: bool = True) -> None:
        """Place every mapped ion into its trap on the device."""
        device.clear_ions()
        for qubit, trap in self.qubit_to_trap.items():
            device.place_ion(qubit, trap, enforce_capacity=enforce_capacity)

    def copy(self) -> "QubitPlacement":
        return QubitPlacement(dict(self.qubit_to_trap))


def interaction_graph(code: CSSCode) -> nx.Graph:
    """Weighted interaction graph over data + ancilla program qubits.

    Each stabilizer's ancilla interacts once with every data qubit in
    its support; data qubits sharing a stabilizer are linked with a
    smaller weight (they benefit from co-location but never interact
    directly).
    """
    graph = nx.Graph()
    n = code.num_qubits
    graph.add_nodes_from(range(n + code.num_stabilizers))
    for stabilizer, (_, support) in enumerate(code.stabilizer_supports()):
        ancilla = n + stabilizer
        for data in support:
            _bump_edge(graph, ancilla, data, 1.0)
        for position, a in enumerate(support):
            for b in support[position + 1:]:
                _bump_edge(graph, a, b, 0.25)
    return graph


def _bump_edge(graph: nx.Graph, a: int, b: int, weight: float) -> None:
    if graph.has_edge(a, b):
        graph[a][b]["weight"] += weight
    else:
        graph.add_edge(a, b, weight=weight)


def greedy_cluster_mapping(code: CSSCode, device: QCCDDevice) -> QubitPlacement:
    """Greedy cluster mapping (the baseline's placement policy).

    Repeatedly grows a cluster around the highest-degree unplaced qubit,
    preferring neighbours with the strongest interaction weight, until
    the current trap is full; traps are filled in device order.  Raises
    ``ValueError`` if the device lacks capacity for all qubits.
    """
    graph = interaction_graph(code)
    total_qubits = code.num_qubits + code.num_stabilizers
    traps = device.trap_ids()
    if device.total_capacity() < total_qubits:
        raise ValueError(
            f"device capacity {device.total_capacity()} cannot host "
            f"{total_qubits} qubits"
        )

    unplaced = set(range(total_qubits))
    placement: dict[int, str] = {}
    trap_iter = iter(traps)
    current_trap = next(trap_iter)
    current_free = device.trap_capacity(current_trap)

    def next_trap() -> tuple[str, int]:
        trap = next(trap_iter)
        return trap, device.trap_capacity(trap)

    weighted_degree = {
        q: sum(data["weight"] for _, _, data in graph.edges(q, data=True))
        for q in unplaced
    }
    while unplaced:
        # Seed: highest weighted degree among unplaced qubits.
        seed = max(unplaced, key=weighted_degree.__getitem__)
        cluster = [seed]
        frontier = {seed}
        unplaced.discard(seed)
        while len(cluster) < current_free:
            candidates: dict[int, float] = {}
            for member in frontier:
                for neighbor in graph.neighbors(member):
                    if neighbor in unplaced:
                        candidates[neighbor] = candidates.get(neighbor, 0.0) + \
                            graph[member][neighbor]["weight"]
            if not candidates:
                break
            best = max(candidates, key=candidates.get)
            cluster.append(best)
            frontier.add(best)
            unplaced.discard(best)
        for qubit in cluster:
            placement[qubit] = current_trap
        current_free -= len(cluster)
        if current_free <= 0 and unplaced:
            current_trap, current_free = next_trap()

    return QubitPlacement(placement)


def round_robin_mapping(code: CSSCode, device: QCCDDevice,
                        include_ancilla: bool = True) -> QubitPlacement:
    """Simple balanced placement: qubits dealt round-robin across traps."""
    traps = device.trap_ids()
    total = code.num_qubits + (code.num_stabilizers if include_ancilla else 0)
    if device.total_capacity() < total:
        raise ValueError("device capacity too small for round robin mapping")
    placement: dict[int, str] = {}
    free = {trap: device.trap_capacity(trap) for trap in traps}
    trap_index = 0
    for qubit in range(total):
        placed = False
        for _ in range(len(traps)):
            trap = traps[trap_index % len(traps)]
            trap_index += 1
            if free[trap] > 0:
                placement[qubit] = trap
                free[trap] -= 1
                placed = True
                break
        if not placed:
            raise ValueError("ran out of trap capacity during mapping")
    return QubitPlacement(placement)


def balanced_data_partition(num_data_qubits: int,
                            num_traps: int) -> list[list[int]]:
    """Split data qubits into ``num_traps`` contiguous, balanced groups.

    Used by the Cyclone compiler: if ``num_traps`` divides the data
    count every trap holds the same number of data qubits; otherwise the
    first few traps hold one extra.
    """
    if num_traps < 1:
        raise ValueError("need at least one trap")
    base = num_data_qubits // num_traps
    remainder = num_data_qubits % num_traps
    partition: list[list[int]] = []
    cursor = 0
    for trap_index in range(num_traps):
        size = base + (1 if trap_index < remainder else 0)
        partition.append(list(range(cursor, cursor + size)))
        cursor += size
    return partition
