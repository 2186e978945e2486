"""QCCD device model: traps, junctions and shuttle segments.

A device is an undirected graph whose nodes are either *traps* (hold up
to ``capacity`` ions, degree at most 2, can run one gate at a time) or
*junctions* (hold no ions, degree up to 4, allow path changes at a
degree-dependent crossing cost).  Edges are shuttle segments traversed
at the ``move`` cost.  Ions live in traps; the device tracks occupancy
so compilers can detect capacity violations and trigger rebalances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

__all__ = ["Trap", "Junction", "QCCDDevice"]


@dataclass(frozen=True)
class Trap:
    """A linear trapping zone holding an ion chain."""

    node_id: str
    capacity: int
    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("trap capacity must be at least 1")


@dataclass(frozen=True)
class Junction:
    """A switching element; ions transit but do not idle here.

    ``l_shaped`` marks the simple two-way corner junctions used by the
    alternate grid and by Cyclone's ring: regardless of how many
    segments meet the node in the abstract graph, an ion passes through
    on a fixed L-shaped path and pays only the degree-2 crossing cost.
    """

    node_id: str
    position: tuple[float, float] = (0.0, 0.0)
    l_shaped: bool = False


@dataclass
class QCCDDevice:
    """A QCCD machine: the trap/junction graph plus ion occupancy.

    The structure is frozen at construction: ``graph`` must not be
    mutated once the device exists.  ``__post_init__`` reads it once
    into tables (node kinds, trap capacities, junction crossing
    degrees, each node's neighbours in ``graph.adj`` order), so every
    structure query is a dict lookup, and routing searches that
    adjacency instead of going through networkx.  Hop distances
    between traps are computed on first use and kept for the device's
    lifetime.  Only the ion occupancy changes after construction.

    Attributes
    ----------
    name:
        Topology name (``"baseline_grid"``, ``"ring"``, ...).
    graph:
        ``networkx.Graph`` whose nodes carry the ``element`` attribute
        (a :class:`Trap` or :class:`Junction`).
    dac_count:
        Number of independent DAC control channels the topology needs
        (the paper's control-overhead metric: one per trap for a grid,
        a constant for Cyclone thanks to broadcast wiring).
    """

    name: str
    graph: nx.Graph
    dac_count: int
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        elements = {node: data["element"]
                    for node, data in self.graph.nodes(data=True)}
        self._is_trap = {node: isinstance(element, Trap)
                         for node, element in elements.items()}
        self._is_junction = {node: isinstance(element, Junction)
                             for node, element in elements.items()}
        self._capacity = {node: element.capacity
                          for node, element in elements.items()
                          if isinstance(element, Trap)}
        self._crossing_degree = {
            node: 2 if element.l_shaped else self.graph.degree[node]
            for node, element in elements.items()
            if isinstance(element, Junction)
        }
        self._adjacency = {node: tuple(neighbours)
                           for node, neighbours in self.graph.adj.items()}
        self._traps_by_distance: dict[str, tuple[str, ...]] = {}
        self._trap_distances: dict[str, dict[str, int]] = {}
        self.clear_ions()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_trap(self, node_id: str) -> bool:
        return self._is_trap[node_id]

    def is_junction(self, node_id: str) -> bool:
        return self._is_junction[node_id]

    def trap_ids(self) -> list[str]:
        return list(self._capacity)

    def junction_ids(self) -> list[str]:
        return list(self._crossing_degree)

    @property
    def num_traps(self) -> int:
        return len(self._capacity)

    @property
    def num_junctions(self) -> int:
        return len(self._crossing_degree)

    @property
    def num_segments(self) -> int:
        return self.graph.number_of_edges()

    def junction_degree(self, node_id: str) -> int:
        if not self.is_junction(node_id):
            raise ValueError(f"{node_id} is not a junction")
        return self.graph.degree[node_id]

    def junction_crossing_degree(self, node_id: str) -> int:
        """Degree used for pricing a crossing (2 for L-shaped junctions)."""
        return self._lookup(self._crossing_degree, node_id, "junction")

    def trap_capacity(self, node_id: str) -> int:
        return self._lookup(self._capacity, node_id, "trap")

    def _lookup(self, table: dict[str, int], node_id: str, kind: str) -> int:
        """``table[node_id]``; ``KeyError`` for a node not on the device,
        ``ValueError`` for a node that is not a ``kind``."""
        value = table.get(node_id)
        if value is None:
            if node_id not in self._is_trap:
                raise KeyError(node_id)
            raise ValueError(f"{node_id} is not a {kind}")
        return value

    def total_capacity(self) -> int:
        return sum(self._capacity.values())

    def validate_degrees(self) -> bool:
        """Traps may connect to at most two shuttling paths; junctions to four."""
        for node in self.graph.nodes:
            degree = self.graph.degree[node]
            if self.is_trap(node) and degree > 2:
                return False
            if self.is_junction(node) and degree > 4:
                return False
        return True

    # ------------------------------------------------------------------
    # Ion occupancy
    # ------------------------------------------------------------------
    def place_ion(self, ion: int, trap_id: str, enforce_capacity: bool = True) -> None:
        """Place (or move) an ion into a trap."""
        if not self.is_trap(trap_id):
            raise ValueError(f"{trap_id} is not a trap")
        if enforce_capacity and len(self._occupancy[trap_id]) >= \
                self.trap_capacity(trap_id):
            raise ValueError(f"trap {trap_id} is at capacity")
        previous = self._ion_location.get(ion)
        if previous is not None:
            self._occupancy[previous].remove(ion)
        self._occupancy[trap_id].append(ion)
        self._ion_location[ion] = trap_id

    def ion_location(self, ion: int) -> str:
        return self._ion_location[ion]

    def ions_in(self, trap_id: str) -> list[int]:
        return list(self._occupancy[trap_id])

    def occupancy(self, trap_id: str) -> int:
        return len(self._occupancy[trap_id])

    def chain_length(self, trap_id: str) -> int:
        """Current ion-chain length in a trap (minimum 2 for gate timing)."""
        return max(len(self._occupancy[trap_id]), 2)

    def free_space(self, trap_id: str) -> int:
        return self.trap_capacity(trap_id) - len(self._occupancy[trap_id])

    def clear_ions(self) -> None:
        self._occupancy: dict[str, list[int]] = {
            node: [] for node in self._capacity
        }
        self._ion_location: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def shortest_path(self, source: str, target: str) -> list[str]:
        """Shortest node path between two traps (inclusive of endpoints).

        networkx's bidirectional breadth-first search
        (``nx.shortest_path`` without weights) run on the frozen
        adjacency: the same expansion order, so the same path wherever
        several are equally short.
        """
        adjacency = self._adjacency
        if source not in adjacency:
            raise nx.NodeNotFound(f"Source {source} is not in G")
        if target not in adjacency:
            raise nx.NodeNotFound(f"Target {target} is not in G")
        if source == target:
            return [source]
        pred: dict[str, str | None] = {source: None}
        succ: dict[str, str | None] = {target: None}
        forward, reverse = [source], [target]
        meet = None
        while forward and reverse and meet is None:
            # Grow the smaller fringe by one level (forward on a tie).
            if len(forward) <= len(reverse):
                forward, meet = _expand(adjacency, forward, pred, succ)
            else:
                reverse, meet = _expand(adjacency, reverse, succ, pred)
        if meet is None:
            raise nx.NetworkXNoPath(
                f"No path between {source} and {target}.")
        path = []
        node = meet
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[meet]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def trap_distances(self, node_id: str) -> dict[str, int]:
        """Hop distance from ``node_id`` to every trap reachable from it
        (``node_id`` itself at 0 if it is a trap).

        Cached for the device's lifetime and shared by every caller, so
        callers must not mutate it.
        """
        distances = self._trap_distances.get(node_id)
        if distances is None:
            distances = {
                node: hops for node, hops
                in _hop_distances(self._adjacency, node_id).items()
                if self._is_trap[node]
            }
            self._trap_distances[node_id] = distances
        return distances

    def traps_by_distance(self, node_id: str) -> tuple[str, ...]:
        """Every other trap reachable from ``node_id``, nearest first,
        equidistant traps by name: the order of ``min`` over
        ``(distance, trap)`` pairs, cached per device."""
        order = self._traps_by_distance.get(node_id)
        if order is None:
            distances = self.trap_distances(node_id)
            order = tuple(sorted(
                (trap for trap in distances if trap != node_id),
                key=lambda trap: (distances[trap], trap),
            ))
            self._traps_by_distance[node_id] = order
        return order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QCCDDevice({self.name}, traps={self.num_traps}, "
            f"junctions={self.num_junctions}, segments={self.num_segments})"
        )


def _expand(adjacency: dict[str, tuple[str, ...]], level: list[str],
            parents: dict, others: dict) -> tuple[list[str], str | None]:
    """Grow one side of a bidirectional search by one level.

    Records each newly reached node's parent in ``parents`` and returns
    the next fringe plus the first node already reached from the other
    side (``None`` while the two sides have not met).
    """
    fringe: list[str] = []
    for node in level:
        for neighbour in adjacency[node]:
            if neighbour not in parents:
                fringe.append(neighbour)
                parents[neighbour] = node
            if neighbour in others:
                return fringe, neighbour
    return fringe, None


def _hop_distances(adjacency: dict[str, tuple[str, ...]],
                   source: str) -> dict[str, int]:
    """Breadth-first hop distance to every node reachable from
    ``source``."""
    distances = {source: 0}
    level = [source]
    while level:
        following = []
        for node in level:
            for neighbour in adjacency[node]:
                if neighbour not in distances:
                    distances[neighbour] = distances[node] + 1
                    following.append(neighbour)
        level = following
    return distances
