"""Stabilizer measurement schedules (timeslice generation).

The paper's "dynamic" software policy abandons the gate DAG and instead
treats the syndrome extraction circuit as a sequence of *timeslices*:
sets of data-ancilla CNOTs that can all run concurrently because no
qubit appears twice in one slice.  Two policies are described
(Section III-A):

* **Non-edge-colorable CSS schedule** — measure all X stabilizers in
  parallel, then all Z stabilizers.  Within each basis the CNOTs are
  arranged by a proper edge colouring of the bipartite Tanner graph
  (ancillas vs. data qubits), so the depth is the maximum degree of that
  graph — for the regular codes in the paper this equals the maximum
  stabilizer weight, giving the ``w_max(X) + w_max(Z)`` bound.
* **Edge-colorable schedule** — for hypergraph product codes, X and Z
  measurements can be interleaved; we realise this by edge colouring the
  *union* Tanner graph, which yields more timeslices per rotation
  (8 - 12 for the paper's HGP codes) but measures both bases in one pass.

A fully serial schedule (one CNOT per slice) is provided as the
denominator for Figure 3's speedup analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field


from repro.codes.css import CSSCode

__all__ = [
    "ScheduledGate",
    "StabilizerSchedule",
    "bipartite_edge_coloring",
    "serial_schedule",
    "x_then_z_schedule",
    "interleaved_schedule",
    "schedule_for",
    "parallelism_bound",
]


@dataclass(frozen=True)
class ScheduledGate:
    """One data-ancilla CNOT in a syndrome extraction schedule.

    ``stabilizer`` is the global stabilizer index (X stabilizers first,
    then Z), ``basis`` is ``"X"`` or ``"Z"``, ``ancilla`` is the ancilla
    qubit index used for that stabilizer (by convention equal to the
    global stabilizer index at the schedule level — hardware compilers
    may remap it), and ``data`` is the data qubit index.
    """

    stabilizer: int
    basis: str
    ancilla: int
    data: int


@dataclass
class StabilizerSchedule:
    """A syndrome-extraction schedule as an ordered list of timeslices."""

    code: CSSCode
    timeslices: list[list[ScheduledGate]]
    policy: str
    metadata: dict = field(default_factory=dict)

    @property
    def depth(self) -> int:
        """Number of timeslices (gate layers)."""
        return len(self.timeslices)

    @property
    def total_gates(self) -> int:
        return sum(len(slice_) for slice_ in self.timeslices)

    @property
    def max_parallelism(self) -> int:
        """Largest number of concurrent CNOTs in any timeslice."""
        if not self.timeslices:
            return 0
        return max(len(slice_) for slice_ in self.timeslices)

    def validate(self) -> bool:
        """Check schedule well-formedness.

        Every CNOT of the code appears exactly once, and within a single
        timeslice no data qubit or ancilla is used twice.
        """
        seen: set[tuple[int, int]] = set()
        for slice_ in self.timeslices:
            data_used: set[int] = set()
            ancilla_used: set[int] = set()
            for gate in slice_:
                if gate.data in data_used or gate.ancilla in ancilla_used:
                    return False
                data_used.add(gate.data)
                ancilla_used.add(gate.ancilla)
                key = (gate.stabilizer, gate.data)
                if key in seen:
                    return False
                seen.add(key)
        expected = set()
        for x_idx in range(self.code.num_x_stabilizers):
            for data in self.code.x_stabilizer_support(x_idx):
                expected.add((x_idx, data))
        offset = self.code.num_x_stabilizers
        for z_idx in range(self.code.num_z_stabilizers):
            for data in self.code.z_stabilizer_support(z_idx):
                expected.add((offset + z_idx, data))
        return seen == expected


def _all_gates(code: CSSCode) -> list[ScheduledGate]:
    """Every CNOT of a syndrome extraction round, X stabilizers first."""
    gates: list[ScheduledGate] = []
    for x_idx in range(code.num_x_stabilizers):
        for data in code.x_stabilizer_support(x_idx):
            gates.append(ScheduledGate(x_idx, "X", x_idx, data))
    offset = code.num_x_stabilizers
    for z_idx in range(code.num_z_stabilizers):
        for data in code.z_stabilizer_support(z_idx):
            gates.append(
                ScheduledGate(offset + z_idx, "Z", offset + z_idx, data)
            )
    return gates


def bipartite_edge_coloring(edges: list[tuple[int, int]]) -> list[int]:
    """Proper edge colouring of a bipartite multigraph with Delta colours.

    ``edges`` is a list of ``(left, right)`` node pairs.  Returns a
    colour index (0-based) per edge such that no two edges sharing a
    node get the same colour, using at most Delta colours (König's
    theorem), via the classic alternating-path (fan-free Vizing)
    algorithm for bipartite graphs.
    """
    if not edges:
        return []
    left_nodes = {e[0] for e in edges}
    right_nodes = {e[1] for e in edges}
    degree: dict[tuple[str, int], int] = {}
    for left, right in edges:
        degree[("L", left)] = degree.get(("L", left), 0) + 1
        degree[("R", right)] = degree.get(("R", right), 0) + 1
    max_degree = max(degree.values())

    # colour_at[side][node][colour] = edge index using that colour at node
    left_colour: dict[int, dict[int, int]] = {node: {} for node in left_nodes}
    right_colour: dict[int, dict[int, int]] = {node: {} for node in right_nodes}
    edge_colour: list[int] = [-1] * len(edges)

    def free_colour(table: dict[int, int]) -> int:
        for colour in range(max_degree):
            if colour not in table:
                return colour
        raise RuntimeError("no free colour found; edge colouring bug")

    for edge_idx, (left, right) in enumerate(edges):
        alpha = free_colour(left_colour[left])
        beta = free_colour(right_colour[right])
        if alpha == beta:
            edge_colour[edge_idx] = alpha
            left_colour[left][alpha] = edge_idx
            right_colour[right][alpha] = edge_idx
            continue
        # Walk the alternating alpha/beta path starting from `right`.
        # Since alpha is free at `left`, the path cannot return to `left`,
        # so flipping colours along it frees alpha at `right`.
        path_edges: list[int] = []
        side = "R"
        node = right
        want = alpha
        while True:
            table = right_colour[node] if side == "R" else left_colour[node]
            if want not in table:
                break
            next_edge = table[want]
            path_edges.append(next_edge)
            nxt_left, nxt_right = edges[next_edge]
            if side == "R":
                node, side = nxt_left, "L"
            else:
                node, side = nxt_right, "R"
            want = beta if want == alpha else alpha
        # Flip alpha <-> beta along the path.  Remove all old entries
        # first, then insert the new ones, so that edges sharing a node
        # along the path do not clobber each other's table entries.
        new_colours: list[int] = []
        for path_edge in path_edges:
            old = edge_colour[path_edge]
            new_colours.append(beta if old == alpha else alpha)
            e_left, e_right = edges[path_edge]
            left_colour[e_left].pop(old, None)
            right_colour[e_right].pop(old, None)
        for path_edge, new in zip(path_edges, new_colours):
            edge_colour[path_edge] = new
            e_left, e_right = edges[path_edge]
            left_colour[e_left][new] = path_edge
            right_colour[e_right][new] = path_edge
        edge_colour[edge_idx] = alpha
        left_colour[left][alpha] = edge_idx
        right_colour[right][alpha] = edge_idx

    return edge_colour


def _gates_to_timeslices(gates: list[ScheduledGate],
                         colours: list[int]) -> list[list[ScheduledGate]]:
    num_slices = max(colours) + 1 if colours else 0
    slices: list[list[ScheduledGate]] = [[] for _ in range(num_slices)]
    for gate, colour in zip(gates, colours):
        slices[colour].append(gate)
    return [slice_ for slice_ in slices if slice_]


def serial_schedule(code: CSSCode) -> StabilizerSchedule:
    """Fully serial schedule: one CNOT per timeslice."""
    gates = _all_gates(code)
    return StabilizerSchedule(
        code=code,
        timeslices=[[gate] for gate in gates],
        policy="serial",
    )


def x_then_z_schedule(code: CSSCode) -> StabilizerSchedule:
    """Non-edge-colorable CSS schedule: all X stabilizers, then all Z.

    Within each basis the CNOT layers come from a proper edge colouring
    of that basis' Tanner graph, so each data qubit and each ancilla is
    used at most once per timeslice.
    """
    gates = _all_gates(code)
    x_gates = [g for g in gates if g.basis == "X"]
    z_gates = [g for g in gates if g.basis == "Z"]
    x_colours = bipartite_edge_coloring([(g.ancilla, g.data) for g in x_gates])
    z_colours = bipartite_edge_coloring([(g.ancilla, g.data) for g in z_gates])
    slices = _gates_to_timeslices(x_gates, x_colours)
    slices += _gates_to_timeslices(z_gates, z_colours)
    return StabilizerSchedule(
        code=code,
        timeslices=slices,
        policy="x_then_z",
        metadata={
            "x_depth": max(x_colours) + 1 if x_colours else 0,
            "z_depth": max(z_colours) + 1 if z_colours else 0,
        },
    )


def interleaved_schedule(code: CSSCode) -> StabilizerSchedule:
    """Interleaved X/Z schedule for edge-colorable codes.

    Realised as an edge colouring of the union Tanner graph, which lets
    X and Z stabilizer measurements overlap in time.  Raises
    ``ValueError`` for codes not flagged edge colorable.
    """
    if not code.edge_colorable:
        raise ValueError(
            f"{code.name} is not edge colorable; use x_then_z_schedule"
        )
    gates = _all_gates(code)
    colours = bipartite_edge_coloring([(g.ancilla, g.data) for g in gates])
    return StabilizerSchedule(
        code=code,
        timeslices=_gates_to_timeslices(gates, colours),
        policy="interleaved",
    )


def schedule_for(code: CSSCode, policy: str = "auto") -> StabilizerSchedule:
    """Build a schedule by policy name.

    ``"auto"`` picks the non-edge-colorable X-then-Z schedule, which is
    the one Cyclone uses regardless of code family (Section IV); other
    accepted values are ``"serial"``, ``"x_then_z"`` and
    ``"interleaved"``.
    """
    if policy == "auto" or policy == "x_then_z":
        return x_then_z_schedule(code)
    if policy == "serial":
        return serial_schedule(code)
    if policy == "interleaved":
        return interleaved_schedule(code)
    raise ValueError(f"unknown schedule policy {policy!r}")


def parallelism_bound(code: CSSCode) -> dict[str, float]:
    """Maximal-parallelism statistics used in the Figure 3 analysis.

    Returns the serial depth (total CNOT count), the maximally parallel
    depth (X-then-Z timeslices, plus the interleaved depth when the code
    is edge colorable), and the resulting speedups.
    """
    serial_depth = len(_all_gates(code))
    parallel = x_then_z_schedule(code)
    result: dict[str, float] = {
        "serial_depth": float(serial_depth),
        "parallel_depth": float(parallel.depth),
        "speedup": serial_depth / parallel.depth if parallel.depth else 1.0,
    }
    if code.edge_colorable:
        interleaved = interleaved_schedule(code)
        result["interleaved_depth"] = float(interleaved.depth)
        result["interleaved_speedup"] = (
            serial_depth / interleaved.depth if interleaved.depth else 1.0
        )
    return result
