"""Tests for the QCCD timing model, device graph and topology builders."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import code_by_name, surface_code
from repro.qccd import (
    OperationTimes,
    SwapKind,
    baseline_grid_device,
    alternate_grid_device,
    mesh_junction_device,
    opt_device,
    pseudo_opt_device,
    ring_device,
)
from repro.qccd.compilers.base import Compiler
from repro.qccd.hardware import Junction, QCCDDevice, Trap


class TestOperationTimes:
    def test_paper_defaults(self, default_times):
        assert default_times.split == 80.0
        assert default_times.merge == 80.0
        assert default_times.move == 10.0
        assert default_times.junction_crossing(2) == 10.0
        assert default_times.junction_crossing(3) == 100.0
        assert default_times.junction_crossing(4) == 120.0

    def test_gate_time_constant_up_to_threshold(self, default_times):
        assert default_times.two_qubit_gate(2) == \
            default_times.two_qubit_gate(12)

    def test_gate_time_grows_quadratically_beyond_threshold(self, default_times):
        base = default_times.two_qubit_gate(12)
        assert default_times.two_qubit_gate(24) == pytest.approx(base * 4)

    def test_gate_swap_is_three_cx(self, default_times):
        assert default_times.gate_swap(4) == \
            pytest.approx(3 * default_times.two_qubit_gate(4))

    def test_ion_swap_formula(self, default_times):
        distance = 3
        expected = 80.0 * distance + 80.0 * (distance - 1) + 42.0
        assert default_times.ion_swap(distance) == pytest.approx(expected)

    def test_swap_dispatch_by_kind(self):
        gate = OperationTimes(swap_kind=SwapKind.GATE_SWAP)
        ion = OperationTimes(swap_kind=SwapKind.ION_SWAP)
        assert gate.swap(chain_length=4) == gate.gate_swap(4)
        assert ion.swap(interaction_distance=2) == ion.ion_swap(2)

    def test_uniform_improvement_scales_everything(self):
        faster = OperationTimes(improvement_factor=0.5)
        assert faster.split == 40.0
        assert faster.two_qubit_gate(2) == 50.0
        assert faster.junction_crossing(4) == 60.0

    def test_junction_improvement_only_touches_junctions(self):
        faster = OperationTimes(junction_improvement_factor=0.7)
        assert faster.junction_crossing(4) == pytest.approx(36.0)
        assert faster.split == 80.0

    def test_combined_shuttle(self, default_times):
        assert default_times.combined_shuttle == pytest.approx(80 + 10 + 10 + 80)

    def test_invalid_improvement_rejected(self):
        with pytest.raises(ValueError):
            OperationTimes(improvement_factor=1.0)
        with pytest.raises(ValueError):
            OperationTimes(junction_improvement_factor=-0.1)

    @given(st.floats(0.0, 0.95), st.integers(2, 40))
    @settings(max_examples=50, deadline=None)
    def test_improvement_never_increases_times(self, factor, chain):
        slow = OperationTimes()
        fast = OperationTimes(improvement_factor=factor)
        assert fast.two_qubit_gate(chain) <= slow.two_qubit_gate(chain)
        assert fast.combined_shuttle <= slow.combined_shuttle


class TestDeviceModel:
    def test_baseline_grid_counts(self):
        device = baseline_grid_device(num_data_qubits=9, trap_capacity=3)
        assert device.num_traps == 9
        assert device.num_junctions == 3 * 4
        assert device.validate_degrees()
        assert device.dac_count == 9

    def test_alternate_grid_l_shaped_crossings(self):
        device = alternate_grid_device(num_data_qubits=9, trap_capacity=3)
        for junction in device.junction_ids():
            assert device.junction_crossing_degree(junction) == 2

    def test_ring_device_structure(self):
        device = ring_device(num_traps=8, trap_capacity=4)
        assert device.num_traps == 8
        assert device.num_junctions == 4
        assert device.validate_degrees()
        assert device.dac_count == 1

    def test_ring_single_trap(self):
        device = ring_device(num_traps=1, trap_capacity=10)
        assert device.num_traps == 1
        assert device.num_segments == 0

    def test_mesh_junction_quadratic_junction_count(self):
        device = mesh_junction_device(num_data_qubits=16, trap_capacity=2)
        side = device.metadata["mesh_side"]
        assert device.num_junctions == side * side
        assert device.num_traps == 16

    def test_opt_device_is_fully_connected(self):
        code = surface_code(3)
        device = opt_device(code)
        assert device.num_traps == 9
        assert device.num_segments == 9 * 8 // 2
        assert not device.validate_degrees()  # intentionally unrealizable

    def test_pseudo_opt_prunes_unused_edges(self):
        code = surface_code(3)
        full = opt_device(code)
        pruned = pseudo_opt_device(code)
        assert pruned.num_segments < full.num_segments

    def test_ion_placement_and_capacity(self):
        device = ring_device(num_traps=3, trap_capacity=2)
        traps = device.trap_ids()
        device.place_ion(0, traps[0])
        device.place_ion(1, traps[0])
        with pytest.raises(ValueError):
            device.place_ion(2, traps[0])
        device.place_ion(2, traps[1])
        assert device.occupancy(traps[0]) == 2
        assert device.free_space(traps[1]) == 1
        assert device.ion_location(2) == traps[1]

    def test_moving_an_ion_updates_occupancy(self):
        device = ring_device(num_traps=2, trap_capacity=3)
        first, second = device.trap_ids()
        device.place_ion(7, first)
        device.place_ion(7, second)
        assert device.occupancy(first) == 0
        assert device.occupancy(second) == 1

    def test_shortest_path_goes_through_junctions(self):
        device = baseline_grid_device(num_data_qubits=9, trap_capacity=3)
        path = device.shortest_path("T0,0", "T2,2")
        assert path[0] == "T0,0"
        assert path[-1] == "T2,2"
        assert any(device.is_junction(node) for node in path[1:-1])

    def test_chain_length_minimum_two(self):
        device = ring_device(num_traps=2, trap_capacity=5)
        trap = device.trap_ids()[0]
        assert device.chain_length(trap) == 2
        device.place_ion(0, trap)
        device.place_ion(1, trap)
        device.place_ion(2, trap)
        assert device.chain_length(trap) == 3

    def test_clear_ions(self):
        device = ring_device(num_traps=2, trap_capacity=5)
        trap = device.trap_ids()[0]
        device.place_ion(0, trap)
        device.clear_ions()
        assert device.occupancy(trap) == 0

    def test_invalid_trap_queries_raise(self):
        device = baseline_grid_device(num_data_qubits=4, trap_capacity=2)
        junction = device.junction_ids()[0]
        with pytest.raises(ValueError):
            device.trap_capacity(junction)
        trap = device.trap_ids()[0]
        with pytest.raises(ValueError):
            device.junction_degree(trap)

    def test_total_capacity_scales_with_device(self):
        small = baseline_grid_device(num_data_qubits=4, trap_capacity=2)
        large = baseline_grid_device(num_data_qubits=16, trap_capacity=2)
        assert large.total_capacity() > small.total_capacity()


class TestTopologySizing:
    def test_grid_side_length_follows_sqrt_n(self, hgp_225):
        device = baseline_grid_device(hgp_225.num_qubits, trap_capacity=5)
        assert device.metadata["side_length"] == 15
        assert device.num_traps == 225

    def test_grid_capacity_fits_code(self, hgp_225):
        device = baseline_grid_device(hgp_225.num_qubits, trap_capacity=5)
        assert device.total_capacity() >= \
            hgp_225.num_qubits + hgp_225.num_stabilizers

    def test_forced_side_length(self):
        device = baseline_grid_device(9, trap_capacity=3, side_length=5)
        assert device.num_traps == 25

    def test_mesh_traps_attach_to_perimeter(self):
        code = code_by_name("surface-d3")
        device = mesh_junction_device(code.num_qubits)
        for trap in device.trap_ids():
            neighbors = list(device.graph.neighbors(trap))
            assert len(neighbors) == 1
            assert device.is_junction(neighbors[0])


#: One small device from every topology builder, keyed for test ids.
DEVICES = {
    "baseline_grid": lambda: baseline_grid_device(16, trap_capacity=3),
    "alternate_grid": lambda: alternate_grid_device(25, trap_capacity=2),
    "ring": lambda: ring_device(num_traps=11, trap_capacity=3),
    "ring_two_traps": lambda: ring_device(num_traps=2, trap_capacity=3),
    "mesh_junction": lambda: mesh_junction_device(18, trap_capacity=2),
    "opt": lambda: opt_device(surface_code(3)),
    "pseudo_opt": lambda: pseudo_opt_device(surface_code(3)),
}


def _element(device, node):
    return device.graph.nodes[node]["element"]


def _reference_nearest_with_space(device, trap):
    """Reference: ``min((distance, node))`` over every other trap with
    space, with distances from networkx's breadth-first search."""
    lengths = nx.single_source_shortest_path_length(device.graph, trap)
    candidates = [
        (distance, node) for node, distance in lengths.items()
        if node != trap and isinstance(_element(device, node), Trap)
        and _element(device, node).capacity - device.occupancy(node) > 0
    ]
    return min(candidates)[1] if candidates else None


@pytest.mark.parametrize("builder", DEVICES.values(), ids=list(DEVICES))
class TestFrozenStructureMatchesNetworkx:
    """The tables a device freezes at construction answer exactly what
    networkx and the node ``element`` attributes answer."""

    def test_structure_tables(self, builder):
        device = builder()
        nodes = list(device.graph.nodes)
        traps = [n for n in nodes if isinstance(_element(device, n), Trap)]
        junctions = [n for n in nodes
                     if isinstance(_element(device, n), Junction)]
        assert device.trap_ids() == traps
        assert device.junction_ids() == junctions
        assert device.num_traps == len(traps)
        assert device.num_junctions == len(junctions)
        assert device.total_capacity() == sum(
            _element(device, t).capacity for t in traps)
        for node in nodes:
            assert device.is_trap(node) == (node in traps)
            assert device.is_junction(node) == (node in junctions)
        for trap in traps:
            capacity = _element(device, trap).capacity
            assert device.trap_capacity(trap) == capacity
            assert device.free_space(trap) == device.trap_capacity(trap)
            with pytest.raises(ValueError):
                device.junction_crossing_degree(trap)
        for junction in junctions:
            element = _element(device, junction)
            expected = 2 if element.l_shaped else device.graph.degree[junction]
            assert device.junction_crossing_degree(junction) == expected
            with pytest.raises(ValueError):
                device.trap_capacity(junction)

    def test_unknown_nodes_raise_key_error(self, builder):
        device = builder()
        for query in (device.is_trap, device.is_junction,
                      device.trap_capacity, device.free_space,
                      device.junction_crossing_degree,
                      device.junction_degree):
            with pytest.raises(KeyError):
                query("no-such-node")

    def test_shortest_paths_equal_networkx(self, builder):
        device = builder()
        nodes = list(device.graph.nodes)
        for source in nodes:
            for target in nodes:
                assert device.shortest_path(source, target) == \
                    nx.shortest_path(device.graph, source, target)

    def test_trap_distances_equal_networkx(self, builder):
        device = builder()
        for trap in device.trap_ids():
            lengths = nx.single_source_shortest_path_length(device.graph,
                                                            trap)
            assert device.trap_distances(trap) == {
                node: hops for node, hops in lengths.items()
                if isinstance(_element(device, node), Trap)
            }

    @pytest.mark.parametrize("seed", range(6))
    def test_nearest_trap_with_space_equals_networkx_scan(self, builder,
                                                          seed):
        device = builder()
        rng = random.Random(seed)
        ion = 0
        for trap in device.trap_ids():
            capacity = device.trap_capacity(trap)
            # Mostly full traps, so the search has to look past the
            # nearest ones; some over-full, as rebalances leave them.
            fill = capacity + rng.choice([-1, 0, 0, 0, 1])
            if rng.random() < 0.2:
                fill = rng.randrange(capacity + 1)
            for _ in range(max(fill, 0)):
                device.place_ion(ion, trap, enforce_capacity=False)
                ion += 1
        for trap in device.trap_ids():
            assert Compiler._nearest_trap_with_space(device, trap) == \
                _reference_nearest_with_space(device, trap)


class TestFrozenRoutingEdgeCases:
    def test_no_path_raises_like_networkx(self):
        graph = nx.Graph()
        graph.add_node("A", element=Trap("A", 2))
        graph.add_node("B", element=Trap("B", 2))
        device = QCCDDevice(name="split", graph=graph, dac_count=2)
        with pytest.raises(nx.NetworkXNoPath):
            nx.shortest_path(graph, "A", "B")
        with pytest.raises(nx.NetworkXNoPath):
            device.shortest_path("A", "B")
        assert device.trap_distances("A") == {"A": 0}
        device.place_ion(0, "A")
        device.place_ion(1, "A")
        assert Compiler._nearest_trap_with_space(device, "A") is None

    def test_unknown_endpoints_raise_node_not_found(self):
        device = ring_device(num_traps=4, trap_capacity=2)
        with pytest.raises(nx.NodeNotFound):
            device.shortest_path("T0", "nowhere")
        with pytest.raises(nx.NodeNotFound):
            device.shortest_path("nowhere", "T0")

    def test_single_trap_ring_has_no_other_trap(self):
        device = ring_device(num_traps=1, trap_capacity=2)
        assert device.traps_by_distance("T0") == ()
        assert Compiler._nearest_trap_with_space(device, "T0") is None
        assert device.shortest_path("T0", "T0") == ["T0"]

