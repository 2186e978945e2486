"""Tests for stabilizer measurement schedules and edge colouring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import (
    bivariate_bicycle_code,
    interleaved_schedule,
    parallelism_bound,
    schedule_for,
    serial_schedule,
    surface_code,
    x_then_z_schedule,
)
from repro.codes.scheduling import bipartite_edge_coloring


class TestBipartiteEdgeColoring:
    def test_empty_graph(self):
        assert bipartite_edge_coloring([]) == []

    def test_single_edge(self):
        assert bipartite_edge_coloring([(0, 0)]) == [0]

    def test_star_uses_degree_colours(self):
        edges = [(0, r) for r in range(5)]
        colours = bipartite_edge_coloring(edges)
        assert sorted(colours) == list(range(5))

    def test_complete_bipartite_k33(self):
        edges = [(left, right) for left in range(3) for right in range(3)]
        colours = bipartite_edge_coloring(edges)
        assert max(colours) + 1 == 3
        self._assert_proper(edges, colours)

    @staticmethod
    def _assert_proper(edges, colours):
        seen = set()
        for (left, right), colour in zip(edges, colours):
            assert ("L", left, colour) not in seen
            assert ("R", right, colour) not in seen
            seen.add(("L", left, colour))
            seen.add(("R", right, colour))

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                    min_size=1, max_size=40, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_colouring_is_proper_and_uses_delta_colours(self, edges):
        colours = bipartite_edge_coloring(edges)
        self._assert_proper(edges, colours)
        degree: dict = {}
        for left, right in edges:
            degree[("L", left)] = degree.get(("L", left), 0) + 1
            degree[("R", right)] = degree.get(("R", right), 0) + 1
        assert max(colours) + 1 == max(degree.values())


class TestSchedules:
    def test_serial_schedule_depth_equals_total_gates(self, surface_code_d3):
        schedule = serial_schedule(surface_code_d3)
        assert schedule.depth == surface_code_d3.total_cnot_count
        assert schedule.validate()

    def test_x_then_z_schedule_valid(self, surface_code_d3):
        schedule = x_then_z_schedule(surface_code_d3)
        assert schedule.validate()
        assert schedule.total_gates == surface_code_d3.total_cnot_count

    def test_x_then_z_depth_bound(self, bb_72):
        schedule = x_then_z_schedule(bb_72)
        # Non-edge-colorable bound: w_max(X) + w_max(Z) when qubit degrees
        # per basis do not exceed the stabilizer weights (true for BB codes).
        assert schedule.depth == bb_72.max_x_weight + bb_72.max_z_weight
        assert schedule.validate()

    def test_interleaved_requires_edge_colorable(self, bb_72):
        with pytest.raises(ValueError):
            interleaved_schedule(bb_72)

    def test_interleaved_schedule_shorter_than_x_then_z(self, hgp_225):
        interleaved = interleaved_schedule(hgp_225)
        split = x_then_z_schedule(hgp_225)
        assert interleaved.validate()
        assert interleaved.depth <= split.depth

    def test_schedule_for_policies(self, surface_code_d3):
        assert schedule_for(surface_code_d3, "serial").policy == "serial"
        assert schedule_for(surface_code_d3, "auto").policy == "x_then_z"
        assert schedule_for(surface_code_d3, "interleaved").policy == \
            "interleaved"
        with pytest.raises(ValueError):
            schedule_for(surface_code_d3, "bogus")

    def test_metadata_records_per_basis_depths(self, surface_code_d3):
        schedule = x_then_z_schedule(surface_code_d3)
        assert schedule.metadata["x_depth"] == 4
        assert schedule.metadata["z_depth"] == 4

    def test_max_parallelism_counts_largest_slice(self, surface_code_d3):
        schedule = x_then_z_schedule(surface_code_d3)
        assert schedule.max_parallelism >= 2

    def test_gates_for_stabilizer(self, surface_code_d3):
        schedule = x_then_z_schedule(surface_code_d3)
        timeslices = [t for t, slice_ in enumerate(schedule.timeslices)
                      for gate in slice_ if gate.stabilizer == 0]
        assert len(timeslices) == \
            len(surface_code_d3.x_stabilizer_support(0))
        assert len(set(timeslices)) == len(timeslices)


class TestParallelismBound:
    def test_speedup_greater_than_one(self, bb_72):
        bound = parallelism_bound(bb_72)
        assert bound["speedup"] > 10

    def test_speedup_grows_with_code_size(self):
        small = parallelism_bound(bivariate_bicycle_code("[[72,12,6]]"))
        large = parallelism_bound(bivariate_bicycle_code("[[144,12,12]]"))
        assert large["speedup"] > small["speedup"]

    def test_edge_colorable_codes_report_interleaved_numbers(self, hgp_225):
        bound = parallelism_bound(hgp_225)
        assert "interleaved_speedup" in bound
        assert bound["interleaved_speedup"] >= bound["speedup"]

    def test_surface_code_speedup_matches_counts(self):
        code = surface_code(5)
        bound = parallelism_bound(code)
        assert bound["serial_depth"] == code.total_cnot_count
        assert bound["parallel_depth"] == 8
