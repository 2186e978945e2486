"""Tests for the CSSCode representation (parameters, logicals, syndromes)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import CSSCode, repetition_quantum_code, surface_code


def steane_code() -> CSSCode:
    """The [[7,1,3]] Steane code (Hamming checks in both bases)."""
    hamming = np.array([
        [1, 0, 1, 0, 1, 0, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1, 1],
    ], dtype=np.uint8)
    return CSSCode(hx=hamming, hz=hamming, name="steane", distance=3)


class TestConstruction:
    def test_rejects_non_commuting_checks(self):
        hx = [[1, 1, 0]]
        hz = [[1, 0, 0]]
        with pytest.raises(ValueError):
            CSSCode(hx=hx, hz=hz)

    def test_rejects_mismatched_columns(self):
        with pytest.raises(ValueError):
            CSSCode(hx=[[1, 1]], hz=[[1, 1, 0]])

    def test_accepts_empty_x_sector(self, repetition_code_d3):
        assert repetition_code_d3.num_x_stabilizers == 0
        assert repetition_code_d3.num_z_stabilizers == 2


class TestParameters:
    def test_steane_parameters(self):
        code = steane_code()
        assert code.parameters == (7, 1, 3)
        assert code.num_stabilizers == 6

    def test_surface_code_parameters(self, surface_code_d3):
        assert surface_code_d3.parameters == (9, 1, 3)
        assert surface_code_d3.num_x_stabilizers == 4
        assert surface_code_d3.num_z_stabilizers == 4

    def test_repetition_parameters(self, repetition_code_d3):
        assert repetition_code_d3.parameters == (3, 1, 3)

    def test_weight_statistics(self, surface_code_d3):
        assert surface_code_d3.max_x_weight == 4
        assert surface_code_d3.max_z_weight == 4
        assert surface_code_d3.total_cnot_count == 24


class TestStabilizerSupports:
    def test_supports_match_parity_check(self):
        code = steane_code()
        for i in range(code.num_x_stabilizers):
            support = code.x_stabilizer_support(i)
            assert all(code.hx[i, q] == 1 for q in support)
            assert len(support) == code.hx[i].sum()

    def test_supports_list_orders_x_first(self, surface_code_d3):
        supports = surface_code_d3.stabilizer_supports()
        assert len(supports) == 8
        assert all(basis == "X" for basis, _ in supports[:4])
        assert all(basis == "Z" for basis, _ in supports[4:])


class TestLogicalOperators:
    @pytest.mark.parametrize("factory", [
        steane_code,
        lambda: surface_code(3),
        lambda: repetition_quantum_code(5),
    ])
    def test_logicals_verify(self, factory):
        assert factory().verify_logical_operators()

    def test_logical_count_matches_k(self, bb_72):
        assert bb_72.logical_x.shape[0] == 12
        assert bb_72.logical_z.shape[0] == 12

    def test_logical_anticommutation_structure(self):
        code = steane_code()
        pairing = (code.logical_x @ code.logical_z.T) % 2
        # For k=1 there is a single pair and it must anticommute.
        assert pairing.shape == (1, 1)
        assert pairing[0, 0] == 1


class TestSyndromesAndLogicalErrors:
    def test_single_qubit_error_syndrome(self, surface_code_d3):
        error = np.zeros(9, dtype=np.uint8)
        error[4] = 1  # central qubit
        syndrome = (surface_code_d3.hz @ error) % 2
        assert syndrome.sum() >= 1

    def test_stabilizer_is_not_logical_error(self, surface_code_d3):
        stabilizer = surface_code_d3.hz[0]
        assert not surface_code_d3.is_z_logical_error(stabilizer)
        stabilizer_x = surface_code_d3.hx[0]
        assert not surface_code_d3.is_x_logical_error(stabilizer_x)

    def test_logical_operator_is_logical_error(self, surface_code_d3):
        logical_z = surface_code_d3.logical_z[0]
        assert surface_code_d3.is_x_logical_error(
            surface_code_d3.logical_x[0]
        ) or surface_code_d3.is_z_logical_error(logical_z)

    def test_distance_estimate_at_most_weight_of_logical(self, surface_code_d3):
        assert surface_code_d3.estimate_distance(trials=200) <= \
            surface_code_d3.logical_z.sum(axis=1).max()
        assert surface_code_d3.estimate_distance(trials=200) >= 1


class TestMisc:
    def test_with_name(self, surface_code_d3):
        renamed = surface_code_d3.with_name("my-surface")
        assert renamed.name == "my-surface"
        assert renamed.parameters == surface_code_d3.parameters

    def test_repr_contains_parameters(self, surface_code_d3):
        assert "[[9,1,3]]" in repr(surface_code_d3)
