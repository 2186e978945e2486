"""The CSS stabilizer code representation shared by the whole library.

A CSS code is defined by two binary parity-check matrices ``Hx`` and
``Hz`` with ``Hx @ Hz.T == 0`` (mod 2).  Rows of ``Hx`` are X-type
stabilizers (detect Z errors); rows of ``Hz`` are Z-type stabilizers
(detect X errors).  Everything downstream — schedules, syndrome
extraction circuits, QCCD compilation and decoding — consumes this
class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.linalg import (
    gf2_matrix,
    rank,
    kernel_intersection_complement,
    is_in_row_space,
)

__all__ = ["CSSCode"]


@dataclass(frozen=True)
class CSSCode:
    """A Calderbank-Shor-Steane stabilizer code.

    Parameters
    ----------
    hx, hz:
        Binary parity check matrices.  ``hx`` has one row per X
        stabilizer and one column per data qubit; ``hz`` likewise for Z
        stabilizers.
    name:
        Human readable name, e.g. ``"HGP [[225,9,6]]"``.
    distance:
        The code distance if known (from the literature or an external
        computation).  ``None`` means unknown; :meth:`estimate_distance`
        can produce an upper bound.
    edge_colorable:
        Whether the code supports the interleaved X/Z measurement
        schedule of Tremblay et al. (true for hypergraph product codes,
        false for bivariate bicycle codes).
    """

    hx: np.ndarray
    hz: np.ndarray
    name: str = "css"
    distance: int | None = None
    edge_colorable: bool = False
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        hx = gf2_matrix(self.hx)
        hz = gf2_matrix(self.hz)
        if hx.shape[1] != hz.shape[1]:
            raise ValueError(
                f"Hx has {hx.shape[1]} columns but Hz has {hz.shape[1]}"
            )
        commutation = (hx @ hz.T) % 2
        if commutation.any():
            raise ValueError("Hx and Hz do not commute: Hx @ Hz.T != 0 (mod 2)")
        object.__setattr__(self, "hx", hx)
        object.__setattr__(self, "hz", hz)

    # ------------------------------------------------------------------
    # Basic parameters
    # ------------------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Number of physical data qubits ``n``."""
        return int(self.hx.shape[1])

    @property
    def num_x_stabilizers(self) -> int:
        return int(self.hx.shape[0])

    @property
    def num_z_stabilizers(self) -> int:
        return int(self.hz.shape[0])

    @property
    def num_stabilizers(self) -> int:
        """Total number of stabilizer generators ``m`` (rows of Hx and Hz)."""
        return self.num_x_stabilizers + self.num_z_stabilizers

    @cached_property
    def rank_hx(self) -> int:
        return rank(self.hx)

    @cached_property
    def rank_hz(self) -> int:
        return rank(self.hz)

    @property
    def num_logical_qubits(self) -> int:
        """Number of encoded logical qubits ``k = n - rank(Hx) - rank(Hz)``."""
        return self.num_qubits - self.rank_hx - self.rank_hz

    @property
    def parameters(self) -> tuple[int, int, int | None]:
        """``(n, k, d)`` with ``d`` possibly ``None``."""
        return (self.num_qubits, self.num_logical_qubits, self.distance)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n, k, d = self.parameters
        d_str = str(d) if d is not None else "?"
        return f"CSSCode({self.name}, [[{n},{k},{d_str}]])"

    # ------------------------------------------------------------------
    # Stabilizer structure
    # ------------------------------------------------------------------
    def x_stabilizer_support(self, index: int) -> tuple[int, ...]:
        """Data-qubit indices acted on by the ``index``-th X stabilizer."""
        return tuple(int(q) for q in np.nonzero(self.hx[index])[0])

    def z_stabilizer_support(self, index: int) -> tuple[int, ...]:
        """Data-qubit indices acted on by the ``index``-th Z stabilizer."""
        return tuple(int(q) for q in np.nonzero(self.hz[index])[0])

    def stabilizer_supports(self) -> list[tuple[str, tuple[int, ...]]]:
        """All stabilizers as ``(basis, data-qubit tuple)`` pairs, X first."""
        supports: list[tuple[str, tuple[int, ...]]] = []
        for i in range(self.num_x_stabilizers):
            supports.append(("X", self.x_stabilizer_support(i)))
        for i in range(self.num_z_stabilizers):
            supports.append(("Z", self.z_stabilizer_support(i)))
        return supports

    @cached_property
    def max_x_weight(self) -> int:
        """Maximum weight of any X stabilizer (0 for an empty Hx)."""
        if self.num_x_stabilizers == 0:
            return 0
        return int(self.hx.sum(axis=1).max())

    @cached_property
    def max_z_weight(self) -> int:
        if self.num_z_stabilizers == 0:
            return 0
        return int(self.hz.sum(axis=1).max())

    @cached_property
    def total_cnot_count(self) -> int:
        """Total number of data-ancilla CNOTs in one syndrome extraction round."""
        return int(self.hx.sum() + self.hz.sum())

    # ------------------------------------------------------------------
    # Logical operators
    # ------------------------------------------------------------------
    @cached_property
    def logical_x(self) -> np.ndarray:
        """A basis of logical X operators (rows; columns = data qubits).

        Logical X operators commute with every Z stabilizer (lie in
        ker(Hz)) and are independent of the X stabilizer group.
        """
        return kernel_intersection_complement(self.hx, self.hz)

    @cached_property
    def logical_z(self) -> np.ndarray:
        """A basis of logical Z operators (rows; columns = data qubits)."""
        return kernel_intersection_complement(self.hz, self.hx)

    def is_x_logical_error(self, x_error: np.ndarray) -> bool:
        """Whether an X-type residual error flips some logical Z observable.

        ``x_error`` is a length-n binary vector of X flips.  It is a
        logical error iff it anticommutes with some logical Z operator,
        i.e. it has odd overlap with some row of :attr:`logical_z`.
        """
        x_error = gf2_matrix(x_error).reshape(-1)
        return bool(((self.logical_z @ x_error) % 2).any())

    def is_z_logical_error(self, z_error: np.ndarray) -> bool:
        """Whether a Z-type residual error flips some logical X observable."""
        z_error = gf2_matrix(z_error).reshape(-1)
        return bool(((self.logical_x @ z_error) % 2).any())

    # ------------------------------------------------------------------
    # Distance estimation
    # ------------------------------------------------------------------
    def estimate_distance(self, trials: int = 200, seed: int = 0) -> int:
        """Probabilistic upper bound on the code distance.

        Uses random information-set style sampling: combines random
        subsets of logical operators with random stabilizers and keeps
        the minimum weight observed.  The true distance is never larger
        than the returned value.
        """
        rng = np.random.default_rng(seed)
        best = self.num_qubits
        for logicals, stabilizers in (
            (self.logical_x, self.hx),
            (self.logical_z, self.hz),
        ):
            if logicals.shape[0] == 0:
                continue
            best = min(best, int(logicals.sum(axis=1).min()))
            for _ in range(trials):
                logical_mask = rng.integers(0, 2, logicals.shape[0])
                if not logical_mask.any():
                    continue
                candidate = (logical_mask @ logicals) % 2
                stab_mask = rng.integers(0, 2, stabilizers.shape[0])
                candidate = (candidate + stab_mask @ stabilizers) % 2
                weight = int(candidate.sum())
                if 0 < weight < best:
                    best = weight
        return best

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def verify_logical_operators(self) -> bool:
        """Check the computed logical operators satisfy CSS requirements."""
        lx, lz = self.logical_x, self.logical_z
        if lx.shape[0] != self.num_logical_qubits:
            return False
        if lz.shape[0] != self.num_logical_qubits:
            return False
        if ((self.hz @ lx.T) % 2).any():
            return False
        if ((self.hx @ lz.T) % 2).any():
            return False
        for row in lx:
            if is_in_row_space(row, self.hx):
                return False
        for row in lz:
            if is_in_row_space(row, self.hz):
                return False
        return True

    def with_name(self, name: str) -> "CSSCode":
        """A copy of this code carrying a different display name."""
        return CSSCode(
            hx=self.hx,
            hz=self.hz,
            name=name,
            distance=self.distance,
            edge_colorable=self.edge_colorable,
            metadata=dict(self.metadata),
        )
