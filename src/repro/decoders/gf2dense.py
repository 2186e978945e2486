"""Bit-packed GF(2) elimination used by the OSD post-processor.

OSD re-solves the syndrome equation with columns ordered by BP soft
reliability for every shot whose BP decode did not converge.  Packing
rows into bytes keeps each elimination fast enough to run inside a
Monte-Carlo loop.

A factorization depends only on the matrix and the column order — never
on the syndrome — and at low error rates many shots produce the *same*
BP posterior ordering (ties resolve identically under the stable
argsort).  :class:`PackedGF2Matrix` therefore keeps a small keyed cache
of factorizations: shots that repeat a column order replay the stored
elimination (two cheap packed products) instead of eliminating from
scratch, with bit-identical solutions by construction.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = ["PackedGF2Matrix", "GF2Factorization"]


class PackedGF2Matrix:
    """A dense GF(2) matrix packed along rows (8 columns per byte).

    ``factor_cache_size`` bounds the keyed factorization cache (see the
    module docstring); ``0`` disables caching entirely.  ``native=True``
    runs every elimination through the compiled kernel tier
    (:mod:`repro.linalg.native`) when the host toolchain provides it —
    pivot selection and row operations are identical, so ranks, pivot
    columns and solutions are bit-identical to the numpy path; when the
    tier is unavailable the flag silently degrades to the numpy
    elimination.
    """

    def __init__(self, matrix: np.ndarray,
                 factor_cache_size: int = 32,
                 native: bool = False) -> None:
        matrix = np.asarray(matrix, dtype=np.uint8)
        if matrix.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        self.num_rows, self.num_cols = matrix.shape
        self._packed = np.packbits(matrix, axis=1)
        self._kernels = None
        if native:
            from repro.linalg.native import get_kernels

            self._kernels = get_kernels()
        # Keyed factorization cache: column-order bytes -> factorization,
        # or None for an order seen exactly once (not yet worth the
        # row-transform accumulation).  LRU-bounded so OSD-heavy
        # workloads with non-repeating orders stay memory-flat.
        self._factor_cache: OrderedDict[bytes, GF2Factorization | None] = \
            OrderedDict()
        self._factor_cache_size = int(factor_cache_size)
        self.factor_cache_hits = 0
        self.factor_cache_builds = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _order_key(column_order: np.ndarray) -> bytes:
        return np.ascontiguousarray(column_order, dtype=np.intp).tobytes()

    def _cache_store(self, key: bytes,
                     value: "GF2Factorization | None") -> None:
        self._factor_cache[key] = value
        self._factor_cache.move_to_end(key)
        while len(self._factor_cache) > self._factor_cache_size:
            self._factor_cache.popitem(last=False)

    def gauss_jordan_solve(self, column_order: np.ndarray,
                           syndrome: np.ndarray) -> np.ndarray:
        """Solve ``M x = syndrome`` preferring early columns as pivots.

        Performs Gauss-Jordan elimination visiting columns in
        ``column_order``; pivot columns take the reduced syndrome value
        and all other columns are set to zero (the OSD-0 solution).
        Returns the solution in the *original* column indexing.
        Raises ``ValueError`` when the system is inconsistent.
        """
        packed = self._packed.copy()
        syndrome = np.ascontiguousarray(syndrome, dtype=np.uint8).copy()
        if syndrome.shape[0] != self.num_rows:
            raise ValueError("syndrome length does not match row count")

        rank, pivot_cols = _gauss_jordan(packed, syndrome, column_order,
                                         kernels=self._kernels)

        # Remaining rows must have zero syndrome for consistency.
        if rank < self.num_rows and syndrome[rank:].any():
            raise ValueError("inconsistent linear system over GF(2)")

        solution = np.zeros(self.num_cols, dtype=np.uint8)
        solution[pivot_cols] = syndrome[:rank]
        return solution

    def factorize(self, column_order: np.ndarray,
                  cache: bool = True) -> "GF2Factorization":
        """Eliminate once under ``column_order`` for repeated solves.

        Pivot selection depends only on the matrix and the column order,
        never on the right-hand side, so OSD-E can factor once per shot
        and reuse the factorization across all trial syndromes instead
        of re-eliminating from scratch for each pattern.

        With ``cache=True`` (default) the factorization is additionally
        shared **across shots**: shots whose BP posteriors produce the
        same column order — common at low error rates, where most
        unconverged shots tie on the prior ordering — get the stored
        elimination back instead of recomputing it.  A cached
        factorization is the same deterministic object a fresh build
        would produce, so corrections are bit-identical either way.
        """
        if not cache or self._factor_cache_size <= 0:
            return GF2Factorization(self, column_order)
        key = self._order_key(column_order)
        entry = self._factor_cache.get(key)
        if isinstance(entry, GF2Factorization):
            self.factor_cache_hits += 1
            self._factor_cache.move_to_end(key)
            return entry
        factor = GF2Factorization(self, column_order)
        self.factor_cache_builds += 1
        self._cache_store(key, factor)
        return factor

    def solve_ordered(self, column_order: np.ndarray,
                      syndrome: np.ndarray) -> np.ndarray:
        """OSD-0 solve that shares eliminations across repeating orders.

        Identical output to :meth:`gauss_jordan_solve` (including the
        ``ValueError`` on inconsistent systems), but adaptive about the
        work: the first time a column order is seen it solves directly
        (no row-transform accumulation); an order that *repeats* is
        factorized on its second sighting and every later shot with the
        same order replays the stored elimination.
        """
        if self._factor_cache_size <= 0:
            return self.gauss_jordan_solve(column_order, syndrome)
        key = self._order_key(column_order)
        entry = self._factor_cache.get(key)
        if isinstance(entry, GF2Factorization):
            self.factor_cache_hits += 1
            self._factor_cache.move_to_end(key)
            return entry.solve(syndrome)
        if key in self._factor_cache:
            # Second sighting: the order repeats, so the factorization
            # will pay for itself on the shots still to come.
            factor = GF2Factorization(self, column_order)
            self.factor_cache_builds += 1
            self._cache_store(key, factor)
            return factor.solve(syndrome)
        self._cache_store(key, None)
        return self.gauss_jordan_solve(column_order, syndrome)


def _gauss_jordan(packed: np.ndarray, carry: np.ndarray,
                  column_order: np.ndarray,
                  kernels=None) -> tuple[int, list[int]]:
    """In-place Gauss-Jordan elimination on a column-packed matrix.

    Visits columns in ``column_order``; every row swap and row XOR is
    mirrored onto ``carry`` (a syndrome vector for a one-off solve, or
    the packed identity when accumulating the row transform of a
    factorization).  Returns ``(rank, pivot_cols)``; pivot ``i`` lives
    in row ``i``.

    ``kernels`` (a bound :class:`repro.linalg.native.NativeKernels`)
    runs the identical elimination in C — same pivot rule, same row
    operations, bit-identical outputs.
    """
    if kernels is not None:
        return kernels.gauss_jordan(packed, carry, column_order)
    num_rows = packed.shape[0]
    pivot_cols: list[int] = []
    next_pivot_row = 0
    row_indices = np.arange(num_rows)

    for column in column_order:
        if next_pivot_row >= num_rows:
            break
        byte_index = column // 8
        shift = 7 - (column % 8)
        column_bits = (packed[:, byte_index] >> shift) & 1
        candidates = np.nonzero(column_bits[next_pivot_row:])[0]
        if candidates.size == 0:
            continue
        pivot = next_pivot_row + int(candidates[0])
        if pivot != next_pivot_row:
            packed[[next_pivot_row, pivot]] = packed[[pivot, next_pivot_row]]
            carry[[next_pivot_row, pivot]] = carry[[pivot, next_pivot_row]]
        column_bits = (packed[:, byte_index] >> shift) & 1
        eliminate = row_indices[
            (column_bits == 1) & (row_indices != next_pivot_row)
        ]
        if eliminate.size:
            packed[eliminate] ^= packed[next_pivot_row]
            carry[eliminate] ^= carry[next_pivot_row]
        pivot_cols.append(int(column))
        next_pivot_row += 1

    return next_pivot_row, pivot_cols


class GF2Factorization:
    """A Gauss-Jordan factorization of a packed GF(2) matrix.

    Stores the reduced matrix ``R = T @ M`` (columns packed 8 per byte)
    together with the row-operation transform ``T`` (also bit-packed),
    the pivot columns in elimination order, and the rank.  Solving
    ``M x = s`` for any ``s`` is then two cheap steps: reduce the
    syndrome (``y = T s``), check consistency of the rows below the
    rank, and read the pivot values off ``y``.
    """

    def __init__(self, matrix: PackedGF2Matrix, column_order: np.ndarray) -> None:
        self.num_rows = matrix.num_rows
        self.num_cols = matrix.num_cols
        reduced = matrix._packed.copy()
        transform = np.packbits(np.identity(self.num_rows, dtype=np.uint8),
                                axis=1)
        rank, pivot_cols = _gauss_jordan(reduced, transform, column_order,
                                         kernels=matrix._kernels)
        self._reduced = reduced
        self._transform = transform
        self.rank = rank
        self.pivot_cols = np.array(pivot_cols, dtype=np.intp)

    # ------------------------------------------------------------------
    def reduce_syndrome(self, syndrome: np.ndarray) -> np.ndarray:
        """Apply the stored row transform: ``T @ syndrome`` over GF(2)."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        if syndrome.shape[0] != self.num_rows:
            raise ValueError("syndrome length does not match row count")
        packed_syndrome = np.packbits(syndrome)
        anded = self._transform & packed_syndrome[np.newaxis, :]
        counts = _popcount_bytes(anded).sum(axis=1)
        return (counts & 1).astype(np.uint8)

    def reduced_column(self, column: int) -> np.ndarray:
        """Bits of column ``column`` of the reduced matrix ``T @ M``."""
        column = int(column)
        byte_index = column // 8
        shift = 7 - (column % 8)
        return ((self._reduced[:, byte_index] >> shift) & 1).astype(np.uint8)

    def solution_from_reduced(self, reduced_syndrome: np.ndarray) -> np.ndarray:
        """OSD-0 solution for an already-reduced syndrome.

        Raises ``ValueError`` when rows beyond the rank carry non-zero
        reduced syndrome (inconsistent system) — matching
        :meth:`PackedGF2Matrix.gauss_jordan_solve` exactly.
        """
        if self.rank < self.num_rows and reduced_syndrome[self.rank:].any():
            raise ValueError("inconsistent linear system over GF(2)")
        solution = np.zeros(self.num_cols, dtype=np.uint8)
        solution[self.pivot_cols] = reduced_syndrome[:self.rank]
        return solution

    def solve(self, syndrome: np.ndarray) -> np.ndarray:
        """Solve ``M x = syndrome``; identical output to a fresh
        Gauss-Jordan elimination under the same column order."""
        return self.solution_from_reduced(self.reduce_syndrome(syndrome))


if hasattr(np, "bitwise_count"):
    def _popcount_bytes(values: np.ndarray) -> np.ndarray:
        return np.bitwise_count(values)
else:  # pragma: no cover - exercised only on numpy < 2.0
    _BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)],
                              dtype=np.uint8)

    def _popcount_bytes(values: np.ndarray) -> np.ndarray:
        return _BYTE_POPCOUNT[values]
