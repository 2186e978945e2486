"""Word-level bit-packed GF(2) kernels over ``uint64`` words.

The Monte-Carlo hot paths of this repository — Pauli-frame sampling,
detector-error-model extraction and batched decoding — are all XOR- and
parity-heavy computations over large binary arrays.  Storing one bit per
byte (``bool`` / ``uint8`` numpy arrays) wastes 7/8ths of the memory
bandwidth those kernels are limited by.  This module packs 64 bits into
each ``uint64`` word so that a single machine XOR/AND/popcount operates
on 64 shots (or 64 matrix entries) at once — the same trick used by
Stim's frame simulator and by SIMD sequence scanners.

Conventions
-----------
* Packing is *LSB-first within a little-endian word*: element ``64*w + j``
  of the packed axis lives in bit ``j`` (value ``1 << j``) of word ``w``.
  The explicit ``<u8`` dtype makes the layout platform-independent.
* ``pack_bits`` / ``unpack_bits`` keep the packed axis in place, so a
  ``(shots, n)`` boolean array packed along axis 0 becomes a
  ``(ceil(shots/64), n)`` word array and all column-indexed kernels keep
  working unchanged.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "WORD_BITS",
    "WORD_DTYPE",
    "num_words",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "parity",
    "xor_reduce",
    "xor_accumulate",
    "packed_matmul",
    "packed_matmul_words",
    "bit_mask",
]


def _native_kernels(backend: str):
    """The bound native library when ``backend="native"`` asks for it.

    Returns ``None`` for other backends *and* when the toolchain is
    absent (the probe in :mod:`repro.linalg.native` logs one note and
    every caller silently keeps the numpy kernels — bit-identical by
    construction).  Imported lazily to keep the packed tier free of any
    native-probe cost.
    """
    if backend != "native":
        return None
    from repro.linalg import native

    return native.get_kernels()

WORD_BITS = 64
#: Explicit little-endian words so bit ``j`` of word ``w`` is always
#: element ``64*w + j`` regardless of the host byte order.
WORD_DTYPE = np.dtype("<u8")


def num_words(count: int) -> int:
    """Number of 64-bit words needed to hold ``count`` bits."""
    return (int(count) + WORD_BITS - 1) // WORD_BITS


def bit_mask(position: int) -> np.uint64:
    """The single-bit word mask selecting packed element ``position % 64``."""
    return WORD_DTYPE.type(1 << (int(position) & (WORD_BITS - 1)))


def pack_bits(bits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Pack a boolean/0-1 array into ``uint64`` words along ``axis``.

    The packed axis stays in the same position with length
    ``num_words(original_length)``; trailing padding bits are zero.
    """
    bits = np.asarray(bits).astype(bool, copy=False)
    moved = np.moveaxis(bits, axis, -1)
    count = moved.shape[-1]
    words = num_words(count)
    packed_bytes = np.packbits(moved, axis=-1, bitorder="little")
    pad = words * 8 - packed_bytes.shape[-1]
    if pad:
        packed_bytes = np.concatenate(
            [packed_bytes,
             np.zeros(moved.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    packed = np.ascontiguousarray(packed_bytes).view(WORD_DTYPE)
    return np.moveaxis(packed, -1, axis)


def unpack_bits(words: np.ndarray, count: int, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`pack_bits`: recover ``count`` boolean elements."""
    words = np.asarray(words, dtype=WORD_DTYPE)
    moved = np.moveaxis(words, axis, -1)
    packed_bytes = np.ascontiguousarray(moved).view(np.uint8)
    bits = np.unpackbits(packed_bytes, axis=-1, bitorder="little",
                         count=int(count))
    return np.moveaxis(bits, -1, axis).astype(bool)


if hasattr(np, "bitwise_count"):
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count."""
        return np.bitwise_count(np.asarray(words, dtype=WORD_DTYPE))
else:  # pragma: no cover - exercised only on numpy < 2.0
    def popcount(words: np.ndarray) -> np.ndarray:
        """Per-word population count (SWAR fallback for old numpy)."""
        v = np.asarray(words, dtype=np.uint64).copy()
        m1 = np.uint64(0x5555555555555555)
        m2 = np.uint64(0x3333333333333333)
        m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
        h01 = np.uint64(0x0101010101010101)
        v -= (v >> np.uint64(1)) & m1
        v = (v & m2) + ((v >> np.uint64(2)) & m2)
        v = (v + (v >> np.uint64(4))) & m4
        return (v * h01) >> np.uint64(56)


def parity(words: np.ndarray, axis: int = -1) -> np.ndarray:
    """GF(2) parity of the bits packed along ``axis`` (plus that axis)."""
    return (popcount(words).sum(axis=axis) & 1).astype(np.uint8)


def xor_reduce(words: np.ndarray, axis: int = 0) -> np.ndarray:
    """Bitwise-XOR reduction of packed words along ``axis``."""
    return np.bitwise_xor.reduce(np.asarray(words, dtype=WORD_DTYPE),
                                 axis=axis)


def xor_accumulate(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
    """In-place ``dst ^= src`` for packed word arrays; returns ``dst``."""
    np.bitwise_xor(dst, src, out=dst)
    return dst


def packed_matmul(a_packed: np.ndarray, b_packed: np.ndarray,
                  chunk: int = 512) -> np.ndarray:
    """GF(2) matrix product from two row-packed operands.

    ``a_packed`` is ``(m, W)`` and ``b_packed`` ``(n, W)``, both packed
    along their shared inner dimension; the result is the ``(m, n)``
    uint8 matrix ``A @ B.T mod 2``.  Blocked over rows of ``a_packed`` to
    bound the broadcast temporary.
    """
    a_packed = np.asarray(a_packed, dtype=WORD_DTYPE)
    b_packed = np.asarray(b_packed, dtype=WORD_DTYPE)
    if a_packed.ndim != 2 or b_packed.ndim != 2:
        raise ValueError("packed_matmul expects 2-D packed operands")
    if a_packed.shape[1] != b_packed.shape[1]:
        raise ValueError("packed operands disagree on inner word count")
    m, n = a_packed.shape[0], b_packed.shape[0]
    out = np.empty((m, n), dtype=np.uint8)
    for start in range(0, m, chunk):
        block = a_packed[start:start + chunk, None, :] & b_packed[None, :, :]
        out[start:start + chunk] = (
            popcount(block).sum(axis=-1, dtype=np.uint64) & 1
        ).astype(np.uint8)
    return out


def packed_matmul_words(a_packed: np.ndarray, b_packed: np.ndarray,
                        chunk: int = 512,
                        backend: str = "packed") -> np.ndarray:
    """:func:`packed_matmul` with the result bit-packed along the B rows.

    Returns the ``(m, num_words(n))`` word array whose bit ``j`` of row
    ``i`` is ``(A @ B.T mod 2)[i, j]``.  The parities are computed by
    the word-level AND/popcount kernel and then packed once, so the
    consumer (e.g. BP's packed syndrome verification) can compare
    against other packed operands with word XORs instead of per-bit
    boolean comparisons.

    ``backend="native"`` computes and packs the parities in one pass of
    the compiled kernel tier (bit-identical — GF(2) is exact) and falls
    back to the numpy path when the toolchain is absent.
    """
    kernels = _native_kernels(backend)
    if kernels is not None:
        return kernels.packed_matmul_words(
            np.asarray(a_packed, dtype=WORD_DTYPE),
            np.asarray(b_packed, dtype=WORD_DTYPE),
        )
    return pack_bits(packed_matmul(a_packed, b_packed, chunk=chunk), axis=1)
