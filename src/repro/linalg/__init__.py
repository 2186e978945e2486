"""Linear algebra over GF(2).

Every quantum error correcting code in this repository is defined by
binary parity-check matrices, and every decoder and logical-operator
computation reduces to linear algebra over the two-element field.  This
package provides the small, well-tested kernel of GF(2) routines that
the rest of the library builds on.
"""

from repro.linalg.gf2 import (
    gf2_matrix,
    row_echelon,
    rank,
    nullspace,
    row_space,
    solve,
    inverse,
    kernel_intersection_complement,
    is_in_row_space,
    row_reduce_mod2,
)
from repro.linalg.bitops import (
    WORD_BITS,
    num_words,
    pack_bits,
    unpack_bits,
    popcount,
    parity,
    xor_reduce,
    xor_accumulate,
    packed_matmul,
    packed_matmul_words,
)
from repro.linalg.native import (
    native_available,
    native_unavailable_reason,
    simulation_backend,
)

__all__ = [
    "gf2_matrix",
    "row_echelon",
    "rank",
    "nullspace",
    "row_space",
    "solve",
    "inverse",
    "kernel_intersection_complement",
    "is_in_row_space",
    "row_reduce_mod2",
    "WORD_BITS",
    "num_words",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "parity",
    "xor_reduce",
    "xor_accumulate",
    "packed_matmul",
    "packed_matmul_words",
    "native_available",
    "native_unavailable_reason",
    "simulation_backend",
]
