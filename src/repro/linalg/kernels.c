/* Native word-level GF(2) kernels behind repro.linalg.native.
 *
 * Compiled on first use with the host C compiler (see native.py for the
 * build fingerprint) and bound via ctypes — no build system, no Python
 * headers.  Every function mirrors a numpy kernel in this repository
 * bit for bit:
 *
 *   repro_packed_matmul_words  <-> linalg.bitops.packed_matmul_words
 *   repro_gf2_gauss_jordan     <-> decoders.gf2dense._gauss_jordan
 *   repro_min_sum_check_update <-> decoders.bp.BeliefPropagationDecoder
 *                                  ._check_update
 *
 * GF(2) arithmetic is exact, so the first two are bit-identical by
 * construction.  The min-sum update is floating point: it performs the
 * same IEEE-754 double operations in the same order as the numpy
 * expression (sign products over exact +-1.0 values, comparison-based
 * minima, one rounding in the final (scaling * sign) * magnitude
 * product), so its output is bit-identical too — the property suite in
 * tests/test_native_backend.py asserts exact equality, not closeness.
 *
 * Layout conventions match linalg.bitops and decoders.gf2dense:
 *   - uint64 words pack bits LSB-first (bit j of word w is packed
 *     element 64*w + j); words are little-endian on every supported
 *     host (the loader refuses big-endian platforms).
 *   - uint8 "byte-packed" matrices (the OSD elimination) pack bits
 *     MSB-first within each byte, exactly like np.packbits.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#define API __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* GF(2) product of row-packed operands, bit-packed along the B rows:
 * bit j of out word row i (LSB-first uint64 layout) is the parity of
 * A_row_i AND B_row_j, i.e. (A @ B.T mod 2)[i, j].  Parity of a sum of
 * popcounts equals the popcount of the XOR fold, so the inner loop is
 * one AND + one XOR per word.  Padding bits beyond n stay zero,
 * matching bitops.pack_bits.                                         */
API void repro_packed_matmul_words(const uint64_t *restrict a,
                                   const uint64_t *restrict b,
                                   int64_t m, int64_t n, int64_t words,
                                   uint64_t *restrict out,
                                   int64_t out_words)
{
    memset(out, 0, (size_t)(m * out_words) * sizeof(uint64_t));
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *ai = a + i * words;
        uint64_t *oi = out + i * out_words;
        for (int64_t j = 0; j < n; j++) {
            const uint64_t *bj = b + j * words;
            uint64_t fold = 0;
            for (int64_t w = 0; w < words; w++) {
                fold ^= ai[w] & bj[w];
            }
            oi[j >> 6] |= (uint64_t)(__builtin_popcountll(fold) & 1)
                          << (j & 63);
        }
    }
}

/* ------------------------------------------------------------------ */
/* In-place Gauss-Jordan elimination on a byte-packed (np.packbits,
 * MSB-first) matrix, mirroring every row swap and row XOR onto the
 * carry block — a (rows, 1) syndrome column or a (rows, carry_bytes)
 * packed identity accumulating the row transform.  Visits columns in
 * `order`; the pivot for a column is the first row >= the next pivot
 * row with that bit set, exactly like the numpy reference, so rank,
 * pivot columns and the reduced matrix are identical.  Returns the
 * rank and writes the pivot columns (elimination order) to
 * pivot_cols.                                                        */
API int64_t repro_gf2_gauss_jordan(uint8_t *restrict m,
                                   uint8_t *restrict carry,
                                   int64_t rows, int64_t row_bytes,
                                   int64_t carry_bytes,
                                   const int64_t *restrict order,
                                   int64_t order_len,
                                   int64_t *restrict pivot_cols)
{
    int64_t next = 0;
    for (int64_t k = 0; k < order_len && next < rows; k++) {
        const int64_t col = order[k];
        const int64_t byte = col >> 3;
        const int shift = 7 - (int)(col & 7);

        int64_t pivot = -1;
        for (int64_t r = next; r < rows; r++) {
            if ((m[r * row_bytes + byte] >> shift) & 1) {
                pivot = r;
                break;
            }
        }
        if (pivot < 0) {
            continue;
        }
        if (pivot != next) {
            uint8_t *ra = m + next * row_bytes;
            uint8_t *rb = m + pivot * row_bytes;
            for (int64_t b = 0; b < row_bytes; b++) {
                uint8_t t = ra[b];
                ra[b] = rb[b];
                rb[b] = t;
            }
            uint8_t *ca = carry + next * carry_bytes;
            uint8_t *cb = carry + pivot * carry_bytes;
            for (int64_t b = 0; b < carry_bytes; b++) {
                uint8_t t = ca[b];
                ca[b] = cb[b];
                cb[b] = t;
            }
        }
        const uint8_t *prow = m + next * row_bytes;
        const uint8_t *pcarry = carry + next * carry_bytes;
        for (int64_t r = 0; r < rows; r++) {
            if (r == next) {
                continue;
            }
            uint8_t *row = m + r * row_bytes;
            if ((row[byte] >> shift) & 1) {
                for (int64_t b = 0; b < row_bytes; b++) {
                    row[b] ^= prow[b];
                }
                uint8_t *crow = carry + r * carry_bytes;
                for (int64_t b = 0; b < carry_bytes; b++) {
                    crow[b] ^= pcarry[b];
                }
            }
        }
        pivot_cols[next] = col;
        next++;
    }
    return next;
}

/* ------------------------------------------------------------------ */
/* Fused scaled min-sum check-node update over edge segments.
 *
 * Edges are grouped by check: segment c spans
 * [check_starts[c], check_starts[c+1]) (the last segment ends at
 * `edges`); empty segments are skipped, exactly as the numpy
 * reduceat-based reference never reads them back.  Per (shot, check
 * segment): the product of message signs, the minimum |message| and
 * the first edge attaining it, and the second minimum (INFINITY for
 * degree-1 checks, clipped below).  Each edge then receives
 *
 *   (scaling * (syndrome_sign * sign_product * own_sign))
 *       * min(min_excluding_self, clip)
 *
 * with the parenthesisation chosen to round exactly like the numpy
 * expression: every sign factor is exactly +-1.0, so the only rounded
 * operation is the final product.                                    */
API void repro_min_sum_check_update(const double *restrict var_to_check,
                                    const double *restrict syndrome_signs,
                                    const int64_t *restrict check_starts,
                                    int64_t shots, int64_t edges,
                                    int64_t checks,
                                    double scaling, double clip,
                                    double *restrict out)
{
    for (int64_t s = 0; s < shots; s++) {
        const double *v = var_to_check + s * edges;
        const double *syn = syndrome_signs + s * checks;
        double *o = out + s * edges;
        for (int64_t c = 0; c < checks; c++) {
            const int64_t lo = check_starts[c];
            const int64_t hi = (c + 1 < checks) ? check_starts[c + 1]
                                                : edges;
            if (lo >= hi) {
                continue;
            }
            double min1 = INFINITY;
            int64_t min_pos = lo;
            double sign_product = 1.0;
            for (int64_t e = lo; e < hi; e++) {
                const double a = fabs(v[e]);
                sign_product *= (v[e] < 0.0) ? -1.0 : 1.0;
                if (a < min1) {
                    min1 = a;
                    min_pos = e;
                }
            }
            double min2 = INFINITY;
            for (int64_t e = lo; e < hi; e++) {
                if (e == min_pos) {
                    continue;
                }
                const double a = fabs(v[e]);
                if (a < min2) {
                    min2 = a;
                }
            }
            const double min1c = (min1 > clip) ? clip : min1;
            const double min2c = (min2 > clip) ? clip : min2;
            const double syn_sign = syn[c];
            for (int64_t e = lo; e < hi; e++) {
                const double own_sign = (v[e] < 0.0) ? -1.0 : 1.0;
                const double total_sign =
                    syn_sign * (sign_product * own_sign);
                const double magnitude = (e == min_pos) ? min2c : min1c;
                o[e] = (scaling * total_sign) * magnitude;
            }
        }
    }
}
