/**
 * @file
 * Vertical (deep) reuse GEMM (§3.1, Figure 3), generalized to 2-D
 * neuron blocks (§3.3): slice the columns of X into K sub-matrices of
 * width L, cluster each sub-matrix's neuron blocks (blockRows
 * consecutive rows x L columns, flattened) with LSH, multiply only the
 * centroid blocks by the matching weight slice, duplicate the centroid
 * results back to every member, and sum the K partial outputs.
 */

#ifndef GENREUSE_CORE_VERTICAL_REUSE_H
#define GENREUSE_CORE_VERTICAL_REUSE_H

#include <vector>

#include "lsh/lsh.h"
#include "mcu/cost_model.h"
#include "reuse_stats.h"
#include "tensor/tensor.h"

namespace genreuse {

/** Column slicing plan shared by the kernel and the hash fitting. */
struct VerticalSlicing
{
    size_t sliceWidth = 0;  //!< L
    size_t blockRows = 1;   //!< neuron-block rows r
    size_t numSlices = 0;   //!< K = ceil(Din / L)

    /** Width of slice k (the last slice may be narrower). */
    size_t width(size_t k, size_t din) const;

    /** Build a plan for a Din-column matrix. */
    static VerticalSlicing plan(size_t din, size_t slice_width,
                                size_t block_rows);
};

/**
 * Y = X x W approximated by vertical reuse.
 *
 * @param x N x Din input matrix (already in the pattern's order)
 * @param w Din x M weight matrix (rows already matching x's columns)
 * @param slicing column slicing plan
 * @param families one hash family per slice; family k must accept
 *                 vectors of length blockRows * width(k)
 * @param ledger optional op accounting (clustering/GEMM/recovering);
 *               clustering counts are the actual ops reported by
 *               groupSlicesInto, not an estimate
 * @param stats optional reuse statistics output
 */
Tensor verticalReuseMultiply(const Tensor &x, const Tensor &w,
                             const VerticalSlicing &slicing,
                             const std::vector<HashFamily> &families,
                             OpLedger *ledger, ReuseStats *stats);

/**
 * verticalReuseMultiply() writing into @p y (resized in place, capacity
 * reused). All kernel temporaries — materialized blocks, signatures,
 * cluster tables, the centroid GEMM output — come from the calling
 * thread's stream arena or thread-local scratch, so a steady-state call
 * performs no heap allocation. Results are identical to the returning
 * form.
 *
 * @param w_rows when non-null, @p x's columns are a reordering of
 *               @p w's rows: column c of x pairs with row w_rows[c] of
 *               w (a column-reordered reuse pattern). Each slice then
 *               reads its few rows of w in place when they are evenly
 *               spaced and gathers them into scratch otherwise, instead
 *               of the caller permuting the whole weight matrix per
 *               forward. Results equal those for the permuted w.
 */
void verticalReuseMultiplyInto(const Tensor &x, const Tensor &w,
                               const VerticalSlicing &slicing,
                               const std::vector<HashFamily> &families,
                               OpLedger *ledger, ReuseStats *stats,
                               Tensor &y,
                               const uint32_t *w_rows = nullptr);

/**
 * verticalReuseMultiplyInto() over the im2col matrix read in place:
 * @p x views all Din columns, already in the pattern's order, as
 * offsets into a zero-padded input (see GatheredItems) whose stride-1
 * patches @p grid lays out. Only 1-D neuron vectors (blockRows 1).
 * Every slice is hashed in one sweep over the input, then all slices
 * are grouped and averaged in one pass, the way the materialized form
 * clusters them, so outputs, statistics and ledger counts are
 * identical to running on the built matrix.
 */
void verticalReuseMultiplyInto(const GatheredItems &x,
                               const simd::PatchGrid &grid, const Tensor &w,
                               const VerticalSlicing &slicing,
                               const std::vector<HashFamily> &families,
                               OpLedger *ledger, ReuseStats *stats,
                               Tensor &y,
                               const uint32_t *w_rows = nullptr);

/**
 * Build random hash families (the paper's lightweight profiling
 * configuration) for a slicing plan.
 */
std::vector<HashFamily> randomVerticalFamilies(const VerticalSlicing &slicing,
                                               size_t din, size_t num_hashes,
                                               Rng &rng);

/**
 * Learn PCA hash families from a sample matrix (this reproduction's
 * TREC-style learned hashing; see src/lsh/learned_hash.h).
 */
std::vector<HashFamily> learnedVerticalFamilies(const Tensor &sample_x,
                                                const VerticalSlicing &slicing,
                                                size_t num_hashes);

} // namespace genreuse

#endif // GENREUSE_CORE_VERTICAL_REUSE_H
