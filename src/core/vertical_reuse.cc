#include "vertical_reuse.h"

#include <algorithm>
#include <optional>

#include "common/arena.h"
#include "common/eventlog.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "guard.h"
#include "lsh/clustering.h"
#include "reuse_audit.h"
#include "lsh/learned_hash.h"
#include "stream_context.h"
#include "tensor/gemm.h"

namespace genreuse {

size_t
VerticalSlicing::width(size_t k, size_t din) const
{
    const size_t start = k * sliceWidth;
    return std::min(sliceWidth, din - start);
}

VerticalSlicing
VerticalSlicing::plan(size_t din, size_t slice_width, size_t block_rows)
{
    GENREUSE_REQUIRE(din > 0, "empty matrix");
    VerticalSlicing s;
    s.sliceWidth = slice_width == 0 ? din : std::min(slice_width, din);
    s.blockRows = std::max<size_t>(1, block_rows);
    s.numSlices = (din + s.sliceWidth - 1) / s.sliceWidth;
    return s;
}

namespace {

/**
 * Copy blockRows x width neuron blocks of one slice into contiguous
 * rows (at @p dst, num_blocks * block_rows * width floats) so they can
 * be hashed and averaged as single items.
 */
void
materializeBlocksInto(const Tensor &x, size_t col0, size_t width,
                      size_t block_rows, size_t num_blocks, float *dst)
{
    const size_t din = x.shape().cols();
    for (size_t b = 0; b < num_blocks; ++b) {
        float *db = dst + b * block_rows * width;
        for (size_t i = 0; i < block_rows; ++i) {
            const float *src =
                x.data() + (b * block_rows + i) * din + col0;
            std::copy(src, src + width, db + i * width);
        }
    }
}

/** The common difference when @p rows[0..count) rise in equal steps
 *  (1 for a single row), else 0. */
size_t
strideOf(const uint32_t *rows, size_t count)
{
    if (count < 2)
        return 1;
    if (rows[1] <= rows[0])
        return 0;
    const size_t step = rows[1] - rows[0];
    for (size_t i = 2; i < count; ++i)
        if (rows[i] != rows[0] + i * step)
            return 0;
    return step;
}

Tensor
materializeBlocks(const Tensor &x, size_t col0, size_t width,
                  size_t block_rows, size_t num_blocks)
{
    Tensor blocks({num_blocks, block_rows * width});
    materializeBlocksInto(x, col0, width, block_rows, num_blocks,
                          blocks.data());
    return blocks;
}

} // namespace

Tensor
verticalReuseMultiply(const Tensor &x, const Tensor &w,
                      const VerticalSlicing &slicing,
                      const std::vector<HashFamily> &families,
                      OpLedger *ledger, ReuseStats *stats)
{
    Tensor y;
    verticalReuseMultiplyInto(x, w, slicing, families, ledger, stats, y);
    return y;
}

namespace {

/**
 * The kernel's input as the materialized (reordered) im2col matrix.
 * Slices hash through the row GEMM (neuron blocks from a per-slice
 * copy) and group through offset tables over the matrix in place.
 */
struct MatrixSource
{
    static constexpr bool kMaterialized = true;
    const Tensor &x;

    size_t rows() const { return x.shape().rows(); }
    size_t cols() const { return x.shape().cols(); }

    void
    clusterSlices(const VerticalSlicing &slicing,
                  const std::vector<HashFamily> &families, OpLedger *ledger,
                  SliceClusters &table, OpCounts *ops) const
    {
        const size_t n = rows(), din = cols(), r = slicing.blockRows;
        const size_t items = n / r, ns = slicing.numSlices;
        GENREUSE_REQUIRE(n * din <= UINT32_MAX,
                         "im2col matrix too large for 32-bit offsets");
        // In the kernel's frame: the table is allocated after these.
        Arena &arena = Arena::forCurrentStream();
        uint64_t *sigs = arena.allocSpan<uint64_t>(ns * items);
        // Item b is the r x width block from row b * r; slice k's
        // elements are its r row pieces of columns [col0, col0 +
        // width), r * sliceWidth elements after slice k - 1's.
        uint32_t *item_off = arena.allocSpan<uint32_t>(items);
        uint32_t *elem_off = arena.allocSpan<uint32_t>(r * din);
        for (size_t b = 0; b < items; ++b)
            item_off[b] = static_cast<uint32_t>(b * r * din);
        for (size_t k = 0, e = 0; k < ns; ++k) {
            const size_t col0 = k * slicing.sliceWidth;
            const size_t width = slicing.width(k, din);
            for (size_t i = 0; i < r; ++i)
                for (size_t j = 0; j < width; ++j)
                    elem_off[e++] = static_cast<uint32_t>(i * din + col0 + j);

            StridedItems slice{x.data() + col0, items, width, din, 1};
            ArenaFrame slice_frame(arena);
            if (r > 1) {
                float *blocks = arena.allocSpan<float>(items * r * width);
                materializeBlocksInto(x, col0, width, r, items, blocks);
                OpCounts tf;
                tf.elemMoves = items * r * width;
                reportOps(ledger, Stage::Transformation, tf);
                slice = {blocks, items, r * width, r * width, 1};
            }
            families[k].signaturesInto(slice, sigs + k * items);
        }
        const GatheredItems all{x.data(), items, r * din, item_off, elem_off};
        groupSlicesInto(all, r * slicing.sliceWidth, sigs, families, table,
                        ops);
    }

    /** Row @p row's columns [col0, col0 + width), read in place. */
    const float *
    rowSlice(size_t row, size_t col0, size_t width, float *scratch) const
    {
        (void)width;
        (void)scratch;
        return x.data() + row * cols() + col0;
    }
};

/**
 * The kernel's input as the im2col matrix read in place: every slice
 * hashes in one sweep over the padded input, then groups.
 */
struct GatheredSource
{
    static constexpr bool kMaterialized = false;
    const GatheredItems &all; //!< every column, in the pattern's order
    const simd::PatchGrid &grid;

    size_t rows() const { return all.count; }
    size_t cols() const { return all.length; }

    void
    clusterSlices(const VerticalSlicing &slicing,
                  const std::vector<HashFamily> &families, OpLedger *ledger,
                  SliceClusters &table, OpCounts *ops) const
    {
        (void)ledger;
        // In the kernel's frame: the table is allocated after it.
        uint64_t *sigs = Arena::forCurrentStream().allocSpan<uint64_t>(
            slicing.numSlices * all.count);
        sliceSignaturesInto(all, grid, slicing.sliceWidth, families, sigs);
        groupSlicesInto(all, slicing.sliceWidth, sigs, families, table, ops);
    }

    /** Row @p row's columns [col0, col0 + width), gathered into
     *  @p scratch (width floats). */
    const float *
    rowSlice(size_t row, size_t col0, size_t width, float *scratch) const
    {
        for (size_t j = 0; j < width; ++j)
            scratch[j] = all.at(row, col0 + j);
        return scratch;
    }
};

/**
 * The vertical kernel over either source. Neuron blocks (blockRows >
 * 1) need the materialized matrix; the gathered source serves 1-D
 * neuron vectors only.
 */
template <typename Source>
void
verticalReuseCore(const Source &src, const Tensor &w,
                  const VerticalSlicing &slicing,
                  const std::vector<HashFamily> &families, OpLedger *ledger,
                  ReuseStats *stats, Tensor &y, const uint32_t *w_rows)
{
    GENREUSE_REQUIRE(w.shape().rank() == 2, "reuse multiply expects matrices");
    const size_t n = src.rows(), din = src.cols();
    GENREUSE_REQUIRE(w.shape().rows() == din, "X/W inner dim mismatch");
    GENREUSE_REQUIRE(Source::kMaterialized || slicing.blockRows == 1,
                     "neuron blocks need the materialized matrix");
    const size_t m = w.shape().cols();
    GENREUSE_REQUIRE(families.size() == slicing.numSlices,
                     "need one hash family per slice: ", slicing.numSlices,
                     " slices, ", families.size(), " families");
    profiler::ProfSpan pspan("vertical.reuse");

    y.resize({n, m});
    ReuseStats local;
    local.exactMacs = n * din * m;

    const size_t r = slicing.blockRows;
    const size_t full_blocks = n / r;
    const size_t rem_rows = n - full_blocks * r;
    // Single-row items recover row-outer: every slice's centroid
    // products and assignments are kept until the last slice, then each
    // output row is summed once from its slices' centroid rows. Per
    // element that is the same float sequence as zeroing y and adding
    // one slice at a time, without streaming y through the cache once
    // per slice; with no exact-fallback slice, simd::recoverRows keeps
    // each row in registers across the slices and stores it once.
    // Neuron blocks (r > 1) still accumulate slice by slice.
    const bool row_outer = r == 1;
    if (!row_outer)
        y.zero(); // slices accumulate

    const simd::Ops &simd_ops = simd::ops();
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);

    // ---- clustering: every slice in one pass ------------------------
    // The table's per-cluster vectors persist across layers AND
    // forwards in the executing stream's context, and its per-item
    // spans live in this frame, so steady-state regrouping is
    // allocation-free. groupSlicesInto reports the actual hashing/
    // grouping/centroid op counts; nothing here is estimated.
    SliceClusters &table = StreamContext::current().sliceClusters();
    {
        profiler::ProfSpan span("lsh.cluster");
        OpCounts cluster_ops;
        src.clusterSlices(slicing, families, ledger, table, &cluster_ops);
        reportOps(ledger, Stage::Clustering, cluster_ops);
        local.reuseMacs += cluster_ops.macs;
    }
    if (audit::enabled())
        for (size_t k = 0; k < slicing.numSlices; ++k)
            audit::recordClustering(table.numItems, table.numClusters(k),
                                    table.sizesOf(k));

    // Row-outer state per slice: its centroid products (nullptr when
    // the slice fell back to exact GEMM), then its W rows.
    const float **slice_yc =
        row_outer ? arena.allocSpan<const float *>(slicing.numSlices)
                  : nullptr;
    const float **slice_w =
        row_outer ? arena.allocSpan<const float *>(slicing.numSlices)
                  : nullptr;
    // One slice's gathered W rows, reused slice after slice.
    float *w_gather =
        w_rows ? arena.allocSpan<float>(slicing.sliceWidth * m) : nullptr;
    // One row slice of a gathered source, for fallback slices.
    float *row_gather = Source::kMaterialized
                            ? nullptr
                            : arena.allocSpan<float>(slicing.sliceWidth);

    for (size_t k = 0; k < slicing.numSlices; ++k) {
        const size_t col0 = k * slicing.sliceWidth;
        const size_t width = slicing.width(k, din);
        // This slice's W rows: w_slice[i * ldw], i < width.
        const float *w_slice = w.data() + col0 * m;
        size_t ldw = m;
        if (w_rows) {
            const size_t step = strideOf(w_rows + col0, width);
            if (step > 0) {
                // Evenly spaced rows (a channel run of a pixel-major
                // order) are read in place.
                w_slice = w.data() + w_rows[col0] * m;
                ldw = step * m;
            } else {
                for (size_t i = 0; i < width; ++i) {
                    const float *wi = w.data() + w_rows[col0 + i] * m;
                    std::copy(wi, wi + m, w_gather + i * m);
                }
                w_slice = w_gather;
            }
        }
        // Per-slice scratch; row-outer keeps every slice's products in
        // the function-wide frame instead.
        std::optional<ArenaFrame> slice_frame;
        if (!row_outer)
            slice_frame.emplace(arena);

        if (!table.valid[k]) {
            // A corrupted/degenerate table (bit-flip, fault injection)
            // must not be dereferenced: downgrade this slice to exact
            // GEMM over all n rows, accumulated like the reuse path
            // (row-outer: at recovery, row by row).
            guard::noteKernelFallback("vertical");
            if (row_outer) {
                // Recovery needs this slice's W rows again; keep a copy
                // when they were gathered (a corrupted table is rare).
                slice_yc[k] = nullptr;
                slice_w[k] = w_slice;
                if (w_rows) {
                    float *copy = arena.allocSpan<float>(width * m);
                    for (size_t i = 0; i < width; ++i)
                        std::copy(w_slice + i * ldw, w_slice + i * ldw + m,
                                  copy + i * m);
                    slice_w[k] = copy;
                }
            } else if constexpr (Source::kMaterialized) {
                gemmRaw(src.x.data() + col0, w_slice, y.data(), n, m,
                        width, din, ldw, m, true);
            }
            local.reuseMacs += n * width * m;
            local.numPanels += 1;
            OpCounts mm;
            mm.macs = n * width * m;
            reportOps(ledger, Stage::Gemm, mm);
            continue;
        }

        const size_t nc = table.numClusters(k);
        const uint32_t *ids = table.ids(k);
        local.totalVectors += table.numItems;
        local.totalCentroids += nc;
        local.numPanels += 1;

        // ---- centroid GEMM -----------------------------------------
        // The centroid matrix of r-row blocks is (nc x r*width)
        // row-major, which is exactly (nc*r x width) row-major.
        float *yc = arena.allocSpan<float>(nc * r * m);
        {
            profiler::ProfSpan span("vertical.gemm");
            simd_ops.gemmF32(table.centroidsOf(k), w_slice, yc, nc * r, m,
                             width, width, ldw, m, false);
        }
        const size_t gemm_macs = nc * r * width * m;
        local.reuseMacs += gemm_macs;
        OpCounts mm;
        mm.macs = gemm_macs;
        reportOps(ledger, Stage::Gemm, mm);

        // Duplicating centroid results: one add per Y element per
        // slice (the final writeback to the activation layout is
        // charged by the convolution layer itself).
        OpCounts rc;
        rc.aluOps = n * m;
        reportOps(ledger, Stage::Recovering, rc);

        if (row_outer) {
            slice_yc[k] = yc;
            continue;
        }

        // ---- recover ------------------------------------------------
        profiler::ProfSpan recover_span("vertical.recover");
        for (size_t b = 0; b < full_blocks; ++b) {
            const float *cy = yc + ids[b] * r * m;
            simd_ops.addInto(y.data() + b * r * m, cy, r * m);
        }
        // Remainder rows that do not fill a block: exact GEMM.
        if constexpr (Source::kMaterialized) {
            if (rem_rows > 0) {
                gemmRaw(src.x.data() + full_blocks * r * din + col0,
                        w_slice, y.data() + full_blocks * r * m, rem_rows,
                        m, width, din, ldw, m, true);
                local.reuseMacs += rem_rows * width * m;
                OpCounts rem_mm;
                rem_mm.macs = rem_rows * width * m;
                reportOps(ledger, Stage::Gemm, rem_mm);
            }
        }
    }

    const bool any_fallback =
        row_outer && std::find(slice_yc, slice_yc + slicing.numSlices,
                               nullptr) != slice_yc + slicing.numSlices;
    if (row_outer && !any_fallback) {
        profiler::ProfSpan recover_span("vertical.recover");
        simd_ops.recoverRows(slice_yc, table.assignments,
                             slicing.numSlices, n, m, y.data());
    } else if (row_outer) {
        profiler::ProfSpan recover_span("vertical.recover");
        for (size_t row = 0; row < n; ++row) {
            float *yr = y.data() + row * m;
            std::fill(yr, yr + m, 0.0f);
            for (size_t k = 0; k < slicing.numSlices; ++k) {
                if (slice_yc[k]) {
                    simd_ops.addInto(yr, slice_yc[k] + table.ids(k)[row] * m,
                                     m);
                } else {
                    // Fallback slice: this row's exact product, the
                    // same per-element sequence as the full-panel GEMM.
                    const size_t col0 = k * slicing.sliceWidth;
                    const size_t width = slicing.width(k, din);
                    gemmRaw(src.rowSlice(row, col0, width, row_gather),
                            slice_w[k], yr, 1, m, width, width, m, m, true);
                }
            }
        }
    }
    {
        OpCounts rc;
        rc.elemMoves = n * m; // gather Y once after summing slices
        reportOps(ledger, Stage::Recovering, rc);
    }

    if (eventlog::enabled())
        eventlog::record(eventlog::Type::KernelReuse, 0,
                         local.redundancyRatio(),
                         static_cast<double>(local.totalVectors), 0.0,
                         static_cast<uint32_t>(local.totalCentroids),
                         /*a8=*/0);
    audit::recordKernel(audit::Kernel::Vertical, local);
    if (stats)
        *stats += local;
}

} // namespace

void
verticalReuseMultiplyInto(const Tensor &x, const Tensor &w,
                          const VerticalSlicing &slicing,
                          const std::vector<HashFamily> &families,
                          OpLedger *ledger, ReuseStats *stats, Tensor &y,
                          const uint32_t *w_rows)
{
    GENREUSE_REQUIRE(x.shape().rank() == 2, "reuse multiply expects matrices");
    verticalReuseCore(MatrixSource{x}, w, slicing, families, ledger, stats, y,
                      w_rows);
}

void
verticalReuseMultiplyInto(const GatheredItems &x,
                          const simd::PatchGrid &grid, const Tensor &w,
                          const VerticalSlicing &slicing,
                          const std::vector<HashFamily> &families,
                          OpLedger *ledger, ReuseStats *stats, Tensor &y,
                          const uint32_t *w_rows)
{
    verticalReuseCore(GatheredSource{x, grid}, w, slicing, families, ledger, stats,
                      y, w_rows);
}

std::vector<HashFamily>
randomVerticalFamilies(const VerticalSlicing &slicing, size_t din,
                       size_t num_hashes, Rng &rng)
{
    std::vector<HashFamily> families;
    families.reserve(slicing.numSlices);
    for (size_t k = 0; k < slicing.numSlices; ++k) {
        const size_t len = slicing.blockRows * slicing.width(k, din);
        families.push_back(HashFamily::random(num_hashes, len, rng));
    }
    return families;
}

std::vector<HashFamily>
learnedVerticalFamilies(const Tensor &sample_x,
                        const VerticalSlicing &slicing, size_t num_hashes)
{
    const size_t n = sample_x.shape().rows();
    const size_t din = sample_x.shape().cols();
    const size_t r = slicing.blockRows;
    const size_t full_blocks = n / r;
    GENREUSE_REQUIRE(full_blocks >= 2,
                     "need at least 2 sample blocks to learn hashes");

    std::vector<HashFamily> families;
    families.reserve(slicing.numSlices);
    for (size_t k = 0; k < slicing.numSlices; ++k) {
        const size_t col0 = k * slicing.sliceWidth;
        const size_t width = slicing.width(k, din);
        if (r == 1) {
            StridedItems items;
            items.base = sample_x.data() + col0;
            items.count = n;
            items.length = width;
            items.itemStride = din;
            items.elemStride = 1;
            families.push_back(learnHashFamilyPca(items, num_hashes));
        } else {
            Tensor blocks =
                materializeBlocks(sample_x, col0, width, r, full_blocks);
            StridedItems items;
            items.base = blocks.data();
            items.count = full_blocks;
            items.length = r * width;
            items.itemStride = r * width;
            items.elemStride = 1;
            families.push_back(learnHashFamilyPca(items, num_hashes));
        }
    }
    return families;
}

} // namespace genreuse
