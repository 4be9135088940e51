#include "accuracy_model.h"

#include <optional>

#include "common/logging.h"
#include "horizontal_reuse.h"
#include "lsh/clustering.h"
#include "reorder.h"
#include "reuse_conv.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "vertical_reuse.h"

namespace genreuse {

namespace {

/** ||W rows [row0, row0+count)||_F^2. */
double
weightSliceNormSq(const Tensor &w, size_t row0, size_t count)
{
    const size_t m = w.shape().cols();
    double s = 0.0;
    const float *base = w.data() + row0 * m;
    for (size_t i = 0; i < count * m; ++i)
        s += static_cast<double>(base[i]) * base[i];
    return s;
}

constexpr size_t kMaxProfileRows = 1024;

} // namespace

Tensor
profileRowSubsample(const Tensor &x)
{
    const size_t full = x.shape().rows();
    if (full <= kMaxProfileRows)
        return x;
    const size_t din = x.shape().cols();
    const size_t stride = (full + kMaxProfileRows - 1) / kMaxProfileRows;
    const size_t rows = (full + stride - 1) / stride;
    Tensor subsampled({rows, din});
    for (size_t r = 0; r < rows; ++r) {
        const float *src = x.data() + r * stride * din;
        std::copy(src, src + din, subsampled.data() + r * din);
    }
    return subsampled;
}

AccuracyBound
accuracyBound(const Tensor &sample_default_x, const Tensor &w,
              const ReusePattern &pattern, const ConvGeometry &geom,
              uint64_t seed, bool measure)
{
    GENREUSE_REQUIRE(pattern.validFor(geom), "invalid pattern ",
                     pattern.describe());
    const size_t din = sample_default_x.shape().cols();
    GENREUSE_REQUIRE(w.shape().rows() == din, "weight shape mismatch");

    // Lightweight profiling subsamples large row populations: the
    // cluster statistics (λmax, m_i proportions) converge long before
    // the full im2col matrix is needed, and the bound only has to rank
    // patterns. Disabled when the caller wants the measured error. A
    // sample already small enough is read in place.
    std::optional<Tensor> subsampled;
    if (!measure && sample_default_x.shape().rows() > kMaxProfileRows)
        subsampled = profileRowSubsample(sample_default_x);
    const Tensor &sample_x = subsampled ? *subsampled : sample_default_x;

    // Reorder sample and weights per the pattern (rows of the sample
    // stay in place for the bound: cluster statistics are row-set
    // properties). The default column order is read in place.
    std::vector<uint32_t> col_perm = columnPermutation(pattern, geom);
    if (isIdentity(col_perm))
        return accuracyBoundReordered(sample_x, w, pattern, geom, seed,
                                      measure);
    const size_t n = sample_x.shape().rows();
    std::vector<uint32_t> id(n);
    for (size_t i = 0; i < n; ++i)
        id[i] = static_cast<uint32_t>(i);
    return accuracyBoundReordered(reorderMatrix(sample_x, id, col_perm),
                                  permuteRows(w, col_perm), pattern, geom,
                                  seed, measure);
}

AccuracyBound
accuracyBoundReordered(const Tensor &xr, const Tensor &wr,
                       const ReusePattern &pattern, const ConvGeometry &geom,
                       uint64_t seed, bool measure)
{
    GENREUSE_REQUIRE(pattern.validFor(geom), "invalid pattern ",
                     pattern.describe());
    const size_t din = xr.shape().cols();
    GENREUSE_REQUIRE(wr.shape().rows() == din, "weight shape mismatch");
    const size_t n = xr.shape().rows();

    Rng rng(seed);
    AccuracyBound out;
    const size_t l = pattern.effectiveGranularity(geom);

    if (pattern.direction == ReuseDirection::Vertical) {
        VerticalSlicing slicing =
            VerticalSlicing::plan(din, l, pattern.blockRows);
        auto families = randomVerticalFamilies(slicing, din,
                                               pattern.numHashes, rng);
        const size_t r = slicing.blockRows;
        const size_t full_blocks = n / r;
        for (size_t k = 0; k < slicing.numSlices; ++k) {
            const size_t col0 = k * slicing.sliceWidth;
            const size_t width = slicing.width(k, din);
            double scatter = 0.0;
            if (r == 1) {
                StridedItems items;
                items.base = xr.data() + col0;
                items.count = n;
                items.length = width;
                items.itemStride = din;
                items.elemStride = 1;
                ClusterResult clusters =
                    clusterBySignature(items, families[k]);
                scatter = clusterScatterBound(items, clusters);
            } else {
                // Blocks: flatten r x width blocks into items.
                Tensor blocks({full_blocks, r * width});
                for (size_t b = 0; b < full_blocks; ++b)
                    for (size_t i = 0; i < r; ++i) {
                        const float *src =
                            xr.data() + (b * r + i) * din + col0;
                        std::copy(src, src + width,
                                  blocks.data() + b * r * width + i * width);
                    }
                StridedItems items;
                items.base = blocks.data();
                items.count = full_blocks;
                items.length = r * width;
                items.itemStride = r * width;
                items.elemStride = 1;
                ClusterResult clusters =
                    clusterBySignature(items, families[k]);
                scatter = clusterScatterBound(items, clusters);
            }
            double wk = weightSliceNormSq(wr, col0, width);
            out.scatterTerm += scatter;
            out.weightTerm += wk;
            out.bound += wk * scatter;
        }
        if (measure) {
            Tensor exact = matmul(xr, wr);
            ReuseStats stats;
            Tensor approx = verticalReuseMultiply(xr, wr, slicing, families,
                                                  nullptr, &stats);
            out.measuredError = squaredFrobeniusNorm(sub(exact, approx));
        }
    } else {
        HorizontalSlicing slicing = HorizontalSlicing::plan(n, l);
        auto families =
            randomHorizontalFamilies(slicing, n, pattern.numHashes, rng);
        const double w_norm = weightSliceNormSq(wr, 0, din);
        for (size_t i = 0; i < slicing.numBands; ++i) {
            const size_t row0 = i * slicing.bandHeight;
            const size_t bh = slicing.height(i, n);
            StridedItems items;
            items.base = xr.data() + row0 * din;
            items.count = din;
            items.length = bh;
            items.itemStride = 1;
            items.elemStride = din;
            ClusterResult clusters = clusterBySignature(items, families[i]);
            double scatter = clusterScatterBound(items, clusters);
            // Cauchy-Schwarz analog of the vertical bound: the band's
            // error Σ_j d_j w_j^T has squared Frobenius norm at most
            // (Σ_j ||d_j||^2)(Σ_j ||w_j||^2) <= scatter * ||W||_F^2.
            out.scatterTerm += scatter;
            out.bound += scatter * w_norm;
        }
        out.weightTerm = w_norm;
        if (measure) {
            Tensor exact = matmul(xr, wr);
            ReuseStats stats;
            Tensor approx = horizontalReuseMultiply(xr, wr, slicing,
                                                    families, nullptr,
                                                    &stats);
            out.measuredError = squaredFrobeniusNorm(sub(exact, approx));
        }
    }
    return out;
}

} // namespace genreuse
