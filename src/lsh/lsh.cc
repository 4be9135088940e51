#include "lsh.h"

#include <algorithm>

#include "common/arena.h"
#include "common/logging.h"
#include "common/simd.h"
#include "tensor/gemm.h"

namespace genreuse {

HashFamily::HashFamily(Tensor vectors, std::vector<float> biases)
    : vectors_(std::move(vectors)), biases_(std::move(biases))
{
    GENREUSE_REQUIRE(vectors_.shape().rank() == 2,
                     "hash vectors must form an H x L matrix");
    GENREUSE_REQUIRE(vectors_.shape().rows() >= 1 &&
                     vectors_.shape().rows() <= 64,
                     "need 1..64 hash functions, got ",
                     vectors_.shape().rows());
    if (biases_.empty())
        biases_.assign(vectors_.shape().rows(), 0.0f);
    GENREUSE_REQUIRE(biases_.size() == vectors_.shape().rows(),
                     "bias count mismatches hash function count");
    // Transpose cached eagerly (not lazily) so const families can be
    // shared across explorer threads without synchronization.
    const size_t h = vectors_.shape().rows(), l = vectors_.shape().cols();
    vectorsT_ = Tensor({l, h});
    for (size_t f = 0; f < h; ++f)
        for (size_t j = 0; j < l; ++j)
            vectorsT_.at2(j, f) = vectors_.at2(f, j);
}

HashFamily
HashFamily::random(size_t num_functions, size_t length, Rng &rng)
{
    return HashFamily(
        Tensor::randomNormal({num_functions, length}, rng, 0.0f, 1.0f));
}

uint64_t
HashFamily::signature(const StridedItems &items, size_t index) const
{
    GENREUSE_REQUIRE(items.length == vectorLength(),
                     "item length ", items.length,
                     " != hash vector length ", vectorLength());
    const size_t h = numFunctions(), l = vectorLength();
    uint64_t sig = 0;
    for (size_t f = 0; f < h; ++f) {
        const float *v = vectors_.data() + f * l;
        double dot = biases_[f];
        for (size_t j = 0; j < l; ++j)
            dot += static_cast<double>(v[j]) * items.at(index, j);
        if (dot > 0.0)
            sig |= uint64_t{1} << f;
    }
    return sig;
}

void
HashFamily::signaturesInto(const StridedItems &items, uint64_t *sigs) const
{
    GENREUSE_REQUIRE(items.length == vectorLength(),
                     "item length ", items.length,
                     " != hash vector length ", vectorLength());
    const size_t h = numFunctions(), l = vectorLength();
    if (items.count == 0)
        return;
    const simd::Ops &ops = simd::ops();

    if (items.contiguousRows()) {
        // Row fast path: S = X x V^T via the dispatched GEMM, then the
        // sign pass.
        Arena &arena = Arena::forCurrentStream();
        ArenaFrame frame(arena);
        float *proj = arena.allocSpan<float>(items.count * h);
        ops.gemmF32(items.base, vectorsT_.data(), proj, items.count, h, l,
                    items.itemStride, h, h, false);
        ops.signProject(proj, biases_.data(), items.count, h, sigs);
        return;
    }

    if (items.itemStride == 1) {
        // Column fast path (the horizontal kernel's per-band view):
        // items are columns of a row-major panel with row stride
        // elemStride, so P = V x X is a plain GEMM with
        // P[f][i] = Σ_j v[f][j] * item_i[j] — the same ordered float
        // sum the row path computes, transposed.
        Arena &arena = Arena::forCurrentStream();
        ArenaFrame frame(arena);
        float *proj = arena.allocSpan<float>(h * items.count);
        ops.gemmF32(vectors_.data(), items.base, proj, h, items.count, l,
                    l, items.elemStride, items.count, false);
        for (size_t i = 0; i < items.count; ++i) {
            uint64_t sig = 0;
            for (size_t f = 0; f < h; ++f) {
                if (proj[f * items.count + i] + biases_[f] > 0.0f)
                    sig |= uint64_t{1} << f;
            }
            sigs[i] = sig;
        }
        return;
    }

    for (size_t i = 0; i < items.count; ++i)
        sigs[i] = signature(items, i);
}

std::vector<uint64_t>
HashFamily::signatures(const StridedItems &items) const
{
    std::vector<uint64_t> sigs(items.count, 0);
    signaturesInto(items, sigs.data());
    return sigs;
}

void
sliceSignaturesInto(const GatheredItems &items, const simd::PatchGrid &grid,
                    size_t sliceLength,
                    const std::vector<HashFamily> &families, uint64_t *sigs)
{
    GENREUSE_REQUIRE(grid.count() == items.count,
                     "patch grid does not match the item count");
    const size_t ns = families.size();
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    simd::SliceHash *slices = arena.allocSpan<simd::SliceHash>(ns);
    for (size_t k = 0; k < ns; ++k) {
        const HashFamily &f = families[k];
        const size_t col0 = k * sliceLength;
        GENREUSE_REQUIRE(col0 < items.length &&
                             f.vectorLength() ==
                                 std::min(sliceLength, items.length - col0),
                         "slice ", k, " does not match its hash family");
        slices[k] = {items.elemOffset + col0, f.vectorLength(),
                     f.vectors().data(), f.biases().data(),
                     f.numFunctions()};
    }
    simd::ops().sliceSignatures(items.base, grid, slices, ns, sigs);
}

} // namespace genreuse
