/**
 * @file
 * Tests for the vertical (deep) reuse GEMM: exactness on perfectly
 * redundant inputs, bounded error on noisy inputs, slicing plans,
 * 2-D neuron blocks, remainder handling, statistics and cost ledgers,
 * and bit-exactness of the row-outer recovery and the per-slice weight
 * row gather against their straightforward formulations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/reorder.h"
#include "core/vertical_reuse.h"
#include "lsh/clustering.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

using test::sameBytes;

TEST(VerticalSlicing, PlanMath)
{
    VerticalSlicing s = VerticalSlicing::plan(75, 15, 1);
    EXPECT_EQ(s.numSlices, 5u);
    EXPECT_EQ(s.width(0, 75), 15u);
    EXPECT_EQ(s.width(4, 75), 15u);

    VerticalSlicing ragged = VerticalSlicing::plan(75, 20, 1);
    EXPECT_EQ(ragged.numSlices, 4u);
    EXPECT_EQ(ragged.width(3, 75), 15u); // trailing narrow slice

    VerticalSlicing whole = VerticalSlicing::plan(75, 0, 1);
    EXPECT_EQ(whole.numSlices, 1u);
    EXPECT_EQ(whole.width(0, 75), 75u);
}

/**
 * Slice-at-a-time reference for single-row items: y starts at zero and
 * every slice adds its centroid products to all rows before the next
 * slice starts.
 */
Tensor
sliceAtATime(const Tensor &x, const Tensor &w, const VerticalSlicing &s,
             const std::vector<HashFamily> &fams)
{
    const size_t n = x.shape().rows(), din = x.shape().cols();
    const size_t m = w.shape().cols();
    Tensor y({n, m});
    for (size_t k = 0; k < s.numSlices; ++k) {
        const size_t col0 = k * s.sliceWidth, width = s.width(k, din);
        StridedItems items{x.data() + col0, n, width, din, 1};
        ClusterResult c = clusterBySignature(items, fams[k]);
        Tensor yc({c.numClusters(), m});
        gemmRaw(c.centroids.data(), w.data() + col0 * m, yc.data(),
                c.numClusters(), m, width, width, m, m, false);
        for (size_t r = 0; r < n; ++r)
            for (size_t j = 0; j < m; ++j)
                y.at2(r, j) += yc.at2(c.assignments[r], j);
    }
    return y;
}

TEST(VerticalReuse, RowOuterRecoveryMatchesSliceAtATime)
{
    Rng rng(31);
    // Even and ragged slicings, and a slice wider than one GEMM k-block.
    for (auto [din, l] : {std::pair<size_t, size_t>{75, 25}, {75, 20},
                          {600, 300}}) {
        Tensor x = test::redundantRows(96, din, 6, rng, 0.05f);
        Tensor w = Tensor::randomNormal({din, 13}, rng);
        VerticalSlicing s = VerticalSlicing::plan(din, l, 1);
        auto fams = randomVerticalFamilies(s, din, 4, rng);
        Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
        EXPECT_TRUE(sameBytes(y, sliceAtATime(x, w, s, fams)))
            << "din=" << din << " L=" << l;
    }
}

TEST(VerticalReuse, GatheredWeightRowsMatchPermutedWeights)
{
    // A column-reordered pattern: x's column c pairs with w's row
    // perm[c]. Reading each slice's rows through the permutation —
    // gathered, or in place when they are evenly spaced — must give
    // the bytes the pre-permuted weight matrix gives.
    Rng rng(32);
    const size_t channels = 8, din = channels * 9, m = 11;
    std::vector<uint32_t> shuffled(din);
    std::iota(shuffled.begin(), shuffled.end(), 0u);
    std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
    // Pixel-major order of a 3x3 kernel: runs of channels at stride 9.
    std::vector<uint32_t> pixel_major(din);
    for (size_t pix = 0; pix < 9; ++pix)
        for (size_t ch = 0; ch < channels; ++ch)
            pixel_major[pix * channels + ch] =
                static_cast<uint32_t>(ch * 9 + pix);
    Tensor w = Tensor::randomNormal({din, m}, rng);
    for (const auto &perm : {shuffled, pixel_major}) {
        Tensor w_perm = permuteRows(w, perm);
        for (size_t l : {size_t(9), size_t(4), size_t(1)}) {
            for (size_t block_rows : {size_t(1), size_t(2)}) {
                Tensor x = test::redundantRows(50, din, 5, rng, 0.05f);
                VerticalSlicing s = VerticalSlicing::plan(din, l, block_rows);
                auto fams = randomVerticalFamilies(s, din, 4, rng);
                Tensor gathered, permuted;
                verticalReuseMultiplyInto(x, w, s, fams, nullptr, nullptr,
                                          gathered, perm.data());
                verticalReuseMultiplyInto(x, w_perm, s, fams, nullptr,
                                          nullptr, permuted);
                EXPECT_TRUE(sameBytes(gathered, permuted))
                    << "L=" << l << " block_rows=" << block_rows;
            }
        }
    }
}

TEST(VerticalReuse, ExactWhenRowsPerfectlyRedundant)
{
    // With noiseless repeated rows, every cluster's members are equal
    // to the centroid, so reuse must reproduce the GEMM exactly.
    Rng rng(1);
    Tensor x = test::redundantRows(64, 20, 4, rng, 0.0f);
    Tensor w = Tensor::randomNormal({20, 8}, rng);
    VerticalSlicing s = VerticalSlicing::plan(20, 10, 1);
    auto fams = randomVerticalFamilies(s, 20, 8, rng);
    ReuseStats stats;
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, &stats);
    Tensor ref = matmul(x, w);
    EXPECT_LT(maxAbsDiff(y, ref), 1e-3f);
    EXPECT_GE(stats.redundancyRatio(), 0.8);
}

TEST(VerticalReuse, SmallErrorOnNoisyRedundantRows)
{
    Rng rng(2);
    Tensor x = test::redundantRows(128, 24, 4, rng, 0.02f);
    Tensor w = Tensor::randomNormal({24, 6}, rng);
    VerticalSlicing s = VerticalSlicing::plan(24, 12, 1);
    auto fams = randomVerticalFamilies(s, 24, 12, rng);
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
    Tensor ref = matmul(x, w);
    EXPECT_LT(relativeError(ref, y), 0.15);
}

TEST(VerticalReuse, DegenerateAllUniqueStillCorrectShape)
{
    // Pure noise: many clusters, little reuse, but output must still be
    // a sane approximation (each row maps to its own cluster when H is
    // large, making the result exact).
    Rng rng(3);
    Tensor x = Tensor::randomNormal({32, 10}, rng);
    Tensor w = Tensor::randomNormal({10, 4}, rng);
    VerticalSlicing s = VerticalSlicing::plan(10, 10, 1);
    auto fams = randomVerticalFamilies(s, 10, 20, rng);
    ReuseStats stats;
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, &stats);
    EXPECT_EQ(y.shape(), Shape({32, 4}));
    // With 20 hashes nearly all rows are singletons -> near-exact.
    Tensor ref = matmul(x, w);
    if (stats.totalCentroids == stats.totalVectors)
        EXPECT_LT(maxAbsDiff(y, ref), 1e-3f);
}

TEST(VerticalReuse, MultiSliceSumsPartials)
{
    // K > 1 slices must sum to the full product (identical rows case).
    Rng rng(4);
    Tensor x = test::redundantRows(40, 30, 2, rng, 0.0f);
    Tensor w = Tensor::randomNormal({30, 5}, rng);
    VerticalSlicing s = VerticalSlicing::plan(30, 6, 1); // 5 slices
    auto fams = randomVerticalFamilies(s, 30, 8, rng);
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
    EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-3f);
}

TEST(VerticalReuse, BlockRowsExactOnBlockRedundantData)
{
    // Build rows so that 2-row blocks repeat: blocks cluster exactly.
    Rng rng(5);
    Tensor protos = Tensor::randomNormal({3, 2 * 12}, rng);
    Tensor x({40, 12});
    Rng pick(6);
    for (size_t b = 0; b < 20; ++b) {
        size_t p = pick.uniformInt(3);
        for (size_t i = 0; i < 2; ++i)
            for (size_t c = 0; c < 12; ++c)
                x.at2(2 * b + i, c) = protos.at2(p, i * 12 + c);
    }
    Tensor w = Tensor::randomNormal({12, 7}, rng);
    VerticalSlicing s = VerticalSlicing::plan(12, 12, 2);
    auto fams = randomVerticalFamilies(s, 12, 8, rng);
    ReuseStats stats;
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, &stats);
    EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-3f);
    EXPECT_LE(stats.totalCentroids, 3u);
    EXPECT_EQ(stats.totalVectors, 20u);
}

TEST(VerticalReuse, BlockRowsRemainderHandledExactly)
{
    // N not divisible by blockRows: remainder rows take the exact path.
    Rng rng(7);
    Tensor x = test::redundantRows(21, 8, 2, rng, 0.0f);
    Tensor w = Tensor::randomNormal({8, 3}, rng);
    VerticalSlicing s = VerticalSlicing::plan(8, 8, 4); // 5 blocks + 1 row
    auto fams = randomVerticalFamilies(s, 8, 10, rng);
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
    Tensor ref = matmul(x, w);
    // Remainder row must be exact; block rows may approximate, but the
    // blocks here are not necessarily redundant, so only check the
    // remainder row strictly.
    for (size_t c = 0; c < 3; ++c)
        EXPECT_NEAR(y.at2(20, c), ref.at2(20, c), 1e-4f);
}

TEST(VerticalReuse, StatsAndLedgerConsistent)
{
    Rng rng(8);
    Tensor x = test::redundantRows(64, 16, 4, rng, 0.0f);
    Tensor w = Tensor::randomNormal({16, 8}, rng);
    VerticalSlicing s = VerticalSlicing::plan(16, 8, 1);
    auto fams = randomVerticalFamilies(s, 16, 5, rng);
    CostLedger ledger;
    ReuseStats stats;
    verticalReuseMultiply(x, w, s, fams, &ledger, &stats);

    EXPECT_EQ(stats.numPanels, 2u);
    EXPECT_EQ(stats.totalVectors, 128u); // 64 rows x 2 slices
    EXPECT_EQ(stats.exactMacs, 64u * 16u * 8u);
    // Ledger GEMM macs = centroid GEMM = nc * L * M summed over slices.
    EXPECT_EQ(ledger.stage(Stage::Gemm).macs,
              stats.totalCentroids * 8u * 8u);
    // Clustering macs = hashing: vectors * H * L.
    EXPECT_EQ(ledger.stage(Stage::Clustering).macs, 128u * 5u * 8u);
    // reuseMacs aggregates both.
    EXPECT_EQ(stats.reuseMacs, ledger.stage(Stage::Gemm).macs +
                                   ledger.stage(Stage::Clustering).macs);
    EXPECT_GT(ledger.stage(Stage::Recovering).aluOps, 0u);
    // Redundant input => fewer MACs than exact (hashing overhead is
    // H/Dout = 5/8 of the exact GEMM here, so the reduction is modest).
    EXPECT_GT(stats.macReduction(), 1.2);
}

TEST(VerticalReuse, LearnedFamiliesReduceErrorVsRandom)
{
    Rng rng(9);
    Tensor x = test::redundantRows(200, 16, 6, rng, 0.15f);
    Tensor w = Tensor::randomNormal({16, 8}, rng);
    VerticalSlicing s = VerticalSlicing::plan(16, 16, 1);

    auto learned = learnedVerticalFamilies(x, s, 4);
    Tensor y_learned =
        verticalReuseMultiply(x, w, s, learned, nullptr, nullptr);
    double err_learned = relativeError(matmul(x, w), y_learned);

    double err_random = 0.0;
    const int trials = 3;
    for (int t = 0; t < trials; ++t) {
        Rng r2(50 + t);
        auto random_fams = randomVerticalFamilies(s, 16, 4, r2);
        Tensor y = verticalReuseMultiply(x, w, s, random_fams, nullptr,
                                         nullptr);
        err_random += relativeError(matmul(x, w), y);
    }
    err_random /= trials;
    EXPECT_LT(err_learned, err_random + 1e-9);
}

class VerticalGranularitySweep : public ::testing::TestWithParam<size_t>
{
};

TEST_P(VerticalGranularitySweep, AllGranularitiesProduceBoundedError)
{
    const size_t l = GetParam();
    Rng rng(10 + l);
    Tensor x = test::redundantRows(96, 24, 3, rng, 0.0f);
    Tensor w = Tensor::randomNormal({24, 4}, rng);
    VerticalSlicing s = VerticalSlicing::plan(24, l, 1);
    auto fams = randomVerticalFamilies(s, 24, 16, rng);
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
    EXPECT_LT(maxAbsDiff(y, matmul(x, w)), 1e-3f) << "L=" << l;
}

INSTANTIATE_TEST_SUITE_P(Granularities, VerticalGranularitySweep,
                         ::testing::Values(4, 6, 8, 12, 24));

} // namespace
} // namespace genreuse
