/**
 * @file
 * Tests for the vertical (deep) reuse GEMM: exactness on perfectly
 * redundant inputs, bounded error on noisy inputs, slicing plans,
 * 2-D neuron blocks, remainder handling, statistics and cost ledgers,
 * bit-exactness of the row-outer recovery and the per-slice weight
 * row gather against their straightforward formulations, and the
 * fused eval pass (patches hashed, grouped and averaged straight from
 * NCHW) against the im2col path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "common/arena.h"
#include "common/faultpoint.h"
#include "common/metrics.h"
#include "core/reorder.h"
#include "core/reuse_conv.h"
#include "core/stream_context.h"
#include "core/vertical_reuse.h"
#include "lsh/clustering.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
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

TEST(VerticalReuse, FallbackSliceAmongReuseSlicesKeepsTheRowLoop)
{
    // The third of five slice clusterings gets a corrupted table, so
    // that slice falls back to exact GEMM and recovery keeps its row
    // loop. Reference: that loop written out, per row in slice order —
    // zero the row, add each reuse slice's centroid row, accumulate the
    // fallback slice's one-row exact product.
    Rng rng(34);
    const size_t n = 70, din = 75, m = 65, bad = 2;
    Tensor x = test::redundantRows(n, din, 6, rng, 0.05f);
    Tensor w = Tensor::randomNormal({din, m}, rng);
    VerticalSlicing s = VerticalSlicing::plan(din, 15, 1);
    auto fams = randomVerticalFamilies(s, din, 4, rng);
    ReuseStats stats;
    faultpoint::disarm();
    faultpoint::armEvent(faultpoint::Fault::CorruptClusterIds, 5, -1,
                         bad + 1);
    Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, &stats);
    faultpoint::disarm();
    // Four slices grouped their rows; the corrupted one did not.
    ASSERT_EQ(stats.totalVectors, (s.numSlices - 1) * n);

    std::vector<ClusterResult> clusters(s.numSlices);
    std::vector<Tensor> yc(s.numSlices);
    for (size_t k = 0; k < s.numSlices; ++k) {
        if (k == bad)
            continue;
        const size_t col0 = k * s.sliceWidth, width = s.width(k, din);
        StridedItems items{x.data() + col0, n, width, din, 1};
        clusters[k] = clusterBySignature(items, fams[k]);
        yc[k] = Tensor({clusters[k].numClusters(), m});
        gemmRaw(clusters[k].centroids.data(), w.data() + col0 * m,
                yc[k].data(), clusters[k].numClusters(), m, width, width, m,
                m, false);
    }
    Tensor ref({n, m});
    for (size_t row = 0; row < n; ++row) {
        float *yr = ref.data() + row * m;
        std::fill(yr, yr + m, 0.0f);
        for (size_t k = 0; k < s.numSlices; ++k) {
            const size_t col0 = k * s.sliceWidth, width = s.width(k, din);
            if (k == bad) {
                gemmRaw(x.data() + row * din + col0, w.data() + col0 * m,
                        yr, 1, m, width, width, m, m, true);
                continue;
            }
            const float *src =
                yc[k].data() + clusters[k].assignments[row] * m;
            for (size_t j = 0; j < m; ++j)
                yr[j] += src[j];
        }
    }
    EXPECT_TRUE(sameBytes(y, ref));
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

// ---- fused eval pass ------------------------------------------------

/** A stride-1 conv geometry of the benchmark models. */
struct ConvShape
{
    const char *name;
    size_t in, out, kernel, pad, hw;
};

constexpr ConvShape kCifarConv1{"cifarnet.conv1", 3, 64, 5, 2, 32};
constexpr ConvShape kCifarConv2{"cifarnet.conv2", 64, 64, 5, 2, 16};
constexpr ConvShape kFireExpand3{"fire4.expand_3x3", 32, 128, 3, 1, 8};

/** NCHW input whose 4x4 tiles repeat a few prototypes (plus zeros),
 *  so slices hold multi-member clusters. */
Tensor
tiledInput(size_t batch, size_t c, size_t hw, Rng &rng)
{
    Tensor protos = Tensor::randomNormal({4, c, 4, 4}, rng);
    Tensor x({batch, c, hw, hw});
    for (size_t b = 0; b < batch; ++b)
        for (size_t ty = 0; ty < hw / 4; ++ty)
            for (size_t tx = 0; tx < hw / 4; ++tx) {
                const size_t p = rng.uniformInt(5);
                if (p == 4)
                    continue; // an all-zero tile
                for (size_t ch = 0; ch < c; ++ch)
                    for (size_t y = 0; y < 4; ++y)
                        for (size_t xx = 0; xx < 4; ++xx)
                            x.at4(b, ch, ty * 4 + y, tx * 4 + xx) =
                                protos.at4(p, ch, y, xx);
            }
    return x;
}

bool
sameStats(const ReuseStats &a, const ReuseStats &b)
{
    return a.totalVectors == b.totalVectors &&
           a.totalCentroids == b.totalCentroids &&
           a.numPanels == b.numPanels && a.exactMacs == b.exactMacs &&
           a.reuseMacs == b.reuseMacs;
}

/** A reuse algo fitted on a batch-2 sample of @p conv's input shape. */
std::shared_ptr<ReuseConvAlgo>
fittedAlgo(Conv2D &conv, const ConvShape &cs, const ReusePattern &p,
           Rng &rng)
{
    auto algo = std::make_shared<ReuseConvAlgo>(p);
    const Tensor sample = tiledInput(2, cs.in, cs.hw, rng);
    const ConvGeometry g = conv.geometry(sample.shape());
    algo->fit(im2col(sample, g), g);
    return algo;
}

/** Forward @p x through @p conv running @p algo fused, then through
 *  the im2col path; outputs, reuse statistics and ledgers must match
 *  bit for bit. The fused forward's statistics go to @p fused_out. */
void
expectFusedMatchesIm2col(Conv2D &conv, std::shared_ptr<ReuseConvAlgo> algo,
                         const Tensor &x, const std::string &what,
                         ReuseStats *fused_out = nullptr)
{
    // Stream scratch is keyed by algorithm address: start clean.
    StreamContext stream(1);
    StreamContext::Bind bind(stream);
    const ConvGeometry geom = conv.geometry(x.shape());
    ASSERT_TRUE(algo->acceptsNchw(geom, conv.weightMatrix())) << what;
    CostLedger fused_ledger, ref_ledger;
    conv.setAlgo(algo);
    conv.setLedger(&fused_ledger);
    const Tensor fused = conv.forward(x, false);
    const ReuseStats fused_stats = algo->lastStats();
    conv.setAlgo(std::make_shared<test::Im2colPath>(algo));
    conv.setLedger(&ref_ledger);
    const Tensor ref = conv.forward(x, false);
    conv.setLedger(nullptr);
    EXPECT_TRUE(sameBytes(fused, ref)) << what;
    EXPECT_TRUE(sameStats(fused_stats, algo->lastStats())) << what;
    if (fused_out)
        *fused_out = fused_stats;
    EXPECT_TRUE(fused_ledger == ref_ledger) << what;
}

TEST(FusedReuse, MatchesIm2colPathBitForBit)
{
    size_t cases = 0;
    for (const ConvShape &cs : {kCifarConv1, kCifarConv2, kFireExpand3})
        for (ColumnOrder order : {ColumnOrder::ChannelMajor,
                                  ColumnOrder::PixelMajor,
                                  ColumnOrder::KwMajor})
            for (size_t batch : {size_t(1), size_t(3)})
                for (size_t h : {size_t(4), size_t(8)}) {
                    Rng rng(100 + cases);
                    Conv2D conv("conv", cs.in, cs.out, cs.kernel, 1, cs.pad,
                                rng);
                    ReusePattern p;
                    p.columnOrder = order;
                    p.numHashes = h;
                    // One tile per slice, or slices wider than the
                    // GEMM's 256-wide k-block (the whole row on conv1).
                    p.granularity = cases % 2 == 0 ? cs.kernel * cs.kernel
                                                   : 300;
                    p.granularity = std::min(
                        p.granularity, cs.in * cs.kernel * cs.kernel);
                    auto algo = fittedAlgo(conv, cs, p, rng);
                    const Tensor x = tiledInput(batch, cs.in, cs.hw, rng);
                    const std::string what =
                        std::string(cs.name) + " " + toString(order) +
                        " b=" + std::to_string(batch) +
                        " H=" + std::to_string(h) +
                        " L=" + std::to_string(p.granularity);
                    ReuseStats stats;
                    expectFusedMatchesIm2col(conv, algo, x, what, &stats);
                    EXPECT_GT(stats.totalCentroids, 0u) << what;
                    ++cases;
                }
    EXPECT_EQ(cases, 36u);
}

TEST(FusedReuse, WideSignaturesAndCustomOrderMatchIm2colPath)
{
    // H = 16 groups through the open-addressing table, not the direct
    // one; a custom column order is just another index table.
    Rng rng(7);
    Conv2D conv("conv", kFireExpand3.in, kFireExpand3.out, 3, 1, 1, rng);
    ReusePattern p;
    p.numHashes = 16;
    p.granularity = 9;
    p.columnOrder = ColumnOrder::Custom;
    p.customColumnPerm.resize(kFireExpand3.in * 9);
    std::iota(p.customColumnPerm.begin(), p.customColumnPerm.end(), 0u);
    std::shuffle(p.customColumnPerm.begin(), p.customColumnPerm.end(),
                 std::mt19937(3));
    auto algo = fittedAlgo(conv, kFireExpand3, p, rng);
    expectFusedMatchesIm2col(conv, algo, tiledInput(2, 32, 8, rng),
                             "H=16 custom order");
}

TEST(FusedReuse, CorruptClusterTablesFallBackLikeTheIm2colPath)
{
    // Fault-injected cluster tables downgrade slices to exact GEMM; the
    // fused pass gathers each row's slice for that, and must land on
    // the same bits as the im2col path under the same faults.
    Rng rng(11);
    Conv2D conv("conv", kFireExpand3.in, kFireExpand3.out, 3, 1, 1, rng);
    ReusePattern p;
    p.granularity = 9;
    p.columnOrder = ColumnOrder::PixelMajor;
    auto algo = fittedAlgo(conv, kFireExpand3, p, rng);
    const Tensor x = tiledInput(1, kFireExpand3.in, kFireExpand3.hw, rng);
    for (faultpoint::Fault fault : {faultpoint::Fault::CorruptClusterIds,
                                    faultpoint::Fault::ClusterEmpty}) {
        faultpoint::Scoped scoped(fault, 5);
        expectFusedMatchesIm2col(conv, algo, x,
                                 faultpoint::faultName(fault));
    }
}

TEST(FusedReuse, OneClusteringPassEqualsPerSliceReference)
{
    // The fused pass hashes every slice in one sweep and groups every
    // slice in one pass. On Fire8's expand_3x3 shape (4x4 output, C2
    // order, batch 3), each slice's table from that sweep and pass,
    // the kernel's op counts and statistics, and its lsh.* metric
    // totals must be exactly what clustering each materialized slice
    // on its own gives, and the output the materialized kernel's.
    ConvGeometry g;
    g.batch = 3;
    g.inChannels = 16;
    g.inHeight = g.inWidth = 4;
    g.outChannels = 24;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.pad = 1;
    const size_t n = g.rows(), din = g.cols(), m = g.outChannels;
    const size_t pw = g.inWidth + 2, plane = (g.inHeight + 2) * pw;
    Rng rng(12);
    const Tensor x = tiledInput(g.batch, g.inChannels, g.inWidth, rng);
    std::vector<float> padded(paddedInputSize(g));
    padInputInto(x, g, padded.data());
    std::vector<uint32_t> row_off(n), col_off;
    patchRowOffsets(g, row_off.data());
    for (size_t kh = 0; kh < 3; ++kh) // C2: [kh][kw][c]
        for (size_t kw = 0; kw < 3; ++kw)
            for (size_t c = 0; c < g.inChannels; ++c)
                col_off.push_back(
                    static_cast<uint32_t>(c * plane + kh * pw + kw));
    const GatheredItems items{padded.data(), n, din, row_off.data(),
                              col_off.data()};
    simd::PatchGrid grid;
    grid.images = g.batch;
    grid.rows = g.outHeight();
    grid.cols = g.outWidth();
    grid.pitch = pw;
    grid.imageStride = g.inChannels * plane;
    const Tensor w = Tensor::randomNormal({din, m}, rng);
    const VerticalSlicing slicing = VerticalSlicing::plan(din, 9, 1);
    const auto fams = randomVerticalFamilies(slicing, din, 4, rng);

    metrics::Counter &calls = metrics::counter("lsh.cluster_calls");
    metrics::Counter &items_seen = metrics::counter("lsh.items");
    metrics::Counter &clusters_made = metrics::counter("lsh.clusters");
    const uint64_t calls0 = calls.get(), items0 = items_seen.get(),
                   clusters0 = clusters_made.get();
    CostLedger ledger;
    ReuseStats stats;
    Tensor y;
    verticalReuseMultiplyInto(items, grid, w, slicing, fams, &ledger, &stats,
                              y);
    const uint64_t got_calls = calls.get() - calls0,
                   got_items = items_seen.get() - items0,
                   got_clusters = clusters_made.get() - clusters0;
    // The layer's table from the sweep and grouping pass the kernel
    // runs (its own table lives in the kernel's arena frame).
    ArenaFrame frame(Arena::forCurrentStream());
    std::vector<uint64_t> sigs(slicing.numSlices * n);
    sliceSignaturesInto(items, grid, slicing.sliceWidth, fams, sigs.data());
    SliceClusters table;
    groupSlicesInto(items, slicing.sliceWidth, sigs.data(), fams, table);

    Tensor matrix({n, din});
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < din; ++j)
            matrix.data()[i * din + j] = items.at(i, j);
    ReuseStats ref_stats;
    ref_stats.exactMacs = n * din * m;
    OpCounts ref_ops;
    const uint64_t calls1 = calls.get(), items1 = items_seen.get(),
                   clusters1 = clusters_made.get();
    ASSERT_EQ(table.numSlices(), slicing.numSlices);
    for (size_t k = 0; k < slicing.numSlices; ++k) {
        const size_t width = slicing.width(k, din);
        StridedItems rows{matrix.data() + k * slicing.sliceWidth, n, width,
                          din, 1};
        OpCounts ops;
        ClusterResult ref;
        clusterBySignatureInto(rows, fams[k], ref, &ops);
        ref_ops += ops;
        const size_t nc = ref.numClusters();
        ref_stats.totalVectors += n;
        ref_stats.totalCentroids += nc;
        ref_stats.numPanels += 1;
        ref_stats.reuseMacs += ops.macs + nc * width * m;

        const std::string what = "slice " + std::to_string(k);
        ASSERT_EQ(table.numClusters(k), nc) << what;
        EXPECT_TRUE(std::equal(ref.assignments.begin(),
                               ref.assignments.end(), table.ids(k)))
            << what;
        EXPECT_TRUE(std::equal(ref.sizes.begin(), ref.sizes.end(),
                               table.sizesOf(k)))
            << what;
        EXPECT_TRUE(std::equal(ref.memberOffsets.begin(),
                               ref.memberOffsets.end(), table.offsetsOf(k)))
            << what;
        EXPECT_TRUE(std::equal(ref.memberIndices.begin(),
                               ref.memberIndices.end(), table.membersOf(k)))
            << what;
        EXPECT_EQ(std::memcmp(table.centroidsOf(k), ref.centroids.data(),
                              nc * width * sizeof(float)),
                  0)
            << what;
        EXPECT_TRUE(table.valid[k]) << what;
    }
    EXPECT_EQ(got_calls, calls.get() - calls1);
    EXPECT_EQ(got_items, items_seen.get() - items1);
    EXPECT_EQ(got_clusters, clusters_made.get() - clusters1);
    EXPECT_TRUE(ledger.stage(Stage::Clustering) == ref_ops);
    EXPECT_TRUE(sameStats(stats, ref_stats));
    EXPECT_GT(stats.totalCentroids, 0u);
    EXPECT_LT(stats.totalCentroids, stats.totalVectors);

    Tensor y_matrix;
    verticalReuseMultiplyInto(matrix, w, slicing, fams, nullptr, nullptr,
                              y_matrix);
    EXPECT_TRUE(sameBytes(y, y_matrix));
}

TEST(FusedReuse, IneligibleCasesKeepTheIm2colPath)
{
    Rng rng(8);
    const Tensor x = tiledInput(1, 8, 8, rng);
    auto declines = [&](Conv2D &conv, const ReusePattern &p) {
        auto algo = std::make_shared<ReuseConvAlgo>(p, HashMode::Random);
        const ConvGeometry g = conv.geometry(x.shape());
        algo->fit(im2col(x, g), g);
        Tensor y;
        EXPECT_FALSE(algo->multiplyNchw(x, conv.weightMatrix(), g, nullptr,
                                        y));
        // Conv2D then runs the im2col path: same output as forcing it.
        conv.setAlgo(algo);
        const Tensor out = conv.forward(x, false);
        conv.setAlgo(std::make_shared<test::Im2colPath>(algo));
        EXPECT_TRUE(sameBytes(out, conv.forward(x, false)));
    };
    ReusePattern plain;
    plain.granularity = 9;
    Conv2D strided("strided", 8, 4, 3, 2, 1, rng);
    declines(strided, plain);

    Conv2D conv("conv", 8, 4, 3, 1, 1, rng);
    ReusePattern blocks = plain;
    blocks.blockRows = 2;
    declines(conv, blocks);
    ReusePattern horizontal = plain;
    horizontal.direction = ReuseDirection::Horizontal;
    horizontal.granularity = 16;
    declines(conv, horizontal);

    // An unfitted algorithm declines too, and the im2col path reports
    // the error as before.
    ReuseConvAlgo unfitted(plain);
    Tensor y;
    EXPECT_FALSE(unfitted.multiplyNchw(x, conv.weightMatrix(),
                                       conv.geometry(x.shape()), nullptr, y));
}

TEST(FusedReuse, LastIm2colIsBuiltLazilyFromTheInput)
{
    Rng rng(9);
    Conv2D conv("conv", kCifarConv2.in, kCifarConv2.out, 5, 1, 2, rng);
    ReusePattern p;
    p.granularity = 25;
    auto algo = fittedAlgo(conv, kCifarConv2, p, rng);
    conv.setAlgo(algo);
    const Tensor x = tiledInput(1, kCifarConv2.in, kCifarConv2.hw, rng);
    (void)conv.forward(x, false);
    EXPECT_TRUE(sameBytes(conv.lastIm2col(),
                          im2col(x, conv.geometry(x.shape()))));
}

TEST(FusedReuse, SteadyStateScratchStaysBelowTheMatrix)
{
    // The fused pass's scratch is the padded input plus per-slice
    // tables, all in the stream arena: on CifarNet conv2 the arena's
    // high-water stays well under the N x K matrix it replaces.
    Rng rng(10);
    Conv2D conv("conv", kCifarConv2.in, kCifarConv2.out, 5, 1, 2, rng);
    ReusePattern p;
    p.granularity = 25;
    auto algo = fittedAlgo(conv, kCifarConv2, p, rng);
    conv.setAlgo(algo);
    const Tensor x = tiledInput(1, kCifarConv2.in, kCifarConv2.hw, rng);
    const ConvGeometry g = conv.geometry(x.shape());
    StreamContext ctx(7);
    StreamContext::Bind bind(ctx);
    for (int i = 0; i < 3; ++i)
        (void)conv.forward(x, false);
    const size_t matrix_bytes = g.rows() * g.cols() * sizeof(float);
    EXPECT_LT(ctx.arena().capacityBytes(), matrix_bytes / 2);
}

} // namespace
} // namespace genreuse
