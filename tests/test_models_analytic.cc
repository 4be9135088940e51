/**
 * @file
 * Tests for the two analytic models (§4.1 accuracy bound, §4.2 latency
 * model): the bound really upper-bounds the measured error across a
 * parameterized pattern sweep, and the latency model's key condition
 * and FLOPs arithmetic are exact.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/simd.h"
#include "core/accuracy_model.h"
#include "core/latency_model.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/conv2d.h"
#include "tensor/im2col.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** Batch-1 im2col sample of a conv over a synthetic image. */
struct AnalyticFixture
{
    ConvGeometry geom;
    Tensor sample;
    Tensor w;

    AnalyticFixture()
    {
        geom.batch = 1;
        geom.inChannels = 3;
        geom.inHeight = 32;
        geom.inWidth = 32;
        geom.outChannels = 16;
        geom.kernelH = 5;
        geom.kernelW = 5;
        geom.stride = 1;
        geom.pad = 2;
        SyntheticConfig cfg;
        cfg.numSamples = 1;
        cfg.noiseStddev = 0.01f;
        Dataset data = makeSyntheticCifar(cfg);
        sample = im2col(data.gatherImages({0}), geom);
        Rng rng(5);
        w = Tensor::randomNormal({geom.cols(), geom.outChannels}, rng,
                                 0.0f, 0.1f);
    }
};

struct PatternCase
{
    ColumnOrder order;
    ReuseDirection dir;
    size_t l;
    size_t h;
};

class BoundSweep : public ::testing::TestWithParam<PatternCase>
{
};

TEST_P(BoundSweep, BoundUpperBoundsMeasuredError)
{
    static AnalyticFixture fix;
    PatternCase pc = GetParam();
    ReusePattern p;
    p.columnOrder = pc.order;
    p.direction = pc.dir;
    p.granularity = pc.l;
    p.numHashes = pc.h;
    ASSERT_TRUE(p.validFor(fix.geom)) << p.describe();

    AccuracyBound b =
        accuracyBound(fix.sample, fix.w, p, fix.geom, 7, /*measure=*/true);
    EXPECT_GE(b.measuredError, 0.0);
    // The §4.1 inequality with the rigorous cross-panel factor K
    // (see accuracy_model.h); these curated cases also satisfy the
    // unscaled form, checked loosely below.
    const size_t l = p.effectiveGranularity(fix.geom);
    const size_t k = p.direction == ReuseDirection::Vertical
                         ? (fix.geom.cols() + l - 1) / l
                         : (fix.sample.shape().rows() + l - 1) / l;
    EXPECT_LE(b.measuredError,
              static_cast<double>(k) * b.bound * (1.0 + 1e-3) + 1e-6)
        << p.describe();
    EXPECT_LE(b.measuredError, b.bound * 1.5 + 1e-6) << p.describe();
    EXPECT_GE(b.bound, 0.0);
    EXPECT_GE(b.scatterTerm, 0.0);
    EXPECT_GT(b.weightTerm, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, BoundSweep,
    ::testing::Values(
        PatternCase{ColumnOrder::ChannelMajor, ReuseDirection::Vertical, 25,
                    4},
        PatternCase{ColumnOrder::ChannelMajor, ReuseDirection::Vertical, 15,
                    6},
        PatternCase{ColumnOrder::PixelMajor, ReuseDirection::Vertical, 15,
                    4},
        PatternCase{ColumnOrder::PixelMajor, ReuseDirection::Vertical, 3,
                    2},
        PatternCase{ColumnOrder::ChannelMajor, ReuseDirection::Vertical, 75,
                    8},
        PatternCase{ColumnOrder::ChannelMajor, ReuseDirection::Horizontal,
                    256, 4},
        PatternCase{ColumnOrder::PixelMajor, ReuseDirection::Horizontal,
                    512, 6}));

TEST(AccuracyModel, MoreHashesTightenTheBound)
{
    // Finer clustering (larger H) cannot increase within-cluster
    // scatter on the same data: the bound should (weakly) decrease.
    AnalyticFixture fix;
    ReusePattern coarse;
    coarse.granularity = 25;
    coarse.numHashes = 1;
    ReusePattern fine = coarse;
    fine.numHashes = 12;
    double b_coarse =
        accuracyBound(fix.sample, fix.w, coarse, fix.geom).bound;
    double b_fine = accuracyBound(fix.sample, fix.w, fine, fix.geom).bound;
    EXPECT_LE(b_fine, b_coarse * 1.05 + 1e-9);
}

TEST(AccuracyModel, ZeroForLosslessClustering)
{
    // Identical rows only: scatter is zero, bound is zero, error zero.
    ConvGeometry geom;
    geom.batch = 1;
    geom.inChannels = 1;
    geom.inHeight = 6;
    geom.inWidth = 6;
    geom.outChannels = 2;
    geom.kernelH = 3;
    geom.kernelW = 3;
    geom.stride = 1;
    geom.pad = 1;
    Tensor img = Tensor::full({1, 1, 6, 6}, 1.0f);
    Tensor sample = im2col(img, geom);
    Rng rng(6);
    Tensor w = Tensor::randomNormal({9, 2}, rng);
    ReusePattern p;
    p.granularity = 9;
    p.numHashes = 4;
    AccuracyBound b = accuracyBound(sample, w, p, geom, 7, true);
    // Border rows differ (padding), so allow small scatter, but the
    // measured error must still respect the bound.
    EXPECT_LE(b.measuredError, b.bound * 1.001 + 1e-6);
}

TEST(AccuracyModel, BoundsPinnedOnCifarNetConv2Shape)
{
    // Every field the selector reads, over the column orders, block
    // rows and the horizontal direction, on CifarNet's conv2 shape (64
    // channels at 16x16, 5x5 taps: 256 rows of 1600 columns). The hash
    // was taken from the power iteration before it became a dispatched
    // kernel; every level must reproduce it.
    Rng rng(9);
    Network net = makeCifarNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 1;
    Tensor act = makeSyntheticCifar(cfg).gatherImages({0});
    for (size_t l = 0; l < 3; ++l) // conv1, relu1, pool1
        act = net.layer(l).forward(act, false);
    const Conv2D &conv2 = *net.findConv("conv2");
    const ConvGeometry geom = conv2.geometry(act.shape());
    const Tensor sample = im2col(act, geom);
    const Tensor w = conv2.weightMatrix();
    ASSERT_EQ(sample.shape().rows(), 256u);
    ASSERT_EQ(sample.shape().cols(), 1600u);

    std::vector<ReusePattern> patterns;
    for (ColumnOrder order : {ColumnOrder::ChannelMajor,
                              ColumnOrder::PixelMajor, ColumnOrder::KwMajor})
        for (size_t r : {size_t(1), size_t(2), size_t(0)}) {
            ReusePattern p;
            p.columnOrder = order;
            p.numHashes = 4;
            p.granularity = 25;
            if (r == 0) {
                p.direction = ReuseDirection::Horizontal;
                p.granularity = 16;
            } else {
                p.blockRows = r;
            }
            patterns.push_back(p);
        }
    const simd::Level restore = simd::activeLevel();
    for (simd::Level level : {simd::Level::Scalar, simd::detect()}) {
        ASSERT_TRUE(simd::setActiveLevel(level).ok());
        uint64_t h = 1469598103934665603ull;
        for (const ReusePattern &p : patterns) {
            ASSERT_TRUE(p.validFor(geom)) << p.describe();
            const AccuracyBound b = accuracyBound(sample, w, p, geom, 7);
            EXPECT_GT(b.bound, 0.0) << p.describe();
            for (double d : {b.bound, b.scatterTerm, b.weightTerm}) {
                unsigned char bytes[sizeof d];
                std::memcpy(bytes, &d, sizeof d);
                for (unsigned char c : bytes) {
                    h ^= c;
                    h *= 1099511628211ull;
                }
            }
        }
        EXPECT_EQ(h, 0x2ff89721623ea8e3ull) << simd::levelName(level);
    }
    ASSERT_TRUE(simd::setActiveLevel(restore).ok());
}

TEST(LatencyModel, ExactLedgerMatchesGeometry)
{
    AnalyticFixture fix;
    CostLedger exact = exactConvLedger(fix.geom);
    EXPECT_EQ(exact.stage(Stage::Gemm).macs, fix.geom.macs());
    EXPECT_EQ(exact.stage(Stage::Transformation).elemMoves,
              fix.geom.rows() * fix.geom.cols());
}

TEST(LatencyModel, KeyConditionArithmetic)
{
    AnalyticFixture fix;
    ReusePattern p;
    p.granularity = 25;
    p.numHashes = 4;
    LatencyEstimate est =
        estimateLatency(fix.sample, fix.w, p, fix.geom, 7);
    const double h_over_dout = 4.0 / 16.0;
    EXPECT_NEAR(est.flopRatio(fix.geom),
                h_over_dout + 1.0 - est.redundancyRatio(), 1e-9);
    EXPECT_EQ(est.keyConditionHolds(fix.geom),
              h_over_dout < est.redundancyRatio());
}

TEST(LatencyModel, RedundantDataYieldsSpeedup)
{
    AnalyticFixture fix;
    ReusePattern p;
    p.granularity = 25;
    p.numHashes = 3;
    LatencyEstimate est = estimateLatency(fix.sample, fix.w, p, fix.geom);
    CostModel model(McuSpec::stm32f469i());
    // Structured synthetic images are highly redundant.
    EXPECT_GT(est.redundancyRatio(), 0.6);
    EXPECT_TRUE(est.keyConditionHolds(fix.geom));
    EXPECT_GT(est.speedup(model), 1.0);
    EXPECT_GT(est.milliseconds(model), 0.0);
}

TEST(LatencyModel, HighHashCountCanViolateKeyCondition)
{
    // H = Dout makes H/Dout = 1 > r_t always: reuse cannot pay off.
    AnalyticFixture fix;
    ReusePattern p;
    p.granularity = 25;
    p.numHashes = 16; // == Dout
    LatencyEstimate est = estimateLatency(fix.sample, fix.w, p, fix.geom);
    EXPECT_FALSE(est.keyConditionHolds(fix.geom));
    EXPECT_GT(est.flopRatio(fix.geom), 1.0);
}

TEST(LatencyModel, StatsPopulated)
{
    AnalyticFixture fix;
    ReusePattern p;
    p.granularity = 15;
    p.numHashes = 4;
    LatencyEstimate est = estimateLatency(fix.sample, fix.w, p, fix.geom);
    EXPECT_EQ(est.stats.numPanels, 5u);
    EXPECT_EQ(est.stats.totalVectors, fix.geom.rows() * 5u);
    EXPECT_GT(est.stats.totalCentroids, 0u);
    EXPECT_EQ(est.stats.exactMacs, fix.geom.macs());
}

} // namespace
} // namespace genreuse
