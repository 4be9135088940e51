/**
 * @file
 * Tests for the runtime reuse guard: the degradation ladder
 * (full reuse -> re-cluster -> exact GEMM), the bit-for-bit exact
 * fallback (the Table-4-style OOD requirement), non-finite activation
 * handling, the nan_activation fault, deploy-time downgrades, guard
 * event accounting, the NaN-singleton LSH repair, and the fused eval
 * pass walking the same ladder as the im2col path.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <new>
#include <numeric>

#include "common/faultpoint.h"
#include "common/metrics.h"
#include "core/guard.h"
#include "core/measurement.h"
#include "core/reuse_audit.h"
#include "core/reuse_conv.h"
#include "core/reuse_dense.h"
#include "data/synthetic.h"
#include "lsh/clustering.h"
#include "models/models.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** Every test starts and ends disarmed with zeroed guard counters and
 *  a zeroed metrics registry, so no assertion here depends on which
 *  tests (or how many fixtures) ran earlier in the process. */
struct GuardSandbox
{
    GuardSandbox()
    {
        faultpoint::disarm();
        guard::reset();
        metrics::reset();
    }
    ~GuardSandbox()
    {
        faultpoint::disarm();
        guard::reset();
        metrics::reset();
    }
};

/** Same synthetic conv workload as test_reuse_conv.cc. */
struct ConvFixture
{
    Rng rng{42};
    Conv2D conv{"conv", 3, 8, 5, 1, 2, rng};
    Dataset data;

    ConvFixture()
    {
        SyntheticConfig cfg;
        cfg.numSamples = 6;
        cfg.noiseStddev = 0.0f;
        cfg.redundancy = 0.9f;
        data = makeSyntheticCifar(cfg);
    }

    Tensor
    sampleX()
    {
        Tensor x = data.gatherImages({0, 1});
        conv.forward(x, false);
        return conv.lastIm2col();
    }
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

TEST(Guard, FullReuseWhenErrorWithinBudget)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.marginFactor = 1e9; // in-distribution input must be accepted
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    Tensor y = algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(y.shape(), Shape({sample.shape().rows(), 8u}));
    EXPECT_EQ(algo.lastRung(), GuardRung::FullReuse);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.forwards, 1u);
    EXPECT_EQ(s.fullReuse, 1u);
    EXPECT_EQ(s.exactFallbacks, 0u);
    EXPECT_GT(s.lastErrorBudget, 0.0);
    EXPECT_LE(s.lastMeasuredError, s.lastErrorBudget);
}

TEST(Guard, LadderWalksToBitIdenticalExactFallback)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // A coarse pattern (2 hashes) has real reconstruction error; an
    // absurdly small margin makes any measured error a violation, so
    // the guard must re-cluster maxReclusters times and then return
    // the exact product.
    GuardConfig cfg;
    cfg.marginFactor = 1e-18;
    cfg.maxReclusters = 2;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 2), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    Tensor y = algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.forwards, 1u);
    EXPECT_EQ(s.reclusters, 2u);
    EXPECT_EQ(s.exactFallbacks, 1u);
    EXPECT_GT(s.worstMargin, 1.0);

    // Table-4-style OOD requirement: the fallback is the exact
    // baseline bit for bit, not another approximation.
    Tensor exact = ExactConvAlgo().multiply(sample, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, NonFiniteInputDowngradesToExact)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), {},
                              HashMode::Learned, 1);
    algo.fit(sample, geom);

    Tensor poisoned = sample;
    poisoned.data()[7] = std::numeric_limits<float>::quiet_NaN();
    Tensor y = algo.multiply(poisoned, w, geom, nullptr);
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.nonFiniteInputs, 1u);
    EXPECT_EQ(s.exactFallbacks, 1u);

    // Exact on the same poisoned input, NaNs and all (memcmp, since
    // NaN != NaN defeats numeric comparison).
    Tensor exact = ExactConvAlgo().multiply(poisoned, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, NanActivationFaultInjectsAndFallsBack)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), {},
                              HashMode::Learned, 1);
    algo.fit(sample, geom);

    Tensor y;
    {
        faultpoint::Scoped scoped(faultpoint::Fault::NanActivation, 21);
        y = algo.multiply(sample, w, geom, nullptr);
    }
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().nonFiniteInputs, 1u);

    // The injection is deterministic: exact GEMM on a copy corrupted
    // with the same seed reproduces the guarded output bit for bit.
    Tensor corrupted = sample;
    corruptWithNan(corrupted, 21);
    Tensor exact = ExactConvAlgo().multiply(corrupted, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, DisabledGuardIsPassThrough)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.enabled = false;
    GuardedReuseConvAlgo guarded(ReusePattern::conventional(geom, 6),
                                 cfg, HashMode::Learned, 1);
    guarded.fit(sample, geom);
    Tensor y = guarded.multiply(sample, w, geom, nullptr);

    ReuseConvAlgo plain(ReusePattern::conventional(geom, 6),
                        HashMode::Learned, 1);
    plain.fit(sample, geom);
    Tensor ref = plain.multiply(sample, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, ref));

    // Pass-through records nothing: off-path cost is one branch.
    EXPECT_EQ(guard::snapshot().forwards, 0u);
}

TEST(Guard, VerificationCostIsChargedToTheLedger)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo guarded(ReusePattern::conventional(geom, 6),
                                 cfg, HashMode::Learned, 1);
    guarded.fit(sample, geom);
    CostLedger guarded_ledger;
    guarded.multiply(sample, w, geom, &guarded_ledger);

    ReuseConvAlgo plain(ReusePattern::conventional(geom, 6),
                        HashMode::Learned, 1);
    plain.fit(sample, geom);
    CostLedger plain_ledger;
    plain.multiply(sample, w, geom, &plain_ledger);

    // The sampled verification rows are exact GEMM work, priced like
    // any other op so guarded latencies include the guard's own cost.
    EXPECT_GT(guarded_ledger.stage(Stage::Gemm).macs,
              plain_ledger.stage(Stage::Gemm).macs);
}

TEST(Guard, ToJsonCarriesSchemaAndRung)
{
    GuardSandbox sandbox;
    guard::recordForward(GuardRung::Recluster, 1.0, 2.0);
    std::string json = guard::toJson();
    EXPECT_NE(json.find("genreuse.guard/1"), std::string::npos);
    EXPECT_NE(json.find("\"reclusterWins\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"lastRung\": \"recluster\""),
              std::string::npos);
    EXPECT_FALSE(guard::snapshot().empty());
    guard::reset();
    EXPECT_TRUE(guard::snapshot().empty());
}

TEST(Guard, FitAndInstallGuardedMeasuresThroughWrapper)
{
    GuardSandbox sandbox;
    Rng rng(50);
    Network net = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 24;
    cfg.seed = 31;
    Dataset data = makeSyntheticCifar(cfg);

    Conv2D *conv = net.findConv("conv2");
    ASSERT_NE(conv, nullptr);
    ReusePattern p = ReusePattern::conventional(
        ConvGeometry{1, 8, 16, 16, 16, 3, 3, 1, 1}, 6);
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9;
    auto algo =
        fitAndInstallGuarded(net, *conv, p, data.slice(0, 4), gcfg);
    EXPECT_TRUE(algo->inner().fitted());
    EXPECT_NE(algo->describe().find("guard["), std::string::npos);

    CostModel model(McuSpec::stm32f469i());
    Measurement m = measureNetwork(net, data.slice(4, 8), model);
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_GT(m.convMs, 0.0);
    // measureNetwork reads reuse stats through the guard wrapper.
    EXPECT_GT(m.stats.totalVectors, 0u);
    EXPECT_GT(guard::snapshot().forwards, 0u);
}

TEST(Guard, ReuseDenseFallsBackOnNonFiniteInput)
{
    GuardSandbox sandbox;
    Rng rng(9);
    ReuseDense layer("fc", 32, 10, rng);
    Tensor sample = Tensor::randomNormal({16, 32}, rng);
    layer.fitReuse(sample, 8, 6);

    Tensor clean = Tensor::randomNormal({2, 32}, rng);
    layer.forward(clean, false);
    EXPECT_EQ(layer.lastRung(), GuardRung::FullReuse);

    Tensor poisoned = clean;
    poisoned.data()[3] = std::numeric_limits<float>::infinity();
    Tensor y = layer.forward(poisoned, false);
    EXPECT_EQ(layer.lastRung(), GuardRung::ExactFallback);
    EXPECT_GE(guard::snapshot().nonFiniteInputs, 1u);

    // The fallback is the layer's own exact path on the same input.
    layer.disableReuse();
    Tensor exact = layer.forward(poisoned, false);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, LshRoutesNonFiniteRowsToSingletons)
{
    GuardSandbox sandbox;
    // All-positive hyperplanes with zero bias: the two all-negative
    // rows project negative (bit 0) and the NaN row's comparison is
    // false (bit 0), so all three collide into one cluster whose mean
    // would be poisoned. The repair pass must peel the NaN row into a
    // singleton and leave the finite pair's centroid clean.
    Tensor x({3, 4},
             {-1.0f, -2.0f, -1.5f, -0.5f, //
              -1.0f, -2.0f, -1.5f, -0.5f, //
              std::numeric_limits<float>::quiet_NaN(), 1.0f, 2.0f, 3.0f});
    HashFamily family(Tensor({2, 4}, 1.0f));
    StridedItems items{x.data(), 3, 4, 4, 1};

    ClusterResult r = clusterBySignature(items, family, nullptr);
    EXPECT_TRUE(clusterTableValid(r));
    EXPECT_EQ(r.numClusters(), 2u);
    EXPECT_EQ(r.assignments[0], r.assignments[1]);
    EXPECT_NE(r.assignments[0], r.assignments[2]);
    EXPECT_EQ(r.sizes[r.assignments[2]], 1u);

    // The finite pair's centroid must be finite (the NaN no longer
    // smears into it) and equal to the pair's common value.
    const uint32_t c = r.assignments[0];
    for (size_t j = 0; j < 4; ++j) {
        EXPECT_TRUE(std::isfinite(r.centroids.at2(c, j)));
        EXPECT_FLOAT_EQ(r.centroids.at2(c, j), x.at2(0, j));
    }
}

TEST(Guard, DeployRungDowngradesInsteadOfAborting)
{
    GuardSandbox sandbox;
    MemoryEstimate est;
    // An estimate that cannot fit any board's SRAM.
    est.layers.push_back({"conv1", 1024, 1u << 30, 1u << 30, 0});
    McuSpec board = McuSpec::stm32f469i();
    EXPECT_EQ(deployRung(est, board), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().deployDowngrades, 1u);
}

// ---- per-stream state keys ----------------------------------------------

TEST(GuardState, NewGuardAtAFreedGuardsAddressStartsFresh)
{
    // Per-stream state is keyed by an instance serial, not an address:
    // a guard built in the storage a freed one occupied must not
    // inherit its drift detectors or its inner algorithm's stats.
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    StreamContext stream(1);
    StreamContext::Bind bind(stream);

    alignas(GuardedReuseConvAlgo) unsigned char
        slot[sizeof(GuardedReuseConvAlgo)];
    auto make = [&] {
        auto *g = new (slot) GuardedReuseConvAlgo(
            ReusePattern::conventional(geom, 8), cfg, HashMode::Learned, 1);
        g->fit(sample, geom);
        return g;
    };
    GuardedReuseConvAlgo *first = make();
    for (int i = 0; i < 3; ++i)
        first->multiply(sample, w, geom, nullptr);
    ASSERT_EQ(first->errorDrift().observations(), 3u);
    ASSERT_GT(first->inner().lastStats().totalVectors, 0u);
    first->~GuardedReuseConvAlgo();

    GuardedReuseConvAlgo *second = make(); // the same storage
    EXPECT_EQ(second->errorDrift().observations(), 0u);
    EXPECT_EQ(second->clusterDrift().observations(), 0u);
    EXPECT_EQ(second->inner().lastStats().totalVectors, 0u);
    second->multiply(sample, w, geom, nullptr);
    EXPECT_EQ(second->errorDrift().observations(), 1u);
    second->~GuardedReuseConvAlgo();
}

/** (rung, verification rows) after each forward of a fresh guard fed
 *  in-distribution patches, then noise that trips its cluster-ratio
 *  drift watcher. */
std::vector<std::pair<GuardRung, size_t>>
guardDecisions(const Tensor &sample, const Tensor &noise,
               const ConvGeometry &geom, const Tensor &w)
{
    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    cfg.clusterDrift.ph.warmup = 2;
    cfg.clusterDrift.ph.delta = 0.0;
    cfg.clusterDrift.ph.lambda = 0.05;
    auto algo = std::make_shared<GuardedReuseConvAlgo>(
        ReusePattern::conventional(geom, 8), cfg, HashMode::Learned, 1);
    algo->fit(sample, geom);
    std::vector<std::pair<GuardRung, size_t>> out;
    for (int i = 0; i < 12; ++i) {
        algo->multiply(i < 4 ? sample : noise, w, geom, nullptr);
        out.emplace_back(algo->lastRung(), algo->verifyRows());
    }
    return out;
}

TEST(GuardState, RepeatedRunsMakeIdenticalDecisions)
{
    // Two runs of the same seed on one stream, each with a freshly
    // allocated guard (which the allocator may well place where the
    // last one lived): the second must not start from the first's
    // tripped detectors.
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    Rng rng(77);
    const Tensor noise = Tensor::randomNormal(sample.shape(), rng);
    StreamContext stream(1);
    StreamContext::Bind bind(stream);

    const auto first = guardDecisions(sample, noise, geom, w);
    const auto second = guardDecisions(sample, noise, geom, w);
    ASSERT_NE(first.front().second, first.back().second)
        << "the scenario must trip the drift boost";
    EXPECT_EQ(first, second);
}

// ---- fused eval pass ---------------------------------------------------

/** What one guarded conv forward leaves behind. */
struct GuardedForward
{
    Tensor out;
    GuardRung rung = GuardRung::FullReuse;
    ReuseStats stats;
    CostLedger ledger;
    GuardStats guard;
};

/** A guarded algo fitted on a batch-2 sample of @p in_shape. */
std::shared_ptr<GuardedReuseConvAlgo>
fittedGuard(Conv2D &conv, const Tensor &sample, const ReusePattern &p,
            const GuardConfig &cfg)
{
    auto algo = std::make_shared<GuardedReuseConvAlgo>(p, cfg,
                                                       HashMode::Learned, 1);
    const ConvGeometry g = conv.geometry(sample.shape());
    algo->fit(im2col(sample, g), g);
    return algo;
}

/** One eval forward through @p conv running @p algo, from zeroed
 *  guard counters. */
GuardedForward
guardedForward(Conv2D &conv, std::shared_ptr<ConvAlgo> algo,
               GuardedReuseConvAlgo &guarded, const Tensor &x)
{
    guard::reset();
    GuardedForward r;
    conv.setAlgo(std::move(algo));
    conv.setLedger(&r.ledger);
    r.out = conv.forward(x, false);
    conv.setLedger(nullptr);
    r.rung = guarded.lastRung();
    r.stats = guarded.inner().lastStats();
    r.guard = guard::snapshot();
    return r;
}

/**
 * The same forward through two identically fitted guards, one fused
 * and one forced onto the im2col path: outputs, rungs, reuse
 * statistics, ledgers and guard counters must agree exactly.
 */
void
expectSameLadder(Conv2D &conv, const Tensor &sample, const Tensor &x,
                 const ReusePattern &p, const GuardConfig &cfg,
                 const std::string &what)
{
    // A fresh stream keeps this comparison independent of whatever
    // state earlier tests left in the thread-default context.
    StreamContext stream(1);
    StreamContext::Bind bind(stream);
    auto fused_algo = fittedGuard(conv, sample, p, cfg);
    auto ref_algo = fittedGuard(conv, sample, p, cfg);
    ASSERT_TRUE(fused_algo->inner().acceptsNchw(conv.geometry(x.shape()),
                                                conv.weightMatrix()))
        << what;
    const GuardedForward fused =
        guardedForward(conv, fused_algo, *fused_algo, x);
    const GuardedForward ref = guardedForward(
        conv, std::make_shared<test::Im2colPath>(ref_algo), *ref_algo, x);
    EXPECT_TRUE(bitwiseEqual(fused.out, ref.out)) << what;
    EXPECT_EQ(fused.rung, ref.rung) << what;
    EXPECT_EQ(fused.stats.totalVectors, ref.stats.totalVectors) << what;
    EXPECT_EQ(fused.stats.totalCentroids, ref.stats.totalCentroids) << what;
    EXPECT_EQ(fused.stats.reuseMacs, ref.stats.reuseMacs) << what;
    EXPECT_TRUE(fused.ledger == ref.ledger) << what;
    EXPECT_EQ(fused.guard.forwards, ref.guard.forwards) << what;
    EXPECT_EQ(fused.guard.fullReuse, ref.guard.fullReuse) << what;
    EXPECT_EQ(fused.guard.reclusters, ref.guard.reclusters) << what;
    EXPECT_EQ(fused.guard.reclusterWins, ref.guard.reclusterWins) << what;
    EXPECT_EQ(fused.guard.exactFallbacks, ref.guard.exactFallbacks) << what;
    EXPECT_EQ(fused.guard.nonFiniteInputs, ref.guard.nonFiniteInputs)
        << what;
    EXPECT_EQ(fused.guard.lastMeasuredError, ref.guard.lastMeasuredError)
        << what;
    EXPECT_EQ(fused.guard.lastErrorBudget, ref.guard.lastErrorBudget)
        << what;
}

/** Synthetic CIFAR images averaged down to @p c channels' worth of
 *  planes (channel k copies input channel k % 3, scaled). */
Tensor
imagesWithChannels(const Dataset &data, std::vector<size_t> idx, size_t c,
                   size_t hw)
{
    const Tensor img = data.gatherImages(idx);
    Tensor x({idx.size(), c, hw, hw});
    const size_t step = img.shape().height() / hw;
    for (size_t b = 0; b < idx.size(); ++b)
        for (size_t ch = 0; ch < c; ++ch)
            for (size_t y = 0; y < hw; ++y)
                for (size_t xx = 0; xx < hw; ++xx)
                    x.at4(b, ch, y, xx) =
                        img.at4(b, ch % 3, y * step, xx * step) *
                        (1.0f + 0.1f * static_cast<float>(ch / 3));
    return x;
}

TEST(GuardFused, LadderMatchesIm2colPathAcrossShapesAndOrders)
{
    GuardSandbox sandbox;
    SyntheticConfig dcfg;
    dcfg.numSamples = 5;
    dcfg.redundancy = 0.8f;
    dcfg.noiseStddev = 0.03f;
    const Dataset data = makeSyntheticCifar(dcfg);
    struct Shape3
    {
        const char *name;
        size_t in, out, kernel, pad, hw;
    };
    const Shape3 shapes[] = {{"cifarnet.conv1", 3, 64, 5, 2, 32},
                             {"cifarnet.conv2", 64, 64, 5, 2, 16},
                             {"fire4.expand_3x3", 32, 128, 3, 1, 8}};
    size_t cases = 0;
    for (const Shape3 &cs : shapes)
        for (ColumnOrder order : {ColumnOrder::ChannelMajor,
                                  ColumnOrder::PixelMajor,
                                  ColumnOrder::KwMajor})
            for (size_t batch : {size_t(1), size_t(3)})
                for (size_t h : {size_t(4), size_t(8)}) {
                    Rng rng(200 + cases);
                    Conv2D conv("conv", cs.in, cs.out, cs.kernel, 1, cs.pad,
                                rng);
                    ReusePattern p;
                    p.columnOrder = order;
                    p.numHashes = h;
                    p.granularity = cs.kernel * cs.kernel;
                    std::vector<size_t> idx(batch);
                    std::iota(idx.begin(), idx.end(), size_t(2));
                    expectSameLadder(
                        conv, imagesWithChannels(data, {0, 1}, cs.in, cs.hw),
                        imagesWithChannels(data, idx, cs.in, cs.hw), p, {},
                        std::string(cs.name) + " " + toString(order) +
                            " b=" + std::to_string(batch) +
                            " H=" + std::to_string(h));
                    ++cases;
                }
    EXPECT_EQ(cases, 36u);
}

TEST(GuardFused, ReclusterExactNonFiniteAndDisabledRungsMatch)
{
    GuardSandbox sandbox;
    ConvFixture f;
    const Tensor sample = f.data.gatherImages({0, 1});
    const Tensor x = f.data.gatherImages({2});
    const ConvGeometry geom = f.conv.geometry(x.shape());
    const ReusePattern p = ReusePattern::conventional(geom, 2);

    // Any measured error blows the budget: re-cluster, then exact. The
    // re-cluster rung builds the matrix from the NCHW input.
    GuardConfig tight;
    tight.marginFactor = 1e-18;
    tight.maxReclusters = 1;
    expectSameLadder(f.conv, sample, x, p, tight, "recluster+exact");

    GuardConfig loose;
    loose.marginFactor = 1e9;
    Tensor poisoned = x;
    poisoned.data()[123] = std::numeric_limits<float>::quiet_NaN();
    expectSameLadder(f.conv, sample, poisoned, p, loose, "non-finite");

    GuardConfig off;
    off.enabled = false;
    expectSameLadder(f.conv, sample, x, p, off, "disabled");

    // The canary gathers its rows from the NCHW input on the fused
    // path; what it measures must not depend on the path.
    audit::setCanaryRate(1.0);
    audit::reset();
    expectSameLadder(f.conv, sample, x, p, loose, "canary");
    const std::vector<audit::LayerAudit> series = audit::snapshot().layers;
    audit::setCanaryRate(0.0);
    audit::reset();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].canarySamples, 1u);
    EXPECT_EQ(series[0].canaryLast, series[1].canaryLast);
}

TEST(GuardFused, ArmedFaultPointKeepsTheIm2colPath)
{
    GuardSandbox sandbox;
    ConvFixture f;
    const Tensor sample = f.data.gatherImages({0, 1});
    const Tensor x = f.data.gatherImages({2});
    const ConvGeometry geom = f.conv.geometry(x.shape());
    const ReusePattern p = ReusePattern::conventional(geom, 8);
    auto algo = fittedGuard(f.conv, sample, p, {});
    const Tensor w = f.conv.weightMatrix();

    Tensor y;
    {
        faultpoint::Scoped scoped(faultpoint::Fault::NanActivation, 21);
        EXPECT_FALSE(algo->multiplyNchw(x, w, geom, nullptr, y));
        f.conv.setAlgo(algo);
        (void)f.conv.forward(x, false);
    }
    // The im2col path ran the injection: exact rung on the corrupted
    // copy.
    EXPECT_EQ(algo->lastRung(), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().nonFiniteInputs, 1u);
    EXPECT_TRUE(algo->multiplyNchw(x, w, geom, nullptr, y));
    EXPECT_EQ(algo->lastRung(), GuardRung::FullReuse);
}

} // namespace
} // namespace genreuse
