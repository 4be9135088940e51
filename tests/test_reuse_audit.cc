/**
 * @file
 * Tests for the reuse-efficacy audit and its accuracy canary
 * (core/reuse_audit.h): disarmed hooks record nothing, the fit-time
 * modeled r_t reconciles with the observed redundancy ratio (exactly
 * on the fit sample, within a loose bound on fresh batches from the
 * same distribution), profiling forwards are suppressed,
 * kernel/clustering histograms accumulate, guard budget burn is
 * recorded, slots are keyed by instance serial (not address), canary
 * sampling is a deterministic credit accumulator that reuses the
 * guard's own verification rows when it can, breaches fire when
 * overload level 2 sheds guard verification, and the JSON export
 * carries its schema tag.
 */

#include <cstring>
#include <gtest/gtest.h>
#include <new>
#include <string>

#include "common/faultpoint.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "core/reuse_conv.h"
#include "core/vertical_reuse.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** Every test starts and ends with the audit and canary disarmed and
 *  all process-global observability state zeroed, so no assertion here
 *  depends on which tests ran earlier in the process. */
struct AuditSandbox
{
    AuditSandbox() { scrub(); }
    ~AuditSandbox() { scrub(); }

    static void
    scrub()
    {
        faultpoint::disarm();
        overload::setLevel(0);
        guard::reset();
        metrics::reset();
        audit::setEnabled(false);
        audit::setCanaryRate(0.0);
        audit::reset();
    }
};

/** Same synthetic conv workload as test_guard.cc. */
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

/** The snapshot slot named @p name, or nullptr. */
const audit::LayerAudit *
findLayer(const audit::Snapshot &snap, const std::string &name)
{
    for (const auto &l : snap.layers)
        if (l.name == name)
            return &l;
    return nullptr;
}

TEST(Audit, DisarmedHooksRecordNothing)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();

    ASSERT_FALSE(audit::enabled());
    applyReusePattern(f.conv, ReusePattern::conventional(geom, 8),
                      sample, geom);
    f.conv.forward(f.data.gatherImages({0, 1}), false);

    audit::Snapshot snap = audit::snapshot();
    EXPECT_TRUE(snap.layers.empty());
    EXPECT_EQ(snap.clusterings, 0u);
    for (const auto &k : snap.kernels)
        EXPECT_EQ(k.invocations, 0u);
}

TEST(Audit, ObservedRedundancyReconcilesWithModeled)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();

    audit::setEnabled(true);
    applyReusePattern(f.conv, ReusePattern::conventional(geom, 8),
                      sample, geom);

    // The profiling forward inside applyReusePattern is suppressed:
    // the model is stamped but nothing is observed yet, so no slot has
    // materialized.
    EXPECT_EQ(findLayer(audit::snapshot(), "conv"), nullptr);

    // Forwarding the fit sample itself must reproduce the modeled r_t
    // exactly — clustering is deterministic, so model and runtime see
    // the same input and produce the same centroids.
    f.conv.forward(f.data.gatherImages({0, 1}), false);
    {
        audit::Snapshot snap = audit::snapshot();
        const audit::LayerAudit *l = findLayer(snap, "conv");
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(l->forwards, 1u);
        EXPECT_TRUE(l->hasModeled);
        EXPECT_GT(l->modeled, 0.0);
        EXPECT_NEAR(l->lastObserved, l->modeled, 1e-12);
        EXPECT_NEAR(l->modelGap(), 0.0, 1e-12);
        EXPECT_GT(l->vectors, l->centroids);
    }

    // A fresh batch from the same synthetic distribution must stay
    // within a loose reconciliation bound of the model — this is the
    // number the audit exists to watch.
    f.conv.forward(f.data.gatherImages({2, 3}), false);
    {
        audit::Snapshot snap = audit::snapshot();
        const audit::LayerAudit *l = findLayer(snap, "conv");
        ASSERT_NE(l, nullptr);
        EXPECT_EQ(l->forwards, 2u);
        EXPECT_LT(l->modelGap(), 0.15);
        EXPECT_GT(l->meanObserved(), 0.0);
        EXPECT_GT(l->ewmaObserved, 0.0);
    }
}

TEST(Audit, SuppressExcludesProfilingForwards)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    audit::setEnabled(true);
    ReuseConvAlgo algo(ReusePattern::conventional(geom, 8),
                       HashMode::Learned, 1);
    algo.fit(sample, geom);

    {
        audit::Suppress suppress;
        algo.multiply(sample, w, geom, nullptr);
    }
    audit::Snapshot snap = audit::snapshot();
    for (const auto &l : snap.layers)
        EXPECT_EQ(l.forwards, 0u);
    EXPECT_EQ(snap.clusterings, 0u);

    // The same forward unsuppressed is observed.
    algo.multiply(sample, w, geom, nullptr);
    snap = audit::snapshot();
    ASSERT_EQ(snap.layers.size(), 1u);
    EXPECT_EQ(snap.layers[0].forwards, 1u);
}

TEST(Audit, KernelsClusteringsAndHistogramsAccumulate)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    audit::setEnabled(true);
    ReuseConvAlgo algo(ReusePattern::conventional(geom, 8),
                       HashMode::Learned, 1);
    algo.fit(sample, geom);
    algo.multiply(sample, w, geom, nullptr);

    audit::Snapshot snap = audit::snapshot();
    uint64_t invocations = 0;
    for (const auto &k : snap.kernels)
        invocations += k.invocations;
    EXPECT_GT(invocations, 0u);
    EXPECT_GT(snap.clusterings, 0u);
    // Every clustering call records its cluster count; every cluster
    // records its occupancy, and occupancies sum back to the vectors.
    EXPECT_EQ(snap.clusterCountHist.count, snap.clusterings);
    EXPECT_GT(snap.occupancyHist.count, 0u);
    ASSERT_EQ(snap.layers.size(), 1u);
    EXPECT_EQ(snap.occupancyHist.count, snap.layers[0].centroids);
    EXPECT_EQ(snap.occupancyHist.sum, snap.layers[0].vectors);
}

TEST(Audit, GuardedForwardRecordsOneClusteringPerSlice)
{
    // The guard's first forward derives its error budget, and that
    // derivation clusters the fit sample slice by slice (accuracyBound).
    // Only the reuse kernel's clusterings are runtime behavior, so one
    // guarded forward records exactly one clustering per slice.
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();

    audit::setEnabled(true);
    GuardConfig cfg;
    cfg.marginFactor = 1e9; // in-distribution input stays on rung 0
    const ReusePattern pattern = ReusePattern::conventional(geom, 8);
    applyGuardedReusePattern(f.conv, pattern, sample, geom, cfg);
    f.conv.forward(f.data.gatherImages({0, 1}), false);

    const size_t slices =
        VerticalSlicing::plan(geom.cols(), pattern.effectiveGranularity(geom),
                              pattern.blockRows)
            .numSlices;
    audit::Snapshot snap = audit::snapshot();
    EXPECT_EQ(snap.clusterings, slices);
    EXPECT_EQ(snap.clusterCountHist.count, slices);
    const audit::LayerAudit *l = findLayer(snap, "conv");
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(snap.occupancyHist.count, l->centroids);
}

TEST(Audit, GuardBudgetBurnIsRecorded)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();

    audit::setEnabled(true);
    GuardConfig cfg;
    cfg.marginFactor = 1e9; // in-distribution input stays on rung 0
    applyGuardedReusePattern(f.conv, ReusePattern::conventional(geom, 8),
                             sample, geom, cfg);
    f.conv.forward(f.data.gatherImages({0, 1}), false);

    audit::Snapshot snap = audit::snapshot();
    const audit::LayerAudit *l = findLayer(snap, "conv");
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->burnSamples, 1u);
    EXPECT_GT(l->burnMax, 0.0);
    EXPECT_LT(l->burnMax, 1.0); // accepted: measured below budget
    EXPECT_NEAR(l->meanBurn(), l->burnMax, 1e-12);
}

TEST(Audit, JsonExportsCarrySchemaAndLayerName)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();

    audit::setEnabled(true);
    applyReusePattern(f.conv, ReusePattern::conventional(geom, 8),
                      sample, geom);
    f.conv.forward(f.data.gatherImages({0, 1}), false);

    const std::string json = audit::toJson();
    EXPECT_NE(json.find("genreuse.audit/1"), std::string::npos);
    EXPECT_NE(json.find("\"conv\""), std::string::npos);
}

TEST(Audit, NewGuardAtAFreedGuardsAddressStartsFresh)
{
    // Slots, names and modeled r_t are keyed by the algorithm's serial,
    // not its address: a guard built in the storage a freed one
    // occupied must not inherit its name, model or canary series.
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    audit::setEnabled(true);
    audit::setCanaryRate(1.0);
    GuardConfig cfg;
    cfg.marginFactor = 1e9;

    alignas(GuardedReuseConvAlgo) unsigned char
        slot[sizeof(GuardedReuseConvAlgo)];
    auto make = [&] {
        auto *g = new (slot) GuardedReuseConvAlgo(
            ReusePattern::conventional(geom, 8), cfg, HashMode::Learned, 1);
        g->fit(sample, geom);
        return g;
    };
    GuardedReuseConvAlgo *first = make();
    audit::setName(first->inner().serial(), "first");
    audit::setModeled(first->inner().serial(), 0.5);
    for (int i = 0; i < 3; ++i)
        first->multiply(sample, w, geom, nullptr);
    first->~GuardedReuseConvAlgo();

    GuardedReuseConvAlgo *second = make(); // the same storage
    second->multiply(sample, w, geom, nullptr);
    second->~GuardedReuseConvAlgo();

    audit::Snapshot snap = audit::snapshot();
    ASSERT_EQ(snap.layers.size(), 2u);
    const audit::LayerAudit &a = snap.layers[0];
    EXPECT_EQ(a.name, "first");
    EXPECT_EQ(a.forwards, 3u);
    EXPECT_EQ(a.canarySamples, 3u);
    const audit::LayerAudit &b = snap.layers[1];
    EXPECT_EQ(b.name, "");
    EXPECT_FALSE(b.hasModeled);
    EXPECT_EQ(b.forwards, 1u);
    EXPECT_EQ(b.canarySamples, 1u);
    EXPECT_EQ(audit::canarySamples(), 4u);
}

TEST(Canary, RateOneSamplesEveryAcceptedForward)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    audit::setCanaryRate(1.0);
    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    for (int i = 0; i < 3; ++i)
        algo.multiply(sample, w, geom, nullptr);

    EXPECT_EQ(audit::canarySamples(), 3u);
    EXPECT_EQ(audit::canaryBreaches(), 0u);
    // The canary records with the efficacy hooks disarmed: its series
    // is the slot's only content.
    std::vector<audit::LayerAudit> series = audit::snapshot().layers;
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].forwards, 0u);
    EXPECT_EQ(series[0].canarySamples, 3u);
    EXPECT_EQ(series[0].canaryBreaches, 0u);
    EXPECT_GE(series[0].canaryLast, 0.0);
    EXPECT_GE(series[0].canaryWorst, series[0].canaryLast);
    EXPECT_EQ(metrics::counter("canary.samples").get(), 3u);
}

/** Stage::Gemm MACs of one guarded forward of @p x. */
uint64_t
gemmMacs(GuardedReuseConvAlgo &algo, const Tensor &x, const Tensor &w,
         const ConvGeometry &geom)
{
    CostLedger ledger;
    algo.multiply(x, w, geom, &ledger);
    return ledger.stage(Stage::Gemm).macs;
}

TEST(Canary, ReusesTheGuardsVerificationRows)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    Rng rng(77);
    Tensor mixed = sample;
    const Tensor noise = Tensor::randomNormal(sample.shape(), rng);
    for (size_t i = 0; i < mixed.size(); i += 7)
        mixed.data()[i] += 0.3f * noise.data()[i];
    // A coarse pattern and a tight margin: in-distribution forwards are
    // accepted on rung 0, off-distribution ones fail the first
    // verification and walk the ladder. Drift is off so every
    // verification runs on the canary's sampleRows.
    GuardConfig cfg;
    cfg.marginFactor = 0.3;
    cfg.maxReclusters = 3;
    cfg.drift.enabled = false;
    GuardedReuseConvAlgo plain(ReusePattern::conventional(geom, 2), cfg,
                               HashMode::Learned, 1);
    GuardedReuseConvAlgo canaried(ReusePattern::conventional(geom, 2), cfg,
                                  HashMode::Learned, 1);
    plain.fit(sample, geom);
    canaried.fit(sample, geom);

    // The accepted output (rung 0, or the winning re-cluster attempt)
    // was verified on the canary's rows: sampling it costs no GEMM.
    size_t full = 0, wins = 0;
    for (int i = 0; i < 10; ++i) {
        const Tensor &x = i < 3 ? sample : (i % 2 ? noise : mixed);
        audit::setCanaryRate(0.0);
        const uint64_t base = gemmMacs(plain, x, w, geom);
        audit::setCanaryRate(1.0);
        const uint64_t with_canary = gemmMacs(canaried, x, w, geom);
        ASSERT_EQ(canaried.lastRung(), plain.lastRung()) << i;
        EXPECT_EQ(with_canary, base) << i;
        full += canaried.lastRung() == GuardRung::FullReuse;
        wins += canaried.lastRung() == GuardRung::Recluster;
    }
    EXPECT_GT(full, 0u);
    EXPECT_GT(wins, 0u) << "the scenario must win a re-cluster";
    EXPECT_EQ(audit::canarySamples(), full + wins);
}

TEST(Canary, MeasuresItsOwnRowsWhenDriftBoostsVerification)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    Rng rng(77);
    const Tensor noise = Tensor::randomNormal(sample.shape(), rng);
    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    cfg.clusterDrift.ph.warmup = 2;
    cfg.clusterDrift.ph.delta = 0.0;
    cfg.clusterDrift.ph.lambda = 0.05;
    GuardedReuseConvAlgo plain(ReusePattern::conventional(geom, 8), cfg,
                               HashMode::Learned, 1);
    GuardedReuseConvAlgo canaried(ReusePattern::conventional(geom, 8), cfg,
                                  HashMode::Learned, 1);
    // The same in-distribution-then-noise history trips both guards'
    // cluster-ratio watchers, boosting their verification rows.
    for (GuardedReuseConvAlgo *g : {&plain, &canaried}) {
        g->fit(sample, geom);
        for (int i = 0; i < 12; ++i)
            g->multiply(i < 4 ? sample : noise, w, geom, nullptr);
        ASSERT_GT(g->verifyRows(), cfg.sampleRows);
    }

    // The boosted verification sampled other rows than the canary's
    // sampleRows, so the canary pays for exactly its own.
    const uint64_t base = gemmMacs(plain, noise, w, geom);
    audit::setCanaryRate(1.0);
    const uint64_t with_canary = gemmMacs(canaried, noise, w, geom);
    EXPECT_EQ(with_canary - base,
              static_cast<uint64_t>(cfg.sampleRows) * geom.cols() *
                  w.shape().cols());
    EXPECT_EQ(audit::canarySamples(), 1u);
}

TEST(Canary, FractionalRateIsADeterministicCreditAccumulator)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    audit::setCanaryRate(0.25);
    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    // Credit accumulates 0.25 per forward and fires when it crosses 1:
    // forwards 4 and 8 are sampled, nothing else — exactly, every run.
    for (int i = 0; i < 8; ++i)
        algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(audit::canarySamples(), 2u);
}

TEST(Canary, BreachesWhenOverloadShedsGuardVerification)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // An absurdly small margin makes any reuse error a budget breach —
    // but at overload level 2 the guard accepts on trust without
    // verifying. The canary is the only accuracy signal left, and it
    // must catch what verification would have.
    audit::setCanaryRate(1.0);
    GuardConfig cfg;
    cfg.marginFactor = 1e-18;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);

    overload::setLevel(overload::kMaxLevel);
    algo.multiply(sample, w, geom, nullptr);
    algo.multiply(sample, w, geom, nullptr);
    overload::setLevel(0);

    EXPECT_EQ(algo.lastRung(), GuardRung::FullReuse);
    EXPECT_EQ(audit::canarySamples(), 2u);
    EXPECT_EQ(audit::canaryBreaches(), 2u);
    std::vector<audit::LayerAudit> series = audit::snapshot().layers;
    ASSERT_EQ(series.size(), 1u);
    EXPECT_EQ(series[0].canaryBreaches, 2u);
    EXPECT_GT(series[0].canaryLast, 0.0);
    EXPECT_EQ(metrics::counter("canary.breaches").get(), 2u);

    const std::string json = audit::toJson();
    EXPECT_NE(json.find("genreuse.audit/1"), std::string::npos);
    EXPECT_NE(json.find("\"canary_breaches\": 2"), std::string::npos)
        << json;
}

TEST(Canary, ExactFallbackIsNotCanaried)
{
    AuditSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // At overload level 0 the same tiny margin walks the ladder to the
    // exact fallback; the output is exact, so there is nothing for the
    // canary to check — accepted *reuse* outputs only.
    audit::setCanaryRate(1.0);
    GuardConfig cfg;
    cfg.marginFactor = 1e-18;
    cfg.maxReclusters = 1;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 2), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    algo.multiply(sample, w, geom, nullptr);

    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);
    EXPECT_EQ(audit::canarySamples(), 0u);
    EXPECT_EQ(audit::canaryBreaches(), 0u);
}

} // namespace
} // namespace genreuse
