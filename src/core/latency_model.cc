#include "latency_model.h"

#include "common/logging.h"
#include "reuse_conv.h"

namespace genreuse {

namespace {

/**
 * Bias add + fold back to activation layout, charged by Conv2D::forward
 * after the strategy's multiply. Both the exact and the reuse execution
 * pay it, so both predicted ledgers must include it — omitting it on
 * the reuse side (as an earlier revision did) makes predictions diverge
 * from what a forward() actually reports to its ledger.
 */
OpCounts
biasFoldOps(const ConvGeometry &geom)
{
    OpCounts rc;
    rc.aluOps = geom.rows() * geom.outChannels;
    rc.elemMoves = geom.rows() * geom.outChannels;
    return rc;
}

} // namespace

double
LatencyEstimate::flopRatio(const ConvGeometry &geom) const
{
    const double h = static_cast<double>(pattern.numHashes);
    const double dout = static_cast<double>(geom.outChannels);
    return h / dout + (1.0 - redundancyRatio());
}

bool
LatencyEstimate::keyConditionHolds(const ConvGeometry &geom) const
{
    const double h = static_cast<double>(pattern.numHashes);
    const double dout = static_cast<double>(geom.outChannels);
    return h / dout < redundancyRatio();
}

double
LatencyEstimate::milliseconds(const CostModel &model) const
{
    return reuseLedger.totalMs(model);
}

double
LatencyEstimate::speedup(const CostModel &model) const
{
    // A zero-cost reuse ledger means this estimate never executed (a
    // default-constructed or corrupted LatencyEstimate): any real
    // estimate charges at least the im2col move cost. Returning a
    // neutral 1.0 here would let selection rank a broken candidate as
    // "no speedup" — surface the bug instead.
    const double reuse_ms = reuseLedger.totalMs(model);
    GENREUSE_REQUIRE(reuse_ms > 0.0,
                     "degenerate reuse ledger (0 ms) for pattern ",
                     pattern.describe(), ": speedup undefined");
    return exactLedger.totalMs(model) / reuse_ms;
}

CostLedger
exactConvLedger(const ConvGeometry &geom)
{
    CostLedger ledger;
    OpCounts tf;
    tf.elemMoves = geom.rows() * geom.cols();
    ledger.add(Stage::Transformation, tf);
    OpCounts mm;
    mm.macs = geom.macs();
    ledger.add(Stage::Gemm, mm);
    ledger.add(Stage::Recovering, biasFoldOps(geom));
    return ledger;
}

LatencyEstimate
estimateLatency(const Tensor &sample_default_x, const Tensor &w,
                const ReusePattern &pattern, const ConvGeometry &geom,
                uint64_t seed)
{
    GENREUSE_REQUIRE(pattern.validFor(geom), "invalid pattern ",
                     pattern.describe());
    GENREUSE_REQUIRE(sample_default_x.shape().rows() == geom.rows(),
                     "profiling sample must match the geometry (use a "
                     "batch-1 im2col matrix)");
    LatencyEstimate est;
    est.pattern = pattern;
    est.exactLedger = exactConvLedger(geom);
    // The exact path's im2col move cost also applies before reuse's
    // reorder; charge it so reuse and exact latencies are comparable.
    OpCounts im2col_ops;
    im2col_ops.elemMoves = sample_default_x.size();
    est.reuseLedger.add(Stage::Transformation, im2col_ops);

    ReuseConvAlgo algo(pattern, HashMode::Random, seed);
    algo.fit(sample_default_x, geom);
    algo.multiply(sample_default_x, w, geom, &est.reuseLedger);
    est.reuseLedger.add(Stage::Recovering, biasFoldOps(geom));
    est.stats = algo.lastStats();
    return est;
}

LatencyEstimate
estimateLatencyReordered(const Tensor &xr, const Tensor &wr,
                         const ReusePattern &pattern,
                         const ConvGeometry &geom, uint64_t seed)
{
    GENREUSE_REQUIRE(pattern.validFor(geom), "invalid pattern ",
                     pattern.describe());
    GENREUSE_REQUIRE(xr.shape().rows() == geom.rows(),
                     "profiling sample must match the geometry (use a "
                     "batch-1 im2col matrix)");
    LatencyEstimate est;
    est.pattern = pattern;
    est.exactLedger = exactConvLedger(geom);
    OpCounts im2col_ops;
    im2col_ops.elemMoves = xr.size();
    est.reuseLedger.add(Stage::Transformation, im2col_ops);

    // Random-mode fitting uses only the sample's shape, which the
    // reorder preserves, so fitting on the reordered sample yields the
    // same families (and multiplyReordered the same ledger and stats)
    // as estimateLatency() on the default layout.
    ReuseConvAlgo algo(pattern, HashMode::Random, seed);
    algo.fit(xr, geom);
    algo.multiplyReordered(xr, wr, geom, &est.reuseLedger);
    est.reuseLedger.add(Stage::Recovering, biasFoldOps(geom));
    est.stats = algo.lastStats();
    return est;
}

LatencyEstimate
estimateLatencyFitted(ReuseConvAlgo &algo, const Tensor &sample_default_x,
                      const Tensor &w, const ConvGeometry &geom)
{
    GENREUSE_REQUIRE(algo.fitted(),
                     "estimateLatencyFitted needs a fitted algo");
    GENREUSE_REQUIRE(sample_default_x.shape().rows() == geom.rows(),
                     "sample must match the geometry (use a batch-1 "
                     "im2col matrix)");
    LatencyEstimate est;
    est.pattern = algo.pattern();
    est.exactLedger = exactConvLedger(geom);
    OpCounts im2col_ops;
    im2col_ops.elemMoves = sample_default_x.size();
    est.reuseLedger.add(Stage::Transformation, im2col_ops);
    algo.multiply(sample_default_x, w, geom, &est.reuseLedger);
    est.reuseLedger.add(Stage::Recovering, biasFoldOps(geom));
    est.stats = algo.lastStats();
    return est;
}

} // namespace genreuse
