/**
 * @file
 * The analytic latency model (§4.2). Clustering reduces the GEMM's row
 * (or column) population from n vectors to n_c centroids; the
 * redundancy ratio r_t = 1 - n_c/n measures the saving, the hashing
 * GEMM adds an H/Dout relative overhead, and reuse pays off exactly
 * when the key condition H/Dout < r_t holds. Beyond the FLOPs model,
 * this module produces the full per-stage op-count ledger so the MCU
 * cost model can price transformation/clustering/GEMM/recovery
 * (Table 3's breakdown).
 */

#ifndef GENREUSE_CORE_LATENCY_MODEL_H
#define GENREUSE_CORE_LATENCY_MODEL_H

#include "mcu/cost_model.h"
#include "reuse_pattern.h"
#include "reuse_stats.h"
#include "tensor/tensor.h"

namespace genreuse {

/** Latency prediction for one layer under one pattern. */
struct LatencyEstimate
{
    ReusePattern pattern;
    ReuseStats stats;          //!< measured on the profiling sample
    CostLedger reuseLedger;    //!< per-sample-run op counts under reuse
    CostLedger exactLedger;    //!< op counts of the exact convolution

    /** r_t measured by the lightweight profiling run. */
    double redundancyRatio() const { return stats.redundancyRatio(); }

    /** The paper's FLOPs ratio (H/Dout + r_c); < 1 means fewer FLOPs. */
    double flopRatio(const ConvGeometry &geom) const;

    /** Key condition H/Dout < r_t (§4.2). */
    bool keyConditionHolds(const ConvGeometry &geom) const;

    /** Predicted latency of the reuse execution on a board. */
    double milliseconds(const CostModel &model) const;

    /** Predicted speedup of reuse over the exact convolution. */
    double speedup(const CostModel &model) const;
};

/** Op counts of the exact (CMSIS-NN style) im2col+GEMM convolution. */
CostLedger exactConvLedger(const ConvGeometry &geom);

/**
 * Profile @p pattern with lightweight random-hash reuse on a sample
 * (the analytic-model measurement path of Figure 8).
 *
 * @param sample_default_x im2col sample in default layout; use a
 *        single representative image (batch 1) so ledgers are
 *        per-image
 */
LatencyEstimate estimateLatency(const Tensor &sample_default_x,
                                const Tensor &w, const ReusePattern &pattern,
                                const ConvGeometry &geom, uint64_t seed = 7);

/**
 * estimateLatency() for a sample already in the pattern's row/column
 * order with matching pre-permuted weights. The exploration engine
 * calls this with memoized reorders; ledgers, stats, and therefore all
 * predictions are bit-identical to the default-layout entry point.
 */
LatencyEstimate estimateLatencyReordered(const Tensor &xr, const Tensor &wr,
                                         const ReusePattern &pattern,
                                         const ConvGeometry &geom,
                                         uint64_t seed = 7);

class ReuseConvAlgo;

/**
 * Per-image latency prediction for an *already fitted* algo — e.g. the
 * Learned-hash algo a deployment actually installs — rather than the
 * lightweight Random-hash profiling configuration. Charges exactly what
 * a ledger-attached Conv2D::forward() with this algo charges (im2col move, the
 * algo's own multiply accounting, bias/fold recovery), so summing these
 * estimates over the evaluation images reconciles with the layer's
 * attached op ledger; table3_perf_breakdown asserts agreement within 1%.
 */
LatencyEstimate estimateLatencyFitted(ReuseConvAlgo &algo,
                                      const Tensor &sample_default_x,
                                      const Tensor &w,
                                      const ConvGeometry &geom);

} // namespace genreuse

#endif // GENREUSE_CORE_LATENCY_MODEL_H
