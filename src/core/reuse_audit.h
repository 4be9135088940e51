/**
 * @file
 * Reuse-efficacy audit: the running, per-layer/per-stream view of the
 * paper's central bet — that fit-time models (redundancy ratio r_t for
 * latency, the squared-Frobenius bound for accuracy) keep predicting
 * what the runtime actually does. Everything observed so far (op
 * ledgers, spans, request traces) measures *cost*; this module
 * measures *efficacy*:
 *
 *  - observed redundancy ratio per layer/stream (last value, EWMA
 *    window, lifetime mean) against the fit-time modeled r_t, so
 *    model/runtime reconciliation is a number, not an assumption;
 *  - cluster-count and centroid-occupancy histograms (HdrHistogram,
 *    the same mergeable buckets the serve latencies use) fed by every
 *    reuse kernel's clusterings — the observability ROADMAP item 3
 *    (shared cluster-table cache) needs before it can be built
 *    honestly;
 *  - reorder/copy traffic per layer (the transformation/recovery
 *    element moves the paper charges against reuse wins);
 *  - guard error-budget burn fraction (measured/budget) per layer;
 *  - the accuracy canary's series: the *relative* error of accepted
 *    reuse outputs against the bit-identical exact path (last, EWMA,
 *    Welford mean with a 95% interval, worst, breaches).
 *
 * The canary is a policy of the guard's verification
 * (GuardedReuseConvAlgo): at a configured rate it judges an accepted
 * reuse output on a few exact rows — the very measurement the guard
 * just verified with when it used the canary's row count, a fresh one
 * otherwise (verification shed at overload level 2, a drift-boosted or
 * halved row count, the guard disabled). It is exempt from shedding by
 * design: at level 2 it is the only accuracy signal left. Sampling is
 * a deterministic per-stream credit, not an RNG, so a rate of 1.0
 * means literally every forward and tests replay exactly. Its series
 * lives in the same per-layer slot as the efficacy counters and is
 * recorded whenever the canary rate is above 0, armed audit or not.
 *
 * Slots are keyed by the owning algorithm's StateOwner serial, never
 * its address: an algorithm built where a freed one lived starts with
 * a fresh slot, name and model.
 *
 * Design mirrors faultpoint/eventlog: off by default, each
 * hot-path gate is ONE inlined relaxed atomic load per hook
 * (BM_AuditGateDisabled / BM_CanaryGateDisabled pin this), armed via
 * setEnabled() / setCanaryRate() or GENREUSE_AUDIT=1 /
 * GENREUSE_CANARY=<rate>. When armed, hooks take a registry mutex and
 * update pre-grown slots — steady state performs no heap allocation
 * (the zero-alloc arena test runs with both armed).
 *
 * Exports: toJson() (schema "genreuse.audit/1", also embedded in BENCH
 * records) and a few global metrics for timelines.
 */

#ifndef GENREUSE_CORE_REUSE_AUDIT_H
#define GENREUSE_CORE_REUSE_AUDIT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hdrhist.h"
#include "reuse_stats.h"

namespace genreuse {
namespace audit {

/** Kernel kinds for the per-kind invocation counters (matches the
 *  KernelReuse event's a8 convention). */
enum class Kernel : uint8_t { Vertical = 0, Horizontal = 1, Fc = 2 };

namespace detail {
extern std::atomic<bool> g_enabled;
// Canary rate as a double bit-pattern; 0 (bit-pattern of +0.0) is the
// disarmed state the inline gate tests for.
extern std::atomic<uint64_t> g_canary_rate_bits;
void recordForwardSlow(uint64_t owner, const ReuseStats &stats);
void recordKernelSlow(Kernel kind, const ReuseStats &local);
void recordClusteringSlow(size_t items, size_t clusters,
                          const size_t *sizes);
void recordTrafficSlow(uint64_t owner, uint64_t reorder_elems,
                       uint64_t copy_elems);
void recordBudgetSlow(uint64_t owner, double measured, double budget);
void recordCanarySlow(uint64_t owner, double rel_error, double rel_budget,
                      uint64_t rows, bool breach);
bool suppressed();
} // namespace detail

/** The efficacy hooks' gate: one relaxed atomic load. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Arm/disarm the efficacy hooks. */
void setEnabled(bool on);

/** The canary's gate: one relaxed atomic load of the rate bits. */
inline bool
canaryEnabled()
{
    return detail::g_canary_rate_bits.load(std::memory_order_relaxed) != 0;
}

/** Current canary sampling rate (0.0 when disarmed). */
double canaryRate();

/** Sample @p rate of guarded forwards (clamped into [0, 1]; 0
 *  disarms). GENREUSE_CANARY=<rate> does this before main(). */
void setCanaryRate(double rate);

/** One layer/stream audit slot (a snapshot copy). */
struct LayerAudit
{
    std::string name;    //!< setName()/eventlog tag, may be empty
    uint16_t stream = 0; //!< streamtag at record time (0 = default)

    uint64_t forwards = 0;
    double lastObserved = 0.0; //!< redundancy ratio of the last forward
    double ewmaObserved = 0.0; //!< windowed view (EWMA, alpha = 0.2)
    double sumObserved = 0.0;  //!< lifetime mean = sumObserved/forwards
    uint64_t vectors = 0;      //!< total clustered vectors
    uint64_t centroids = 0;    //!< total centroids produced

    bool hasModeled = false;
    double modeled = 0.0; //!< fit-time modeled r_t (setModeled)

    uint64_t reorderElems = 0; //!< input/weight reorder element moves
    uint64_t copyElems = 0;    //!< recovery/unpermute element moves

    uint64_t burnSamples = 0; //!< guard verifications with a budget
    double burnSum = 0.0;     //!< Σ measured/budget
    double burnMax = 0.0;     //!< worst burn fraction seen

    uint64_t canarySamples = 0;  //!< canaried forwards
    uint64_t canaryBreaches = 0; //!< samples whose error beat the budget
    double canaryLast = 0.0;     //!< last relative error
    double canaryEwma = 0.0;     //!< EWMA of relative error (alpha 0.2)
    double canaryMean = 0.0;     //!< Welford mean of relative error
    double canaryM2 = 0.0;       //!< Welford sum of squared deviations
    double canaryWorst = 0.0;

    double meanObserved() const
    {
        return forwards ? sumObserved / static_cast<double>(forwards)
                        : 0.0;
    }
    double meanBurn() const
    {
        return burnSamples ? burnSum / static_cast<double>(burnSamples)
                           : 0.0;
    }
    /** |observed − modeled| reconciliation gap (0 when no model). */
    double modelGap() const
    {
        if (!hasModeled || forwards == 0)
            return 0.0;
        const double g = meanObserved() - modeled;
        return g < 0 ? -g : g;
    }
    /** 95% confidence half-width of canaryMean. */
    double canaryCi95() const;
};

/** Per-kernel-kind invocation counters (a snapshot copy). */
struct KernelAudit
{
    uint64_t invocations = 0;
    uint64_t vectors = 0;
    uint64_t centroids = 0;
};

/** Whole-audit snapshot. */
struct Snapshot
{
    std::vector<LayerAudit> layers;
    KernelAudit kernels[3]; //!< index = Kernel
    uint64_t clusterings = 0;
    HdrHistogram::Snapshot clusterCountHist; //!< clusters per call
    HdrHistogram::Snapshot occupancyHist;    //!< items per cluster
};

// ---- hooks (inline-gated; one relaxed load when disarmed) ----------

/** One layer forward's aggregate reuse statistics (reuse_conv /
 *  reuse_dense call this with their per-forward ReuseStats). */
inline void
recordForward(uint64_t owner, const ReuseStats &stats)
{
    if (!enabled())
        return;
    detail::recordForwardSlow(owner, stats);
}

/** One reuse-kernel invocation (vertical/horizontal/fc). */
inline void
recordKernel(Kernel kind, const ReuseStats &local)
{
    if (!enabled())
        return;
    detail::recordKernelSlow(kind, local);
}

/** One reuse kernel's clustering of one slice, band or row: @p sizes
 *  is the per-cluster item count array (length @p clusters) feeding
 *  the occupancy histogram. */
inline void
recordClustering(size_t items, size_t clusters, const size_t *sizes)
{
    if (!enabled())
        return;
    detail::recordClusteringSlow(items, clusters, sizes);
}

/** Reorder (transform) and copy (recover) traffic in elements. */
inline void
recordTraffic(uint64_t owner, uint64_t reorder_elems,
              uint64_t copy_elems)
{
    if (!enabled())
        return;
    detail::recordTrafficSlow(owner, reorder_elems, copy_elems);
}

/** One guard verification's budget burn (measured vs budget). */
inline void
recordBudget(uint64_t owner, double measured, double budget)
{
    if (!enabled())
        return;
    detail::recordBudgetSlow(owner, measured, budget);
}

/**
 * One canary measurement for @p owner: @p rel_error is the measured
 * relative error, @p rel_budget the relative budget it was judged
 * against, @p breach whether it exceeded it. Updates the slot's canary
 * series and the canary.* metrics, and journals CanarySample (always
 * on a breach, else when the journal is on) and CanaryBreach.
 */
inline void
recordCanary(uint64_t owner, double rel_error, double rel_budget,
             uint64_t rows, bool breach)
{
    if (!canaryEnabled())
        return;
    detail::recordCanarySlow(owner, rel_error, rel_budget, rows, breach);
}

// ---- fit-time model registration -----------------------------------

/** Record the fit-time modeled redundancy ratio for @p owner (the
 *  fitted algo's serial). Applies to every stream's slot for it. */
void setModeled(uint64_t owner, double modeled_rt);

/** Display name for @p owner's slots in exports (layer name). */
void setName(uint64_t owner, const std::string &name);

/** RAII hook suppression for the calling thread: fit-time model
 *  profiling runs the real kernels, which must not count as observed
 *  runtime statistics. */
class Suppress
{
  public:
    Suppress();
    ~Suppress();
    Suppress(const Suppress &) = delete;
    Suppress &operator=(const Suppress &) = delete;
};

// ---- exports -------------------------------------------------------

Snapshot snapshot();

/** Canary samples / breaches across all slots (cheap, for SLOs). */
uint64_t canarySamples();
uint64_t canaryBreaches();

/** Drop all audit state (slots, histograms, names, canary totals);
 *  arming is left as-is. Test/bench setup only; not meant to race
 *  active recorders. */
void reset();

/** Schema-versioned JSON export (schema "genreuse.audit/1"). */
std::string toJson();

} // namespace audit
} // namespace genreuse

#endif // GENREUSE_CORE_REUSE_AUDIT_H
