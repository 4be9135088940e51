/**
 * @file
 * Runtime reuse guard with a graceful-degradation ladder. The analytic
 * accuracy bound (§4.1) is a *selection-time* promise made on sample
 * data; this guard checks the promise at *run* time by measuring the
 * reconstruction error of each forward on a few sampled rows and, when
 * the measurement blows past the bound-derived budget, walks down a
 * ladder instead of silently returning garbage:
 *
 *   rung 0  full reuse          — measured error within budget
 *   rung 1  re-cluster          — refit the hash families with fresh
 *                                 (seed-stepped) parameters and retry
 *   rung 2  exact im2col GEMM   — bit-identical to the ExactConvAlgo
 *                                 baseline, always safe
 *
 * The same ladder handles recoverable runtime failures: non-finite
 * activations, a Status-returning reuse kernel, and deploy-time memory
 * misfits (MemoryEstimate::fits() failing downgrades the layer to the
 * exact strategy instead of aborting the deployment).
 *
 * Every guard decision is counted in a process-wide registry
 * (guard::snapshot / guard::toJson, schema genreuse.guard/1) and the
 * verification work is charged to the layer's cost ledger, so fallback
 * cost is priced by the MCU cost model and lands in BENCH_*.json.
 */

#ifndef GENREUSE_CORE_GUARD_H
#define GENREUSE_CORE_GUARD_H

#include <memory>
#include <optional>
#include <string>

#include "drift.h"
#include "mcu/memory_model.h"
#include "reuse_conv.h"

namespace genreuse {

/** The degradation ladder, best rung first. */
enum class GuardRung
{
    FullReuse,     //!< reuse output accepted as-is
    Recluster,     //!< accepted after refitting with fresh hashes
    ExactFallback, //!< exact im2col GEMM result returned
};

/** Short name for reports ("full_reuse", "recluster", "exact"). */
const char *rungName(GuardRung r);

/** Tunables of the runtime guard. */
struct GuardConfig
{
    /**
     * Error budget = marginFactor x K x per-row bound x N, where K is
     * the panel count (the rigorous Cauchy-Schwarz scaling, see
     * accuracy_model.h) and the per-row bound comes from the fit
     * sample. The margin absorbs the bound's sample-vs-runtime
     * looseness; values well past it signal distribution drift.
     */
    double marginFactor = 8.0;

    /** Rows re-computed exactly per forward to measure the error. */
    size_t sampleRows = 8;

    /** Re-cluster attempts before falling back to exact GEMM. */
    size_t maxReclusters = 1;

    /** Seed increment per re-cluster (fresh hash parameters). */
    uint64_t reclusterSeedStep = 0x9E3779B9u;

    /** When false the guard is pass-through: one branch per forward. */
    bool enabled = true;

    /**
     * Drift telemetry (src/core/drift.h): EWMA + Page–Hinkley over the
     * per-forward error/budget ratio ("error_ratio"). It rises when
     * the input distribution leaves the fitted one, well before the
     * error budget itself is blown. drift.enabled turns *both*
     * watchers off (it is the master switch for observeDrift()).
     */
    DriftConfig drift;

    /**
     * Separate tuning for the structural watcher over the realized
     * centroid fraction n_c/n ("cluster_ratio"). Cluster counts jitter
     * far more per forward than the error ratio does, so the two
     * signals need independent delta/lambda; defaults are the stock
     * DriftConfig (coarser than a tuned error watcher).
     */
    DriftConfig clusterDrift;

    /** Verification-row multiplier applied while a drift detector is
     *  tripped: sustained drift buys more evidence per forward
     *  *before* the budget trips, instead of after. */
    size_t driftSampleBoost = 4;

    /** Cap on boosted verification rows (0 = uncapped). */
    size_t maxSampleRows = 64;
};

/** Counters of every guard decision since the last reset. */
struct GuardStats
{
    uint64_t forwards = 0;         //!< guarded multiplies executed
    uint64_t fullReuse = 0;        //!< rung-0 acceptances
    uint64_t reclusters = 0;       //!< re-cluster attempts
    uint64_t reclusterWins = 0;    //!< rung-1 acceptances
    uint64_t exactFallbacks = 0;   //!< rung-2 executions
    uint64_t nonFiniteInputs = 0;  //!< NaN/Inf activations detected
    uint64_t statusErrors = 0;     //!< kernels returning a !ok Status
    uint64_t kernelFallbacks = 0;  //!< per-panel exact fallbacks inside
                                   //!< reuse kernels (corrupt tables)
    uint64_t deployDowngrades = 0; //!< deploy-time memory downgrades
    uint64_t driftTrips = 0;       //!< drift-detector trips (either signal)
    uint64_t unverifiedForwards = 0; //!< forwards accepted without
                                     //!< verification (overload level 2)

    double lastMeasuredError = 0.0; //!< est. total sq. Frobenius error
    double lastErrorBudget = 0.0;   //!< budget it was compared against
    double worstMargin = 0.0;       //!< max measured/budget ratio seen
    GuardRung lastRung = GuardRung::FullReuse;

    bool
    empty() const
    {
        return forwards == 0 && kernelFallbacks == 0 &&
               deployDowngrades == 0;
    }
};

namespace guard {

/** Record one guarded forward's outcome. */
void recordForward(GuardRung rung, double measured, double budget);

/** Count a re-cluster attempt / a non-finite input / a kernel Status
 *  error (each also shows up in the rung taken via recordForward). */
void noteRecluster();
void noteNonFiniteInput();
void noteStatusError();

/** Record a per-panel exact fallback inside a reuse kernel. @p kernel
 *  names the kernel ("vertical", "horizontal", "fc") for the warn. */
void noteKernelFallback(const char *kernel);

/** Record a deploy-time downgrade to the exact strategy. */
void noteDeployDowngrade();

/** Record a drift-detector trip (counts toward GuardStats). */
void noteDriftTrip();

/** Record a forward accepted unverified because the overload
 *  controller is at the shed-verification level. */
void noteUnverified();

/** Copy of the process-wide counters. */
GuardStats snapshot();

/** Zero the counters (tests, bench reruns). */
void reset();

/** Schema-versioned JSON (genreuse.guard/1) of the counters. */
std::string toJson();

} // namespace guard

/**
 * Overwrite a deterministic, seeded subset of @p t's elements with NaN
 * — the nan_activation fault payload, also handy for drift tests.
 * Corrupts max(1, size/64) elements.
 */
void corruptWithNan(Tensor &t, uint64_t seed);

/**
 * Scale every element of @p t by a seeded factor in [16, 64) — the
 * ood_scale fault payload: finite activations far outside the fit
 * distribution, so the error budget (or, when verification is shed,
 * the accuracy canary) is what must catch them.
 */
void corruptWithScale(Tensor &t, uint64_t seed);

/**
 * Deploy-time rung for a memory estimate: FullReuse when the estimate
 * fits the board, ExactFallback (with a warn naming the failing
 * component and shortfall from FitReport::describe()) when it does
 * not. Callers downgrade the layer instead of aborting deployment.
 */
GuardRung deployRung(const MemoryEstimate &est, const McuSpec &spec);

/**
 * A ConvAlgo that wraps ReuseConvAlgo with the degradation ladder.
 * Drop-in for Conv2D::setAlgo() exactly like the unguarded algorithm;
 * the exact fallback output is bit-identical to ExactConvAlgo.
 */
class GuardedReuseConvAlgo : public ConvAlgo
{
  public:
    GuardedReuseConvAlgo(ReusePattern pattern, GuardConfig config,
                         HashMode mode = HashMode::Learned,
                         uint64_t seed = 99);

    /**
     * Fit the inner reuse algorithm and retain a profiling subsample
     * of @p sample_default_x for the error budget and for re-cluster
     * refits.
     */
    void fit(const Tensor &sample_default_x, const ConvGeometry &geom);

    Tensor multiply(const Tensor &x, const Tensor &w,
                    const ConvGeometry &geom, CostLedger *ledger) override;

    /**
     * multiply() writing into @p y (resized in place, capacity reused).
     * The steady-state rung-0 path — reuse accepted within budget —
     * performs no heap allocation: the inner algorithm writes @p y
     * directly, verification rows live in the stream arena, and the
     * input is only copied when a fault injection must corrupt it.
     */
    void multiplyInto(const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y);

    /**
     * multiplyInto() with an explicit stream context: the guard state
     * consulted and updated (drift detectors, cached budget, last
     * rung) is @p ctx's own, so one guarded algorithm tracks each
     * stream's distribution independently — a drifting stream boosts
     * its *own* verification and trips its *own* ladder. NOTE unlike
     * the unguarded algorithm, a *guarded* algo is not safe to share
     * across concurrently executing streams: the re-cluster rung
     * refits the shared inner fit. The serve engine gives each stream
     * its own guarded instance.
     */
    void multiplyInto(StreamContext &ctx, const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y);

    /**
     * The fused eval pass (ReuseConvAlgo::multiplyNchw) under the
     * ladder. Rung 0 runs straight from the NCHW input; the non-finite
     * scan reads that input, which sees what a scan of the matrix
     * would (stride 1: every input element lands in some patch, and
     * the zero border is finite); verification and canary rows are
     * gathered on demand. The re-cluster and exact rungs build the
     * im2col matrix when they run. Declines when the inner algorithm
     * cannot run fused or any fault point is armed.
     */
    bool multiplyNchw(const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y) override;

    std::string describe() const override;

    /** Rung the calling stream's most recent multiply() resolved at. */
    GuardRung lastRung() const;

    /** The wrapped reuse algorithm (for stats introspection). */
    ReuseConvAlgo &inner() { return *inner_; }
    const ReuseConvAlgo &inner() const { return *inner_; }

    const GuardConfig &config() const { return config_; }

    /** Drift watcher over the calling stream's per-forward
     *  error/budget ratio. Signal names carry the stream id
     *  ("error_ratio" on the thread-default stream, "error_ratio.s<id>"
     *  on serve streams) so gauges stay distinguishable. */
    DriftDetector &errorDrift();
    const DriftDetector &errorDrift() const;

    /** Drift watcher over the calling stream's realized centroid
     *  fraction n_c/n. */
    DriftDetector &clusterDrift();
    const DriftDetector &clusterDrift() const;

    /** True while either of the calling stream's detectors is tripped. */
    bool drifted() const;

    /** Rows the calling stream's next verification will recompute —
     *  sampleRows, boosted by driftSampleBoost (capped at
     *  maxSampleRows) while drifted. */
    size_t verifyRows() const;

  private:
    /** The conv input as the ladder reads it: the im2col matrix, or
     *  the NCHW input, whose matrix is built only when a rung needs
     *  all of it. */
    class Input
    {
      public:
        explicit Input(const Tensor &cols) : cols_(&cols) {}
        Input(const Tensor &nchw, const ConvGeometry &geom)
            : nchw_(&nchw), geom_(&geom)
        {
        }

        /** True while the matrix has not been built. */
        bool fused() const { return cols_ == nullptr; }
        const Tensor &nchw() const { return *nchw_; }
        size_t rows() const;
        size_t cols() const;
        bool allFinite() const;

        /** The im2col matrix, built on first use. */
        const Tensor &matrix();

        /** Rows 0, step, 2 step, ... (@p count rows) with leading
         *  dimension @p ld: in place, or gathered into @p arena. */
        const float *sampledRows(size_t step, size_t count, Arena &arena,
                                 size_t &ld) const;

      private:
        const Tensor *cols_ = nullptr;
        const Tensor *nchw_ = nullptr;
        const ConvGeometry *geom_ = nullptr;
        std::optional<Tensor> built_;
    };

    /** The ladder from rung 0 down, on either input form. */
    void runLadder(GuardStreamState &st, Input &in, const Tensor &w,
                   const ConvGeometry &geom, CostLedger *ledger, Tensor &y);

    GuardStreamState &state(StreamContext &ctx) const;
    double errorBudget(GuardStreamState &st, const Tensor &w,
                       const ConvGeometry &geom, size_t runtime_rows);

    /** One exact-row measurement of a reuse output. */
    struct Measurement
    {
        double error = 0.0;       //!< est. total squared Frobenius error
        double exactNormSq = 0.0; //!< equally scaled exact output energy
        size_t rows = 0;          //!< rows recomputed (≤ the request)
    };

    /**
     * Recompute @p rows evenly strided rows of @p y exactly and scale
     * the squared error and the exact output energy to the full batch.
     * Their ratio is a *relative* error — the accuracy canary's unit,
     * stable across activation scales. The rows are charged to the
     * ledger as the GEMM they are.
     */
    Measurement measureError(const Input &x, const Tensor &w,
                             const Tensor &y, size_t rows,
                             CostLedger *ledger) const;

    /**
     * Accuracy-canary policy, applied to every forward that returns a
     * *reuse* output (including unverified overload-level-2 forwards —
     * the canary is exempt from shedding by design: it is the only
     * accuracy signal left up there). Samples per audit::canaryRate()
     * via the stream's deterministic credit and judges the relative
     * error of sampleRows exact rows: @p verified, when the guard just
     * measured exactly those rows of @p y, else a fresh measurement.
     * Feeds the stream's error drift detector while verification is
     * shed, and records into the audit slot (which journals
     * CanarySample/CanaryBreach).
     */
    void maybeCanary(GuardStreamState &st, const Input &x,
                     const Tensor &w, const ConvGeometry &geom,
                     const Tensor &y, CostLedger *ledger,
                     const Measurement *verified);
    void observeDrift(GuardStreamState &st, double measured,
                      double budget);

    std::unique_ptr<ReuseConvAlgo> inner_;
    ExactConvAlgo exact_;
    GuardConfig config_;
    StateOwner stateOwner_; //!< keys this instance's per-stream state

    Tensor fitSample_;      //!< profiling subsample, default layout
    ConvGeometry fitGeom_{};
};

/**
 * Convenience mirroring applyReusePattern(): build, fit and install a
 * guarded reuse algorithm on a conv layer.
 */
std::shared_ptr<GuardedReuseConvAlgo> applyGuardedReusePattern(
    Conv2D &layer, const ReusePattern &pattern,
    const Tensor &sample_default_x, const ConvGeometry &geom,
    GuardConfig config = {}, HashMode mode = HashMode::Learned,
    uint64_t seed = 99);

} // namespace genreuse

#endif // GENREUSE_CORE_GUARD_H
