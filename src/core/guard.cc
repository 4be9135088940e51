#include "guard.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <optional>

#include "accuracy_model.h"
#include "common/arena.h"
#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/rtrace.h"
#include "common/simd.h"
#include "reuse_audit.h"
#include "tensor/gemm.h"

namespace genreuse {

const char *
rungName(GuardRung r)
{
    switch (r) {
    case GuardRung::FullReuse:
        return "full_reuse";
    case GuardRung::Recluster:
        return "recluster";
    case GuardRung::ExactFallback:
        return "exact";
    }
    return "?";
}

namespace guard {

namespace {
std::mutex g_mu;
GuardStats g_stats;
} // namespace

void
recordForward(GuardRung rung, double measured, double budget)
{
    // Rung-transition counters mirror into the metrics registry so
    // guard health plots over time in profiler timelines.
    static metrics::Counter &forwards =
        metrics::counter("guard.forwards");
    static metrics::Counter &full = metrics::counter("guard.full_reuse");
    static metrics::Counter &recluster_wins =
        metrics::counter("guard.recluster_wins");
    static metrics::Counter &exact =
        metrics::counter("guard.exact_fallbacks");
    static metrics::Gauge &worst =
        metrics::gauge("guard.worst_margin");
    forwards.add();
    // Journal the decision before taking g_mu (the recorder is
    // lock-free; no reason to serialize it), tagged with the enclosing
    // layer scope so postmortems name the offending layer. A downgrade
    // to the exact rung is one of the black-box triggers: by the time
    // the guard gives up on reuse, the journal holds the lead-up.
    if (eventlog::enabled())
        eventlog::record(eventlog::Type::GuardRung, 0, measured, budget,
                         0.0, 0, static_cast<uint8_t>(rung));
    if (rung == GuardRung::ExactFallback)
        eventlog::dumpPostmortem("guard_exact_downgrade");
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.forwards++;
    switch (rung) {
    case GuardRung::FullReuse:
        g_stats.fullReuse++;
        full.add();
        break;
    case GuardRung::Recluster:
        g_stats.reclusterWins++;
        recluster_wins.add();
        break;
    case GuardRung::ExactFallback:
        g_stats.exactFallbacks++;
        exact.add();
        break;
    }
    g_stats.lastMeasuredError = measured;
    g_stats.lastErrorBudget = budget;
    if (budget > 0.0) {
        g_stats.worstMargin =
            std::max(g_stats.worstMargin, measured / budget);
        worst.setMax(measured / budget);
    }
    g_stats.lastRung = rung;
}

void
noteRecluster()
{
    metrics::counter("guard.reclusters").add();
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.reclusters++;
}

void
noteNonFiniteInput()
{
    metrics::counter("guard.non_finite_inputs").add();
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.nonFiniteInputs++;
}

void
noteStatusError()
{
    metrics::counter("guard.status_errors").add();
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.statusErrors++;
}

void
noteKernelFallback(const char *kernel)
{
    warnOnce(std::string("guard-kernel-fallback-") + kernel,
             kernel, " reuse kernel: invalid cluster table, panel "
             "downgraded to exact GEMM (warned once)");
    metrics::counter("guard.kernel_fallbacks").add();
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.kernelFallbacks++;
}

void
noteDeployDowngrade()
{
    metrics::counter("guard.deploy_downgrades").add();
    if (eventlog::enabled())
        eventlog::record(eventlog::Type::GuardRung, 0, 0.0, 0.0, 0.0,
                         /*u32=deploy-time*/ 1,
                         static_cast<uint8_t>(GuardRung::ExactFallback));
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.deployDowngrades++;
}

void
noteUnverified()
{
    metrics::counter("guard.unverified").add();
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.unverifiedForwards++;
}

void
noteDriftTrip()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats.driftTrips++;
}

GuardStats
snapshot()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_stats;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_stats = GuardStats{};
}

std::string
toJson()
{
    GuardStats s = snapshot();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.guard/1");
    w.key("forwards").value(s.forwards);
    w.key("fullReuse").value(s.fullReuse);
    w.key("reclusters").value(s.reclusters);
    w.key("reclusterWins").value(s.reclusterWins);
    w.key("exactFallbacks").value(s.exactFallbacks);
    w.key("nonFiniteInputs").value(s.nonFiniteInputs);
    w.key("statusErrors").value(s.statusErrors);
    w.key("kernelFallbacks").value(s.kernelFallbacks);
    w.key("deployDowngrades").value(s.deployDowngrades);
    w.key("driftTrips").value(s.driftTrips);
    w.key("unverifiedForwards").value(s.unverifiedForwards);
    w.key("lastMeasuredError").value(s.lastMeasuredError);
    w.key("lastErrorBudget").value(s.lastErrorBudget);
    w.key("worstMargin").value(s.worstMargin);
    w.key("lastRung").value(rungName(s.lastRung));
    w.endObject();
    return w.str();
}

} // namespace guard

void
corruptWithNan(Tensor &t, uint64_t seed)
{
    if (t.size() == 0)
        return;
    Rng rng(seed);
    const size_t n = std::max<size_t>(1, t.size() / 64);
    for (size_t k = 0; k < n; ++k)
        t.data()[rng.uniformInt(t.size())] =
            std::numeric_limits<float>::quiet_NaN();
}

void
corruptWithScale(Tensor &t, uint64_t seed)
{
    if (t.size() == 0)
        return;
    Rng rng(seed);
    const float factor = 16.0f + 48.0f * static_cast<float>(rng.uniform());
    for (size_t i = 0; i < t.size(); ++i)
        t.data()[i] *= factor;
}

GuardRung
deployRung(const MemoryEstimate &est, const McuSpec &spec)
{
    FitReport report = est.diagnose(spec);
    if (report.fits())
        return GuardRung::FullReuse;
    warn("deploy guard: ", report.describe(),
         "; downgrading to the exact strategy");
    guard::noteDeployDowngrade();
    return GuardRung::ExactFallback;
}

GuardedReuseConvAlgo::GuardedReuseConvAlgo(ReusePattern pattern,
                                           GuardConfig config,
                                           HashMode mode, uint64_t seed)
    : inner_(std::make_unique<ReuseConvAlgo>(std::move(pattern), mode,
                                             seed)),
      config_(config)
{
}

GuardStreamState &
GuardedReuseConvAlgo::state(StreamContext &ctx) const
{
    GuardStreamState &st = ctx.guardState(stateOwner_);
    if (!st.errDrift) {
        // The thread-default stream keeps the historical signal names
        // (and therefore gauge keys); serve streams get a ".s<id>"
        // suffix so concurrent streams' telemetry stays separable.
        const std::string suffix =
            ctx.id() == 0 ? std::string{}
                          : ".s" + std::to_string(ctx.id());
        st.errDrift = std::make_unique<DriftDetector>(
            "error_ratio" + suffix, config_.drift);
        st.clusterDrift = std::make_unique<DriftDetector>(
            "cluster_ratio" + suffix, config_.clusterDrift);
    }
    return st;
}

GuardRung
GuardedReuseConvAlgo::lastRung() const
{
    return static_cast<GuardRung>(
        state(StreamContext::current()).lastRung);
}

DriftDetector &
GuardedReuseConvAlgo::errorDrift()
{
    return *state(StreamContext::current()).errDrift;
}

const DriftDetector &
GuardedReuseConvAlgo::errorDrift() const
{
    return *state(StreamContext::current()).errDrift;
}

DriftDetector &
GuardedReuseConvAlgo::clusterDrift()
{
    return *state(StreamContext::current()).clusterDrift;
}

const DriftDetector &
GuardedReuseConvAlgo::clusterDrift() const
{
    return *state(StreamContext::current()).clusterDrift;
}

bool
GuardedReuseConvAlgo::drifted() const
{
    const GuardStreamState &st = state(StreamContext::current());
    return st.errDrift->drifted() || st.clusterDrift->drifted();
}

size_t
GuardedReuseConvAlgo::verifyRows() const
{
    size_t rows = config_.sampleRows == 0 ? size_t{1} : config_.sampleRows;
    // Under overload the controller walks verification down: level 1
    // halves the sample rows and suppresses the drift boost (less
    // evidence per forward, but still measuring); level 2 skips
    // verification entirely in multiplyInto, so this value is moot
    // there.
    const int shed = overload::level();
    if (shed == 0 && config_.drift.enabled && drifted()) {
        rows *= std::max<size_t>(1, config_.driftSampleBoost);
        if (config_.maxSampleRows > 0)
            rows = std::min(rows, config_.maxSampleRows);
    }
    if (shed >= 1)
        rows = std::max<size_t>(1, rows / 2);
    return rows;
}

void
GuardedReuseConvAlgo::observeDrift(GuardStreamState &st, double measured,
                                   double budget)
{
    if (!config_.drift.enabled)
        return;
    // Error signal: the fraction of budget the measurement consumed.
    // In distribution it hovers well below 1 (the margin factor keeps
    // the budget loose); a sustained climb means the fitted clusters
    // no longer represent the stream.
    if (budget > 0.0) {
        if (st.errDrift->observe(measured / budget))
            guard::noteDriftTrip();
    }
    // Structure signal: the realized centroid fraction n_c/n
    // (1 − r_t). OOD inputs scatter into more, smaller clusters, so
    // this rises even while the error budget still holds.
    const ReuseStats &rs = inner_->lastStats();
    if (rs.totalVectors > 0) {
        if (st.clusterDrift->observe(1.0 - rs.redundancyRatio()))
            guard::noteDriftTrip();
    }
    // Static handle: the registry lookup hashes the name, and the
    // 17-char key exceeds libstdc++'s SSO buffer — a per-forward
    // lookup was a heap allocation in the hot loop.
    static metrics::Gauge &verify_rows_gauge =
        metrics::gauge("guard.verify_rows");
    verify_rows_gauge.set(static_cast<double>(verifyRows()));
}

void
GuardedReuseConvAlgo::fit(const Tensor &sample_default_x,
                          const ConvGeometry &geom)
{
    // The subsample is kept for two jobs the unguarded algorithm does
    // not have: deriving the error budget (lazily, at the first
    // multiply, when the weights are known) and re-cluster refits.
    fitSample_ = profileRowSubsample(sample_default_x);
    fitGeom_ = geom;
    // Budgets are keyed on the inner fit epoch, which this fit() call
    // advances: every stream re-derives its budget lazily.
    inner_->fit(sample_default_x, geom);
}

double
GuardedReuseConvAlgo::errorBudget(GuardStreamState &st, const Tensor &w,
                                  const ConvGeometry &geom,
                                  size_t runtime_rows)
{
    if (st.budgetEpoch != inner_->fitEpoch()) {
        // The §4.1 bound on the fit sample, normalized per sample row
        // so it can be rescaled to any runtime batch. K-scaling makes
        // it the rigorous Cauchy-Schwarz bound (accuracy_model.h).
        // Once per stream and fit: on CifarNet this derivation is most
        // of the first guarded forward (EXPERIMENTS.md).
        profiler::ProfSpan span("guard.budget");
        AccuracyBound b =
            accuracyBound(fitSample_, w, inner_->pattern(), fitGeom_,
                          inner_->seed(), false);
        const size_t l =
            inner_->pattern().effectiveGranularity(fitGeom_);
        const size_t sample_rows =
            std::max<size_t>(1, fitSample_.shape().rows());
        size_t panels = 1;
        if (inner_->pattern().direction == ReuseDirection::Vertical)
            panels = VerticalSlicing::plan(
                         fitGeom_.cols(), l,
                         inner_->pattern().blockRows)
                         .numSlices;
        else
            panels = HorizontalSlicing::plan(sample_rows, l).numBands;
        st.perRowBound = static_cast<double>(std::max<size_t>(1, panels)) *
                         b.bound / static_cast<double>(sample_rows);
        st.budgetEpoch = inner_->fitEpoch();
    }
    (void)geom;
    return config_.marginFactor * st.perRowBound *
           static_cast<double>(runtime_rows);
}

size_t
GuardedReuseConvAlgo::Input::rows() const
{
    return cols_ ? cols_->shape().rows() : geom_->rows();
}

size_t
GuardedReuseConvAlgo::Input::cols() const
{
    return cols_ ? cols_->shape().cols() : geom_->cols();
}

bool
GuardedReuseConvAlgo::Input::allFinite() const
{
    const Tensor &t = nchw_ ? *nchw_ : *cols_;
    return simd::ops().allFinite(t.data(), t.size());
}

const Tensor &
GuardedReuseConvAlgo::Input::matrix()
{
    if (!cols_) {
        profiler::ProfSpan span("conv.im2col");
        built_.emplace(im2col(*nchw_, *geom_));
        cols_ = &*built_;
    }
    return *cols_;
}

const float *
GuardedReuseConvAlgo::Input::sampledRows(size_t step, size_t count,
                                         Arena &arena, size_t &ld) const
{
    if (cols_) {
        ld = step * cols_->shape().cols();
        return cols_->data();
    }
    float *rows = arena.allocSpan<float>(count * geom_->cols());
    im2colRowsInto(*nchw_, *geom_, 0, step, count, rows);
    ld = geom_->cols();
    return rows;
}

GuardedReuseConvAlgo::Measurement
GuardedReuseConvAlgo::measureError(const Input &x, const Tensor &w,
                                   const Tensor &y, size_t rows,
                                   CostLedger *ledger) const
{
    profiler::ProfSpan span("guard.verify");
    // Attribute verification time to the serve request executing on
    // this thread (one relaxed load when request tracing is off).
    rtrace::VerifySpan verify_span;
    const size_t n = x.rows();
    const size_t din = x.cols();
    const size_t m = w.shape().cols();
    if (n == 0 || rows == 0)
        return {};

    rows = std::min(rows, n);
    const size_t stride = n / rows;

    // The sampled rows (every stride-th row) form a strided view of x,
    // or are gathered from the NCHW input when the matrix was never
    // built, so one GEMM computes them all while keeping W's panels in
    // cache across rows; each output element is the same float sequence
    // a one-row GEMM would produce, whatever the leading dimension.
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    float *exact = arena.allocSpan<float>(rows * m);
    size_t ld = 0;
    const float *xs = x.sampledRows(stride, rows, arena, ld);
    gemmRaw(xs, w.data(), exact, rows, m, din, ld, m, m, false);
    double err = 0.0;
    double norm = 0.0;
    for (size_t k = 0; k < rows; ++k) {
        const float *exact_row = exact + k * m;
        const float *yr = y.data() + k * stride * m;
        for (size_t j = 0; j < m; ++j) {
            const double e = static_cast<double>(exact_row[j]);
            const double d = static_cast<double>(yr[j]) - e;
            err += d * d;
            norm += e * e;
        }
    }

    // The verification rows are real work the MCU would do: price them
    // like the exact GEMM they are, so guarded latencies include the
    // guard's own cost.
    OpCounts ops;
    ops.macs = static_cast<uint64_t>(rows) * din * m;
    ops.aluOps = 2 * static_cast<uint64_t>(rows) * m;
    reportOps(ledger, Stage::Gemm, ops);

    const double scale =
        static_cast<double>(n) / static_cast<double>(rows);
    return {err * scale, norm * scale, rows};
}

namespace {

/** Deterministic per-stream canary decision: accumulate the rate in
 *  @p credit (GuardStreamState::canaryCredit) and fire when it crosses
 *  1, so a rate of 1.0 samples every forward and tests replay
 *  exactly. */
bool
shouldSampleCanary(double &credit)
{
    credit += audit::canaryRate();
    if (credit < 1.0)
        return false;
    credit -= 1.0;
    return true;
}

} // namespace

void
GuardedReuseConvAlgo::maybeCanary(GuardStreamState &st, const Input &x,
                                  const Tensor &w,
                                  const ConvGeometry &geom,
                                  const Tensor &y, CostLedger *ledger,
                                  const Measurement *verified)
{
    if (!audit::canaryEnabled())
        return;
    if (!shouldSampleCanary(st.canaryCredit))
        return;
    // The canary deliberately ignores overload shedding and drift
    // boosts: a fixed, small row count (the configured sampleRows)
    // every time it fires, so its series is comparable across load
    // levels. When the guard just verified @p y on that many rows, it
    // measured exactly these rows with the same GEMM: reuse it.
    const size_t rows =
        std::min(std::max<size_t>(1, config_.sampleRows), x.rows());
    const Measurement m = verified != nullptr && verified->rows == rows
                              ? *verified
                              : measureError(x, w, y, rows, ledger);
    // Relative units: both the measurement and the budget are divided
    // by the sampled exact output energy, so the series is invariant
    // to activation scale (the thing an absolute budget is not).
    const double err = m.error;
    const double denom = std::max(m.exactNormSq, 1e-30);
    const double rel_error = err / denom;
    const double budget = errorBudget(st, w, geom, x.rows());
    const double rel_budget = budget / denom;
    const bool breach = err > budget;
    audit::recordCanary(inner_->serial(), rel_error, rel_budget, rows,
                        breach);
    // The canary measurement is ground truth of the same signal the
    // guard's own verification feeds the drift watcher — keep feeding
    // it when verification is shed, so drift detection survives
    // overload level 2.
    if (config_.drift.enabled && budget > 0.0 &&
        overload::level() >= overload::kMaxLevel) {
        if (st.errDrift->observe(err / budget))
            guard::noteDriftTrip();
    }
}

Tensor
GuardedReuseConvAlgo::multiply(const Tensor &x, const Tensor &w,
                               const ConvGeometry &geom,
                               CostLedger *ledger)
{
    Tensor y;
    multiplyInto(x, w, geom, ledger, y);
    return y;
}

void
GuardedReuseConvAlgo::multiplyInto(const Tensor &x, const Tensor &w,
                                   const ConvGeometry &geom,
                                   CostLedger *ledger, Tensor &y)
{
    multiplyInto(StreamContext::current(), x, w, geom, ledger, y);
}

void
GuardedReuseConvAlgo::multiplyInto(StreamContext &ctx, const Tensor &x,
                                   const Tensor &w,
                                   const ConvGeometry &geom,
                                   CostLedger *ledger, Tensor &y)
{
    profiler::ProfSpan pspan("guard.forward");
    // Bind first: the fault-injection gate below is stream-filtered
    // (GENREUSE_FAULT=...@stream), and everything downstream — inner
    // scratch, verification arena rows, event stream tags — must
    // resolve to this stream.
    StreamContext::Bind bind(ctx);
    GuardStreamState &st = state(ctx);
    // The input is read in place; it is only copied when the
    // nan_activation fault is armed, because the injection must
    // corrupt a copy rather than the caller's activations. The
    // unconditional copy this replaces was the largest per-forward
    // allocation in the guarded path.
    // (An engaged optional would allocate the rank-0 placeholder every
    // forward; the disengaged one is free.)
    const Tensor *xin = &x;
    std::optional<Tensor> corrupted;
    if (faultpoint::active(faultpoint::Fault::NanActivation)) {
        faultpoint::noteFired(faultpoint::Fault::NanActivation);
        corrupted = x;
        corruptWithNan(*corrupted,
                       faultpoint::seed(faultpoint::Fault::NanActivation));
        xin = &*corrupted;
    }
    if (faultpoint::active(faultpoint::Fault::OodScale)) {
        faultpoint::noteFired(faultpoint::Fault::OodScale);
        if (!corrupted)
            corrupted = x;
        corruptWithScale(*corrupted,
                         faultpoint::seed(faultpoint::Fault::OodScale));
        xin = &*corrupted;
    }

    Input in(*xin);
    runLadder(st, in, w, geom, ledger, y);
}

bool
GuardedReuseConvAlgo::multiplyNchw(const Tensor &x, const Tensor &w,
                                   const ConvGeometry &geom,
                                   CostLedger *ledger, Tensor &y)
{
    // Fault injection corrupts a copy of the input on the matrix path,
    // and scheduled faults count that path's checks: keep it.
    if (faultpoint::anyArmed() || !inner_->acceptsNchw(geom, w))
        return false;
    profiler::ProfSpan pspan("guard.forward");
    Input in(x, geom);
    runLadder(state(StreamContext::current()), in, w, geom, ledger, y);
    return true;
}

void
GuardedReuseConvAlgo::runLadder(GuardStreamState &st, Input &in,
                                const Tensor &w, const ConvGeometry &geom,
                                CostLedger *ledger, Tensor &y)
{
    // Rung 0's reuse pass: fused while the matrix is unbuilt.
    auto reuse = [&](Tensor &out) -> Status {
        if (in.fused()) {
            inner_->multiplyNchw(in.nchw(), w, geom, ledger, out);
            return Status();
        }
        return inner_->tryMultiplyInto(in.matrix(), w, geom, ledger, out);
    };

    if (!config_.enabled) {
        st.lastRung = static_cast<int>(GuardRung::FullReuse);
        Status s = reuse(y);
        if (!s.ok())
            panic(s.toString());
        maybeCanary(st, in, w, geom, y, ledger, nullptr);
        return;
    }

    // Rung 2 immediately on non-finite activations: reuse would smear
    // the NaN across every member of its cluster, while the exact GEMM
    // confines it to the rows that actually contain it.
    if (!in.allFinite()) {
        warnOnce("guard-nonfinite-input",
                 "guard: non-finite activations; conv layer downgraded "
                 "to exact GEMM for this forward (warned once)");
        guard::noteNonFiniteInput();
        st.lastRung = static_cast<int>(GuardRung::ExactFallback);
        guard::recordForward(GuardRung::ExactFallback, 0.0, 0.0);
        y = exact_.multiply(in.matrix(), w, geom, ledger);
        return;
    }

    Status s = reuse(y);
    if (!s.ok()) {
        warnOnce("guard-status-error",
                 "guard: reuse kernel failed (", s.toString(),
                 "); exact fallback (warned once)");
        guard::noteStatusError();
        st.lastRung = static_cast<int>(GuardRung::ExactFallback);
        guard::recordForward(GuardRung::ExactFallback, 0.0, 0.0);
        y = exact_.multiply(in.matrix(), w, geom, ledger);
        return;
    }

    // Deepest overload shed: accept the reuse result on trust — no
    // verification GEMM rows, no re-cluster retries. The cheapest path
    // through the ladder, counted so an operator can see how many
    // forwards rode through unverified.
    if (overload::level() >= overload::kMaxLevel) {
        guard::noteUnverified();
        st.lastRung = static_cast<int>(GuardRung::FullReuse);
        guard::recordForward(GuardRung::FullReuse, 0.0, 0.0);
        // The canary still samples up here — it is the only accuracy
        // signal left when verification is shed.
        maybeCanary(st, in, w, geom, y, ledger, nullptr);
        return;
    }

    // Row count comes from verifyRows(): the configured sampleRows,
    // boosted while a drift detector is tripped (a suspect stream is
    // verified with more evidence per forward), halved under overload
    // level 1.
    const double budget = errorBudget(st, w, geom, in.rows());
    const Measurement first = measureError(in, w, y, verifyRows(), ledger);
    double measured = first.error;
    // Drift watches the *first* attempt's measurement: it reflects the
    // stream against the original fit, before any re-cluster muddies
    // the signal. The boost it may raise applies from the next forward.
    observeDrift(st, measured, budget);
    audit::recordBudget(inner_->serial(), measured, budget);
    if (measured <= budget) {
        st.lastRung = static_cast<int>(GuardRung::FullReuse);
        guard::recordForward(GuardRung::FullReuse, measured, budget);
        maybeCanary(st, in, w, geom, y, ledger, &first);
        return;
    }

    // Rung 1: the clustering may just have been unlucky for this
    // input distribution — redraw the hash parameters and retry. The
    // retried forward's clustering + GEMM work is charged to the
    // ledger by the kernels themselves. The refit advances the inner
    // fit epoch, so every stream's budget re-derives lazily.
    for (size_t attempt = 1; attempt <= config_.maxReclusters;
         ++attempt) {
        profiler::ProfSpan recluster_span("guard.recluster");
        guard::noteRecluster();
        inner_->setSeed(inner_->seed() + config_.reclusterSeedStep);
        inner_->fit(fitSample_, fitGeom_);
        Tensor y2;
        Status s2 = inner_->tryMultiplyInto(in.matrix(), w, geom, ledger,
                                            y2);
        if (!s2.ok())
            break;
        const double budget2 = errorBudget(st, w, geom, in.rows());
        const Measurement retry =
            measureError(in, w, y2, verifyRows(), ledger);
        audit::recordBudget(inner_->serial(), retry.error, budget2);
        if (retry.error <= budget2) {
            st.lastRung = static_cast<int>(GuardRung::Recluster);
            guard::recordForward(GuardRung::Recluster, retry.error,
                                 budget2);
            y = std::move(y2);
            maybeCanary(st, in, w, geom, y, ledger, &retry);
            return;
        }
        measured = retry.error;
    }

    warnOnce("guard-exact-fallback",
             "guard: measured error exceeded budget after re-cluster; "
             "exact fallback (warned once)");
    st.lastRung = static_cast<int>(GuardRung::ExactFallback);
    guard::recordForward(GuardRung::ExactFallback, measured, budget);
    y = exact_.multiply(in.matrix(), w, geom, ledger);
}

std::string
GuardedReuseConvAlgo::describe() const
{
    return std::string("guard[") + inner_->describe() + "]";
}

std::shared_ptr<GuardedReuseConvAlgo>
applyGuardedReusePattern(Conv2D &layer, const ReusePattern &pattern,
                         const Tensor &sample_default_x,
                         const ConvGeometry &geom, GuardConfig config,
                         HashMode mode, uint64_t seed)
{
    GENREUSE_REQUIRE(sample_default_x.shape().cols() == geom.cols(),
                     "sample does not match layer ", layer.name());
    auto algo = std::make_shared<GuardedReuseConvAlgo>(pattern, config,
                                                       mode, seed);
    algo->fit(sample_default_x, geom);
    // The canary's series lives in the same audit slot, so the name is
    // stamped whenever either is armed.
    if (audit::enabled() || audit::canaryEnabled())
        audit::setName(algo->inner().serial(), layer.name());
    if (audit::enabled()) {
        // Audit entries for a guarded layer are keyed by the inner
        // algo (the kernels record through it); the fit-time modeled
        // r_t comes from one suppressed profiling forward on the fit
        // sample — suppressed so the profiling run itself never counts
        // as observed runtime behavior.
        audit::Suppress suppress;
        algo->inner().multiply(sample_default_x, layer.weightMatrix(),
                               geom, nullptr);
        audit::setModeled(algo->inner().serial(),
                          algo->inner().lastStats().redundancyRatio());
    }
    layer.setAlgo(algo);
    return algo;
}

} // namespace genreuse
