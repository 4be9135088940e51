/**
 * @file
 * The open-loop serving workload: guarded CifarNet replicas behind
 * ServeEngine (one worker, Block admission, overload controller on),
 * fed by one generator thread with Poisson arrivals at three fixed
 * offered rates. Each request is timed from its due time, so a stall
 * also charges the requests it delays.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "calibrate.h"
#include "common/logging.h"
#include "common/overload.h"
#include "common/rng.h"
#include "serve/serve.h"
#include "spans.h"

namespace perfbench {

namespace serve = genreuse::serve;

namespace {

constexpr size_t kWorkers = 1;
constexpr size_t kQueueCapacity = 64;
constexpr size_t kPoolPerRegime = 64;
constexpr size_t kSetups = 3;
// Calibration jobs run before and after each set-up.
constexpr size_t kSetupCalibrations = 3;
constexpr size_t kWarmup = 8;
// Queue delay the overload controller counts as pressure.
constexpr uint64_t kOverloadDelayNs = 10'000'000;
constexpr const char *kPhaseNames[] = {"low", "mid", "high"};
// Share of the run each phase takes. The low phase only has to show
// that it meets the limit; mid and high report latencies and get more
// samples.
constexpr double kPhaseShare[] = {0.1, 0.45, 0.45};
constexpr uint64_t kScheduleSeed = 4242;
// Between arrivals, once the worker is idle, the generator sends it one
// calibration request (a one-element input; the job takes about as long
// as a forward) if the next arrival is at least kCalibSlackNs off, so
// the host is timed on the worker's own core and never beside a forward.
// It checks for idleness every kIdlePollNs.
constexpr uint64_t kCalibSlackNs = 25'000'000;
constexpr uint64_t kIdlePollNs = 1'000'000;

/** One guarded CifarNet replica; the engine calls it from one worker. */
class ReplicaStream : public serve::InferenceStream
{
  public:
    explicit ReplicaStream(Network net) : net_(std::move(net)) {}

    Tensor
    infer(const Tensor &input, genreuse::StreamContext &) override
    {
        if (input.size() == 1) {
            // A calibration request: time the host on this worker.
            Tensor ms(genreuse::Shape({1}));
            ms[0] = static_cast<float>(calibrationMs());
            return ms;
        }
        return net_.forward(input, /*training=*/false);
    }

  private:
    Network net_;
};

/** One request of a rate phase. */
struct Slot
{
    uint64_t dueNs = 0;
    uint64_t sendNs = 0;
    size_t input = 0;
    bool admitted = false;
    serve::ServeResult result;
};

struct PhaseResult
{
    const char *name = "";
    double rate = 0.0;
    std::vector<Slot> slots;
    size_t sent = 0, succeeded = 0, failed = 0, shed = 0, rejected = 0;
    std::vector<double> latencyMs, genLagMs, admitWaitMs, queueWaitMs,
        serviceMs;
    std::vector<uint64_t> dueNs; //!< per latency sample
    double wallS = 0.0;
    size_t maxDepth = 0;
    int maxLevel = 0;
    bool backlogGrows = false;
    bool withinLimit = false;
    /** Every request's latency scaled to reference host speed (see
     *  calibrate.h). Quiet-half selection is not used here: which
     *  arrival bursts fall into the kept blocks would change from run
     *  to run. */
    std::vector<double> refLatencyMs;
    /** Measured latency over the quieter half of the phase (see
     *  quietHalf), blocks ranked by service time: the limit is checked
     *  on these, so a neighbour's slowdown does not flip the verdict. */
    std::vector<double> quietLatencyMs;

    double
    goodput() const
    {
        return wallS > 0 ? succeeded / wallS : 0.0;
    }
};

/** Poisson arrival offsets (ns) scaled so the phase offers exactly
 *  @p rate on average: bursts stay, the realized rate is fixed. */
std::vector<uint64_t>
arrivals(size_t n, double rate, genreuse::Rng &rng)
{
    std::vector<double> t(n, 0.0);
    for (size_t k = 1; k < n; ++k)
        t[k] = t[k - 1] - std::log(1.0 - rng.uniform()) / rate;
    const double scale = t.back() > 0 ? (n - 1) / rate / t.back() : 0.0;
    std::vector<uint64_t> ns(n);
    for (size_t k = 0; k < n; ++k)
        ns[k] = static_cast<uint64_t>(t[k] * scale * 1e9);
    return ns;
}

PhaseResult
runPhase(serve::ServeEngine &engine, const std::vector<Tensor> &pool,
         const char *name, double rate, double seconds, uint64_t seed,
         double limit_ms, HostSpeed &speed)
{
    PhaseResult p;
    p.name = name;
    p.rate = rate;
    // The arrival schedule is the same in every run, so runs compare the
    // same bursts. The workload seed orders the inputs sent; requests
    // cycle through the whole pool, so every run sends the same mix of
    // high- and low-redundancy inputs.
    genreuse::Rng schedule(kScheduleSeed + static_cast<uint64_t>(rate));
    genreuse::Rng rng(seed);
    const size_t n = std::max<size_t>(
        20, static_cast<size_t>(std::llround(rate * seconds)));
    const std::vector<uint64_t> offsets = arrivals(n, rate, schedule);
    std::vector<size_t> order(pool.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    rng.shuffle(order);
    p.slots.resize(n);
    for (size_t k = 0; k < n; ++k)
        p.slots[k].input = order[k % order.size()];

    const uint64_t start = nowNs() + 2'000'000;
    std::atomic<size_t> completed{0};
    size_t submitted = 0;
    const Tensor calib_input(genreuse::Shape({1}));
    for (size_t k = 0; k < n; ++k) {
        Slot &s = p.slots[k];
        s.dueNs = start + offsets[k];
        while (nowNs() + kCalibSlackNs < s.dueNs) {
            if (completed.load() == submitted) {
                submitted += engine.trySubmit(
                    calib_input, [&speed, &completed](serve::ServeResult &&r) {
                        if (r.status.ok())
                            speed.add(r.startNs, r.output[0]);
                        completed.fetch_add(1);
                    });
                break;
            }
            std::this_thread::sleep_for(std::chrono::nanoseconds(kIdlePollNs));
        }
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(s.dueNs)));
        s.sendNs = nowNs();
        p.maxLevel = std::max(p.maxLevel, genreuse::overload::level());
        s.admitted = engine.trySubmit(
            pool[s.input], [&s, &completed](serve::ServeResult &&r) {
                s.result = std::move(r);
                completed.fetch_add(1);
            });
        submitted += s.admitted;
    }
    engine.drain();

    uint64_t last_done = start;
    for (const Slot &s : p.slots) {
        ++p.sent;
        if (!s.admitted) {
            ++p.rejected;
            continue;
        }
        const serve::ServeResult &r = s.result;
        last_done = std::max(last_done, r.doneNs);
        if (r.status.ok())
            ++p.succeeded;
        else if (r.status.code() == genreuse::ErrorCode::DeadlineExceeded)
            ++p.shed;
        else
            ++p.failed;
        p.latencyMs.push_back(nsToMs(r.doneNs - s.dueNs));
        p.dueNs.push_back(s.dueNs);
        p.genLagMs.push_back(nsToMs(s.sendNs - s.dueNs));
        p.admitWaitMs.push_back(nsToMs(r.queuedNs - r.enqueueNs));
        p.queueWaitMs.push_back(nsToMs(r.startNs - r.queuedNs));
        p.serviceMs.push_back(nsToMs(r.doneNs - r.startNs));
    }
    p.wallS = nsToMs(last_done - start) * 1e-3;

    // Queue depth seen by each arrival, from the per-request stamps.
    for (const Slot &a : p.slots) {
        size_t depth = 0;
        for (const Slot &b : p.slots)
            depth += b.admitted && b.result.queuedNs <= a.sendNs &&
                     a.sendNs < b.result.startNs;
        p.maxDepth = std::max(p.maxDepth, depth);
    }

    // A growing backlog shows as latency that keeps rising: by the last
    // quarter of the phase the typical request is over the limit.
    const size_t q = p.latencyMs.size() / 4;
    std::vector<double> last(p.latencyMs.end() - q, p.latencyMs.end());
    p.backlogGrows = q > 0 && median(last) > limit_ms;
    const std::vector<size_t> quiet =
        quietHalf(p.serviceMs, std::max<size_t>(p.serviceMs.size() / 8, 8));
    p.quietLatencyMs = pick(p.latencyMs, quiet);
    p.refLatencyMs = speed.atRefSpeed(p.latencyMs, p.dueNs);
    p.withinLimit = tail(p.quietLatencyMs).value <= limit_ms &&
                    !p.backlogGrows &&
                    p.failed + p.shed + p.rejected == 0;
    return p;
}

} // namespace

void
runServeWorkload(const Options &opt, Report &rep)
{
    GENREUSE_REQUIRE(opt.rates.size() == 3 && opt.latencyLimitMs > 0,
                     "serve-openloop needs --rates low,mid,high and "
                     "--latency-limit-ms");
    const Model m = Model::CifarNet;

    // Inputs from both regimes: high tile redundancy with little noise,
    // low redundancy with more.
    const Dataset hi = makeInputs(kPoolPerRegime, 0.8f, 0.03f, opt.seed);
    const Dataset lo =
        makeInputs(kPoolPerRegime, 0.2f, 0.08f, opt.seed + 7919);
    std::vector<Tensor> pool;
    std::vector<int> labels;
    for (size_t i = 0; i < kPoolPerRegime; ++i) {
        pool.push_back(hi.gatherImages({i}));
        labels.push_back(hi.labels[i]);
        pool.push_back(lo.gatherImages({i}));
        labels.push_back(lo.labels[i]);
    }

    Network trained = loadTrained(m, opt.cacheDir);
    const Dataset fit = fitSample();

    // Set-up: selection, one fitted replica per worker (built by the
    // engine through the factory), engine start and warm-up requests.
    std::vector<double> setup_s, select_s, fit_s;
    Selection sel;
    std::unique_ptr<serve::ServeEngine> engine;
    serve::ServeConfig cfg;
    cfg.workers = kWorkers;
    cfg.queueCapacity = kQueueCapacity;
    cfg.policy = serve::AdmitPolicy::Block;
    cfg.name = "perfbench";
    cfg.overloadQueueDelayNs = kOverloadDelayNs;
    const serve::StreamFactory factory = [&](uint32_t) {
        Network net = cloneNetwork(m, trained);
        installGuarded(net, sel, fit);
        return std::make_unique<ReplicaStream>(std::move(net));
    };
    for (size_t k = 0; k < kSetups; ++k) {
        engine.reset();
        HostSpeed speed;
        speed.sample(kSetupCalibrations);
        const uint64_t t0 = nowNs();
        Network probe = cloneNetwork(m, trained);
        sel = selectPatterns(probe, m, fit);
        const uint64_t t1 = nowNs();
        engine = std::make_unique<serve::ServeEngine>(cfg, factory);
        const uint64_t t2 = nowNs();
        std::vector<std::future<serve::ServeResult>> warm;
        for (size_t i = 0; i < kWarmup; ++i)
            warm.push_back(*engine->submit(pool[i % pool.size()]));
        for (auto &f : warm)
            (void)f.get();
        const uint64_t t3 = nowNs();
        speed.sample(kSetupCalibrations);
        // Set-up time at reference speed; its parts as measured.
        setup_s.push_back(nsToMs(t3 - t0) * 1e-3 * speed.scale());
        select_s.push_back(nsToMs(t1 - t0) * 1e-3);
        fit_s.push_back(nsToMs(t2 - t1) * 1e-3);
    }
    std::printf("patterns picked by the analytic selector:\n");
    for (const auto &[name, p] : sel)
        std::printf("  %-26s %s\n", name.c_str(), p.describe().c_str());

    // Open-loop phases at the three fixed rates.
    const genreuse::GuardStats g0 = genreuse::guard::snapshot();
    std::vector<PhaseResult> phases;
    HostSpeed speed;
    for (size_t i = 0; i < 3; ++i)
        phases.push_back(runPhase(*engine, pool, kPhaseNames[i],
                                  opt.rates[i], opt.seconds * kPhaseShare[i],
                                  opt.seed * 31 + i, opt.latencyLimitMs,
                                  speed));
    engine->shutdown();
    const genreuse::GuardStats g1 = genreuse::guard::snapshot();

    // Reference: a same-seed replica forwards the pooled inputs
    // sequentially, guarded and exact interleaved, for a third of the
    // run (one pass at least; the first pass gives the references).
    Network ref = cloneNetwork(m, trained);
    AlgoSwitch algos(reuseTargets(ref, m), installGuarded(ref, sel, fit));
    std::vector<Tensor> ref_out;
    const LoopResult r = pairedLoop(ref, algos, pool, labels,
                                  opt.seconds / 3, &ref_out);

    size_t sent = 0, succeeded = 0, mismatched = 0;
    for (const PhaseResult &p : phases) {
        sent += p.sent;
        succeeded += p.succeeded;
        for (const Slot &s : p.slots)
            if (s.admitted && s.result.status.ok() &&
                !bitEqual(s.result.output, ref_out[s.input]))
                ++mismatched;
    }
    rep.check(mismatched == 0,
              "every served output bit-identical to a sequential guarded "
              "forward on a same-seed replica (" +
                  std::to_string(succeeded) + " outputs, " +
                  std::to_string(mismatched) + " mismatched)");
    const double top1 = static_cast<double>(r.agree) / r.checked;
    // Recorded floor, about ten points under the parent's 0.9.
    const double kTop1Floor = 0.8;
    rep.check(top1 >= kTop1Floor, "top1_agree " + std::to_string(top1) +
                                      " >= floor " +
                                      std::to_string(kTop1Floor));
    rep.count(sent, sent - succeeded);

    std::printf("\nopen loop, %zu worker(s), p99 limit %.1f ms (wall; "
                "[ref] = at reference speed):\n"
                "%-5s %6s %5s %5s %4s %4s %4s %8s %8s %8s %8s %8s %5s %5s "
                "%s\n",
                kWorkers, opt.latencyLimitMs, "phase", "rate", "sent", "ok",
                "fail", "shed", "rej", "p50_q", "tail_q", "p50[ref]",
                "tail[ref]", "goodput", "depth", "level", "verdict");
    double rps_at_slo = 0.0;
    for (const PhaseResult &p : phases) {
        std::printf("%-5s %6.1f %5zu %5zu %4zu %4zu %4zu %8.3f %8.3f %8.3f "
                    "%8.3f %8.2f %5zu %5d %s%s\n",
                    p.name, p.rate, p.sent, p.succeeded, p.failed, p.shed,
                    p.rejected, median(p.quietLatencyMs),
                    tail(p.quietLatencyMs).value, median(p.refLatencyMs),
                    tail(p.refLatencyMs).value, p.goodput(), p.maxDepth,
                    p.maxLevel, p.withinLimit ? "within" : "OVER",
                    p.backlogGrows ? " (backlog grows)" : "");
        if (p.withinLimit)
            rps_at_slo = p.goodput();
    }
    const PhaseResult &mid = phases[1];
    const PhaseResult &high = phases[2];
    std::printf("(_q: wall, quiet half; [ref]: every request, reference "
                "speed)\n"
                "mid  wall  %s\n     [ref] %s\n"
                "high wall  %s\n     [ref] %s\n"
                "calibration job on the worker: %s\n",
                describeLatency(mid.latencyMs).c_str(),
                describeLatency(mid.refLatencyMs).c_str(),
                describeLatency(high.latencyMs).c_str(),
                describeLatency(high.refLatencyMs).c_str(),
                describeLatency(speed.ms()).c_str());

    rep.endToEnd("latency_p50_ms", median(mid.refLatencyMs), "ms");
    rep.endToEnd("latency_p99_ms", tail(mid.refLatencyMs).value, "ms");
    rep.endToEnd("latency_p50_ms.high", median(high.refLatencyMs), "ms");
    rep.endToEnd("latency_p99_ms.high", tail(high.refLatencyMs).value, "ms");
    rep.endToEnd("rps_at_slo", rps_at_slo, "req/s");
    std::vector<double> pair_ms;
    for (size_t i = 0; i < r.guardedMs.size(); ++i)
        pair_ms.push_back(r.guardedMs[i] + r.exactMs[i]);
    const std::vector<size_t> quiet = quietHalf(pair_ms, 16);
    const std::vector<double> guarded_ref =
        pick(r.speed.atRefSpeed(r.guardedMs, r.startNs), quiet);
    rep.endToEnd("exact_p50_ms",
                 median(pick(r.speed.atRefSpeed(r.exactMs, r.startNs), quiet)),
                 "ms");
    rep.endToEnd("reuse_speedup", median(r.ratio), "x");
    rep.endToEnd("top1_agree", top1, "fraction");
    rep.endToEnd("accuracy", static_cast<double>(r.correct) / r.checked,
                 "fraction");
    rep.endToEnd("success_ratio", static_cast<double>(succeeded) / sent,
                 "fraction");
    rep.endToEnd("setup_s", median(setup_s), "s");
    rep.endToEnd("peak_rss_mb", peakRssMb(), "MB");

    if (!opt.trace)
        return;

    // Traced run: per-layer figures of the replica from a traced pass
    // over the pool, and admit/queue/service spans per request.
    SpanLog log(1 << 20);
    std::vector<double> walk_ms;
    std::vector<uint64_t> walk_at;
    HostSpeed walk_speed;
    {
        LayerTracer tracer(ref, m, algos.guards(), log);
        for (size_t i = 0; i < pool.size(); ++i) {
            double ms = 0.0;
            walk_at.push_back(nowNs());
            (void)tracer.forward(pool[i], i + 1, ms);
            walk_ms.push_back(ms);
            walk_speed.sample();
        }
        tracer.report(rep);
    }
    const uint32_t admit = log.intern("serve.admit");
    const uint32_t queue = log.intern("serve.queue");
    const uint32_t service = log.intern("serve.service");
    for (const PhaseResult &p : phases)
        for (const Slot &s : p.slots)
            if (s.admitted) {
                const serve::ServeResult &x = s.result;
                log.add(admit, x.requestId, x.enqueueNs, x.queuedNs);
                log.add(queue, x.requestId, x.queuedNs, x.startNs);
                log.add(service, x.requestId, x.startNs, x.doneNs);
            }

    const double fwd = static_cast<double>(g1.forwards - g0.forwards);
    rep.perLayer("core.guard.full_reuse_ratio",
                 (g1.fullReuse - g0.fullReuse) / fwd, "fraction");
    rep.perLayer("core.guard.recluster_ratio",
                 (g1.reclusterWins - g0.reclusterWins) / fwd, "fraction");
    rep.perLayer("core.guard.exact_fallback_ratio",
                 (g1.exactFallbacks - g0.exactFallbacks) / fwd, "fraction");
    rep.perLayer("core.guard.unverified_ratio",
                 (g1.unverifiedForwards - g0.unverifiedForwards) / fwd,
                 "fraction");
    rep.perLayer("core.select_s", median(select_s), "s");
    rep.perLayer("core.fit_s", median(fit_s), "s");

    // Serving layers, at the high rate where queueing shows.
    double busy_ms = 0.0;
    for (double v : high.serviceMs)
        busy_ms += v;
    size_t depth = 0;
    int level = 0;
    for (const PhaseResult &p : phases) {
        depth = std::max(depth, p.maxDepth);
        level = std::max(level, p.maxLevel);
    }
    rep.perLayer("serve.gen_lag_ms.p99", tail(high.genLagMs).value, "ms");
    rep.perLayer("serve.admit_wait_ms.p99", tail(high.admitWaitMs).value,
                 "ms");
    rep.perLayer("serve.queue_wait_ms.p50", median(high.queueWaitMs), "ms");
    rep.perLayer("serve.queue_wait_ms.p99", tail(high.queueWaitMs).value,
                 "ms");
    rep.perLayer("serve.service_ms.p50", median(high.serviceMs), "ms");
    rep.perLayer("serve.service_ms.p99", tail(high.serviceMs).value, "ms");
    rep.perLayer("serve.queue_depth.max", static_cast<double>(depth),
                 "count");
    rep.perLayer("serve.worker_busy_share",
                 busy_ms * 1e-3 / (kWorkers * high.wallS), "fraction");
    rep.perLayer("serve.overload_level.max", level, "count");
    for (const PhaseResult &p : phases) {
        const std::string base = std::string("serve.") + p.name + ".";
        rep.perLayer(base + "sent", p.sent, "count");
        rep.perLayer(base + "succeeded", p.succeeded, "count");
        rep.perLayer(base + "failed", p.failed, "count");
        rep.perLayer(base + "shed", p.shed, "count");
        rep.perLayer(base + "rejected", p.rejected, "count");
    }

    const double untraced_p50 = median(guarded_ref);
    const double traced_p50 =
        median(pick(walk_speed.atRefSpeed(walk_ms, walk_at),
                    quietHalf(walk_ms, 16)));
    std::printf("\ntraced replica forward (wall) %s\n"
                "tracing overhead on the replica's guarded forward at "
                "reference speed: %.4f ms traced vs %.4f ms untraced "
                "(%+.2f%%)\n",
                describeLatency(walk_ms).c_str(), traced_p50, untraced_p50,
                100.0 * (traced_p50 / untraced_p50 - 1.0));
    rep.perLayer("trace.overhead_pct",
                 100.0 * (traced_p50 / untraced_p50 - 1.0), "%");
    log.write(opt.cacheDir + "/trace-" + opt.workload + "-seed" +
              std::to_string(opt.seed) + ".json");
}

} // namespace perfbench
