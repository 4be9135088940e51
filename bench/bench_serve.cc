/**
 * @file
 * Serve-engine bench: latency percentiles and throughput-vs-workers
 * for the concurrent multi-stream runtime (src/serve). Unlike the
 * paper benches this does not regenerate a figure — it characterizes
 * the PR 7 runtime: N guarded CifarNet replicas behind the bounded
 * request queue, each stream on its own worker/arena/drift state.
 *
 * Two measurements, two loops:
 *   - closed loop (saturation): keep 2×workers requests in flight and
 *     report completed/s for workers ∈ {1, 2, 4}. The w4/w1 ratio is
 *     the scaling number — on a single-core container it is honestly
 *     ≈1× (the workers time-slice one CPU); see EXPERIMENTS.md.
 *   - open loop (latency): offer requests at ~70% of the 1-worker
 *     saturation rate on a fixed schedule and report p50/p95/p99
 *     measured from the *scheduled* arrival (coordinated omission).
 *
 * Streams must be bit-identical, so every replica is the same-seed
 * CifarNet with the trained weights copied in and the same-seed
 * guarded reuse pattern fitted per replica.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/args.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/overload.h"
#include "common/thread_pool.h"
#include "core/measurement.h"
#include "core/reuse_audit.h"
#include "serve/loadgen.h"
#include "serve/serve.h"

using namespace genreuse;
using namespace genreuse::bench;
using namespace genreuse::serve;

namespace {

/** One guarded CifarNet replica serving a stream. The engine calls
 *  infer() from exactly one worker with the stream context bound, so
 *  the stateful Network forward needs no locking. */
class NetworkStream : public InferenceStream
{
  public:
    NetworkStream(Network net,
                  std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards)
        : net_(std::move(net)), guards_(std::move(guards))
    {
    }

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        return net_.forward(input, /*training=*/false);
    }

    /** Worst rung any guarded layer hit on the last forward. */
    GuardRung
    lastRung() const override
    {
        GuardRung worst = GuardRung::FullReuse;
        for (const auto &g : guards_)
            worst = std::max(worst, g->lastRung());
        return worst;
    }

  private:
    Network net_;
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards_;
};

/** Same-seed replica of the trained workbench net with the guarded
 *  reuse pattern fitted. Identical seeds everywhere → every stream is
 *  bit-identical to the single-stream pipeline. */
std::shared_ptr<NetworkStream>
makeReplica(Workbench &wb, uint64_t model_seed)
{
    Rng rng(model_seed);
    Network net = makeCifarNet(rng);

    // Copy the trained weights; params() enumerates in layer order, so
    // same-architecture nets align index-for-index.
    std::vector<Param *> src = wb.net.params();
    std::vector<Param *> dst = net.params();
    GENREUSE_REQUIRE(src.size() == dst.size(),
                     "replica parameter count mismatch");
    for (size_t i = 0; i < src.size(); ++i)
        dst[i]->value = src[i]->value;

    Dataset fit = wb.train.slice(0, std::min<size_t>(4, wb.train.size()));
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards;
    for (Conv2D *layer : reuseTargets(net, ModelKind::CifarNet)) {
        ReusePattern p;
        p.granularity = layer->kernelSize() * layer->kernelSize();
        p.numHashes = 4;
        guards.push_back(fitAndInstallGuarded(net, *layer, p, fit, {},
                                              HashMode::Learned, 99));
    }
    return std::make_shared<NetworkStream>(std::move(net),
                                           std::move(guards));
}

/** Delegating wrapper so several sequential engines can reuse one
 *  prebuilt replica pool (engines own their streams by unique_ptr). */
class SharedStream : public InferenceStream
{
  public:
    explicit SharedStream(std::shared_ptr<NetworkStream> impl)
        : impl_(std::move(impl))
    {
    }

    Tensor
    infer(const Tensor &input, StreamContext &ctx) override
    {
        return impl_->infer(input, ctx);
    }

    GuardRung
    lastRung() const override
    {
        return impl_->lastRung();
    }

  private:
    std::shared_ptr<NetworkStream> impl_;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    std::printf(
        "=== bench_serve: multi-stream serve engine (PR 7/8) ===\n");

    const bool smoke = smokeMode();
    const size_t kMaxWorkers = 4;
    const size_t requests = smoke ? 16 : 160;

    Workbench wb = makeWorkbench(ModelKind::CifarNet);

    // Replicas are built once and shared across the sequential engine
    // runs below — within one engine each stream still runs on exactly
    // one worker, so the stateful forward stays single-threaded.
    std::vector<std::shared_ptr<NetworkStream>> replicas;
    for (size_t i = 0; i < kMaxWorkers; ++i)
        replicas.push_back(makeReplica(wb, /*model_seed=*/1000));

    StreamFactory factory = [&replicas](uint32_t stream_id) {
        return std::make_unique<SharedStream>(
            replicas.at(stream_id - 1));
    };

    // Pre-gathered batch-1 inputs; make_input runs on the generator
    // thread, off the measured path.
    const size_t pool_size = std::min<size_t>(wb.test.size(), 24);
    std::vector<Tensor> inputs;
    for (size_t i = 0; i < pool_size; ++i)
        inputs.push_back(wb.test.gatherImages({i}));
    auto make_input = [&inputs](size_t i) {
        return inputs[i % inputs.size()];
    };

    BenchJson json("serve");
    json.meta("model", "CifarNet");
    json.meta("smoke", smoke ? 1.0 : 0.0);
    json.meta("hw_threads",
              static_cast<double>(ThreadPool::hardwareThreads()));
    json.meta("requests", static_cast<double>(requests));

    TextTable thr_table;
    thr_table.setHeader({"workers", "throughput rps", "scaling vs w1"});
    double thr_w1 = 0.0;
    for (size_t workers : {size_t(1), size_t(2), size_t(4)}) {
        ServeConfig cfg;
        cfg.workers = workers;
        cfg.queueCapacity = 64;
        cfg.policy = AdmitPolicy::Block;
        cfg.name = "bserve";
        ServeEngine engine(cfg, factory);
        const double rps =
            runClosedLoop(engine, requests, /*inflight=*/2 * workers,
                          make_input);
        engine.shutdown();
        if (workers == 1)
            thr_w1 = rps;
        const double scaling = thr_w1 > 0.0 ? rps / thr_w1 : 0.0;
        json.record("throughput_w" + std::to_string(workers), rps);
        json.record("scaling_w" + std::to_string(workers), scaling);
        thr_table.addRow({std::to_string(workers), formatDouble(rps, 1),
                          formatSpeedup(scaling)});
    }
    std::printf("--- Closed-loop saturation throughput ---\n%s\n",
                thr_table.render().c_str());

    // Open-loop latency at ~70% of single-worker saturation: below the
    // knee so percentiles measure service + moderate queueing, not an
    // unbounded backlog.
    LoadGenConfig lg;
    lg.rps = std::max(1.0, 0.7 * thr_w1);
    lg.requests = requests;
    lg.seed = 7;
    lg.poisson = true;
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 64;
    cfg.policy = AdmitPolicy::Block;
    cfg.name = "bserve";
    ServeEngine engine(cfg, factory);
    LatencyReport rep = runOpenLoop(engine, lg, make_input);
    engine.shutdown();

    TextTable lat_table;
    lat_table.setHeader({"metric", "value"});
    lat_table.addRow({"offered rps", formatDouble(lg.rps, 1)});
    lat_table.addRow({"completed", std::to_string(rep.completed)});
    lat_table.addRow({"p50 ms", formatDouble(rep.p50Ms, 2)});
    lat_table.addRow({"p95 ms", formatDouble(rep.p95Ms, 2)});
    lat_table.addRow({"p99 ms", formatDouble(rep.p99Ms, 2)});
    lat_table.addRow({"max ms", formatDouble(rep.maxMs, 2)});
    lat_table.addRow(
        {"throughput rps", formatDouble(rep.throughputRps, 1)});
    std::printf(
        "--- Open-loop latency (2 workers, Poisson arrivals) ---\n%s\n",
        lat_table.render().c_str());

    json.record("open_loop_rps", lg.rps);
    json.record("completed", static_cast<double>(rep.completed));
    json.record("rejected", static_cast<double>(rep.rejected));
    json.record("p50_ms", rep.p50Ms);
    json.record("p95_ms", rep.p95Ms);
    json.record("p99_ms", rep.p99Ms);
    json.record("p999_ms", rep.p999Ms);
    json.record("mean_ms", rep.meanMs);
    // Where the latency went: queue wait vs. service, from the
    // engine's per-request timestamps.
    json.record("queue_wait_mean_ms", rep.queueWaitMeanMs);
    json.record("queue_wait_p95_ms", rep.queueWaitP95Ms);
    json.record("service_mean_ms", rep.serviceMeanMs);
    json.record("service_p95_ms", rep.serviceP95Ms);
    json.record("throughput_rps", rep.throughputRps);

    // --- Degraded-mode latency (PR 8) -----------------------------------
    // Same open-loop offer with the overload ladder pinned at its top
    // level (verification shed entirely): the p99 gap vs the run above
    // is what load shedding actually buys when the controller trips.
    {
        overload::setLevel(overload::kMaxLevel);
        ServeConfig dcfg;
        dcfg.workers = 2;
        dcfg.queueCapacity = 64;
        dcfg.policy = AdmitPolicy::Block;
        dcfg.name = "bserve";
        ServeEngine deg(dcfg, factory);
        LatencyReport drep = runOpenLoop(deg, lg, make_input);
        deg.shutdown();
        overload::setLevel(0);
        std::printf("--- Degraded mode (overload level %d, unverified "
                    "forwards) ---\n"
                    "p99 %.2f ms vs %.2f ms healthy (p50 %.2f vs %.2f)\n\n",
                    overload::kMaxLevel, drep.p99Ms, rep.p99Ms, drep.p50Ms,
                    rep.p50Ms);
        json.record("degraded_p99_ms", drep.p99Ms);
        json.record("degraded_p50_ms", drep.p50Ms);
    }

    // --- Chaos section (PR 8) -------------------------------------------
    // Deterministic by construction, so the counters are BENCH-gateable:
    //   - a persistent worker_panic on the single stream makes every
    //     request a contained panic; with the default 3-strike policy,
    //     12 requests are exactly 4 quarantine/respawn cycles;
    //   - 8 requests with a 1 ns deadline queued behind a slow clean
    //     request all expire in the queue → exactly 8 sheds.
    {
        const size_t panic_requests = 12;
        ServeConfig ccfg;
        ccfg.workers = 1;
        ccfg.queueCapacity = 16;
        ccfg.policy = AdmitPolicy::Block;
        ccfg.name = "chaos";
        ServeEngine eng(ccfg, factory);
        GENREUSE_REQUIRE(faultpoint::armSpec("worker_panic@1").ok(),
                         "chaos: arming worker_panic failed");
        size_t failed_requests = 0;
        for (size_t i = 0; i < panic_requests; ++i) {
            auto fut = eng.submit(make_input(i));
            GENREUSE_REQUIRE(fut.has_value(), "chaos: submit failed");
            ServeResult r = fut->get();
            if (!r.status.ok())
                ++failed_requests;
        }
        faultpoint::disarm();

        // Survival proof: the respawned stream serves a clean request.
        auto fut = eng.submit(make_input(0));
        GENREUSE_REQUIRE(fut.has_value(), "chaos: post-storm submit failed");
        GENREUSE_REQUIRE(fut->get().status.ok(),
                         "chaos: respawned stream still failing");

        // Shed: one clean request occupies the worker while 8 requests
        // with an already-expired deadline pile up behind it.
        const size_t shed_requests = 8;
        std::vector<std::future<ServeResult>> pending;
        auto busy = eng.submit(make_input(0));
        GENREUSE_REQUIRE(busy.has_value(), "chaos: busy submit failed");
        for (size_t i = 0; i < shed_requests; ++i) {
            auto f = eng.submit(make_input(i), /*deadline_ns=*/1);
            GENREUSE_REQUIRE(f.has_value(), "chaos: shed submit failed");
            pending.push_back(std::move(*f));
        }
        (void)busy->get();
        size_t shed_seen = 0;
        for (auto &f : pending)
            if (f.get().status.code() == ErrorCode::DeadlineExceeded)
                ++shed_seen;
        eng.shutdown();

        ServeStats st = eng.stats();
        std::printf("--- Chaos (worker_panic storm + expired deadlines, "
                    "1 worker) ---\n"
                    "requests failed-with-Status %zu/%zu, contained "
                    "panics %llu, quarantines %llu, respawns %llu, "
                    "shed %llu (process survived)\n\n",
                    failed_requests, panic_requests,
                    static_cast<unsigned long long>(st.containedPanics),
                    static_cast<unsigned long long>(st.quarantines),
                    static_cast<unsigned long long>(st.respawns),
                    static_cast<unsigned long long>(st.shed));
        json.record("chaos_contained_panics",
                    static_cast<double>(st.containedPanics));
        json.record("chaos_quarantined",
                    static_cast<double>(st.quarantines));
        json.record("chaos_respawned", static_cast<double>(st.respawns));
        json.record("chaos_shed", static_cast<double>(shed_seen));
    }

    // --- Observed serving (PR 10) ---------------------------------------
    // One more closed loop with the reuse-efficacy audit armed and the
    // canary at rate 1.0. The keys are deterministic: replicas are
    // bit-identical, so each forward's redundancy ratio depends only on
    // its input — the multiset of observed r_t values (and hence their
    // mean) is scheduling-free, and in-distribution inputs mean zero
    // breaches by construction.
    {
        audit::reset();
        audit::setEnabled(true);
        audit::setCanaryRate(1.0);

        ServeConfig ocfg;
        ocfg.workers = 2;
        ocfg.queueCapacity = 64;
        ocfg.policy = AdmitPolicy::Block;
        ocfg.name = "observed";
        ServeEngine eng(ocfg, factory);
        runClosedLoop(eng, requests, /*inflight=*/4, make_input);
        eng.shutdown();

        uint64_t fwd = 0, breaches_total = 0;
        double rt_sum = 0.0, gap_max = 0.0;
        audit::Snapshot snap = audit::snapshot();
        for (const auto &l : snap.layers) {
            fwd += l.forwards;
            rt_sum += l.sumObserved;
            gap_max = std::max(gap_max, l.modelGap());
        }
        const double rt_mean =
            fwd ? rt_sum / static_cast<double>(fwd) : 0.0;

        std::printf("--- Observed serving (audit + canary 1.0) ---\n"
                    "guarded forwards %llu, observed r_t mean %.4f, "
                    "model gap max %.4f, canary %llu samples / %llu "
                    "breaches\n\n",
                    static_cast<unsigned long long>(fwd), rt_mean,
                    gap_max,
                    static_cast<unsigned long long>(
                        audit::canarySamples()),
                    static_cast<unsigned long long>(
                        audit::canaryBreaches()));
        json.record("audit_forwards", static_cast<double>(fwd));
        json.record("audit_observed_rt_mean", rt_mean);
        json.record("audit_model_gap_max", gap_max);
        json.record("canary_samples",
                    static_cast<double>(audit::canarySamples()));
        json.record("canary_breaches",
                    static_cast<double>(audit::canaryBreaches()));
        breaches_total = audit::canaryBreaches();
        GENREUSE_REQUIRE(breaches_total == 0,
                         "observed serving: unexpected canary breach "
                         "on in-distribution inputs");

        audit::setCanaryRate(0.0);
        audit::setEnabled(false);
        audit::reset();
    }

    // --chaos: heavier multi-event storm across 4 streams. Counters are
    // timing-dependent (which stream serves which closed-loop request),
    // so this prints rather than records.
    if (args.has("chaos")) {
        ServeConfig scfg;
        scfg.workers = kMaxWorkers;
        scfg.queueCapacity = 64;
        scfg.policy = AdmitPolicy::Block;
        scfg.name = "storm";
        ServeEngine eng(scfg, factory);
        GENREUSE_REQUIRE(
            faultpoint::armSpec("nan_activation@2,worker_panic@3").ok(),
            "chaos storm: armSpec failed");
        const double rps = runClosedLoop(eng, 4 * requests,
                                         /*inflight=*/2 * kMaxWorkers,
                                         make_input);
        faultpoint::disarm();
        eng.shutdown();
        ServeStats st = eng.stats();
        std::printf("--- Chaos storm (--chaos: nan_activation@2 + "
                    "worker_panic@3, %zu workers) ---\n"
                    "%.1f rps, health %s, failed %llu, contained %llu, "
                    "quarantines %llu, respawns %llu\n\n",
                    kMaxWorkers, rps, healthName(st.health),
                    static_cast<unsigned long long>(st.failed),
                    static_cast<unsigned long long>(st.containedPanics),
                    static_cast<unsigned long long>(st.quarantines),
                    static_cast<unsigned long long>(st.respawns));
    }
    return 0;
}
