/**
 * @file
 * genreuse_serve — serve-engine demo CLI: N concurrent guarded-reuse
 * streams behind a bounded request queue, driven by the open-loop
 * load generator, with the latency percentiles and per-stream guard
 * state printed at the end.
 *
 * Build: cmake -B build && cmake --build build
 * Run:   ./build/examples/genreuse_serve [--workers 2] [--requests 64]
 *            [--rps 50] [--queue 16] [--policy block|reject]
 *            [--poisson] [--events out.events.json]
 *            [--deadline 50ms] [--overload-delay 20ms]
 *            [--health out.health.json]
 *            [--rtrace out.rtrace.json[:rate]]
 *            [--canary 0.05] [--audit out.audit.json]
 *
 * --rtrace records per-request span decompositions (admission, queue
 * wait, forward, verification) and writes a genreuse.rtrace/1 artifact
 * (slowest-request table via genreuse_inspect, Chrome trace events via
 * chrome://tracing); it mirrors the GENREUSE_RTRACE env hook.
 *
 * --canary R samples a fraction R of guarded forwards onto the exact
 * path and tracks the true relative error per layer (mirrors
 * GENREUSE_CANARY); --audit arms the reuse-efficacy audit (mirrors
 * GENREUSE_AUDIT) and writes its genreuse.audit/1 document at exit:
 * per-layer observed vs modeled r_t and the canary's error series.
 *
 * Each worker owns one stream: a guarded reuse convolution fitted
 * with the same seed, so all streams are bit-identical replicas and
 * any divergence between them is a bug (or an injected fault — try
 * GENREUSE_FAULT=nan_activation@2 to trip only stream 2's ladder).
 * --events dumps the event journal; each event carries its stream id,
 * and `genreuse_inspect out.events.json` demuxes the interleaved log.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/eventlog.h"
#include "common/metrics.h"
#include "common/rtrace.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "data/synthetic.h"
#include "nn/conv2d.h"
#include "serve/loadgen.h"
#include "serve/serve.h"

using namespace genreuse;
using namespace genreuse::serve;

namespace {

/** One stream: a conv layer with a guarded reuse algorithm installed.
 *  infer() runs on exactly one worker with the context bound. */
class GuardedConvStream : public InferenceStream
{
  public:
    GuardedConvStream(uint32_t stream_id, const Dataset &fit_data)
        : rng_(7), conv_("conv", 3, 32, 5, 1, 2, rng_)
    {
        (void)stream_id; // identical replicas: same seeds everywhere
        Tensor image = fit_data.gatherImages({0});
        conv_.forward(image, /*training=*/false);

        ReusePattern pattern;
        pattern.granularity = conv_.kernelSize() * conv_.kernelSize();
        pattern.numHashes = 4;
        guard_ = std::make_shared<GuardedReuseConvAlgo>(
            pattern, GuardConfig{}, HashMode::Learned, /*seed=*/99);
        guard_->fit(conv_.lastIm2col(), conv_.lastGeometry());
        // Raw-API fit skips applyGuardedReusePattern's name stamping;
        // label the audit/canary slot so dashboards show "conv", not a
        // blank cell.
        audit::setName(guard_->inner().serial(), conv_.name());
        conv_.setAlgo(guard_);
    }

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        return conv_.forward(input, /*training=*/false);
    }

    GuardRung
    lastRung() const override
    {
        return guard_->lastRung();
    }

  private:
    Rng rng_;
    Conv2D conv_;
    std::shared_ptr<GuardedReuseConvAlgo> guard_;
};

/** Write @p doc to @p path; on success print "<what> -> <path> (<hint>
 *  genreuse_inspect <path>)". */
void
writeArtifact(const std::string &path, const std::string &doc,
              const char *what, const char *hint)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("%s -> %s (%sgenreuse_inspect %s)\n", what, path.c_str(),
                hint, path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    ServeConfig cfg;
    cfg.workers = static_cast<size_t>(args.getInt("workers", 2));
    cfg.queueCapacity = static_cast<size_t>(args.getInt("queue", 16));
    cfg.name = "serve";
    const std::string policy = args.getString("policy", "block");
    cfg.policy =
        policy == "reject" ? AdmitPolicy::Reject : AdmitPolicy::Block;
    // Failure-containment knobs: a default per-request deadline sheds
    // queue-expired work, a queue-delay threshold arms the overload
    // controller (0 = both off).
    cfg.defaultDeadlineNs = args.getDurationNs("deadline", 0);
    cfg.overloadQueueDelayNs = args.getDurationNs("overload-delay", 0);

    LoadGenConfig lg;
    lg.requests = static_cast<size_t>(args.getInt("requests", 64));
    lg.rps = args.getDouble("rps", 50.0);
    lg.poisson = args.has("poisson");
    const std::string events_path = args.getString("events");
    if (!events_path.empty())
        eventlog::setEnabled(true);

    // Request tracing: "<path>[:rate]", same grammar as GENREUSE_RTRACE.
    std::string rtrace_path = args.getString("rtrace");
    uint64_t rtrace_rate = 1;
    if (!rtrace_path.empty()) {
        const size_t colon = rtrace_path.rfind(':');
        if (colon != std::string::npos &&
            colon + 1 < rtrace_path.size()) {
            const std::string suffix = rtrace_path.substr(colon + 1);
            bool digits = !suffix.empty();
            for (char c : suffix)
                digits = digits && c >= '0' && c <= '9';
            if (digits) {
                rtrace_rate = std::strtoull(suffix.c_str(), nullptr, 10);
                rtrace_path = rtrace_path.substr(0, colon);
            }
        }
        rtrace::setExport(rtrace_path, rtrace_rate);
        rtrace::setEnabled(true);
    }

    // Observability arms — set BEFORE the engine exists so the very
    // first fitted stream is audited/canaried.
    const double canary_rate = args.getDouble("canary", 0.0);
    if (canary_rate > 0.0)
        audit::setCanaryRate(canary_rate);
    const std::string audit_path = args.getString("audit");
    if (!audit_path.empty())
        audit::setEnabled(true);

    SyntheticConfig data_cfg;
    data_cfg.numSamples = 8;
    Dataset data = makeSyntheticCifar(data_cfg);

    std::printf("serving %zu stream(s), queue %zu (%s), %zu requests "
                "at %.1f rps (%s arrivals)\n",
                cfg.workers, cfg.queueCapacity, policy.c_str(),
                lg.requests, lg.rps, lg.poisson ? "Poisson" : "uniform");

    ServeEngine engine(cfg, [&data](uint32_t stream_id) {
        return std::make_unique<GuardedConvStream>(stream_id, data);
    });

    LatencyReport rep = runOpenLoop(engine, lg, [&data](size_t i) {
        return data.gatherImages({i % data.size()});
    });

    std::printf("\ncompleted %zu/%zu (rejected %zu)\n", rep.completed,
                rep.offered, rep.rejected);
    std::printf("latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
                "p99.9 %.2f ms  max %.2f ms\n",
                rep.p50Ms, rep.p95Ms, rep.p99Ms, rep.p999Ms, rep.maxMs);
    std::printf("breakdown: queue wait mean %.2f ms / p95 %.2f ms | "
                "service mean %.2f ms / p95 %.2f ms\n",
                rep.queueWaitMeanMs, rep.queueWaitP95Ms,
                rep.serviceMeanMs, rep.serviceP95Ms);
    std::printf("throughput %.1f rps over %.0f ms\n", rep.throughputRps,
                rep.wallMs);

    for (size_t i = 0; i < engine.numStreams(); ++i) {
        // Guard state is per-stream: bind the stream's context so
        // lastRung() reads that stream's ladder, not this thread's.
        StreamContext::Bind bind(engine.streamContext(i));
        std::printf("stream %zu: last rung %s\n", i + 1,
                    rungName(engine.stream(i).lastRung()));
    }

    if (canary_rate > 0.0)
        std::printf("canary: %llu samples, %llu budget breaches\n",
                    static_cast<unsigned long long>(
                        audit::canarySamples()),
                    static_cast<unsigned long long>(
                        audit::canaryBreaches()));

    // Snapshot health BEFORE shutdown: afterwards the engine reports
    // "draining", which is true but not what an operator probing a
    // live process wants to see.
    const std::string health_path = args.getString("health");
    if (!health_path.empty())
        writeArtifact(health_path, engine.healthJson(), "health snapshot",
                      "render with ");

    engine.shutdown();
    ServeStats st = engine.stats();
    std::printf("engine: accepted %llu, completed %llu, rejected %llu\n",
                static_cast<unsigned long long>(st.accepted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.rejected));
    std::printf("        shed %llu, failed %llu, contained panics %llu, "
                "quarantines %llu, respawns %llu\n",
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.containedPanics),
                static_cast<unsigned long long>(st.quarantines),
                static_cast<unsigned long long>(st.respawns));
    std::printf("        engine-side latency (HDR) p50 %.2f ms  p95 "
                "%.2f ms  p99 %.2f ms  p99.9 %.2f ms\n",
                st.p50Ms, st.p95Ms, st.p99Ms, st.p999Ms);

    if (!rtrace_path.empty()) {
        // Write now (and disarm the exit hook) so the artifact exists
        // before the final message points at it.
        rtrace::writeJson(rtrace_path);
        rtrace::setExport("");
        std::printf("request trace -> %s (slowest requests: "
                    "genreuse_inspect --slowest 10 %s; timeline: "
                    "chrome://tracing)\n",
                    rtrace_path.c_str(), rtrace_path.c_str());
    }

    if (!audit_path.empty())
        writeArtifact(audit_path, audit::toJson(), "reuse audit",
                      "per-layer r_t and canary series: ");

    if (!events_path.empty()) {
        eventlog::writeJson(events_path, "genreuse_serve");
        std::printf("event journal -> %s (stream-tagged; demux with "
                    "genreuse_inspect %s)\n",
                    events_path.c_str(), events_path.c_str());
    }
    return 0;
}
