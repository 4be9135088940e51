/**
 * @file
 * The batch-1 forward workloads: one thread, closed loop, guarded
 * reuse against the exact path on the same inputs.
 *
 * One network instance serves both paths: the exact forward swaps the
 * target convs to ExactConvAlgo and the guarded forward swaps the
 * guarded algorithms back, so both read the same weights and BN
 * statistics. Guarded and exact forwards of each input run back to
 * back, alternating which goes first, so machine noise hits both.
 */

#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/measurement.h"
#include "spans.h"

namespace perfbench {

namespace {

// Set-up is repeated this many times per run; setup_s is the median.
constexpr size_t kSetups = 3;
// Calibration jobs run before and after each set-up.
constexpr size_t kSetupCalibrations = 3;
constexpr size_t kWarmup = 8;
// Inputs whose exact forward is checked against the layer walk.
constexpr size_t kWalkChecks = 8;
// Pairs per block of the quiet-half selection (about a second).
constexpr size_t kBlock = 32;

double
timedForward(Network &net, const Tensor &x, Tensor &out)
{
    const uint64_t t0 = nowNs();
    out = net.forward(x, /*training=*/false);
    return nsToMs(nowNs() - t0);
}

} // namespace

LoopResult
pairedLoop(Network &net, AlgoSwitch &algos, const std::vector<Tensor> &xs,
           const std::vector<int> &labels, double seconds,
           std::vector<Tensor> *guarded_out)
{
    LoopResult r;
    const uint64_t end = nowNs() + static_cast<uint64_t>(seconds * 1e9);
    Tensor yg, ye;
    for (size_t i = 0; i < xs.size() || nowNs() < end; ++i) {
        const Tensor &x = xs[i % xs.size()];
        double tg = 0.0, te = 0.0;
        r.startNs.push_back(nowNs());
        if (i % 2 == 0) {
            algos.guarded();
            tg = timedForward(net, x, yg);
            algos.exact();
            te = timedForward(net, x, ye);
        } else {
            algos.exact();
            te = timedForward(net, x, ye);
            algos.guarded();
            tg = timedForward(net, x, yg);
        }
        r.speed.sample();
        r.guardedMs.push_back(tg);
        r.exactMs.push_back(te);
        r.ratio.push_back(te / tg);
        for (size_t k = 0; k < yg.size(); ++k)
            if (!std::isfinite(yg[k])) {
                ++r.nonFinite;
                break;
            }
        if (i < xs.size()) {
            if (guarded_out)
                guarded_out->push_back(yg);
            ++r.checked;
            r.agree += argmax(yg) == argmax(ye);
            r.correct += static_cast<int>(argmax(yg)) == labels[i];
        }
    }
    algos.guarded();
    return r;
}

void
runForwardWorkload(const Options &opt, Model m, float redundancy,
                   float noise, Report &rep)
{
    // In-distribution inputs, large enough that accuracy and agreement
    // repeat across seeds, small enough for one pass per run.
    const size_t pool = 256;
    const Dataset inputs = makeInputs(pool, redundancy, noise, opt.seed);
    std::vector<Tensor> xs;
    for (size_t i = 0; i < pool; ++i)
        xs.push_back(inputs.gatherImages({i}));

    Network net = loadTrained(m, opt.cacheDir);
    const Dataset fit = fitSample();

    // Correctness: walking the layers is the same forward.
    for (size_t i = 0; i < kWalkChecks; ++i) {
        const Tensor ref = net.forward(xs[i], false);
        Tensor cur = xs[i];
        for (size_t l = 0; l < net.numLayers(); ++l)
            cur = net.layer(l).forward(cur, false);
        if (!bitEqual(ref, cur)) {
            rep.check(false, "layer-walk exact forward == Network::forward "
                             "on input " + std::to_string(i));
            return;
        }
    }
    rep.check(true, "layer-walk exact forward bit-identical to "
                    "Network::forward (" +
                        std::to_string(kWalkChecks) + " inputs)");

    // Set-up: selection, fitting, guard install and warm-up, from the
    // loaded weights. Repeated kSetups times; setup_s is the median.
    std::vector<double> setup_s, select_s, fit_s;
    Selection sel;
    std::unique_ptr<AlgoSwitch> algos;
    for (size_t k = 0; k < kSetups; ++k) {
        genreuse::resetAllConvs(net);
        HostSpeed speed;
        speed.sample(kSetupCalibrations);
        const uint64_t t0 = nowNs();
        sel = selectPatterns(net, m, fit);
        const uint64_t t1 = nowNs();
        auto guards = installGuarded(net, sel, fit);
        const uint64_t t2 = nowNs();
        for (size_t i = 0; i < kWarmup; ++i)
            (void)net.forward(xs[i % pool], false);
        const uint64_t t3 = nowNs();
        speed.sample(kSetupCalibrations);
        // Set-up time at reference speed; its parts as measured.
        setup_s.push_back(nsToMs(t3 - t0) * 1e-3 * speed.scale());
        select_s.push_back(nsToMs(t1 - t0) * 1e-3);
        fit_s.push_back(nsToMs(t2 - t1) * 1e-3);
        algos = std::make_unique<AlgoSwitch>(reuseTargets(net, m), guards);
    }
    std::printf("patterns picked by the analytic selector:\n");
    for (const auto &[name, p] : sel)
        std::printf("  %-26s %s\n", name.c_str(), p.describe().c_str());

    const genreuse::GuardStats g0 = genreuse::guard::snapshot();
    const double phase = opt.trace ? opt.seconds / 2 : opt.seconds;
    LoopResult r = pairedLoop(net, *algos, xs, inputs.labels, phase);

    const double top1 = static_cast<double>(r.agree) / r.checked;
    // Recorded floors, about ten points under what the parent commit
    // measures (0.93 on CifarNet, 0.80 on low-redundancy SqueezeNet).
    const double kTop1Floor = m == Model::CifarNet ? 0.85 : 0.70;
    rep.check(top1 >= kTop1Floor,
              "top1_agree " + std::to_string(top1) + " >= floor " +
                  std::to_string(kTop1Floor));
    rep.check(r.nonFinite == 0, "every guarded output is finite");
    rep.count(r.guardedMs.size(), r.nonFinite);

    // Latency figures come from the quieter half of the run (see
    // quietHalf), scaled to reference host speed (see calibrate.h); the
    // guarded/exact ratio is taken over every pair.
    std::vector<double> pair_ms;
    for (size_t i = 0; i < r.guardedMs.size(); ++i)
        pair_ms.push_back(r.guardedMs[i] + r.exactMs[i]);
    const std::vector<size_t> quiet = quietHalf(pair_ms, kBlock);
    const std::vector<double> guarded =
        pick(r.speed.atRefSpeed(r.guardedMs, r.startNs), quiet);
    const std::vector<double> exact =
        pick(r.speed.atRefSpeed(r.exactMs, r.startNs), quiet);
    std::printf("\nwall, all pairs:  guarded %s\n"
                "                  exact   %s\n"
                "wall, quiet half: guarded %s\n"
                "                  exact   %s\n"
                "reference speed:  guarded %s\n"
                "                  exact   %s\n"
                "calibration job: %s\n",
                describeLatency(r.guardedMs).c_str(),
                describeLatency(r.exactMs).c_str(),
                describeLatency(pick(r.guardedMs, quiet)).c_str(),
                describeLatency(pick(r.exactMs, quiet)).c_str(),
                describeLatency(guarded).c_str(),
                describeLatency(exact).c_str(),
                describeLatency(r.speed.ms()).c_str());
    const double p50 = median(guarded);
    const Tail t99 = tail(guarded);
    double total_ms = 0.0;
    for (double v : guarded)
        total_ms += v;
    rep.endToEnd("latency_p50_ms", p50, "ms");
    rep.endToEnd("latency_p99_ms", t99.value, "ms");
    // A one-caller closed loop has a single load level, its own
    // saturation: the .high figures are that loop's, and rps_at_slo is
    // the guarded forwards it completes per second of forward time.
    rep.endToEnd("latency_p50_ms.high", p50, "ms");
    rep.endToEnd("latency_p99_ms.high", t99.value, "ms");
    rep.endToEnd("rps_at_slo", 1e3 * guarded.size() / total_ms, "req/s");
    rep.endToEnd("exact_p50_ms", median(exact), "ms");
    rep.endToEnd("reuse_speedup", median(r.ratio), "x");
    rep.endToEnd("top1_agree", top1, "fraction");
    rep.endToEnd("accuracy", static_cast<double>(r.correct) / r.checked,
                 "fraction");
    rep.endToEnd("success_ratio",
                 1.0 - static_cast<double>(r.nonFinite) / r.guardedMs.size(),
                 "fraction");
    rep.endToEnd("setup_s", median(setup_s), "s");
    rep.endToEnd("peak_rss_mb", peakRssMb(), "MB");

    if (!opt.trace)
        return;

    // Traced phase: the same guarded forwards through the layer walk.
    SpanLog log(1 << 20);
    std::vector<double> walk_ms;
    std::vector<uint64_t> walk_at;
    HostSpeed walk_speed;
    {
        LayerTracer tracer(net, m, algos->guards(), log);
        const uint64_t end =
            nowNs() + static_cast<uint64_t>(opt.seconds / 2 * 1e9);
        for (size_t i = 0; nowNs() < end || i < kWarmup; ++i) {
            double ms = 0.0;
            walk_at.push_back(nowNs());
            (void)tracer.forward(xs[i % pool], i + 1, ms);
            walk_ms.push_back(ms);
            walk_speed.sample();
        }
        tracer.report(rep);
    }
    const genreuse::GuardStats g1 = genreuse::guard::snapshot();
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
    const double traced_p50 =
        median(pick(walk_speed.atRefSpeed(walk_ms, walk_at),
                    quietHalf(walk_ms, kBlock)));
    std::printf("\ntraced guarded forward (wall) %s\n"
                "tracing overhead on latency_p50_ms: %.4f ms traced vs "
                "%.4f ms untraced (%+.2f%%)\n",
                describeLatency(walk_ms).c_str(), traced_p50, p50,
                100.0 * (traced_p50 / p50 - 1.0));
    rep.perLayer("trace.overhead_pct", 100.0 * (traced_p50 / p50 - 1.0),
                 "%");
    log.write(opt.cacheDir + "/trace-" + opt.workload + "-seed" +
              std::to_string(opt.seed) + ".json");
}

} // namespace perfbench
