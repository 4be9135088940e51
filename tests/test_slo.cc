/**
 * @file
 * Tests for the SLO burn-rate monitor (src/serve/slo.h): deterministic
 * manual ticking, the two-window rule (fast catches onset, slow
 * confirms it is sustained — one bad tick must not page), latency
 * objectives counted from histogram snapshot deltas, counter-reset
 * tolerance, health coupling via setExternalDegraded, and the
 * end-to-end OOD storm: a deterministic ood_scale fault on an engine
 * pushed to overload level 2 must breach the accuracy canary, fire the
 * canary-accuracy SloAlert, and flip the engine Degraded.
 */

#include <atomic>
#include <chrono>
#include <gtest/gtest.h>
#include <string>
#include <thread>
#include <vector>

#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "core/reuse_conv.h"
#include "core/stream_context.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "serve/serve.h"
#include "serve/slo.h"
#include "test_util.h"

namespace genreuse {
namespace {

using serve::Health;
using serve::InferenceStream;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeStats;
using serve::SloKind;
using serve::SloMonitor;
using serve::SloSpec;
using serve::SloState;

/** Every test starts and ends with all process-global observability
 *  state zeroed (the SLO monitor reads canary totals and the overload
 *  level, both process-wide). */
struct SloSandbox
{
    SloSandbox() { scrub(); }
    ~SloSandbox() { scrub(); }

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
        eventlog::setEnabled(false);
        eventlog::reset();
    }
};

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/** Echoes the input after an optional delay. */
class EchoStream : public InferenceStream
{
  public:
    explicit EchoStream(int delay_ms = 0) : delayMs_(delay_ms) {}

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        if (delayMs_ > 0)
            sleepMs(delayMs_);
        return input;
    }

  private:
    int delayMs_;
};

/** Panics on inputs whose first element is negative (the failure is
 *  input-encoded so queued requests fail deterministically no matter
 *  when the worker dequeues them). */
class SignStream : public InferenceStream
{
  public:
    Tensor
    infer(const Tensor &input, StreamContext &ctx) override
    {
        if (input.data()[0] < 0.0f)
            panic("poisoned request on stream ", ctx.id());
        return input;
    }
};

/** Submit @p good good and @p bad bad requests and drain. */
void
pump(ServeEngine &engine, int good, int bad = 0)
{
    Tensor ok({1, 1});
    ok.data()[0] = 1.0f;
    Tensor poison({1, 1});
    poison.data()[0] = -1.0f;
    for (int i = 0; i < good; ++i)
        ASSERT_TRUE(engine.trySubmit(ok, nullptr));
    for (int i = 0; i < bad; ++i)
        ASSERT_TRUE(engine.trySubmit(poison, nullptr));
    engine.drain();
}

SloSpec
failSpec(double budget, double fast_burn, double slow_burn,
         size_t fast_ticks, size_t slow_ticks)
{
    SloSpec spec;
    spec.name = "fail-availability";
    spec.kind = SloKind::FailRate;
    spec.budget = budget;
    spec.fastBurn = fast_burn;
    spec.slowBurn = slow_burn;
    spec.fastTicks = fast_ticks;
    spec.slowTicks = slow_ticks;
    return spec;
}

TEST(Slo, FailureBurnFiresOnBothWindowsAndHoldsHealthDegraded)
{
    SloSandbox sandbox;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<SignStream>();
    });
    SloMonitor monitor(engine, {failSpec(0.05, 8.0, 2.0, 1, 3)});

    eventlog::setEnabled(true);
    monitor.tick(); // baseline frame
    pump(engine, /*good=*/4);
    monitor.tick();
    EXPECT_FALSE(monitor.anyFiring());
    EXPECT_EQ(engine.health(), Health::Healthy);

    // One tick of 100% failures: fast window burns 20x (>= 8) and the
    // slow window 10x (>= 2), so the alert fires and the engine is
    // held Degraded for as long as it keeps firing.
    pump(engine, /*good=*/0, /*bad=*/4);
    monitor.tick();
    ASSERT_TRUE(monitor.anyFiring());
    std::vector<SloState> states = monitor.states();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_TRUE(states[0].firing);
    EXPECT_EQ(states[0].transitions, 1u);
    EXPECT_GE(states[0].fastBurnRate, 8.0);
    EXPECT_GE(states[0].slowBurnRate, 2.0);
    EXPECT_EQ(states[0].fastBad, 4u);
    EXPECT_EQ(engine.health(), Health::Degraded);
    EXPECT_EQ(engine.stats().health, Health::Degraded);

    // A clean tick empties the fast window: the alert clears and the
    // external degrade is released.
    pump(engine, /*good=*/4);
    monitor.tick();
    EXPECT_FALSE(monitor.anyFiring());
    states = monitor.states();
    EXPECT_EQ(states[0].transitions, 2u);
    EXPECT_EQ(engine.health(), Health::Healthy);

    // Both edges journaled.
    uint64_t alerts = 0;
    for (const eventlog::Event &e : eventlog::snapshot())
        if (e.type == eventlog::Type::SloAlert)
            ++alerts;
    EXPECT_EQ(alerts, 2u);
}

TEST(Slo, TwoWindowRuleSuppressesAOneTickBlip)
{
    SloSandbox sandbox;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<SignStream>();
    });
    SloMonitor monitor(engine, {failSpec(0.05, 8.0, 6.0, 1, 4)});

    monitor.tick();
    for (int t = 0; t < 3; ++t) {
        pump(engine, /*good=*/4);
        monitor.tick();
    }
    ASSERT_FALSE(monitor.anyFiring());

    // One blip tick at 50% failures: the fast window burns 10x but the
    // slow window (2 bad / 16 events = 2.5x) stays under its 6x
    // threshold — the two-window rule keeps the page from firing.
    pump(engine, /*good=*/2, /*bad=*/2);
    monitor.tick();
    std::vector<SloState> states = monitor.states();
    ASSERT_EQ(states.size(), 1u);
    EXPECT_GE(states[0].fastBurnRate, 8.0);
    EXPECT_LT(states[0].slowBurnRate, 6.0);
    EXPECT_FALSE(states[0].firing);
    EXPECT_FALSE(monitor.anyFiring());
}

TEST(Slo, LatencyObjectiveCountsSlowCompletionsFromHistogramDeltas)
{
    SloSandbox sandbox;
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/5);
    });
    {
        SloSpec spec;
        spec.name = "p99-latency";
        spec.kind = SloKind::LatencyP99;
        spec.thresholdMs = 1.0; // every 5 ms completion is a bad event
        spec.budget = 0.05;
        spec.fastBurn = 4.0;
        spec.slowBurn = 2.0;
        spec.fastTicks = 1;
        spec.slowTicks = 2;
        SloMonitor monitor(engine, {spec});

        monitor.tick();
        pump(engine, /*good=*/3);
        monitor.tick();
        ASSERT_TRUE(monitor.anyFiring());
        std::vector<SloState> states = monitor.states();
        EXPECT_EQ(states[0].fastBad, 3u);
        EXPECT_EQ(states[0].fastTotal, 3u);
        EXPECT_EQ(engine.health(), Health::Degraded);

        const std::string json = monitor.toJson();
        EXPECT_NE(json.find("genreuse.slo/1"), std::string::npos);
        EXPECT_NE(json.find("p99-latency"), std::string::npos);
        EXPECT_NE(json.find("latency_p99"), std::string::npos);
    }
    // The monitor's destructor releases the external degrade: a dead
    // monitor must not leave the engine wedged Degraded.
    EXPECT_EQ(engine.health(), Health::Healthy);
}

TEST(Slo, CanaryCounterResetClampsWindowDeltas)
{
    SloSandbox sandbox;
    ServeConfig cfg;
    cfg.workers = 1;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>();
    });
    SloSpec spec;
    spec.name = "canary-accuracy";
    spec.kind = SloKind::CanaryBreachRate;
    spec.budget = 0.05;
    spec.fastBurn = 2.0;
    spec.slowBurn = 1.0;
    spec.fastTicks = 1;
    spec.slowTicks = 2;
    SloMonitor monitor(engine, {spec});

    audit::setCanaryRate(1.0);
    const StateOwner owner;
    monitor.tick();
    for (int i = 0; i < 5; ++i)
        audit::recordCanary(owner.serial(), /*rel_error=*/1.0,
                            /*rel_budget=*/0.1, /*rows=*/4,
                            /*breach=*/true);
    monitor.tick();
    ASSERT_TRUE(monitor.anyFiring());

    // A mid-flight canary reset makes the raw counter deltas negative;
    // the monitor must clamp them to zero (an empty window), clear,
    // and keep ticking rather than firing on garbage.
    audit::reset();
    monitor.tick();
    EXPECT_FALSE(monitor.anyFiring());
    std::vector<SloState> states = monitor.states();
    EXPECT_EQ(states[0].fastBad, 0u);
    EXPECT_EQ(states[0].fastTotal, 0u);
    EXPECT_EQ(states[0].transitions, 2u);
}

TEST(Slo, DefaultSpecsCoverTheFourObjectives)
{
    SloSandbox sandbox;
    std::vector<SloSpec> specs = serve::defaultSloSpecs(20.0);
    ASSERT_EQ(specs.size(), 4u);
    bool kinds[4] = {false, false, false, false};
    for (const SloSpec &s : specs) {
        kinds[static_cast<int>(s.kind)] = true;
        EXPECT_FALSE(s.name.empty());
        EXPECT_GT(s.budget, 0.0);
        EXPECT_GT(s.fastBurn, s.slowBurn);
        EXPECT_LT(s.fastTicks, s.slowTicks);
    }
    for (bool seen : kinds)
        EXPECT_TRUE(seen);
}

/** Guarded conv replica that also sleeps, so a one-worker engine
 *  accumulates real queue delay and walks the overload ladder. */
class SlowGuardedConvStream : public InferenceStream
{
  public:
    SlowGuardedConvStream(const Tensor &sample, const ConvGeometry &geom,
                          const Tensor &w, int delay_ms)
        : geom_(geom), w_(w), delayMs_(delay_ms)
    {
        GuardConfig cfg; // default margin: OOD inputs must breach
        guard_ = std::make_unique<GuardedReuseConvAlgo>(
            ReusePattern::conventional(geom, 8), cfg, HashMode::Learned,
            1);
        guard_->fit(sample, geom);
    }

    Tensor
    infer(const Tensor &input, StreamContext &ctx) override
    {
        sleepMs(delayMs_);
        Tensor y;
        guard_->multiplyInto(ctx, input, w_, geom_, nullptr, y);
        return y;
    }

    GuardRung
    lastRung() const override
    {
        return guard_->lastRung();
    }

  private:
    ConvGeometry geom_;
    Tensor w_;
    int delayMs_;
    std::unique_ptr<GuardedReuseConvAlgo> guard_;
};

/**
 * The PR's acceptance scenario, end to end and deterministic: a
 * seeded ood_scale fault (activations scaled far outside the fitted
 * distribution) hits an engine whose queue backlog drives overload to
 * level 2, where guard verification is shed and OOD forwards are
 * accepted on trust. The rate-1.0 canary catches them (CanaryBreach),
 * the canary-accuracy objective's burn rate fires an SloAlert, and the
 * engine is flipped Degraded — then everything clears once the storm
 * passes.
 */
TEST(Slo, OodStormBreachesCanaryFiresAlertAndDegradesHealth)
{
    SloSandbox sandbox;

    Rng rng{42};
    Conv2D conv{"conv", 3, 8, 5, 1, 2, rng};
    SyntheticConfig scfg;
    scfg.numSamples = 6;
    scfg.noiseStddev = 0.0f;
    scfg.redundancy = 0.9f;
    Dataset data = makeSyntheticCifar(scfg);
    Tensor img = data.gatherImages({0, 1});
    conv.forward(img, false);
    Tensor sample = conv.lastIm2col();
    ConvGeometry geom = conv.lastGeometry();
    Tensor w = conv.weightMatrix();

    audit::setCanaryRate(1.0);
    eventlog::setEnabled(true);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    cfg.overloadQueueDelayNs = 1'000'000; // 1 ms
    cfg.overloadWindow = 2;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<SlowGuardedConvStream>(sample, geom, w,
                                                       /*delay_ms=*/5);
    });

    SloSpec spec;
    spec.name = "canary-accuracy";
    spec.kind = SloKind::CanaryBreachRate;
    spec.budget = 0.05;
    spec.fastBurn = 2.0;
    spec.slowBurn = 1.0;
    spec.fastTicks = 1;
    spec.slowTicks = 2;
    SloMonitor monitor(engine, {spec});
    monitor.tick(); // baseline frame

    // The storm: every request's activations are scaled by a seeded
    // factor in [16, 64). 12 queued requests on a 5 ms worker push the
    // queue delay far over 1 ms, so the overload controller reaches
    // level 2 after the first few dequeues; every accepted-on-trust
    // OOD forward from then on is a canary breach.
    ASSERT_TRUE(faultpoint::armSpec("ood_scale").ok());
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(engine.trySubmit(sample, nullptr));
    engine.drain();
    faultpoint::disarm();

    EXPECT_EQ(engine.stats().overloadLevel, overload::kMaxLevel);
    EXPECT_GT(audit::canarySamples(), 0u);
    ASSERT_GT(audit::canaryBreaches(), 0u);

    monitor.tick();
    ASSERT_TRUE(monitor.anyFiring());
    std::vector<SloState> states = monitor.states();
    EXPECT_TRUE(states[0].firing);
    EXPECT_GE(states[0].fastBurnRate, 2.0);
    EXPECT_EQ(engine.stats().health, Health::Degraded);

    uint64_t breach_events = 0, alert_events = 0;
    for (const eventlog::Event &e : eventlog::snapshot()) {
        if (e.type == eventlog::Type::CanaryBreach)
            ++breach_events;
        if (e.type == eventlog::Type::SloAlert)
            ++alert_events;
    }
    EXPECT_GT(breach_events, 0u);
    EXPECT_EQ(alert_events, 1u);

    // The storm passes: ticks with no new canary samples empty the
    // fast window and the alert clears.
    engine.shutdown(); // also releases the overload level
    EXPECT_EQ(overload::level(), 0);
    monitor.tick();
    EXPECT_FALSE(monitor.anyFiring());
    EXPECT_EQ(monitor.states()[0].transitions, 2u);
}

} // namespace
} // namespace genreuse
