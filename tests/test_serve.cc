/**
 * @file
 * Tests for the serve engine (src/serve): queue admission under Block
 * and Reject, graceful drain on shutdown, N-stream bit-identity with
 * the sequential pipeline, per-stream guard-rung independence under a
 * stream-targeted fault, and a many-threads test sharing one *fitted*
 * unguarded reuse algorithm across stream contexts (the TSan target —
 * the fit is read-only at forward time, so concurrent distinct-context
 * forwards must be race-free).
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "core/reuse_audit.h"
#include "core/guard.h"
#include "core/reuse_conv.h"
#include "core/stream_context.h"
#include "data/synthetic.h"
#include "nn/conv2d.h"
#include "serve/loadgen.h"
#include "serve/serve.h"
#include "test_util.h"

namespace genreuse {
namespace {

using serve::AdmitPolicy;
using serve::Health;
using serve::InferenceStream;
using serve::Request;
using serve::RequestQueue;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeResult;
using serve::ServeStats;

void
sleepMs(int ms)
{
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

/** Test stream: echoes the input after an optional delay. */
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

/** Same synthetic conv workload as test_guard.cc. */
struct ConvFixture
{
    Rng rng{42};
    Conv2D conv{"conv", 3, 8, 5, 1, 2, rng};
    Dataset data;

    ConvFixture()
    {
        SyntheticConfig cfg;
        cfg.numSamples = 6;
        cfg.noiseStddev = 0.0f;
        cfg.redundancy = 0.9f;
        data = makeSyntheticCifar(cfg);
    }

    Tensor
    sampleX()
    {
        Tensor x = data.gatherImages({0, 1});
        conv.forward(x, false);
        return conv.lastIm2col();
    }
};

TEST(RequestQueue, RejectPolicyCountsOverflow)
{
    // One slow worker, a 2-deep queue, Reject admission: burst
    // submissions beyond queue capacity must be refused and counted,
    // never silently dropped or blocked on.
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    cfg.policy = AdmitPolicy::Reject;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/20);
    });

    Tensor input({1, 1});
    size_t accepted = 0, rejected = 0;
    for (int i = 0; i < 12; ++i) {
        if (engine.trySubmit(input, nullptr))
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_GT(rejected, 0u);
    engine.drain();
    ServeStats st = engine.stats();
    EXPECT_EQ(st.accepted, accepted);
    EXPECT_EQ(st.completed, accepted);
    EXPECT_EQ(st.rejected, rejected);
}

TEST(RequestQueue, BlockPolicyBackpressuresInsteadOfRejecting)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    cfg.policy = AdmitPolicy::Block;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/2);
    });

    Tensor input({1, 1});
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(engine.trySubmit(input, nullptr));
    engine.drain();
    ServeStats st = engine.stats();
    EXPECT_EQ(st.accepted, 16u);
    EXPECT_EQ(st.completed, 16u);
    EXPECT_EQ(st.rejected, 0u);
}

TEST(ServeEngine, GracefulShutdownDrainsAdmittedRequests)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 32;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/3);
    });

    std::atomic<int> completed{0};
    Tensor input({1, 1});
    for (int i = 0; i < 10; ++i)
        ASSERT_TRUE(engine.trySubmit(
            input, [&completed](ServeResult &&) { ++completed; }));
    // Immediate shutdown: every admitted request still completes
    // before the workers join — graceful drain never drops work.
    engine.shutdown();
    EXPECT_EQ(completed.load(), 10);
    ServeStats st = engine.stats();
    EXPECT_EQ(st.completed, 10u);
    // Post-shutdown submission is refused, not crashed.
    EXPECT_FALSE(engine.trySubmit(input, nullptr));
    EXPECT_FALSE(engine.submit(input).has_value());
}

TEST(ServeEngine, ResultsCarryStreamAndTimestamps)
{
    ServeConfig cfg;
    cfg.workers = 2;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/1);
    });
    Tensor input({1, 1});
    auto fut = engine.submit(input);
    ASSERT_TRUE(fut.has_value());
    ServeResult res = fut->get();
    EXPECT_GE(res.streamId, 1u);
    EXPECT_LE(res.streamId, 2u);
    EXPECT_LE(res.enqueueNs, res.startNs);
    EXPECT_LE(res.startNs, res.doneNs);
}

/** Guarded conv replica built from the shared fixture with fixed
 *  seeds: all replicas (and the sequential reference) bit-match. */
class GuardedConvStream : public InferenceStream
{
  public:
    GuardedConvStream(const Tensor &sample, const ConvGeometry &geom,
                      const Tensor &w, double margin = 1e9,
                      int delay_ms = 0)
        : geom_(geom), w_(w), delayMs_(delay_ms)
    {
        GuardConfig cfg;
        cfg.marginFactor = margin;
        guard_ = std::make_unique<GuardedReuseConvAlgo>(
            ReusePattern::conventional(geom, 8), cfg, HashMode::Learned,
            1);
        guard_->fit(sample, geom);
    }

    /** @p input is the im2col matrix, or an NCHW image that runs the
     *  fused pass (the im2col path when the guard declines it). */
    Tensor
    infer(const Tensor &input, StreamContext &ctx) override
    {
        if (delayMs_ > 0)
            sleepMs(delayMs_);
        Tensor y;
        if (input.shape().rank() == 4) {
            StreamContext::Bind bind(ctx);
            const ConvGeometry g = geomFor(input);
            if (!guard_->multiplyNchw(input, w_, g, nullptr, y))
                guard_->multiplyInto(ctx, im2col(input, g), w_, g, nullptr,
                                     y);
            return y;
        }
        guard_->multiplyInto(ctx, input, w_, geom_, nullptr, y);
        return y;
    }

    GuardRung
    lastRung() const override
    {
        return guard_->lastRung();
    }

  private:
    ConvGeometry
    geomFor(const Tensor &nchw) const
    {
        ConvGeometry g = geom_;
        g.batch = nchw.shape().batch();
        return g;
    }

    ConvGeometry geom_;
    Tensor w_;
    int delayMs_ = 0;
    std::unique_ptr<GuardedReuseConvAlgo> guard_;
};

TEST(ServeEngine, FourStreamsBitIdenticalToSequential)
{
    faultpoint::disarm();
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // Sequential reference on the thread-default stream.
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9;
    GuardedReuseConvAlgo ref(ReusePattern::conventional(geom, 8), gcfg,
                             HashMode::Learned, 1);
    ref.fit(sample, geom);

    // Odd requests send the NCHW image, so streams run the fused pass
    // concurrently with others on the im2col path; both must match the
    // sequential im2col reference.
    const size_t kRequests = 12;
    std::vector<Tensor> inputs;
    std::vector<Tensor> expected;
    for (size_t i = 0; i < kRequests; ++i) {
        Tensor x = f.data.gatherImages({i % f.data.size()});
        f.conv.forward(x, false);
        Tensor cols = f.conv.lastIm2col();
        Tensor y;
        ref.multiplyInto(cols, w, geom, nullptr, y);
        expected.push_back(y);
        inputs.push_back(i % 2 ? x : cols);
    }

    ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 16;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<GuardedConvStream>(sample, geom, w);
    });

    std::vector<std::future<ServeResult>> futs;
    for (size_t i = 0; i < kRequests; ++i) {
        auto fut = engine.submit(inputs[i]);
        ASSERT_TRUE(fut.has_value());
        futs.push_back(std::move(*fut));
    }
    for (size_t i = 0; i < kRequests; ++i) {
        ServeResult res = futs[i].get();
        EXPECT_EQ(res.rung, GuardRung::FullReuse);
        EXPECT_TRUE(bitwiseEqual(res.output, expected[i]))
            << "request " << i << " diverged on stream "
            << res.streamId;
    }
}

TEST(ServeEngine, FaultTargetingOneStreamLeavesOthersOnFullReuse)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // Corrupt only stream 2's activations: every request stream 2
    // executes must fall to the exact rung, while stream 1 stays on
    // full reuse — each stream walks its *own* ladder.
    faultpoint::Scoped fault(faultpoint::Fault::NanActivation,
                             /*seed=*/1, /*stream=*/2);

    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 32;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<GuardedConvStream>(sample, geom, w);
    });

    Tensor input = sample;
    std::vector<std::future<ServeResult>> futs;
    for (size_t i = 0; i < 16; ++i) {
        auto fut = engine.submit(input);
        ASSERT_TRUE(fut.has_value());
        futs.push_back(std::move(*fut));
    }
    size_t on_stream2 = 0;
    for (auto &fut : futs) {
        ServeResult res = fut.get();
        if (res.streamId == 2) {
            ++on_stream2;
            EXPECT_EQ(res.rung, GuardRung::ExactFallback);
        } else {
            EXPECT_EQ(res.rung, GuardRung::FullReuse);
        }
    }
    // With 16 blocking requests on 2 workers, stream 2 serves some.
    EXPECT_GT(on_stream2, 0u);
}

TEST(ServeEngine, EightStreamsShareOneFittedAlgo)
{
    // TSan target: one *fitted, unguarded* ReuseConvAlgo shared by 8
    // threads, each forwarding through its own StreamContext. The fit
    // is read-only at forward time; all mutable state (scratch, arena,
    // stats) lives in the contexts, so this must be race-free and
    // every thread's output bit-identical to the sequential result.
    faultpoint::disarm();
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    ReuseConvAlgo algo(ReusePattern::conventional(geom, 8),
                       HashMode::Learned);
    algo.setSeed(1);
    algo.fit(sample, geom);

    Tensor expected;
    algo.multiplyInto(sample, w, geom, nullptr, expected);

    const size_t kThreads = 8;
    const size_t kIters = 6;
    std::vector<std::unique_ptr<StreamContext>> contexts;
    for (size_t t = 0; t < kThreads; ++t)
        contexts.push_back(std::make_unique<StreamContext>(
            static_cast<uint16_t>(t + 1)));

    // Odd iterations run the fused pass from the NCHW images the
    // sample matrix was built from.
    const Tensor images = f.data.gatherImages({0, 1});
    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            StreamContext &ctx = *contexts[t];
            int good = 0;
            for (size_t i = 0; i < kIters; ++i) {
                Tensor y;
                if (i % 2) {
                    StreamContext::Bind bind(ctx);
                    if (!algo.multiplyNchw(images, w, geom, nullptr, y))
                        continue;
                } else {
                    algo.multiplyInto(ctx, sample, w, geom, nullptr, y);
                }
                good += bitwiseEqual(y, expected) ? 1 : 0;
            }
            ok[t] = good;
        });
    for (auto &th : threads)
        th.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(ok[t], static_cast<int>(kIters)) << "stream " << t + 1;
}

TEST(RequestQueue, CloseWakesBlockedProducerWithStatus)
{
    // The wedge pin (PR 8 satellite): a producer blocked in push() on a
    // full queue must wake with Unavailable when the queue closes —
    // before the fix it waited on a size predicate that could never be
    // satisfied again.
    RequestQueue q(/*capacity=*/1);
    ASSERT_TRUE(q.push(Request{}).ok());

    Status blocked_status;
    std::atomic<bool> started{false};
    std::thread producer([&] {
        started = true;
        blocked_status = q.push(Request{});
    });
    while (!started)
        std::this_thread::yield();
    sleepMs(20); // let the producer actually block on the full queue
    q.close();
    producer.join();
    EXPECT_FALSE(blocked_status.ok());
    EXPECT_EQ(blocked_status.code(), ErrorCode::Unavailable);

    // Closed-queue admission fails with Unavailable on both paths.
    EXPECT_EQ(q.push(Request{}).code(), ErrorCode::Unavailable);
    EXPECT_EQ(q.tryPush(Request{}).code(), ErrorCode::Unavailable);
    // The request admitted before close still drains.
    EXPECT_TRUE(q.pop().has_value());
    EXPECT_FALSE(q.pop().has_value());
}

/** Echo stream that counts how many requests actually executed. */
class CountingStream : public InferenceStream
{
  public:
    CountingStream(std::atomic<int> &executed, int delay_ms)
        : executed_(executed), delayMs_(delay_ms)
    {
    }

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        ++executed_;
        if (delayMs_ > 0)
            sleepMs(delayMs_);
        return input;
    }

  private:
    std::atomic<int> &executed_;
    int delayMs_;
};

TEST(ServeEngine, ExpiredRequestsAreShedWithStatusNotExecuted)
{
    std::atomic<int> executed{0};
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 16;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<CountingStream>(executed, /*delay_ms=*/30);
    });

    Tensor input({1, 1});
    // One deadline-free request occupies the worker for 30 ms while
    // four requests whose 1 ns deadline is already unmeetable queue
    // behind it.
    auto busy = engine.submit(input);
    ASSERT_TRUE(busy.has_value());
    std::vector<std::future<ServeResult>> doomed;
    for (int i = 0; i < 4; ++i) {
        auto fut = engine.submit(input, /*deadline_ns=*/1);
        ASSERT_TRUE(fut.has_value());
        doomed.push_back(std::move(*fut));
    }
    EXPECT_TRUE(busy->get().status.ok());
    for (auto &fut : doomed) {
        ServeResult res = fut.get();
        EXPECT_FALSE(res.status.ok());
        EXPECT_EQ(res.status.code(), ErrorCode::DeadlineExceeded);
        // Shed requests never ran: start == done.
        EXPECT_EQ(res.startNs, res.doneNs);
    }
    EXPECT_EQ(executed.load(), 1); // only the deadline-free request ran
    engine.drain();
    ServeStats st = engine.stats();
    EXPECT_EQ(st.shed, 4u);
    EXPECT_EQ(st.completed, 5u); // shed requests still count as done
    EXPECT_EQ(st.failed, 0u);    // shed is not a stream failure
}

/** Stream that panics on demand: inputs whose first element is
 *  negative hit a GENREUSE_REQUIRE deep in the "model". */
class PoisonableStream : public InferenceStream
{
  public:
    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        GENREUSE_REQUIRE(input.data()[0] >= 0.0f,
                         "poisoned activation in request");
        return input;
    }
};

TEST(ServeEngine, PanicIsContainedToTheRequest)
{
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 8;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<PoisonableStream>();
    });

    Tensor poison({1, 1});
    poison.data()[0] = -1.0f;
    auto bad = engine.submit(poison);
    ASSERT_TRUE(bad.has_value());
    ServeResult bad_res = bad->get();
    EXPECT_FALSE(bad_res.status.ok());
    EXPECT_EQ(bad_res.status.code(), ErrorCode::Internal);
    EXPECT_NE(bad_res.status.message().find("contained panic"),
              std::string::npos);
    EXPECT_NE(bad_res.status.message().find("poisoned activation"),
              std::string::npos);
    // The failure is visible in the health state until the stream
    // recovers (noteFailure runs before the future resolves).
    EXPECT_EQ(engine.health(), Health::Degraded);

    // The process (and the worker) survived: a clean request on the
    // same stream succeeds and heals the engine.
    Tensor clean({1, 1});
    clean.data()[0] = 2.0f;
    auto good = engine.submit(clean);
    ASSERT_TRUE(good.has_value());
    ServeResult good_res = good->get();
    EXPECT_TRUE(good_res.status.ok());
    EXPECT_TRUE(bitwiseEqual(good_res.output, clean));
    EXPECT_EQ(engine.health(), Health::Healthy);

    engine.drain(); // the future resolves before completed_ ticks
    ServeStats st = engine.stats();
    EXPECT_EQ(st.containedPanics, 1u);
    EXPECT_EQ(st.failed, 1u);
    EXPECT_EQ(st.completed, 2u);
    EXPECT_EQ(st.quarantines, 0u); // one strike, below the K threshold
}

/** First factory generation always panics; later generations echo. */
class GenerationalStream : public InferenceStream
{
  public:
    explicit GenerationalStream(bool poisoned) : poisoned_(poisoned) {}

    Tensor
    infer(const Tensor &input, StreamContext &ctx) override
    {
        if (poisoned_)
            panic("generation-1 stream is wedged on stream ", ctx.id());
        return input;
    }

  private:
    bool poisoned_;
};

TEST(ServeEngine, KStrikesQuarantineParkAndRespawnFreshStream)
{
    std::atomic<int> built{0};
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 8;
    cfg.quarantineStrikes = 2;
    ServeEngine engine(cfg, [&](uint32_t) {
        const int generation = ++built;
        return std::make_unique<GenerationalStream>(generation == 1);
    });
    ASSERT_EQ(built.load(), 1);

    Tensor input({1, 1});
    // Two strikes on the wedged generation-1 stream: both requests fail
    // with a contained panic, the second trips the 2-strike quarantine
    // and the factory builds a fresh replacement.
    for (int i = 0; i < 2; ++i) {
        auto fut = engine.submit(input);
        ASSERT_TRUE(fut.has_value());
        EXPECT_FALSE(fut->get().status.ok());
    }
    // The respawned generation-2 stream serves cleanly.
    auto fut = engine.submit(input);
    ASSERT_TRUE(fut.has_value());
    EXPECT_TRUE(fut->get().status.ok());
    EXPECT_EQ(built.load(), 2);

    engine.drain(); // the future resolves before completed_ ticks
    ServeStats st = engine.stats();
    EXPECT_EQ(st.containedPanics, 2u);
    EXPECT_EQ(st.quarantines, 1u);
    EXPECT_EQ(st.respawns, 1u);
    EXPECT_EQ(st.completed, 3u);
}

TEST(ServeEngine, OverloadControllerRaisesAndReleasesShedLevel)
{
    ASSERT_EQ(overload::level(), 0);
    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    cfg.overloadQueueDelayNs = 1'000'000; // 1 ms
    cfg.overloadWindow = 2;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/5);
    });

    // 12 blocking requests on a 5 ms worker: every dequeue after the
    // first waited >= 5 ms in the queue, far over the 1 ms threshold,
    // so the controller must walk the ladder to its top level.
    Tensor input({1, 1});
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(engine.trySubmit(input, nullptr));
    engine.drain();
    ServeStats st = engine.stats();
    EXPECT_EQ(st.overloadLevel, overload::kMaxLevel);
    EXPECT_EQ(st.health, Health::Degraded);
    EXPECT_EQ(overload::level(), overload::kMaxLevel);

    // Shutdown releases the process-wide level: a dead engine must not
    // keep the guard degraded.
    engine.shutdown();
    EXPECT_EQ(overload::level(), 0);
    EXPECT_EQ(engine.stats().health, Health::Draining);
}

TEST(ServeEngine, HealthJsonCarriesSchemaAndPerStreamState)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.name = "hj";
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>();
    });
    Tensor input({1, 1});
    ASSERT_TRUE(engine.trySubmit(input, nullptr));
    engine.drain();
    const std::string json = engine.healthJson();
    EXPECT_NE(json.find("\"schema\": \"genreuse.health/1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"health\": \"healthy\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"hj-1\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"hj-2\""), std::string::npos);
    EXPECT_NE(json.find("\"parked\": false"), std::string::npos);
}

// ---- Chaos soak (ctest label: chaos) ------------------------------------

/**
 * The chaos matrix: every registered fault point armed against stream
 * 2 of a busy 4-worker engine. The process must survive every fault;
 * faulted requests either succeed (the guard ladder absorbed the
 * fault) or carry a Status (worker_panic), and requests served by
 * non-faulted streams stay bit-identical to the clean sequential
 * reference throughout.
 */
TEST(ChaosSoak, EveryFaultOnABusyEngineIsContained)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // Clean sequential reference (thread-default stream).
    faultpoint::disarm();
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9;
    GuardedReuseConvAlgo ref(ReusePattern::conventional(geom, 8), gcfg,
                             HashMode::Learned, 1);
    ref.fit(sample, geom);
    Tensor expected;
    ref.multiplyInto(sample, w, geom, nullptr, expected);

    for (const std::string &name : faultpoint::allFaultNames()) {
        SCOPED_TRACE(name);
        ASSERT_TRUE(faultpoint::armSpec(name + "@2").ok());

        ServeConfig cfg;
        cfg.workers = 4;
        cfg.queueCapacity = 32;
        ServeEngine engine(cfg, [&](uint32_t) {
            return std::make_unique<GuardedConvStream>(sample, geom, w);
        });

        std::vector<std::future<ServeResult>> futs;
        for (int i = 0; i < 24; ++i) {
            auto fut = engine.submit(sample);
            ASSERT_TRUE(fut.has_value());
            futs.push_back(std::move(*fut));
        }
        size_t faulted_served = 0;
        for (auto &fut : futs) {
            ServeResult res = fut.get();
            if (res.streamId == 2) {
                ++faulted_served;
                if (name == "worker_panic")
                    EXPECT_FALSE(res.status.ok());
                else
                    EXPECT_TRUE(res.status.ok()) << res.status.message();
            } else {
                EXPECT_TRUE(res.status.ok()) << res.status.message();
                EXPECT_TRUE(bitwiseEqual(res.output, expected))
                    << "non-faulted stream " << res.streamId
                    << " diverged under " << name;
            }
        }
        engine.shutdown();
        faultpoint::disarm();
        // With 24 blocking requests on 4 workers every stream serves
        // some — the fault was actually exercised.
        EXPECT_GT(faulted_served, 0u);
    }
}

/**
 * Multi-event schedule soak: two of four streams faulted at once
 * (stream 2's activations NaN-poisoned, stream 3's worker panicking on
 * every request). The engine must keep all four streams draining,
 * quarantine and respawn stream 3 on schedule, and the two untouched
 * streams must stay bit-identical to the sequential reference.
 */
TEST(ChaosSoak, MultiEventScheduleFaultsTwoStreamsOthersBitIdentical)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    faultpoint::disarm();
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9;
    GuardedReuseConvAlgo ref(ReusePattern::conventional(geom, 8), gcfg,
                             HashMode::Learned, 1);
    ref.fit(sample, geom);
    Tensor expected;
    ref.multiplyInto(sample, w, geom, nullptr, expected);

    ASSERT_TRUE(
        faultpoint::armSpec("nan_activation@2,worker_panic@3").ok());

    ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 64;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<GuardedConvStream>(sample, geom, w);
    });

    std::vector<std::future<ServeResult>> futs;
    for (int i = 0; i < 40; ++i) {
        auto fut = engine.submit(sample);
        ASSERT_TRUE(fut.has_value());
        futs.push_back(std::move(*fut));
    }
    size_t on_nan_stream = 0, on_panic_stream = 0;
    for (auto &fut : futs) {
        ServeResult res = fut.get();
        switch (res.streamId) {
          case 2:
            // NaN-poisoned activations: the guard ladder absorbs the
            // fault (exact fallback), the request still succeeds.
            ++on_nan_stream;
            EXPECT_TRUE(res.status.ok()) << res.status.message();
            EXPECT_EQ(res.rung, GuardRung::ExactFallback);
            break;
          case 3:
            ++on_panic_stream;
            EXPECT_FALSE(res.status.ok());
            break;
          default:
            EXPECT_TRUE(res.status.ok()) << res.status.message();
            EXPECT_TRUE(bitwiseEqual(res.output, expected))
                << "untouched stream " << res.streamId << " diverged";
            break;
        }
    }
    EXPECT_GT(on_nan_stream, 0u);
    EXPECT_GT(on_panic_stream, 0u);
    engine.shutdown();
    faultpoint::disarm();

    // Stream 3 never succeeds, so its strikes accrue consecutively:
    // every quarantineStrikes-th contained panic parks and respawns.
    ServeStats st = engine.stats();
    ServeConfig defaults;
    EXPECT_EQ(st.containedPanics, on_panic_stream);
    EXPECT_EQ(st.failed, on_panic_stream);
    EXPECT_EQ(st.quarantines,
              on_panic_stream / defaults.quarantineStrikes);
    EXPECT_EQ(st.respawns, st.quarantines);
    EXPECT_EQ(st.completed, 40u);
}

/**
 * Canary-at-overload chaos test: push a guarded engine to overload
 * level 2 — where the controller sheds guard verification entirely —
 * and confirm the rate-1.0 accuracy canary keeps sampling every
 * accepted forward. The canary is the only accuracy signal left up
 * there and is exempt from shedding by design.
 */
TEST(ChaosSoak, CanaryKeepsSamplingWhenOverloadShedsVerification)
{
    faultpoint::disarm();
    audit::reset();
    audit::setCanaryRate(1.0);
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    cfg.overloadQueueDelayNs = 1'000'000; // 1 ms
    cfg.overloadWindow = 2;
    ServeEngine engine(cfg, [&](uint32_t) {
        return std::make_unique<GuardedConvStream>(
            sample, geom, w, /*margin=*/1e9, /*delay_ms=*/5);
    });

    // 12 queued requests on a 5 ms worker: queue delay is far over the
    // 1 ms threshold, so the controller walks to level 2 while the
    // backlog drains — most forwards are accepted unverified.
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(engine.trySubmit(sample, nullptr));
    engine.drain();

    ServeStats st = engine.stats();
    EXPECT_EQ(st.overloadLevel, overload::kMaxLevel);
    // Rate 1.0 samples literally every accepted forward — verified or
    // not — and the in-distribution input breaches nothing.
    EXPECT_EQ(audit::canarySamples(), 12u);
    EXPECT_EQ(audit::canaryBreaches(), 0u);

    engine.shutdown();
    EXPECT_EQ(overload::level(), 0);
    audit::setCanaryRate(0.0);
    audit::reset();
}

/**
 * The OOD storm through a live engine: a seeded ood_scale fault (every
 * request's activations scaled far outside the fitted distribution)
 * hits a guarded engine whose backlog drives overload to level 2,
 * where verification is shed and OOD forwards are accepted on trust.
 * The rate-1.0 canary must count those breaches on the serve path and
 * journal CanaryBreach events, and the engine must recover once the
 * storm passes.
 */
TEST(ChaosSoak, OodStormBreachesTheCanaryThroughALiveEngine)
{
    faultpoint::disarm();
    audit::reset();
    audit::setCanaryRate(1.0);
    eventlog::reset();
    eventlog::setEnabled(true);
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 32;
    cfg.overloadQueueDelayNs = 1'000'000; // 1 ms
    cfg.overloadWindow = 2;
    ServeEngine engine(cfg, [&](uint32_t) {
        // Default margin: OOD inputs must breach the budget.
        return std::make_unique<GuardedConvStream>(
            sample, geom, w, GuardConfig{}.marginFactor, /*delay_ms=*/5);
    });

    ASSERT_TRUE(faultpoint::armSpec("ood_scale").ok());
    for (int i = 0; i < 12; ++i)
        ASSERT_TRUE(engine.trySubmit(sample, nullptr));
    engine.drain();
    faultpoint::disarm();

    ServeStats st = engine.stats();
    EXPECT_EQ(st.overloadLevel, overload::kMaxLevel);
    EXPECT_EQ(st.health, Health::Degraded);
    EXPECT_GT(audit::canarySamples(), 0u);
    ASSERT_GT(audit::canaryBreaches(), 0u);
    uint64_t breach_events = 0;
    for (const eventlog::Event &e : eventlog::snapshot())
        if (e.type == eventlog::Type::CanaryBreach)
            ++breach_events;
    EXPECT_GT(breach_events, 0u);

    engine.shutdown();
    EXPECT_EQ(overload::level(), 0);
    eventlog::setEnabled(false);
    eventlog::reset();
    audit::setCanaryRate(0.0);
    audit::reset();
}

TEST(LoadGen, PercentilesInterpolate)
{
    std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(serve::percentileMs(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(serve::percentileMs(sorted, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(serve::percentileMs(sorted, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(serve::percentileMs({}, 50.0), 0.0);
}

TEST(LoadGen, OpenLoopCompletesOfferedRequests)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 16;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/1);
    });
    serve::LoadGenConfig lg;
    lg.rps = 500.0;
    lg.requests = 20;
    lg.poisson = true;
    Tensor input({1, 1});
    serve::LatencyReport rep =
        serve::runOpenLoop(engine, lg, [&](size_t) { return input; });
    EXPECT_EQ(rep.offered, 20u);
    EXPECT_EQ(rep.completed, 20u);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_GT(rep.p50Ms, 0.0);
    EXPECT_GE(rep.p99Ms, rep.p50Ms);
    EXPECT_GT(rep.throughputRps, 0.0);
}

TEST(LoadGen, ClosedLoopReportsThroughput)
{
    ServeConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 8;
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<EchoStream>(/*delay_ms=*/1);
    });
    Tensor input({1, 1});
    const double rps = serve::runClosedLoop(
        engine, /*requests=*/16, /*inflight=*/4,
        [&](size_t) { return input; });
    EXPECT_GT(rps, 0.0);
    ServeStats st = engine.stats();
    EXPECT_EQ(st.completed, 16u);
}

} // namespace
} // namespace genreuse
