/**
 * @file
 * Tests for request-scoped tracing (common/rtrace.h) through a
 * multi-worker serve engine: id propagation into records and eventlog
 * slots, shed-request slack, the sampled Chrome-trace export, and the
 * disarmed gate.
 */

#include <chrono>
#include <cstdio>
#include <future>
#include <gtest/gtest.h>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/eventlog.h"
#include "common/json.h"
#include "common/rtrace.h"
#include "common/status.h"
#include "serve/serve.h"
#include "tensor/tensor.h"

namespace genreuse {
namespace {

using serve::AdmitPolicy;
using serve::InferenceStream;
using serve::ServeConfig;
using serve::ServeEngine;
using serve::ServeResult;

/** Echoes its input; records one eventlog event per infer so request
 *  ids can be checked on journaled slots. */
class EventEchoStream : public InferenceStream
{
  public:
    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        eventlog::record(eventlog::Type::ForwardBegin, 0, 1.0);
        return input;
    }
};

class SlowStream : public InferenceStream
{
  public:
    explicit SlowStream(int delay_ms) : delayMs_(delay_ms) {}

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(delayMs_));
        return input;
    }

  private:
    int delayMs_;
};

/** RAII cleanup so one test's armed tracing never leaks into the
 *  next. */
struct RtraceGuard
{
    ~RtraceGuard()
    {
        rtrace::setExport("");
        rtrace::setEnabled(false);
        rtrace::reset();
        eventlog::setEnabled(false);
        eventlog::reset();
    }
};

std::string
tempPath(const char *leaf)
{
    const std::string path = testing::TempDir() + leaf;
    std::remove(path.c_str()); // start clean
    return path;
}

TEST(Rtrace, RequestIdPropagationAcrossFourWorkers)
{
    RtraceGuard cleanup;
    rtrace::reset();
    rtrace::setEnabled(true);
    eventlog::reset();
    eventlog::setEnabled(true);

    constexpr int kRequests = 64;
    std::map<uint64_t, uint32_t> id_to_stream;
    {
        ServeConfig cfg;
        cfg.workers = 4;
        cfg.queueCapacity = 16;
        cfg.name = "rtrace-test";
        ServeEngine engine(cfg, [](uint32_t) {
            return std::make_unique<EventEchoStream>();
        });
        Tensor input({1, 1});
        std::vector<std::future<ServeResult>> futs;
        for (int i = 0; i < kRequests; ++i) {
            auto fut = engine.submit(input);
            ASSERT_TRUE(fut.has_value());
            futs.push_back(std::move(*fut));
        }
        for (auto &fut : futs) {
            ServeResult res = fut.get();
            ASSERT_TRUE(res.status.ok());
            ASSERT_GT(res.requestId, 0u);
            ASSERT_GE(res.streamId, 1u);
            ASSERT_LE(res.streamId, 4u);
            // Ids are unique across the whole run.
            ASSERT_TRUE(
                id_to_stream.emplace(res.requestId, res.streamId)
                    .second)
                << "duplicate id " << res.requestId;
        }
        engine.shutdown();
    }

    // Every completed request committed exactly one record whose id
    // and stream bit-match the ServeResult the caller saw.
    EXPECT_EQ(rtrace::recorded(), static_cast<uint64_t>(kRequests));
    std::map<uint64_t, const rtrace::RequestRecord *> by_id;
    const std::vector<rtrace::RequestRecord> recs = rtrace::snapshot();
    for (const rtrace::RequestRecord &r : recs)
        ASSERT_TRUE(by_id.emplace(r.id, &r).second)
            << "duplicate record for id " << r.id;
    ASSERT_EQ(by_id.size(), id_to_stream.size());
    for (const auto &[id, stream] : id_to_stream) {
        auto it = by_id.find(id);
        ASSERT_NE(it, by_id.end()) << "no record for id " << id;
        const rtrace::RequestRecord &r = *it->second;
        EXPECT_EQ(r.stream, stream) << "id " << id;
        EXPECT_FALSE(r.shed);
        EXPECT_EQ(r.statusCode,
                  static_cast<uint8_t>(ErrorCode::Ok));
        EXPECT_EQ(r.deadlineSlackNs, rtrace::kNoDeadline);
        // Span ordering: submit -> queued -> start -> done.
        EXPECT_LE(r.submitNs, r.queuedNs);
        EXPECT_LE(r.queuedNs, r.startNs);
        EXPECT_LE(r.startNs, r.doneNs);
        EXPECT_LE(r.forwardNs, r.doneNs - r.submitNs);
    }

    // Eventlog slots recorded inside infer() carry the id of exactly
    // the request that was executing (same thread, same scope).
    size_t stamped = 0;
    for (const eventlog::Event &e : eventlog::snapshot()) {
        if (e.type != eventlog::Type::ForwardBegin)
            continue;
        ASSERT_NE(e.req, 0u) << "infer event missing request id";
        auto it = id_to_stream.find(e.req);
        ASSERT_NE(it, id_to_stream.end());
        EXPECT_EQ(e.stream, it->second);
        ++stamped;
    }
    EXPECT_EQ(stamped, static_cast<size_t>(kRequests));
}

TEST(Rtrace, ShedRequestRecordsNegativeSlack)
{
    RtraceGuard cleanup;
    rtrace::reset();
    rtrace::setEnabled(true);

    ServeConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 8;
    cfg.name = "rtrace-shed";
    ServeEngine engine(cfg, [](uint32_t) {
        return std::make_unique<SlowStream>(/*delay_ms=*/20);
    });
    Tensor input({1, 1});
    auto busy = engine.submit(input); // occupies the only worker
    ASSERT_TRUE(busy.has_value());
    auto doomed = engine.submit(input, /*deadline_ns=*/1);
    ASSERT_TRUE(doomed.has_value());
    ServeResult res = doomed->get();
    EXPECT_EQ(res.status.code(), ErrorCode::DeadlineExceeded);
    busy->get();
    engine.shutdown();

    bool found = false;
    for (const rtrace::RequestRecord &r : rtrace::snapshot()) {
        if (r.id != res.requestId)
            continue;
        found = true;
        EXPECT_TRUE(r.shed);
        EXPECT_EQ(r.statusCode,
                  static_cast<uint8_t>(ErrorCode::DeadlineExceeded));
        EXPECT_LT(r.deadlineSlackNs, 0) << "shed slack must be "
                                           "negative (already expired "
                                           "at dequeue)";
        EXPECT_EQ(r.forwardNs, 0u); // never executed
    }
    EXPECT_TRUE(found);
}

TEST(Rtrace, ExportWritesSampledChromeTraceArtifact)
{
    RtraceGuard cleanup;
    rtrace::reset();
    rtrace::setEnabled(true);
    const std::string path = tempPath("rtrace_export.json");
    rtrace::setExport(path, /*sample_rate=*/2);

    constexpr int kRequests = 10;
    {
        ServeConfig cfg;
        cfg.workers = 2;
        cfg.name = "rtrace-export";
        ServeEngine engine(cfg, [](uint32_t) {
            return std::make_unique<EventEchoStream>();
        });
        Tensor input({1, 1});
        for (int i = 0; i < kRequests; ++i)
            ASSERT_TRUE(engine.trySubmit(input, nullptr));
        engine.shutdown();
    }
    rtrace::writeJson(path);

    Expected<JsonValue> parsed = parseJsonFile(path);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    const JsonValue &doc = *parsed;
    auto getStr = [&doc](const char *k) {
        const JsonValue *v = doc.find(k);
        return v != nullptr ? v->stringOr("") : std::string();
    };
    auto getNum = [&doc](const char *k) {
        const JsonValue *v = doc.find(k);
        return v != nullptr ? v->numberOr(-1.0) : -1.0;
    };
    EXPECT_EQ(getStr("schema"), "genreuse.rtrace/1");
    EXPECT_EQ(getNum("recorded"), kRequests);
    // Commit seq 0,2,4,6,8 of 10 at rate 2 -> exactly 5 sampled.
    EXPECT_EQ(getNum("sampled"), 5.0);
    EXPECT_EQ(getNum("sampledDropped"), 0.0);

    const JsonValue *records = doc.find("records");
    ASSERT_NE(records, nullptr);
    ASSERT_TRUE(records->isArray());
    EXPECT_EQ(records->items.size(), static_cast<size_t>(kRequests));
    for (const JsonValue &r : records->items)
        for (const char *key :
             {"id", "stream", "admitNs", "queueNs", "forwardNs",
              "verifyNs", "totalNs", "status", "rung"})
            EXPECT_NE(r.find(key), nullptr) << "missing " << key;

    // Chrome trace events: thread-name metadata plus an X/s/f triple
    // per sampled request.
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    std::map<std::string, int> phases;
    for (const JsonValue &e : events->items) {
        const JsonValue *ph = e.find("ph");
        ASSERT_NE(ph, nullptr);
        phases[ph->stringOr("?")]++;
    }
    EXPECT_GE(phases["M"], 1);
    EXPECT_EQ(phases["X"], 2 * 5); // queue + execute slice per sample
    EXPECT_EQ(phases["s"], 5);
    EXPECT_EQ(phases["f"], 5);
}

TEST(Rtrace, DisabledGateCommitsNothing)
{
    RtraceGuard cleanup;
    rtrace::reset();
    ASSERT_FALSE(rtrace::enabled());
    {
        rtrace::RequestScope scope(42);
        EXPECT_EQ(rtrace::currentRequestId(), 0u);
        rtrace::addVerifyNs(100);
        EXPECT_EQ(scope.verifyNs(), 0u);
        rtrace::RequestRecord rec;
        rec.id = 42;
        scope.commit(rec);
    }
    EXPECT_EQ(rtrace::recorded(), 0u);
}

} // namespace
} // namespace genreuse
