#include "serve.h"

#include <chrono>

#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "common/rtrace.h"

namespace genreuse {
namespace serve {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

const char *
healthName(Health h)
{
    switch (h) {
      case Health::Healthy:
        return "healthy";
      case Health::Degraded:
        return "degraded";
      case Health::Draining:
        return "draining";
    }
    return "?";
}

RequestQueue::RequestQueue(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

Status
RequestQueue::push(Request &&r)
{
    std::unique_lock<std::mutex> lock(mu_);
    // The predicate admits "closed" as a wake condition and close()
    // broadcasts notFull_ — a producer blocked here when the queue
    // closes wakes and fails instead of wedging on a queue that will
    // never drain below capacity again.
    notFull_.wait(lock,
                  [this] { return closed_ || q_.size() < capacity_; });
    if (closed_) {
        return Status::error(ErrorCode::Unavailable,
                             "request queue closed");
    }
    // Stamped here (not at submit) so the span decomposition can
    // separate admission wait from queue residency.
    r.queuedNs = nowNs();
    q_.push_back(std::move(r));
    ++accepted_;
    lock.unlock();
    notEmpty_.notify_one();
    return Status{};
}

Status
RequestQueue::tryPush(Request &&r)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_) {
            return Status::error(ErrorCode::Unavailable,
                                 "request queue closed");
        }
        if (q_.size() >= capacity_) {
            ++rejected_;
            return Status::error(ErrorCode::ResourceExhausted,
                                 "request queue full (", capacity_,
                                 " queued)");
        }
        r.queuedNs = nowNs();
        q_.push_back(std::move(r));
        ++accepted_;
    }
    notEmpty_.notify_one();
    return Status{};
}

std::optional<Request>
RequestQueue::pop()
{
    std::unique_lock<std::mutex> lock(mu_);
    notEmpty_.wait(lock, [this] { return closed_ || !q_.empty(); });
    if (q_.empty())
        return std::nullopt; // closed and drained
    Request r = std::move(q_.front());
    q_.pop_front();
    lock.unlock();
    notFull_.notify_one();
    return r;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    notFull_.notify_all();
    notEmpty_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
}

uint64_t
RequestQueue::accepted() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return accepted_;
}

uint64_t
RequestQueue::rejected() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_;
}

namespace {

/**
 * RAII request boundary on a pooled thread (the satellite fix): the
 * layer-scope reset must run on *every* exit path — success, shed,
 * contained panic — or a LayerScope leaked by a panicking forward tags
 * the next request's events with the previous request's layer. Reset
 * on entry too, so even a scope leaked outside this guard's lifetime
 * (a prior worker generation) cannot leak in.
 */
struct ScopeResetGuard
{
    ScopeResetGuard() { eventlog::resetThreadScope(); }
    ~ScopeResetGuard() { eventlog::resetThreadScope(); }
    ScopeResetGuard(const ScopeResetGuard &) = delete;
    ScopeResetGuard &operator=(const ScopeResetGuard &) = delete;
};

} // namespace

ServeEngine::ServeEngine(ServeConfig config, const StreamFactory &factory)
    : config_(config), queue_(config.queueCapacity), factory_(factory),
      // spawn_single: even a 1-worker engine needs a real thread — the
      // worker loop is long-lived and would deadlock run inline.
      pool_(config.workers, config.name, /*spawn_single=*/true)
{
    GENREUSE_REQUIRE(config_.workers >= 1,
                     "ServeEngine needs at least one worker");
    GENREUSE_REQUIRE(factory != nullptr, "ServeEngine needs a factory");
    if (config_.quarantineStrikes == 0)
        config_.quarantineStrikes = 1;
    streams_.reserve(config_.workers);
    contexts_.reserve(config_.workers);
    workerStates_.resize(config_.workers);
    for (size_t i = 0; i < config_.workers; ++i) {
        // Stream ids are 1-based: 0 is the thread-default context and
        // doubles as "no stream" in event/fault tags.
        const uint32_t stream_id = static_cast<uint32_t>(i + 1);
        contexts_.push_back(std::make_unique<StreamContext>(
            static_cast<uint16_t>(stream_id),
            config_.name + "-" + std::to_string(stream_id)));
        streams_.push_back(factory(stream_id));
        GENREUSE_REQUIRE(streams_.back() != nullptr,
                         "StreamFactory returned null for stream ",
                         stream_id);
    }
    for (size_t i = 0; i < config_.workers; ++i)
        pool_.submit([this, i] { workerMain(i); });
}

ServeEngine::~ServeEngine() { shutdown(); }

Status
ServeEngine::admit(Request &&r)
{
    static metrics::Gauge &depth_gauge =
        metrics::gauge("serve.queue_depth");
    Status s = config_.policy == AdmitPolicy::Block
                   ? queue_.push(std::move(r))
                   : queue_.tryPush(std::move(r));
    if (s.ok())
        depth_gauge.set(static_cast<double>(queue_.size()));
    return s;
}

std::optional<std::future<ServeResult>>
ServeEngine::submit(Tensor input, uint64_t deadline_ns)
{
    auto promise = std::make_shared<std::promise<ServeResult>>();
    std::future<ServeResult> fut = promise->get_future();
    Request r;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_)
            return std::nullopt;
        r.id = nextId_++;
    }
    r.input = std::move(input);
    r.enqueueNs = nowNs();
    if (deadline_ns == 0)
        deadline_ns = config_.defaultDeadlineNs;
    if (deadline_ns != 0)
        r.deadlineNs = r.enqueueNs + deadline_ns;
    r.done = [promise](ServeResult &&res) {
        promise->set_value(std::move(res));
    };
    if (!admit(std::move(r)).ok())
        return std::nullopt;
    return fut;
}

bool
ServeEngine::trySubmit(Tensor input,
                       std::function<void(ServeResult &&)> done,
                       uint64_t deadline_ns)
{
    Request r;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_)
            return false;
        r.id = nextId_++;
    }
    r.input = std::move(input);
    r.enqueueNs = nowNs();
    if (deadline_ns == 0)
        deadline_ns = config_.defaultDeadlineNs;
    if (deadline_ns != 0)
        r.deadlineNs = r.enqueueNs + deadline_ns;
    r.done = std::move(done);
    return admit(std::move(r)).ok();
}

void
ServeEngine::finish(Request &&req, ServeResult &&res)
{
    // Every completion — success, shed, contained panic — lands in the
    // live histogram before the callback runs, so stats() percentiles
    // never lag the futures they describe.
    latencyHist_.record(res.doneNs > res.enqueueNs
                            ? res.doneNs - res.enqueueNs
                            : 0);
    if (req.done)
        req.done(std::move(res));
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++completed_;
    }
    completedCv_.notify_all();
}

void
ServeEngine::workerMain(size_t index)
{
    static metrics::Counter &served = metrics::counter("serve.requests");
    static metrics::Counter &shed_ctr = metrics::counter("serve.shed");
    static metrics::Counter &failed_ctr = metrics::counter("serve.failed");
    static metrics::Gauge &depth_gauge =
        metrics::gauge("serve.queue_depth");
    static metrics::Gauge &inflight_gauge =
        metrics::gauge("serve.inflight");
    for (;;) {
        std::optional<Request> req = queue_.pop();
        if (!req)
            return; // queue closed and drained: graceful exit
        // Request boundary on a pooled thread: the guard drops any
        // layer-scope tag on entry AND on every exit path, so a
        // panicking forward cannot tag the next request's events.
        ScopeResetGuard scope_reset;
        // Bind the request id to this thread: eventlog slots recorded
        // during execution (and thus blackbox dumps) carry it, and
        // guard verify time is attributed to it. One relaxed load when
        // request tracing is off.
        rtrace::RequestScope rscope(req->id);
        inflight_gauge.set(static_cast<double>(
            inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
        depth_gauge.set(static_cast<double>(queue_.size()));
        ServeResult res;
        res.requestId = req->id;
        res.streamId = contexts_[index]->id();
        res.enqueueNs = req->enqueueNs;
        res.queuedNs = req->queuedNs;
        res.startNs = nowNs();
        observeQueueDelay(res.startNs - res.enqueueNs);

        // Remaining deadline slack sampled at dequeue: negative means
        // the request already expired (the shed severity).
        const int64_t slack_ns =
            req->deadlineNs != 0
                ? static_cast<int64_t>(req->deadlineNs) -
                      static_cast<int64_t>(res.startNs)
                : rtrace::kNoDeadline;

        // Overload shedding: work that expired in the queue is counted
        // and completed with a Status, never executed — running it
        // would burn worker time on an answer nobody is waiting for.
        if (req->deadlineNs != 0 && res.startNs > req->deadlineNs) {
            const double overdue_ms =
                static_cast<double>(res.startNs - req->deadlineNs) / 1e6;
            res.doneNs = res.startNs;
            res.status = Status::error(
                ErrorCode::DeadlineExceeded,
                "request expired in queue (", overdue_ms,
                " ms past its deadline)");
            shed_ctr.add();
            eventlog::record(eventlog::Type::RequestShed, 0, overdue_ms,
                             static_cast<double>(slack_ns), 0.0,
                             static_cast<uint32_t>(req->id));
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++shed_;
            }
            if (rtrace::enabled()) {
                rtrace::RequestRecord rec;
                rec.id = req->id;
                rec.submitNs = req->enqueueNs;
                rec.queuedNs = req->queuedNs;
                rec.startNs = res.startNs;
                rec.doneNs = res.doneNs;
                rec.deadlineSlackNs = slack_ns;
                rec.stream = static_cast<uint16_t>(res.streamId);
                rec.statusCode =
                    static_cast<uint8_t>(res.status.code());
                rec.shed = true;
                rscope.commit(rec);
            }
            finish(std::move(*req), std::move(res));
            inflight_gauge.set(static_cast<double>(
                inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
            continue;
        }

        bool panicked = false;
        uint64_t forward_ns = 0;
        {
            StreamContext &ctx = *contexts_[index];
            InferenceStream &stream = *streams_[index];
            StreamContext::Bind bind(ctx);
            // The frame spans the whole request, so the stream arena
            // rewinds to empty afterwards — exactly the point where
            // retention decay trims capacity an oversized request left
            // behind.
            ArenaFrame frame(ctx.arena());
            // The recovery domain turns a panic()/REQUIRE anywhere in
            // the inference path into a PanicException caught below:
            // one poisoned request fails one request, not the process.
            RecoveryDomain domain;
            try {
                if (faultpoint::anyArmed() &&
                    faultpoint::active(faultpoint::Fault::WorkerPanic)) {
                    faultpoint::noteFired(faultpoint::Fault::WorkerPanic);
                    panic("injected worker_panic fault on stream ",
                          ctx.id());
                }
                const uint64_t fwd0 = rtrace::active() ? nowNs() : 0;
                res.output = stream.infer(req->input, ctx);
                if (fwd0 != 0)
                    forward_ns = nowNs() - fwd0;
                res.rung = stream.lastRung();
            } catch (const PanicException &e) {
                panicked = true;
                res.status = Status::error(ErrorCode::Internal,
                                           "contained panic: ",
                                           e.message());
            } catch (const std::exception &e) {
                panicked = true;
                res.status = Status::error(ErrorCode::Internal,
                                           "request failed: ", e.what());
            }
        }
        res.doneNs = nowNs();
        served.add();
        if (panicked)
            failed_ctr.add();

        bool exit_worker = false;
        if (panicked)
            exit_worker = noteFailure(index);
        else
            noteSuccess(index);
        if (rtrace::enabled()) {
            rtrace::RequestRecord rec;
            rec.id = req->id;
            rec.submitNs = req->enqueueNs;
            rec.queuedNs = req->queuedNs;
            rec.startNs = res.startNs;
            rec.doneNs = res.doneNs;
            rec.forwardNs = forward_ns;
            rec.verifyNs = rscope.verifyNs();
            rec.deadlineSlackNs = slack_ns;
            rec.stream = static_cast<uint16_t>(res.streamId);
            rec.statusCode = static_cast<uint8_t>(res.status.code());
            rec.rung = static_cast<uint8_t>(res.rung);
            rscope.commit(rec);
        }
        finish(std::move(*req), std::move(res));
        inflight_gauge.set(static_cast<double>(
            inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));
        if (exit_worker)
            return; // the respawned replacement owns the stream now
    }
}

void
ServeEngine::noteSuccess(size_t index)
{
    WorkerState &ws = workerStates_[index];
    // Owner-thread fast path: this worker is the only writer of its
    // slot, so the no-failure check needs no lock — keeping the
    // healthy-path per-request cost at the domain's two thread-local
    // bumps. The lock is taken only on the rare heal transition.
    if (ws.strikes == 0 && !ws.parked)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    ws.strikes = 0;
    ws.parked = false;
    GENREUSE_REQUIRE(failingStreams_ > 0,
                     "failing-stream count underflow");
    --failingStreams_;
    updateHealthLocked();
}

bool
ServeEngine::noteFailure(size_t index)
{
    // Quarantine the stream state first: whatever the panicking
    // forward half-mutated (scratch, drift detectors, arena contents)
    // is poisoned and must not leak into the next request.
    contexts_[index]->reset();

    static metrics::Counter &contained =
        metrics::counter("serve.contained_panics");
    static metrics::Counter &quarantines =
        metrics::counter("serve.quarantines");
    static metrics::Counter &respawns = metrics::counter("serve.respawns");
    contained.add();

    uint64_t strikes = 0;
    bool park = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++failed_;
        ++containedPanics_;
        WorkerState &ws = workerStates_[index];
        if (ws.strikes == 0 && !ws.parked)
            ++failingStreams_;
        strikes = ++ws.strikes;
        park = strikes >= config_.quarantineStrikes;
        if (park) {
            ws.parked = true;
            ws.strikes = 0;
            ++ws.quarantines;
            ++quarantines_;
        }
        updateHealthLocked();
    }
    if (!park)
        return false;

    quarantines.add();
    eventlog::record(eventlog::Type::StreamQuarantine, 0, 0.0, 0.0, 0.0,
                     static_cast<uint32_t>(strikes), /*a8=respawn=*/1);

    // Park & respawn: rebuild the stream on a fresh context (same id)
    // from the retained factory. The factory itself runs under a
    // domain — a factory that panics (corrupted shared state) leaves
    // the old, already-reset stream in place rather than taking the
    // process down.
    const uint32_t stream_id = static_cast<uint32_t>(index + 1);
    std::unique_ptr<InferenceStream> fresh;
    {
        RecoveryDomain domain;
        try {
            fresh = factory_(stream_id);
        } catch (const std::exception &e) {
            warn("serve: stream ", stream_id,
                 " respawn factory failed (", e.what(),
                 "); keeping the quarantined stream");
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fresh) {
            contexts_[index] = std::make_unique<StreamContext>(
                static_cast<uint16_t>(stream_id),
                config_.name + "-" + std::to_string(stream_id));
            streams_[index] = std::move(fresh);
        }
        ++respawns_;
    }
    respawns.add();

    // Hand the stream to a replacement worker and let this one exit.
    // When the pool is already stopping (shutdown race) the submit
    // fails and THIS worker keeps serving the fresh stream — queued
    // requests must still drain.
    if (pool_.trySubmit([this, index] { workerMain(index); }))
        return true;
    return false;
}

void
ServeEngine::observeQueueDelay(uint64_t delay_ns)
{
    if (config_.overloadQueueDelayNs == 0)
        return;
    const size_t depth = queue_.size();
    std::lock_guard<std::mutex> lock(mu_);
    if (delay_ns > config_.overloadQueueDelayNs) {
        if (++overStreak_ >=
            std::max<size_t>(1, config_.overloadWindow)) {
            overStreak_ = 0;
            if (overloadLevel_ < overload::kMaxLevel) {
                ++overloadLevel_;
                overload::setLevel(overloadLevel_);
                updateHealthLocked();
            }
        }
    } else {
        overStreak_ = 0;
        // Restore only once the backlog is actually gone — a single
        // fast dequeue during a storm is not recovery.
        if (overloadLevel_ > 0 && depth == 0) {
            overloadLevel_ = 0;
            overload::setLevel(0);
            updateHealthLocked();
        }
    }
}

void
ServeEngine::updateHealthLocked()
{
    Health desired = Health::Healthy;
    if (shutdown_)
        desired = Health::Draining;
    else if (overloadLevel_ > 0 || failingStreams_ > 0)
        desired = Health::Degraded;
    if (desired == health_)
        return;
    health_ = desired;
    metrics::gauge("serve.health").set(static_cast<double>(health_));
    eventlog::record(eventlog::Type::Health, 0, 0.0, 0.0, 0.0,
                     static_cast<uint32_t>(overloadLevel_),
                     static_cast<uint8_t>(health_));
}

void
ServeEngine::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    completedCv_.wait(lock,
                      [this] { return completed_ >= queue_.accepted(); });
}

void
ServeEngine::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (shutdown_)
            return;
        shutdown_ = true;
        updateHealthLocked();
    }
    queue_.close();
    // Workers drain the queue (pop() serves queued requests until
    // empty) before exiting; Drain then joins them. No admitted
    // request is dropped.
    pool_.shutdown(ThreadPool::DrainPolicy::Drain);
    // Release the process-wide overload level if this engine raised
    // it — a dead engine must not keep the guard degraded.
    std::lock_guard<std::mutex> lock(mu_);
    if (overloadLevel_ > 0) {
        overloadLevel_ = 0;
        overload::setLevel(0);
    }
}

ServeStats
ServeEngine::stats() const
{
    ServeStats s;
    s.accepted = queue_.accepted();
    s.rejected = queue_.rejected();
    s.workers = pool_.size();
    s.queueDepth = queue_.size();
    s.inflight = inflight_.load(std::memory_order_relaxed);
    s.p50Ms =
        static_cast<double>(latencyHist_.valueAtPercentile(50.0)) / 1e6;
    s.p95Ms =
        static_cast<double>(latencyHist_.valueAtPercentile(95.0)) / 1e6;
    s.p99Ms =
        static_cast<double>(latencyHist_.valueAtPercentile(99.0)) / 1e6;
    s.p999Ms =
        static_cast<double>(latencyHist_.valueAtPercentile(99.9)) / 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    s.completed = completed_;
    s.shed = shed_;
    s.failed = failed_;
    s.containedPanics = containedPanics_;
    s.quarantines = quarantines_;
    s.respawns = respawns_;
    s.overloadLevel = overloadLevel_;
    s.health = health_;
    return s;
}

Health
ServeEngine::health() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return health_;
}

size_t
ServeEngine::numStreams() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return streams_.size();
}

InferenceStream &
ServeEngine::stream(size_t i)
{
    std::lock_guard<std::mutex> lock(mu_);
    return *streams_.at(i);
}

StreamContext &
ServeEngine::streamContext(size_t i)
{
    std::lock_guard<std::mutex> lock(mu_);
    return *contexts_.at(i);
}

std::string
ServeEngine::healthJson() const
{
    const uint64_t accepted = queue_.accepted();
    const uint64_t rejected = queue_.rejected();
    const size_t depth = queue_.size();
    JsonWriter w;
    std::lock_guard<std::mutex> lock(mu_);
    w.beginObject();
    w.key("schema").value("genreuse.health/1");
    w.key("name").value(config_.name);
    w.key("health").value(healthName(health_));
    w.key("overloadLevel").value(overloadLevel_);
    w.key("overloadMode").value(overload::levelName(overloadLevel_));
    w.key("workers").value(static_cast<uint64_t>(config_.workers));
    w.key("queueDepth").value(static_cast<uint64_t>(depth));
    w.key("queueCapacity")
        .value(static_cast<uint64_t>(queue_.capacity()));
    w.key("accepted").value(accepted);
    w.key("rejected").value(rejected);
    w.key("completed").value(completed_);
    w.key("shed").value(shed_);
    w.key("failed").value(failed_);
    w.key("containedPanics").value(containedPanics_);
    w.key("quarantines").value(quarantines_);
    w.key("respawns").value(respawns_);
    w.key("streams").beginArray();
    for (size_t i = 0; i < workerStates_.size(); ++i) {
        const WorkerState &ws = workerStates_[i];
        w.beginObject();
        w.key("id").value(static_cast<uint64_t>(i + 1));
        w.key("name").value(contexts_[i]->name());
        w.key("strikes").value(ws.strikes);
        w.key("quarantines").value(ws.quarantines);
        w.key("parked").value(ws.parked);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace genreuse
