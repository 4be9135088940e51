/**
 * @file
 * Serve engine: a server-style concurrent runtime over the guarded
 * reuse stack. The paper's pipeline is single-stream — one thread, one
 * forward at a time — but a deployed microcontroller gateway (or the
 * host-side proxy of one) sees overlapping requests. This module adds
 * that shape without touching the math:
 *
 *   submit() → bounded MPMC RequestQueue → worker pool → N streams
 *
 * Each worker (a long-lived ThreadPool task, named "<name>-<i>") owns
 * exactly one InferenceStream and its StreamContext — stream i's
 * arena, drift detectors, scratch and stream tag. The 1:1
 * worker↔stream ownership means no per-request locking anywhere in the
 * inference path: concurrency comes from *different* streams running
 * on different workers, and all cross-thread traffic funnels through
 * the queue.
 *
 * Per-request hygiene on a pooled worker (the single-stream
 * assumptions this engine exposed and fixes):
 *   - StreamContext::Bind routes scratch/arena/stream-tag to the
 *     stream (core/stream_context.h);
 *   - eventlog::resetThreadScope() runs at each request boundary so a
 *     leaked LayerScope cannot tag the next request's events;
 *   - an ArenaFrame spanning the request rewinds the stream arena to
 *     empty, which triggers retention decay (common/arena.h) — one
 *     oversized request no longer pins peak scratch for the process
 *     lifetime.
 *
 * Admission is configurable: Block (backpressure the producer — the
 * load-generator default) or Reject (fail fast, counted in stats).
 * Shutdown is graceful: close the queue, let workers drain it, join.
 *
 * Failure containment (the robustness layer on top):
 *
 *  - every request executes inside a RecoveryDomain
 *    (common/logging.h): a panic()/REQUIRE raised by the inference
 *    path is journaled, fails *that request* with an Internal Status,
 *    and quarantines the stream — StreamContext::reset() (arena
 *    rewound and released, scratch dropped, drift detectors re-armed)
 *    — instead of killing the process. After quarantineStrikes
 *    *consecutive* failures the stream is parked: a fresh stream is
 *    built from the retained factory on a fresh context and a
 *    replacement worker is respawned through the pool (the struck-out
 *    worker exits). A successful request resets the strike count.
 *  - requests carry an optional absolute deadline; a worker finding an
 *    already-expired request at dequeue *sheds* it — counted,
 *    journaled (RequestShed), completed with DeadlineExceeded, never
 *    executed.
 *  - a queue-delay overload controller (enabled by
 *    overloadQueueDelayNs > 0) walks the guard ladder down under
 *    sustained pressure via the process-wide overload level
 *    (common/overload.h): level 1 halves guard verification rows,
 *    level 2 skips verification entirely; the level restores when the
 *    queue drains.
 *  - engine health (Healthy → Degraded → Draining) is derived from
 *    overload level + failing/parked streams, exported through
 *    stats()/metrics, journaled on every transition, and rendered as
 *    the genreuse.health/1 JSON artifact (healthJson()).
 */

#ifndef GENREUSE_SERVE_SERVE_H
#define GENREUSE_SERVE_SERVE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/hdrhist.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/guard.h"
#include "core/stream_context.h"
#include "tensor/tensor.h"

namespace genreuse {
namespace serve {

/** Steady-clock nanoseconds (the engine's single time base). */
uint64_t nowNs();

/** Engine readiness, coarsest first. */
enum class Health
{
    Healthy,  //!< serving normally
    Degraded, //!< overloaded and/or a stream is failing or parked
    Draining, //!< shutdown initiated; admitted requests still finish
};

/** "healthy" / "degraded" / "draining". */
const char *healthName(Health h);

/** Completed request: output plus the latency-relevant timestamps. */
struct ServeResult
{
    uint64_t requestId = 0;
    uint32_t streamId = 0; //!< stream that executed it (1-based)
    Tensor output;
    uint64_t enqueueNs = 0; //!< submit() allocated the id
    uint64_t queuedNs = 0;  //!< actually entered the queue (admission
                            //!< wait under Block ends here)
    uint64_t startNs = 0;   //!< worker picked it up
    uint64_t doneNs = 0;    //!< inference finished
    GuardRung rung = GuardRung::FullReuse; //!< stream's rung afterwards
    /** Ok on success; DeadlineExceeded when shed; Internal for a
     *  contained panic (output is empty in both failure cases). */
    Status status;
};

/** One queued inference request. */
struct Request
{
    uint64_t id = 0;
    Tensor input;
    uint64_t enqueueNs = 0;
    /** Stamped by the queue as the request actually enters it, so
     *  admit wait (Block backpressure) and queue wait separate in the
     *  per-request span decomposition. */
    uint64_t queuedNs = 0;
    /** Absolute nowNs() instant after which the request is shed
     *  instead of executed (0 = no deadline). */
    uint64_t deadlineNs = 0;
    std::function<void(ServeResult &&)> done; //!< invoked on the worker
};

/** What admission does when the queue is full. */
enum class AdmitPolicy
{
    Block,  //!< backpressure: submit() waits for space
    Reject, //!< fail fast: submit() returns empty, rejection counted
};

/**
 * Bounded MPMC queue with close-to-drain semantics: close() wakes
 * everyone, push() fails afterwards, pop() keeps returning queued
 * requests until empty and only then returns nullopt — so graceful
 * shutdown never drops an admitted request.
 */
class RequestQueue
{
  public:
    explicit RequestQueue(size_t capacity);

    /** Admit @p r, waiting while full. Unavailable when the queue is
     *  closed — including a close() that lands *while* the producer is
     *  blocked waiting for space (the close-aware wait predicate plus
     *  close()'s notFull broadcast guarantee the producer wakes and
     *  fails instead of wedging forever). */
    Status push(Request &&r);

    /** Admit @p r without waiting. ResourceExhausted when full
     *  (counted in rejected()), Unavailable when closed. */
    Status tryPush(Request &&r);

    /** Take the oldest request, waiting while empty. nullopt once the
     *  queue is closed *and* drained. */
    std::optional<Request> pop();

    /** Stop admissions and wake all waiters (idempotent). */
    void close();

    bool closed() const;
    size_t size() const;
    size_t capacity() const { return capacity_; }
    uint64_t accepted() const;
    uint64_t rejected() const;

  private:
    const size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<Request> q_;
    bool closed_ = false;
    uint64_t accepted_ = 0;
    uint64_t rejected_ = 0;
};

/**
 * One inference stream: whatever the deployment serves (a guarded
 * network replica, a single guarded layer under test, …). infer() is
 * always called with @p ctx bound on the calling worker thread, and
 * only ever from that one worker — implementations need no locking.
 */
class InferenceStream
{
  public:
    virtual ~InferenceStream() = default;

    virtual Tensor infer(const Tensor &input, StreamContext &ctx) = 0;

    /** Guard rung of the last infer() (FullReuse when unguarded). */
    virtual GuardRung
    lastRung() const
    {
        return GuardRung::FullReuse;
    }
};

/** Builds stream @p stream_id's InferenceStream (ids are 1-based —
 *  0 is the thread-default/no-stream tag). Called once per worker at
 *  engine construction, on the constructing thread. */
using StreamFactory =
    std::function<std::unique_ptr<InferenceStream>(uint32_t stream_id)>;

struct ServeConfig
{
    size_t workers = 1;       //!< worker count == stream count
    size_t queueCapacity = 64;
    AdmitPolicy policy = AdmitPolicy::Block;
    std::string name = "serve"; //!< worker-thread name prefix

    /** Deadline applied to requests submitted without one, relative
     *  to submission (0 = none). */
    uint64_t defaultDeadlineNs = 0;

    /** Consecutive contained failures on one stream before it is
     *  parked and a fresh stream + worker respawned. */
    size_t quarantineStrikes = 3;

    /** Queue delay that counts as overload pressure (0 disables the
     *  overload controller). */
    uint64_t overloadQueueDelayNs = 0;

    /** Consecutive over-threshold dequeues before the controller
     *  raises the overload level one step. */
    size_t overloadWindow = 8;
};

/** Engine counters (monotonic since construction). */
struct ServeStats
{
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0; //!< includes shed and failed requests
    uint64_t shed = 0;      //!< expired at dequeue, never executed
    uint64_t failed = 0;    //!< completed with an error Status (panics)
    uint64_t containedPanics = 0; //!< panics caught by request domains
    uint64_t quarantines = 0;     //!< streams parked after striking out
    uint64_t respawns = 0;        //!< replacement workers spawned
    size_t workers = 0;
    size_t queueDepth = 0;
    size_t inflight = 0; //!< dequeued, not yet completed
    int overloadLevel = 0;
    Health health = Health::Healthy;
    /** Live end-to-end latency percentiles (submit → done, ms) from
     *  the engine's HDR histogram — all completions, including shed
     *  and failed. 0 until the first completion. */
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
};

class ServeEngine
{
  public:
    /** Spawns the workers and builds one stream per worker via
     *  @p factory. Workers start pulling immediately. */
    ServeEngine(ServeConfig config, const StreamFactory &factory);

    /** Graceful: shutdown() (drain admitted requests, join workers). */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Submit one input. Under Block this waits for queue space; under
     * Reject a full queue returns nullopt immediately. The future
     * resolves on the executing worker when inference completes (check
     * the result's status — shed and panicked requests resolve too).
     * nullopt is also returned after shutdown(). @p deadline_ns is
     * relative to now (0 = the config default).
     */
    std::optional<std::future<ServeResult>> submit(Tensor input,
                                                   uint64_t deadline_ns = 0);

    /**
     * Callback-style submission for the open-loop load generator (no
     * per-request future allocation on the measurement path).
     * @p done runs on the executing worker. False when the request was
     * not admitted (full queue under Reject, or shut down).
     * @p deadline_ns is relative to now (0 = the config default).
     */
    bool trySubmit(Tensor input, std::function<void(ServeResult &&)> done,
                   uint64_t deadline_ns = 0);

    /** Block until every admitted request has completed (executed,
     *  failed, or shed — they all count). */
    void drain();

    /** Stop admissions, drain the queue, join the workers. Idempotent;
     *  also run by the destructor. */
    void shutdown();

    ServeStats stats() const;

    /** Current readiness (also in stats()). */
    Health health() const;

    /** Schema-versioned JSON (genreuse.health/1): health, overload
     *  level, engine counters and per-stream strike/quarantine state —
     *  the artifact genreuse_inspect renders. */
    std::string healthJson() const;

    const ServeConfig &config() const { return config_; }
    size_t numStreams() const;

    /** Test/introspection access to stream @p i (0-based worker index;
     *  the stream's id is i + 1). Do not call with requests in flight
     *  on that stream — a quarantine may be replacing it. */
    InferenceStream &stream(size_t i);
    StreamContext &streamContext(size_t i);

  private:
    /** Per-worker containment state (guarded by mu_). */
    struct WorkerState
    {
        uint64_t strikes = 0;     //!< consecutive contained failures
        uint64_t quarantines = 0; //!< times this stream struck out
        bool parked = false;      //!< true between park and respawn
    };

    void workerMain(size_t index);
    Status admit(Request &&r);
    void finish(Request &&req, ServeResult &&res);
    void observeQueueDelay(uint64_t delay_ns);
    void noteSuccess(size_t index);
    /** Handle one contained failure; true when the calling worker must
     *  exit because a replacement was respawned. */
    bool noteFailure(size_t index);
    void updateHealthLocked();

    ServeConfig config_;
    RequestQueue queue_;
    StreamFactory factory_; //!< retained for quarantine respawns
    // Live end-to-end latency distribution (submit → done): recorded
    // lock-free on completion, read by stats() at any time.
    HdrHistogram latencyHist_;
    std::atomic<size_t> inflight_{0};
    std::vector<std::unique_ptr<InferenceStream>> streams_;
    std::vector<std::unique_ptr<StreamContext>> contexts_;
    std::vector<WorkerState> workerStates_;

    mutable std::mutex mu_;
    std::condition_variable completedCv_;
    uint64_t completed_ = 0;
    uint64_t shed_ = 0;
    uint64_t failed_ = 0;
    uint64_t containedPanics_ = 0;
    uint64_t quarantines_ = 0;
    uint64_t respawns_ = 0;
    uint64_t nextId_ = 1;
    size_t failingStreams_ = 0; //!< workers with strikes > 0 or parked
    size_t overStreak_ = 0;     //!< consecutive over-delay dequeues
    int overloadLevel_ = 0;
    Health health_ = Health::Healthy;
    bool shutdown_ = false;

    // Last member: its destructor joins the workers, which touch every
    // field above — declaration order is teardown-safety order.
    ThreadPool pool_;
};

} // namespace serve
} // namespace genreuse

#endif // GENREUSE_SERVE_SERVE_H
