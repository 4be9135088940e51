/**
 * @file
 * Deterministic fault injection for the robustness layer. A fault
 * point is a named, seeded failure the library knows how to provoke in
 * itself — SRAM exhaustion, degenerate clusterings, non-finite
 * activations, a corrupted cluster-ID table, a zero quantization
 * scale — so the degradation ladder (src/core/guard.h) can be tested
 * end to end without flaky randomness.
 *
 * Faults are armed programmatically (faultpoint::arm / armEvent) or
 * via the environment, which accepts a *schedule* of comma-separated
 * events (the chaos harness's vocabulary — at most one event per
 * fault point):
 *
 *   GENREUSE_FAULT=<name>[:seed][@stream[:at]][,<event>...]
 *
 *   e.g. GENREUSE_FAULT=cluster_collapse:7
 *        GENREUSE_FAULT=nan_activation@2   (fire only on serve stream 2)
 *        GENREUSE_FAULT=nan_activation@2:17,corrupt_cluster_ids@3:40
 *
 * The optional @stream suffix restricts the event to the inference
 * stream with that id (common/streamtag.h, bound by the serve engine
 * around each request): injection sites on every other stream see the
 * fault as disarmed, which is how guard-rung independence across
 * concurrent streams is tested. The optional :at after the stream
 * makes the event *one-shot on a schedule*: it fires at exactly the
 * at-th eligible active() check (counted per event, on the targeted
 * stream) instead of on every check — a deterministic "poison the
 * 17th request" primitive. Without :at an event is persistent, the
 * historical behavior.
 *
 * The hot-path gate is one relaxed atomic load (anyArmed()), mirroring
 * the eventlog gate, and the whole subsystem compiles out under
 * GENREUSE_DISABLE_FAULTPOINTS (active() becomes a constant false, so
 * every injection site folds away).
 */

#ifndef GENREUSE_COMMON_FAULTPOINT_H
#define GENREUSE_COMMON_FAULTPOINT_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "status.h"
#include "streamtag.h"

namespace genreuse {
namespace faultpoint {

/** The registered fault points. Names (faultName) use snake_case. */
enum class Fault
{
    SramExhausted,    //!< memory model reports zero SRAM capacity
    ClusterCollapse,  //!< LSH signatures all collide: one giant cluster
    ClusterEmpty,     //!< a size-0 cluster with a 1/0 (Inf) centroid
    NanActivation,    //!< NaN elements injected into activations
    CorruptClusterIds,//!< out-of-range entries in the cluster-ID table
    ZeroQuantScale,   //!< INT8 calibration computes scale = 0
    WorkerPanic,      //!< a serve worker panics mid-request (exercises
                      //!< the recovery-domain containment path)
    OodScale,         //!< activations scaled far out of distribution
                      //!< (finite, unlike nan_activation — exercises
                      //!< the error-budget/canary path, not the
                      //!< non-finite fast path)
    NumFaults,
};

/** snake_case name used by GENREUSE_FAULT and reports. */
const char *faultName(Fault f);

/** All registered fault names, in enum order (for the fault matrix). */
const std::vector<std::string> &allFaultNames();

/** Fault for a name. InvalidArgument when unknown. */
Expected<Fault> faultByName(const std::string &name);

namespace detail {
// One slot per fault point: a schedule arms at most one event per
// fault. Relaxed atomics throughout — arming happens at startup / in
// tests, never racing a kernel; the per-event check counter only needs
// atomicity, not ordering.
struct EventSlot
{
    std::atomic<bool> armed{false};
    std::atomic<uint64_t> seed{1};
    // -1 = fire on any stream; otherwise only when the calling
    // thread's streamtag matches.
    std::atomic<int> stream{-1};
    // 0 = persistent (fire on every eligible check); N > 0 = one-shot,
    // fire at exactly the N-th eligible check.
    std::atomic<uint64_t> fireAt{0};
    std::atomic<uint64_t> checks{0};
};
extern EventSlot g_events[static_cast<size_t>(Fault::NumFaults)];
// Armed-slot count: the single hot-path gate load.
extern std::atomic<int> g_numArmed;
// The scheduled (fireAt > 0) eligibility bump, out of line so the
// inline fast paths stay load-only.
bool scheduledCheck(EventSlot &slot);
void initFromEnvOnce();
} // namespace detail

/** The hot-path gate: true when any fault event is armed. */
inline bool
anyArmed()
{
#ifdef GENREUSE_DISABLE_FAULTPOINTS
    return false;
#else
    return detail::g_numArmed.load(std::memory_order_relaxed) > 0;
#endif
}

/** True when @p f is armed and eligible for the calling thread's
 *  stream at this check. One relaxed load when nothing is armed; a
 *  second when @p f's slot is idle. A scheduled (:at) event counts
 *  this eligibility check and fires only at its appointed one. */
inline bool
active(Fault f)
{
#ifdef GENREUSE_DISABLE_FAULTPOINTS
    (void)f;
    return false;
#else
    if (detail::g_numArmed.load(std::memory_order_relaxed) <= 0)
        return false;
    detail::EventSlot &slot = detail::g_events[static_cast<size_t>(f)];
    if (!slot.armed.load(std::memory_order_relaxed))
        return false;
    const int target = slot.stream.load(std::memory_order_relaxed);
    if (target >= 0 && target != static_cast<int>(streamtag::current()))
        return false;
    if (slot.fireAt.load(std::memory_order_relaxed) == 0)
        return true;
    return detail::scheduledCheck(slot);
#endif
}

/** Stream @p f's armed event targets (-1 = any / not armed). */
int targetStream(Fault f);

/** Seed of @p f's armed event (1 when none was given / not armed). */
uint64_t seed(Fault f);

/** Back-compat single-fault accessors: stream / seed of the
 *  lowest-indexed armed event (-1 / 1 when nothing is armed). */
int targetStream();
uint64_t seed();

/** Injection sites call this when an armed fault actually corrupts
 *  something, so fires are observable as metrics counters
 *  ("fault.fires" and "fault.fires.<name>"). */
void noteFired(Fault f);

/** Arm @p f alone (replacing the whole armed schedule), optionally
 *  restricted to one stream id (@p stream < 0 = any). No-op when
 *  compiled out. */
void arm(Fault f, uint64_t seed = 1, int stream = -1);

/** Add @p f to the armed schedule without clearing other events.
 *  @p fire_at = 0 is persistent; N > 0 fires one-shot at the N-th
 *  eligible check. Re-arming an armed fault replaces its event (and
 *  resets its check counter). */
void armEvent(Fault f, uint64_t seed = 1, int stream = -1,
              uint64_t fire_at = 0);

/** Arm a "<name>[:seed][@stream[:at]][,<event>...]" schedule,
 *  replacing whatever was armed. InvalidArgument on a bad spec (the
 *  previous schedule is cleared even then). */
Status armSpec(const std::string &spec);

/** Disarm every armed event (also clears stream filters/schedules). */
void disarm();

/** RAII arm/disarm for tests. */
class Scoped
{
  public:
    explicit Scoped(Fault f, uint64_t s = 1, int stream = -1)
    {
        arm(f, s, stream);
    }
    ~Scoped() { disarm(); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;
};

} // namespace faultpoint
} // namespace genreuse

#endif // GENREUSE_COMMON_FAULTPOINT_H
