/**
 * @file
 * SLO burn-rate monitor: declarative service-level objectives over the
 * serve engine's live signals, evaluated SRE-style with multi-window
 * burn rates instead of raw thresholds. A raw threshold pages on every
 * blip; a burn rate ("at this bad-event rate, what multiple of the
 * error budget would a full compliance window consume?") pages only
 * when the budget is actually being spent too fast, and the
 * two-window rule (fast AND slow both burning) keeps one bad tick
 * from firing while still catching sustained regressions quickly.
 *
 * Objectives supported (SloKind):
 *   - LatencyP99     — completions slower than thresholdMs are bad
 *                      events (counted from windowed HdrHistogram
 *                      snapshot deltas, satellite of Snapshot /
 *                      deltaSince);
 *   - ShedRate       — deadline-shed requests / completions;
 *   - FailRate       — failed requests / completions;
 *   - CanaryBreachRate — accuracy-canary breaches / canary samples
 *                      (core/reuse_audit.h), the accuracy floor.
 *
 * Each tick() captures one frame — a latency-histogram snapshot plus
 * counter values — into a ring; burn rates are computed from frame
 * deltas over the fast and slow windows, so the monitor is reset- and
 * restart-tolerant the same way the inspector's counter rates are.
 * An alert fires when BOTH windows exceed their burn thresholds,
 * raising an SloAlert eventlog record and (via setExternalDegraded)
 * flipping the engine's Health to Degraded until it clears.
 *
 * State is exported as the genreuse.slo/1 JSON artifact, registered as
 * a "slo" telemetry pull source, and rendered by genreuse_inspect
 * --follow as an alerts panel.
 */

#ifndef GENREUSE_SERVE_SLO_H
#define GENREUSE_SERVE_SLO_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hdrhist.h"
#include "serve.h"

namespace genreuse {
namespace serve {

/** What an SloSpec measures. */
enum class SloKind
{
    LatencyP99,       //!< completions slower than thresholdMs
    ShedRate,         //!< deadline sheds per completion
    FailRate,         //!< failures per completion
    CanaryBreachRate, //!< accuracy-canary breaches per sample
};

/** "latency_p99" / "shed_rate" / "fail_rate" / "canary_breach_rate". */
const char *sloKindName(SloKind k);

/** One declarative objective. */
struct SloSpec
{
    std::string name;            //!< alert name ("p99-latency", ...)
    SloKind kind = SloKind::LatencyP99;

    /** LatencyP99 only: the latency objective in milliseconds. */
    double thresholdMs = 0.0;

    /**
     * Error budget: allowed bad-event fraction (e.g. 0.01 = "99% of
     * events good"). Burn rate = (bad/total) / budget per window.
     */
    double budget = 0.01;

    /** Burn-rate thresholds; the alert fires only when BOTH windows
     *  exceed theirs (fast catches the onset, slow confirms it is
     *  sustained). */
    double fastBurn = 8.0;
    double slowBurn = 2.0;

    /** Window lengths in ticks (frames of the monitor's ring). */
    size_t fastTicks = 3;
    size_t slowTicks = 12;
};

/** Live evaluation state of one spec. */
struct SloState
{
    SloSpec spec;
    bool firing = false;
    uint64_t transitions = 0;   //!< fire/clear edges so far
    uint64_t ticksFiring = 0;   //!< cumulative ticks spent firing
    double fastBurnRate = 0.0;  //!< last tick's fast-window burn
    double slowBurnRate = 0.0;
    uint64_t fastBad = 0;       //!< bad / total events in the windows
    uint64_t fastTotal = 0;
    uint64_t slowBad = 0;
    uint64_t slowTotal = 0;
};

/**
 * Periodically evaluates a set of SloSpecs against one ServeEngine.
 * Drive it manually (tick(), deterministic — tests) or with the
 * built-in ticker thread (start()/stop()). Registers itself as the
 * "slo" telemetry source for its lifetime.
 */
class SloMonitor
{
  public:
    SloMonitor(ServeEngine &engine, std::vector<SloSpec> specs);
    ~SloMonitor();

    SloMonitor(const SloMonitor &) = delete;
    SloMonitor &operator=(const SloMonitor &) = delete;

    /**
     * Capture one frame and re-evaluate every objective. Fire/clear
     * edges journal SloAlert events; while any alert fires the
     * engine's health is held Degraded via setExternalDegraded().
     */
    void tick();

    /** Background ticker at @p interval_ns (idempotent start; stop()
     *  joins — also run by the destructor). */
    void start(uint64_t interval_ns);
    void stop();

    /** Copies of every objective's evaluation state. */
    std::vector<SloState> states() const;

    /** True while any objective's alert is firing. */
    bool anyFiring() const;

    /** Ticks evaluated so far. */
    uint64_t ticks() const;

    /** Schema-versioned JSON (genreuse.slo/1) of all objectives. */
    std::string toJson() const;

  private:
    /** One ring frame: everything a window delta needs. */
    struct Frame
    {
        HdrHistogram::Snapshot latency;
        uint64_t completed = 0;
        uint64_t shed = 0;
        uint64_t failed = 0;
        uint64_t canarySamples = 0;
        uint64_t canaryBreaches = 0;
    };

    /** bad/total for @p spec between two frames (reset-tolerant:
     *  negative deltas clamp to 0). */
    static void windowEvents(const SloSpec &spec, const Frame &from,
                             const Frame &to, uint64_t *bad,
                             uint64_t *total);

    std::string renderLocked(bool compact) const;

    ServeEngine &engine_;
    mutable std::mutex mu_;
    std::vector<SloState> states_;
    std::deque<Frame> ring_; //!< oldest first; back() is current
    uint64_t ticks_ = 0;
    uint64_t telemetryToken_ = 0;

    std::thread ticker_;
    std::mutex tickerMu_;
    std::condition_variable tickerCv_;
    bool tickerStop_ = false;
    bool tickerRunning_ = false;
};

/** Built-in objective set for genreuse_serve --slo: p99 latency at
 *  @p p99_ms (budget 1%), shed + fail availability (budget 1% each),
 *  and the canary accuracy floor (budget 5% of samples). */
std::vector<SloSpec> defaultSloSpecs(double p99_ms);

} // namespace serve
} // namespace genreuse

#endif // GENREUSE_SERVE_SLO_H
