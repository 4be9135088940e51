#include "slo.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/eventlog.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/telemetry.h"
#include "core/reuse_audit.h"

namespace genreuse {
namespace serve {

const char *
sloKindName(SloKind k)
{
    switch (k) {
      case SloKind::LatencyP99:
        return "latency_p99";
      case SloKind::ShedRate:
        return "shed_rate";
      case SloKind::FailRate:
        return "fail_rate";
      case SloKind::CanaryBreachRate:
        return "canary_breach_rate";
    }
    return "?";
}

namespace {

/** Counter-delta with the same reset tolerance the inspector's rate
 *  cells apply: a counter that went backwards reads as 0, never as a
 *  huge unsigned wraparound. */
uint64_t
clampDelta(uint64_t now, uint64_t before)
{
    return now >= before ? now - before : 0;
}

} // namespace

SloMonitor::SloMonitor(ServeEngine &engine, std::vector<SloSpec> specs)
    : engine_(engine)
{
    states_.reserve(specs.size());
    for (SloSpec &spec : specs) {
        GENREUSE_REQUIRE(spec.budget > 0.0, "SLO '", spec.name,
                         "': budget must be positive");
        GENREUSE_REQUIRE(spec.fastTicks >= 1 &&
                         spec.slowTicks >= spec.fastTicks,
                         "SLO '", spec.name,
                         "': want 1 <= fastTicks <= slowTicks");
        SloState st;
        st.spec = std::move(spec);
        states_.push_back(std::move(st));
    }
    telemetryToken_ = telemetry::registerSource("slo", [this] {
        std::lock_guard<std::mutex> lock(mu_);
        return renderLocked(true);
    });
}

SloMonitor::~SloMonitor()
{
    stop();
    // Block out any in-flight telemetry sample before members die.
    if (telemetryToken_ != 0)
        telemetry::unregisterSource(telemetryToken_);
    // A monitor holding the engine Degraded must release it on the way
    // out — the alert no longer exists to clear itself.
    engine_.setExternalDegraded(false);
}

void
SloMonitor::windowEvents(const SloSpec &spec, const Frame &from,
                         const Frame &to, uint64_t *bad, uint64_t *total)
{
    switch (spec.kind) {
      case SloKind::LatencyP99: {
        const HdrHistogram::Snapshot d = to.latency.deltaSince(from.latency);
        *total = d.count;
        const double ns = spec.thresholdMs * 1e6;
        *bad = d.countAbove(static_cast<uint64_t>(std::max(0.0, ns)));
        break;
      }
      case SloKind::ShedRate:
        *total = clampDelta(to.completed, from.completed);
        *bad = clampDelta(to.shed, from.shed);
        break;
      case SloKind::FailRate:
        *total = clampDelta(to.completed, from.completed);
        *bad = clampDelta(to.failed, from.failed);
        break;
      case SloKind::CanaryBreachRate:
        *total = clampDelta(to.canarySamples, from.canarySamples);
        *bad = clampDelta(to.canaryBreaches, from.canaryBreaches);
        break;
    }
}

void
SloMonitor::tick()
{
    // Capture outside the monitor lock: stats() takes the engine lock
    // and the histogram snapshot walks every bucket.
    Frame f;
    f.latency = engine_.latencyHistogram().snapshot();
    const ServeStats s = engine_.stats();
    f.completed = s.completed;
    f.shed = s.shed;
    f.failed = s.failed;
    f.canarySamples = audit::canarySamples();
    f.canaryBreaches = audit::canaryBreaches();

    bool any = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        size_t max_slow = 1;
        for (const SloState &st : states_)
            max_slow = std::max(max_slow, st.spec.slowTicks);
        ring_.push_back(std::move(f));
        while (ring_.size() > max_slow + 1)
            ring_.pop_front();
        ++ticks_;

        const Frame &now = ring_.back();
        for (SloState &st : states_) {
            const auto frameAgo = [&](size_t ticks_back) -> const Frame & {
                const size_t last = ring_.size() - 1;
                return ring_[last > ticks_back ? last - ticks_back : 0];
            };
            windowEvents(st.spec, frameAgo(st.spec.fastTicks), now,
                         &st.fastBad, &st.fastTotal);
            windowEvents(st.spec, frameAgo(st.spec.slowTicks), now,
                         &st.slowBad, &st.slowTotal);
            const auto burn = [&](uint64_t bad, uint64_t total) {
                if (total == 0)
                    return 0.0;
                return (static_cast<double>(bad) /
                        static_cast<double>(total)) /
                       st.spec.budget;
            };
            st.fastBurnRate = burn(st.fastBad, st.fastTotal);
            st.slowBurnRate = burn(st.slowBad, st.slowTotal);
            // The two-window rule: the fast window catches the onset,
            // the slow window proves it is sustained. Both must burn.
            const bool firing = st.fastTotal > 0 &&
                                st.fastBurnRate >= st.spec.fastBurn &&
                                st.slowBurnRate >= st.spec.slowBurn;
            if (firing != st.firing) {
                st.firing = firing;
                ++st.transitions;
                static metrics::Counter &edges =
                    metrics::counter("slo.alerts");
                if (firing)
                    edges.add();
                eventlog::record(eventlog::Type::SloAlert,
                                 eventlog::intern(st.spec.name),
                                 st.fastBurnRate, st.slowBurnRate,
                                 st.spec.fastBurn, 0,
                                 firing ? 1 : 0);
                warn("slo: '", st.spec.name, "' ",
                     firing ? "FIRING" : "cleared", " (fast burn ",
                     st.fastBurnRate, "x, slow burn ", st.slowBurnRate,
                     "x, thresholds ", st.spec.fastBurn, "/",
                     st.spec.slowBurn, ")");
            }
            if (st.firing)
                ++st.ticksFiring;
            any = any || st.firing;
        }
        static metrics::Gauge &firing_gauge = metrics::gauge("slo.firing");
        firing_gauge.set(any ? 1.0 : 0.0);
    }
    // Outside mu_: the engine takes its own lock, and holding both
    // invites an ordering knot if anyone samples the monitor from an
    // engine callback someday.
    engine_.setExternalDegraded(any);
}

void
SloMonitor::start(uint64_t interval_ns)
{
    std::lock_guard<std::mutex> lock(tickerMu_);
    if (tickerRunning_)
        return;
    tickerStop_ = false;
    tickerRunning_ = true;
    ticker_ = std::thread([this, interval_ns] {
        std::unique_lock<std::mutex> lock(tickerMu_);
        while (!tickerStop_) {
            lock.unlock();
            tick();
            lock.lock();
            tickerCv_.wait_for(lock,
                               std::chrono::nanoseconds(interval_ns),
                               [this] { return tickerStop_; });
        }
    });
}

void
SloMonitor::stop()
{
    {
        std::lock_guard<std::mutex> lock(tickerMu_);
        if (!tickerRunning_)
            return;
        tickerStop_ = true;
    }
    tickerCv_.notify_all();
    ticker_.join();
    std::lock_guard<std::mutex> lock(tickerMu_);
    tickerRunning_ = false;
}

std::vector<SloState>
SloMonitor::states() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return states_;
}

bool
SloMonitor::anyFiring() const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const SloState &st : states_) {
        if (st.firing)
            return true;
    }
    return false;
}

uint64_t
SloMonitor::ticks() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_;
}

std::string
SloMonitor::renderLocked(bool compact) const
{
    JsonWriter w(compact);
    w.beginObject();
    w.key("schema").value("genreuse.slo/1");
    w.key("ticks").value(ticks_);
    bool any = false;
    for (const SloState &st : states_)
        any = any || st.firing;
    w.key("any_firing").value(any);
    w.key("alerts").beginArray();
    for (const SloState &st : states_) {
        w.beginObject();
        w.key("name").value(st.spec.name);
        w.key("kind").value(sloKindName(st.spec.kind));
        w.key("firing").value(st.firing);
        if (st.spec.kind == SloKind::LatencyP99)
            w.key("threshold_ms").value(st.spec.thresholdMs);
        w.key("budget").value(st.spec.budget);
        w.key("fast_burn").value(st.fastBurnRate);
        w.key("slow_burn").value(st.slowBurnRate);
        w.key("fast_burn_threshold").value(st.spec.fastBurn);
        w.key("slow_burn_threshold").value(st.spec.slowBurn);
        w.key("fast_bad").value(st.fastBad);
        w.key("fast_total").value(st.fastTotal);
        w.key("slow_bad").value(st.slowBad);
        w.key("slow_total").value(st.slowTotal);
        w.key("transitions").value(st.transitions);
        w.key("ticks_firing").value(st.ticksFiring);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
SloMonitor::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return renderLocked(false);
}

std::vector<SloSpec>
defaultSloSpecs(double p99_ms)
{
    std::vector<SloSpec> specs;
    SloSpec lat;
    lat.name = "p99-latency";
    lat.kind = SloKind::LatencyP99;
    lat.thresholdMs = p99_ms;
    lat.budget = 0.01;
    specs.push_back(lat);
    SloSpec shed;
    shed.name = "shed-availability";
    shed.kind = SloKind::ShedRate;
    shed.budget = 0.01;
    specs.push_back(shed);
    SloSpec fail;
    fail.name = "fail-availability";
    fail.kind = SloKind::FailRate;
    fail.budget = 0.01;
    specs.push_back(fail);
    SloSpec acc;
    acc.name = "canary-accuracy";
    acc.kind = SloKind::CanaryBreachRate;
    acc.budget = 0.05;
    specs.push_back(acc);
    return specs;
}

} // namespace serve
} // namespace genreuse
