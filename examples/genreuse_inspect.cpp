/**
 * @file
 * Postmortem / observability inspector: loads any mix of the repo's
 * schema-versioned JSON artifacts and renders one consolidated report
 * on stdout —
 *
 *   genreuse.events/1         flight-recorder dumps (GENREUSE_BLACKBOX
 *                             postmortems, ood_monitor journals):
 *                             header, guard/drift/fault timeline, and
 *                             the last-N event table
 *   genreuse.prof/1           profiler exports: top spans with wall
 *                             shares
 *   genreuse.guard/1          guard counters
 *   genreuse.metrics/1        metrics registry
 *   genreuse.health/1         serve-engine health snapshots (per-stream
 *                             strikes/quarantines, overload level)
 *   genreuse.audit/1          reuse-efficacy audit: per-layer observed
 *                             vs modeled redundancy, kernel/clustering
 *                             traffic, guard budget burn, and the
 *                             accuracy canary's relative error vs the
 *                             exact path
 *   genreuse.bench/1          BENCH records (plus their embedded
 *                             guard/profile/metrics/events extras)
 *   genreuse.bench-suite/1    merged BENCH suites
 *   genreuse.rtrace/1         request traces (GENREUSE_RTRACE): top-K
 *                             slowest requests with per-span breakdown
 *                             (--slowest K, default 10)
 *
 * With --baseline, BENCH results are compared against the baseline
 * suite/record and the top regressions are listed.
 *
 * Usage:
 *   genreuse_inspect [--baseline BENCH.json] [--last N] [--slowest K]
 *       file.json...
 *
 * Typical flows:
 *   GENREUSE_FAULT=nan_activation ./build/examples/mcu_deploy
 *   ./build/examples/genreuse_inspect genreuse_blackbox.json
 *
 *   ./build/examples/genreuse_inspect --baseline build/BENCH_pr4.json \
 *       build/BENCH_pr5.json
 *
 *   ./build/examples/genreuse_serve --events ev.json --rtrace rt.json
 *   ./build/examples/genreuse_inspect ev.json rt.json
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/json.h"
#include "common/status.h"
#include "common/table.h"
#include "core/guard.h"

using namespace genreuse;

namespace {

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

double
num(const JsonValue *obj, const char *key, double fallback = 0.0)
{
    if (obj == nullptr)
        return fallback;
    const JsonValue *v = obj->find(key);
    return v ? v->numberOr(fallback) : fallback;
}

std::string
str(const JsonValue *obj, const char *key, const std::string &fallback = "")
{
    if (obj == nullptr)
        return fallback;
    const JsonValue *v = obj->find(key);
    return v ? v->stringOr(fallback) : fallback;
}

// ---- genreuse.events/1 ---------------------------------------------------

/** One-line semantic rendering of an event's payload. */
std::string
eventDetail(const JsonValue &e)
{
    const std::string type = str(&e, "type");
    const double v0 = num(&e, "v0"), v1 = num(&e, "v1"), v2 = num(&e, "v2");
    const double n = num(&e, "n"), k = num(&e, "k");
    if (type == "forward_begin" || type == "forward_end")
        return "batch=" + fmt("%.0f", n);
    if (type == "layer_reuse")
        return "redundancy=" + fmt("%.3f", v0) + " vectors=" +
               fmt("%.0f", v1) + " centroids=" + fmt("%.0f", n);
    if (type == "kernel_reuse") {
        static const char *const kKernels[] = {"vertical", "horizontal",
                                               "fc"};
        const int ki = static_cast<int>(k);
        return std::string(ki >= 0 && ki < 3 ? kKernels[ki] : "?") +
               " redundancy=" + fmt("%.3f", v0) + " vectors=" +
               fmt("%.0f", v1) + " centroids=" + fmt("%.0f", n);
    }
    if (type == "cluster")
        return "redundancy=" + fmt("%.3f", v0) + " items=" +
               fmt("%.0f", v1) + " clusters=" + fmt("%.0f", n);
    if (type == "guard_rung") {
        const int ri = static_cast<int>(k);
        std::string out =
            std::string("rung=") +
            rungName(static_cast<GuardRung>(
                std::min(ri, static_cast<int>(GuardRung::ExactFallback)))) +
            " measured=" + fmt("%.4g", v0) + " budget=" + fmt("%.4g", v1);
        if (n != 0.0)
            out += " (deploy-time)";
        return out;
    }
    if (type == "drift") {
        std::string out = "x=" + fmt("%.4f", v0) + " ewma=" +
                          fmt("%.4f", v1) + " ph=" + fmt("%.4f", v2);
        if (n != 0.0)
            out += "  << TRIP";
        return out;
    }
    if (type == "fault_fire")
        return "fault=" + str(&e, "fault", "?");
    if (type == "panic")
        return std::string(n != 0.0 ? "contained" : "fatal");
    if (type == "request_shed") {
        std::string out = "request=" + fmt("%.0f", n) + " overdue=" +
                          fmt("%.2f", v0) + "ms";
        // v1 = remaining deadline slack at dequeue in ns (negative:
        // how far past its deadline the request already was).
        if (v1 != 0.0)
            out += " slack=" + fmt("%.2f", v1 / 1e6) + "ms";
        return out;
    }
    if (type == "stream_quarantine")
        return "strikes=" + fmt("%.0f", n) +
               (k != 0.0 ? " respawned" : " kept");
    if (type == "health") {
        static const char *const kHealth[] = {"healthy", "degraded",
                                              "draining"};
        const int hi = static_cast<int>(k);
        return std::string("-> ") +
               (hi >= 0 && hi < 3 ? kHealth[hi] : "?") +
               " overload_level=" + fmt("%.0f", n);
    }
    if (type == "sram_high_water")
        return "required=" + fmt("%.0f", v0) + "B capacity=" +
               fmt("%.0f", v1) + "B";
    if (type == "warn_once")
        return "key=" + str(&e, "tag");
    if (type == "streaming")
        return "redundancy=" + fmt("%.3f", v0) + " vectors=" +
               fmt("%.0f", v1) + " scratch=" + fmt("%.0f", v2) + "B";
    if (type == "canary_sample" || type == "canary_breach") {
        std::string out = "error=" + fmt("%.4g", v0) + " budget=" +
                          fmt("%.4g", v1) + " ewma=" + fmt("%.4g", v2) +
                          " rows=" + fmt("%.0f", n);
        if (type == "canary_breach")
            out += " overload_level=" + fmt("%.0f", k);
        return out;
    }
    return "";
}

/** Types worth a line in the condensed timeline (regime changes, not
 *  per-layer traffic). */
bool
isTimelineWorthy(const JsonValue &e)
{
    const std::string type = str(&e, "type");
    if (type == "guard_rung" || type == "fault_fire" ||
        type == "sram_high_water" || type == "warn_once")
        return true;
    if (type == "panic" || type == "request_shed" ||
        type == "stream_quarantine" || type == "health" ||
        type == "canary_breach")
        return true; // containment and canary breaches are regime changes
    return type == "drift" && num(&e, "n") != 0.0; // trips only
}

void
renderEvents(const JsonValue &doc, size_t last_n)
{
    std::printf("flight recorder dump (reason: %s)\n",
                str(&doc, "reason", "?").c_str());
    std::printf("  %.0f events recorded, %.0f overwritten (ring capacity "
                "%.0f)\n",
                num(&doc, "recorded"), num(&doc, "overwritten"),
                num(&doc, "capacity"));
    const JsonValue *by_type = doc.find("byType");
    if (by_type != nullptr && by_type->isObject()) {
        std::printf("  traffic:");
        for (const auto &[name, count] : by_type->members)
            if (count.numberOr(0.0) > 0.0)
                std::printf(" %s=%.0f", name.c_str(), count.numberOr(0.0));
        std::printf("\n");
    }
    const JsonValue *events = doc.find("events");
    if (events == nullptr || !events->isArray() || events->items.empty()) {
        std::printf("  (no event bodies in this artifact)\n\n");
        return;
    }
    const double t0 = num(&events->items.front(), "tsNs");

    // Serve-engine dumps interleave several streams; events from them
    // carry a "stream" key (single-stream events omit it). When any is
    // present, add a stream column so the log demuxes at a glance and
    // print the per-stream traffic split.
    bool multi_stream = false;
    std::map<int, size_t> per_stream;
    for (const JsonValue &e : events->items) {
        const int s = static_cast<int>(num(&e, "stream"));
        per_stream[s]++;
        if (s != 0)
            multi_stream = true;
    }
    if (multi_stream) {
        std::printf("  streams:");
        for (const auto &[s, count] : per_stream) {
            if (s == 0)
                std::printf(" main=%zu", count);
            else
                std::printf(" s%d=%zu", s, count);
        }
        std::printf("\n");
    }
    auto streamCell = [](const JsonValue &e) {
        const double s = num(&e, "stream");
        return s == 0.0 ? std::string("-") : "s" + fmt("%.0f", s);
    };

    // Condensed timeline: every guard/drift-trip/fault/SRAM/warn event.
    TextTable tl;
    if (multi_stream)
        tl.setHeader({"t(ms)", "seq", "strm", "event", "layer", "detail"});
    else
        tl.setHeader({"t(ms)", "seq", "event", "layer", "detail"});
    size_t timeline_rows = 0;
    for (const JsonValue &e : events->items) {
        if (!isTimelineWorthy(e))
            continue;
        std::vector<std::string> row{
            fmt("%.3f", (num(&e, "tsNs") - t0) / 1e6),
            fmt("%.0f", num(&e, "seq"))};
        if (multi_stream)
            row.push_back(streamCell(e));
        row.push_back(str(&e, "type"));
        row.push_back(str(&e, "tag"));
        row.push_back(eventDetail(e));
        tl.addRow(std::move(row));
        timeline_rows++;
    }
    if (timeline_rows > 0) {
        std::printf("\n  guard / drift / fault timeline:\n%s",
                    tl.render().c_str());
    }

    // Shed-severity ranking: request_shed events carry the remaining
    // deadline slack at dequeue in v1 (negative ns — how overdue the
    // request already was). Sorting by it, most negative first, shows
    // which victims of an overload were hurt worst.
    std::vector<const JsonValue *> sheds;
    for (const JsonValue &e : events->items)
        if (str(&e, "type") == "request_shed")
            sheds.push_back(&e);
    if (!sheds.empty()) {
        std::sort(sheds.begin(), sheds.end(),
                  [](const JsonValue *a, const JsonValue *b) {
                      return num(a, "v1") < num(b, "v1");
                  });
        std::printf("\n  shed requests by severity (most overdue "
                    "first):\n");
        TextTable st;
        if (multi_stream)
            st.setHeader({"request", "t(ms)", "strm", "slack(ms)",
                          "overdue(ms)"});
        else
            st.setHeader({"request", "t(ms)", "slack(ms)",
                          "overdue(ms)"});
        const size_t shown = std::min<size_t>(10, sheds.size());
        for (size_t i = 0; i < shown; ++i) {
            const JsonValue &e = *sheds[i];
            std::vector<std::string> row{
                fmt("%.0f", num(&e, "n")),
                fmt("%.3f", (num(&e, "tsNs") - t0) / 1e6)};
            if (multi_stream)
                row.push_back(streamCell(e));
            row.push_back(fmt("%.3f", num(&e, "v1") / 1e6));
            row.push_back(fmt("%.2f", num(&e, "v0")));
            st.addRow(std::move(row));
        }
        std::printf("%s", st.render().c_str());
        if (sheds.size() > shown)
            std::printf("  (+%zu more shed events)\n",
                        sheds.size() - shown);
    }

    // Last-N table: the final approach, every event type.
    const size_t n = std::min(last_n, events->items.size());
    std::printf("\n  last %zu events:\n", n);
    TextTable t;
    if (multi_stream)
        t.setHeader({"t(ms)", "seq", "strm", "type", "layer", "detail"});
    else
        t.setHeader({"t(ms)", "seq", "type", "layer", "detail"});
    for (size_t i = events->items.size() - n; i < events->items.size();
         ++i) {
        const JsonValue &e = events->items[i];
        std::vector<std::string> row{
            fmt("%.3f", (num(&e, "tsNs") - t0) / 1e6),
            fmt("%.0f", num(&e, "seq"))};
        if (multi_stream)
            row.push_back(streamCell(e));
        row.push_back(str(&e, "type"));
        row.push_back(str(&e, "tag"));
        row.push_back(eventDetail(e));
        t.addRow(std::move(row));
    }
    std::printf("%s\n", t.render().c_str());
}

void
renderEventsSummary(const JsonValue &doc)
{
    std::printf("  flight-recorder traffic: %.0f events (%.0f "
                "overwritten):",
                num(&doc, "recorded"), num(&doc, "overwritten"));
    const JsonValue *by_type = doc.find("byType");
    if (by_type != nullptr && by_type->isObject())
        for (const auto &[name, count] : by_type->members)
            if (count.numberOr(0.0) > 0.0)
                std::printf(" %s=%.0f", name.c_str(), count.numberOr(0.0));
    std::printf("\n");
}

// ---- genreuse.prof/1 -----------------------------------------------------

void
renderProf(const JsonValue &doc)
{
    const JsonValue *spans = doc.find("spans");
    if (spans == nullptr || !spans->isArray() || spans->items.empty()) {
        std::printf("profiler export: no spans\n\n");
        return;
    }
    // Wall total = the root spans (paths without '/'); every nested
    // span's share is computed against it.
    double wall_total = 0.0;
    for (const JsonValue &s : spans->items)
        if (str(&s, "path").find('/') == std::string::npos)
            wall_total += num(&s, "totalNs");
    if (wall_total <= 0.0)
        wall_total = 1.0;
    std::vector<const JsonValue *> sorted;
    for (const JsonValue &s : spans->items)
        sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  return num(a, "totalNs") > num(b, "totalNs");
              });
    std::printf("profiler export: top spans by wall time (dropped "
                "events: %.0f)\n",
                num(&doc, "droppedEvents"));
    TextTable t;
    t.setHeader({"span", "count", "total ms", "share", "p95 ms"});
    const size_t top = std::min<size_t>(12, sorted.size());
    for (size_t i = 0; i < top; ++i) {
        const JsonValue *s = sorted[i];
        t.addRow({str(s, "path"), fmt("%.0f", num(s, "count")),
                  fmt("%.3f", num(s, "totalNs") / 1e6),
                  fmt("%.1f%%", 100.0 * num(s, "totalNs") / wall_total),
                  fmt("%.3f", num(s, "p95Ns") / 1e6)});
    }
    std::printf("%s\n", t.render().c_str());
}

// ---- genreuse.guard/1 / genreuse.metrics/1 -------------------------------

void
renderGuard(const JsonValue &doc)
{
    std::printf("  guard: %.0f forwards = %.0f full-reuse + %.0f "
                "recluster-wins + %.0f exact fallbacks | %.0f drift "
                "trips, %.0f deploy downgrades, worst margin %.3f, "
                "last rung %s\n",
                num(&doc, "forwards"), num(&doc, "fullReuse"),
                num(&doc, "reclusterWins"), num(&doc, "exactFallbacks"),
                num(&doc, "driftTrips"), num(&doc, "deployDowngrades"),
                num(&doc, "worstMargin"),
                str(&doc, "lastRung", "?").c_str());
}

void
renderMetrics(const JsonValue &doc)
{
    std::printf("  metrics (non-zero):\n");
    for (const char *group : {"counters", "gauges"}) {
        const JsonValue *obj = doc.find(group);
        if (obj == nullptr || !obj->isObject())
            continue;
        for (const auto &[name, v] : obj->members)
            if (v.numberOr(0.0) != 0.0)
                std::printf("    %-36s %.6g\n", name.c_str(),
                            v.numberOr(0.0));
    }
}

// ---- genreuse.health/1 ---------------------------------------------------

void
renderHealth(const JsonValue &doc)
{
    std::printf("serve engine '%s': %s", str(&doc, "name", "?").c_str(),
                str(&doc, "health", "?").c_str());
    const double level = num(&doc, "overloadLevel");
    if (level > 0.0)
        std::printf(" (overload level %.0f: %s)", level,
                    str(&doc, "overloadMode", "?").c_str());
    std::printf("\n");
    std::printf("  queue %.0f/%.0f | accepted %.0f, completed %.0f, "
                "rejected %.0f, shed %.0f\n",
                num(&doc, "queueDepth"), num(&doc, "queueCapacity"),
                num(&doc, "accepted"), num(&doc, "completed"),
                num(&doc, "rejected"), num(&doc, "shed"));
    std::printf("  failed %.0f (contained panics %.0f) | quarantines "
                "%.0f, respawns %.0f\n",
                num(&doc, "failed"), num(&doc, "containedPanics"),
                num(&doc, "quarantines"), num(&doc, "respawns"));
    const JsonValue *streams = doc.find("streams");
    if (streams != nullptr && streams->isArray() &&
        !streams->items.empty()) {
        TextTable t;
        t.setHeader({"stream", "strikes", "quarantines", "state"});
        for (const JsonValue &s : streams->items) {
            const JsonValue *parked = s.find("parked");
            const bool is_parked =
                parked != nullptr && parked->isBool() && parked->boolean;
            t.addRow({str(&s, "name", "?"),
                      fmt("%.0f", num(&s, "strikes")),
                      fmt("%.0f", num(&s, "quarantines")),
                      is_parked ? "parked" : "serving"});
        }
        std::printf("%s", t.render().c_str());
    }
    std::printf("\n");
}

// ---- genreuse.audit/1 ---------------------------------------------------

/** Audit slots fitted through the raw algo API carry no layer name;
 *  show "-" instead of an empty cell. */
std::string
layerCell(const JsonValue &row)
{
    const std::string name = str(&row, "name");
    return name.empty() ? "-" : name;
}

void
renderAudit(const JsonValue &doc)
{
    const JsonValue *layers = doc.find("layers");
    std::printf("  reuse audit: %zu layers, %.0f clusterings",
                layers != nullptr && layers->isArray()
                    ? layers->items.size()
                    : 0,
                num(&doc, "clusterings"));
    if (num(&doc, "canary_rate") > 0.0 || num(&doc, "canary_samples") > 0.0)
        std::printf(" | accuracy canary: rate %.3g, %.0f samples, %.0f "
                    "breaches",
                    num(&doc, "canary_rate"), num(&doc, "canary_samples"),
                    num(&doc, "canary_breaches"));
    std::printf("\n");
    if (layers != nullptr && layers->isArray() &&
        !layers->items.empty()) {
        TextTable t;
        t.setHeader({"layer", "strm", "fwd", "r_t last", "r_t ewma",
                     "modeled", "gap", "burn mean", "burn max",
                     "reorder", "copy", "canary", "err ewma", "err ci95",
                     "err worst"});
        for (const JsonValue &l : layers->items) {
            const JsonValue *modeled = l.find("modeled_rt");
            const bool canaried = num(&l, "canary_samples") > 0.0;
            const auto canaryCell = [&](const char *key) {
                return canaried ? fmt("%.4g", num(&l, key))
                                : std::string("-");
            };
            t.addRow({layerCell(l),
                      num(&l, "stream") == 0.0
                          ? std::string("-")
                          : "s" + fmt("%.0f", num(&l, "stream")),
                      fmt("%.0f", num(&l, "forwards")),
                      fmt("%.3f", num(&l, "observed_rt_last")),
                      fmt("%.3f", num(&l, "observed_rt_ewma")),
                      modeled != nullptr && modeled->isNumber()
                          ? fmt("%.3f", modeled->number)
                          : std::string("-"),
                      modeled != nullptr && modeled->isNumber()
                          ? fmt("%+.3f", num(&l, "model_gap"))
                          : std::string("-"),
                      fmt("%.3f", num(&l, "burn_mean")),
                      fmt("%.3f", num(&l, "burn_max")),
                      fmt("%.0f", num(&l, "reorder_elems")),
                      fmt("%.0f", num(&l, "copy_elems")),
                      canaried ? fmt("%.0f/", num(&l, "canary_samples")) +
                                     fmt("%.0f", num(&l, "canary_breaches"))
                               : std::string("-"),
                      canaryCell("canary_error_ewma"),
                      canaryCell("canary_error_ci95"),
                      canaryCell("canary_error_worst")});
        }
        std::printf("%s", t.render().c_str());
    }
    const JsonValue *kernels = doc.find("kernels");
    if (kernels != nullptr && kernels->isObject()) {
        std::printf("  kernels:");
        for (const auto &[name, k] : kernels->members) {
            const double inv = num(&k, "invocations");
            if (inv == 0.0)
                continue;
            const double vec = num(&k, "vectors");
            std::printf(" %s=%.0f (r_t %.3f)", name.c_str(), inv,
                        vec > 0.0
                            ? 1.0 - num(&k, "centroids") / vec
                            : 0.0);
        }
        std::printf("\n");
    }
    if (const JsonValue *cc = doc.find("cluster_count"))
        if (num(cc, "count") > 0.0)
            std::printf("  clusters per call: mean %.1f p50 %.0f p90 "
                        "%.0f p99 %.0f max %.0f | centroid occupancy "
                        "p50 %.0f p99 %.0f\n",
                        num(cc, "mean"), num(cc, "p50"), num(cc, "p90"),
                        num(cc, "p99"), num(cc, "max"),
                        num(doc.find("occupancy"), "p50"),
                        num(doc.find("occupancy"), "p99"));
}

// ---- genreuse.rtrace/1 ---------------------------------------------------

/** Top-K slowest requests with the per-span breakdown — the postmortem
 *  answer to "why was request N slow": admission backpressure, queue
 *  wait, the forward itself, or guard verification. */
void
renderRtrace(const JsonValue &doc, size_t slowest_k)
{
    std::printf("request trace: %.0f recorded, %.0f overwritten (ring "
                "%.0f) | %.0f sampled for Chrome trace at rate 1/%.0f "
                "(%.0f dropped)\n",
                num(&doc, "recorded"), num(&doc, "overwritten"),
                num(&doc, "capacity"), num(&doc, "sampled"),
                num(&doc, "sampleRate"), num(&doc, "sampledDropped"));
    const JsonValue *records = doc.find("records");
    if (records == nullptr || !records->isArray() ||
        records->items.empty()) {
        std::printf("  (no request records)\n\n");
        return;
    }

    // Aggregate time split first: where did ALL recorded requests'
    // time go? ("other" = total - admit - queue - forward: completion
    // bookkeeping, histogram updates, callback dispatch.)
    double tot = 0.0, admit = 0.0, queue = 0.0, fwd = 0.0, vfy = 0.0;
    size_t shed_count = 0;
    for (const JsonValue &r : records->items) {
        tot += num(&r, "totalNs");
        admit += num(&r, "admitNs");
        queue += num(&r, "queueNs");
        fwd += num(&r, "forwardNs");
        vfy += num(&r, "verifyNs");
        if (const JsonValue *s = r.find("shed"))
            if (s->isBool() && s->boolean)
                shed_count++;
    }
    const double denom = std::max(1.0, tot);
    std::printf("  time split over %zu records: admit %.1f%%, queue "
                "wait %.1f%%, forward %.1f%% (verify %.1f%%), other "
                "%.1f%% | %zu shed\n",
                records->items.size(), 100.0 * admit / denom,
                100.0 * queue / denom, 100.0 * fwd / denom,
                100.0 * vfy / denom,
                100.0 * (tot - admit - queue - fwd) / denom, shed_count);

    std::vector<const JsonValue *> sorted;
    for (const JsonValue &r : records->items)
        sorted.push_back(&r);
    std::sort(sorted.begin(), sorted.end(),
              [](const JsonValue *a, const JsonValue *b) {
                  return num(a, "totalNs") > num(b, "totalNs");
              });
    const size_t top = std::min(slowest_k, sorted.size());
    std::printf("\n  %zu slowest requests:\n", top);
    TextTable t;
    t.setHeader({"request", "strm", "total ms", "admit ms", "queue ms",
                 "forward ms", "verify ms", "slack ms", "status",
                 "rung"});
    for (size_t i = 0; i < top; ++i) {
        const JsonValue *r = sorted[i];
        const JsonValue *slack = r->find("slackNs");
        const JsonValue *shed = r->find("shed");
        const bool is_shed =
            shed != nullptr && shed->isBool() && shed->boolean;
        const int code = static_cast<int>(num(r, "status"));
        std::string status = errorCodeName(static_cast<ErrorCode>(code));
        if (is_shed)
            status += " (shed)";
        const int rung = static_cast<int>(num(r, "rung"));
        t.addRow({fmt("%.0f", num(r, "id")),
                  num(r, "stream") == 0.0
                      ? std::string("-")
                      : "s" + fmt("%.0f", num(r, "stream")),
                  fmt("%.3f", num(r, "totalNs") / 1e6),
                  fmt("%.3f", num(r, "admitNs") / 1e6),
                  fmt("%.3f", num(r, "queueNs") / 1e6),
                  fmt("%.3f", num(r, "forwardNs") / 1e6),
                  fmt("%.3f", num(r, "verifyNs") / 1e6),
                  slack != nullptr && slack->isNumber()
                      ? fmt("%.3f", slack->number / 1e6)
                      : std::string("-"),
                  status,
                  is_shed ? std::string("-")
                          : rungName(static_cast<GuardRung>(std::min(
                                rung, static_cast<int>(
                                          GuardRung::ExactFallback))))});
    }
    std::printf("%s\n", t.render().c_str());
}

// ---- genreuse.bench/1 (+ suites, + baseline diff) ------------------------

/** lower-is-better result keys, mirroring bench_diff's classifier. */
bool
isCostKey(const std::string &key)
{
    static const char *const kCosts[] = {"latency",  "ms",   "drift",
                                         "error",    "drop", "loss",
                                         "fallback", "shortfall"};
    std::string lower;
    for (char c : key)
        lower += static_cast<char>(std::tolower(c));
    for (const char *c : kCosts)
        if (lower.find(c) != std::string::npos)
            return true;
    return false;
}

/** Index a baseline artifact: bench name -> its "results" object. */
std::map<std::string, const JsonValue *>
indexBaseline(const JsonValue &doc)
{
    std::map<std::string, const JsonValue *> out;
    const std::string schema = str(&doc, "schema");
    if (schema == "genreuse.bench/1") {
        if (const JsonValue *r = doc.find("results"))
            out[str(&doc, "bench")] = r;
    } else if (schema == "genreuse.bench-suite/1") {
        if (const JsonValue *benches = doc.find("benches"))
            for (const JsonValue &b : benches->items)
                if (const JsonValue *r = b.find("results"))
                    out[str(&b, "bench")] = r;
    }
    return out;
}

struct Regression
{
    std::string bench, key;
    double base, cur, pct; //!< pct > 0 means worse
};

void
compareResults(const std::string &bench, const JsonValue &results,
               const JsonValue &baseline, std::vector<Regression> &out)
{
    if (!results.isObject())
        return;
    for (const auto &[key, v] : results.members) {
        if (!v.isNumber())
            continue;
        const JsonValue *b = baseline.find(key);
        if (b == nullptr || !b->isNumber() || b->number == 0.0)
            continue;
        const double delta_pct = 100.0 * (v.number - b->number) /
                                 std::abs(b->number);
        // Normalize so positive = regression regardless of direction.
        const double worse = isCostKey(key) ? delta_pct : -delta_pct;
        out.push_back({bench, key, b->number, v.number, worse});
    }
}

void
renderBench(const JsonValue &doc,
            const std::map<std::string, const JsonValue *> &baseline,
            std::vector<Regression> &regressions)
{
    const std::string name = str(&doc, "bench", "?");
    const JsonValue *smoke = doc.find("smoke");
    std::printf("bench %s%s\n", name.c_str(),
                smoke != nullptr && smoke->isBool() && smoke->boolean
                    ? " (smoke mode)"
                    : "");
    const JsonValue *results = doc.find("results");
    if (results != nullptr && results->isObject()) {
        for (const auto &[key, v] : results->members)
            if (v.isNumber())
                std::printf("  %-36s %.6g\n", key.c_str(), v.number);
        auto it = baseline.find(name);
        if (it != baseline.end())
            compareResults(name, *results, *it->second, regressions);
    }
    if (const JsonValue *extra = doc.find("extra")) {
        if (const JsonValue *g = extra->find("guardEvents"))
            renderGuard(*g);
        if (const JsonValue *ev = extra->find("events"))
            renderEventsSummary(*ev);
        if (const JsonValue *m = extra->find("metrics"))
            renderMetrics(*m);
        if (const JsonValue *p = extra->find("profile")) {
            std::printf("  embedded profile:\n");
            renderProf(*p);
        }
    }
    std::printf("\n");
}

void
renderRegressions(const std::vector<Regression> &regs)
{
    std::vector<Regression> sorted = regs;
    std::sort(sorted.begin(), sorted.end(),
              [](const Regression &a, const Regression &b) {
                  return a.pct > b.pct;
              });
    std::printf("top regressions vs baseline (positive = worse):\n");
    TextTable t;
    t.setHeader({"bench", "result", "baseline", "current", "worse by"});
    size_t shown = 0;
    for (const Regression &r : sorted) {
        if (r.pct <= 0.0 || shown >= 10)
            break;
        t.addRow({r.bench, r.key, fmt("%.6g", r.base), fmt("%.6g", r.cur),
                  fmt("%+.2f%%", r.pct)});
        shown++;
    }
    if (shown == 0)
        std::printf("  none — no compared result got worse.\n\n");
    else
        std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);

    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: %s [--baseline BENCH.json] [--last N] "
                     "[--slowest K] file.json...\n"
                     "renders genreuse events/prof/trace/guard/metrics/"
                     "health/audit/bench/rtrace artifacts as one "
                     "report\n",
                     args.program().c_str());
        return 2;
    }
    const size_t last_n =
        static_cast<size_t>(std::max(1L, args.getInt("last", 20)));
    const size_t slowest_k =
        static_cast<size_t>(std::max(1L, args.getInt("slowest", 10)));

    // Baseline (optional): a BENCH record or merged suite to diff
    // against. Kept alive for the whole run; the index borrows nodes.
    JsonValue baseline_doc;
    std::map<std::string, const JsonValue *> baseline;
    const std::string baseline_path = args.getString("baseline");
    if (!baseline_path.empty()) {
        Expected<JsonValue> parsed = parseJsonFile(baseline_path);
        if (!parsed.ok()) {
            std::fprintf(stderr, "genreuse_inspect: bad --baseline: %s\n",
                         parsed.status().toString().c_str());
            return 1;
        }
        baseline_doc = std::move(*parsed);
        baseline = indexBaseline(baseline_doc);
        if (baseline.empty())
            std::fprintf(stderr,
                         "genreuse_inspect: --baseline %s holds no BENCH "
                         "results; diffs disabled\n",
                         baseline_path.c_str());
    }

    std::vector<Regression> regressions;
    int rc = 0;
    for (const std::string &path : args.positional()) {
        Expected<JsonValue> parsed = parseJsonFile(path);
        if (!parsed.ok()) {
            std::fprintf(stderr, "genreuse_inspect: %s\n",
                         parsed.status().toString().c_str());
            rc = 1;
            continue;
        }
        const JsonValue &doc = *parsed;
        const std::string schema = str(&doc, "schema");
        std::printf("==== %s [%s] ====\n", path.c_str(), schema.c_str());
        if (schema == "genreuse.events/1") {
            renderEvents(doc, last_n);
        } else if (schema == "genreuse.events-summary/1") {
            renderEventsSummary(doc);
        } else if (schema == "genreuse.prof/1") {
            renderProf(doc);
        } else if (schema == "genreuse.guard/1") {
            renderGuard(doc);
            std::printf("\n");
        } else if (schema == "genreuse.metrics/1") {
            renderMetrics(doc);
            std::printf("\n");
        } else if (schema == "genreuse.health/1") {
            renderHealth(doc);
        } else if (schema == "genreuse.audit/1") {
            renderAudit(doc);
            std::printf("\n");
        } else if (schema == "genreuse.rtrace/1") {
            renderRtrace(doc, slowest_k);
        } else if (schema == "genreuse.bench/1") {
            renderBench(doc, baseline, regressions);
        } else if (schema == "genreuse.bench-suite/1") {
            const JsonValue *benches = doc.find("benches");
            if (benches != nullptr && benches->isArray())
                for (const JsonValue &b : benches->items)
                    renderBench(b, baseline, regressions);
        } else {
            std::fprintf(stderr,
                         "genreuse_inspect: %s: unknown schema '%s'\n",
                         path.c_str(), schema.c_str());
            rc = 1;
        }
    }
    if (!baseline.empty() && !regressions.empty())
        renderRegressions(regressions);
    else if (!baseline.empty())
        std::printf("no BENCH results overlapped the baseline.\n");
    return rc;
}
