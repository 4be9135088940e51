#include "reuse_audit.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/eventlog.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "common/streamtag.h"

namespace genreuse {
namespace audit {

namespace detail {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_canary_rate_bits{0};

namespace {

/** EWMA smoothing for the windowed observed-redundancy and canary
 *  error views. */
constexpr double kEwmaAlpha = 0.2;

/** Cluster histograms: counts and occupancies live in the thousands
 *  for real layers, so a small geometry (8 sub-buckets, values to
 *  2^20) keeps the footprint at ~1 KiB per histogram. */
constexpr uint32_t kHistSubBits = 3;
constexpr uint32_t kHistMaxBits = 20;

thread_local int t_suppress = 0;

/** One registry slot; the owner is the fitted algo's serial, so the
 *  guard (recording through inner()) and the algo itself land in the
 *  same slot. */
struct Entry
{
    uint64_t owner = 0;
    LayerAudit data;
};

struct Registry
{
    std::mutex mu;
    std::vector<Entry> entries;
    // Names/models arrive at fit time, usually before the first
    // recorded forward; kept keyed by owner so late-created stream
    // slots inherit them.
    std::vector<std::pair<uint64_t, std::string>> names;
    std::vector<std::pair<uint64_t, double>> modeled;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

struct KernelSlot
{
    std::atomic<uint64_t> invocations{0};
    std::atomic<uint64_t> vectors{0};
    std::atomic<uint64_t> centroids{0};
};

KernelSlot g_kernels[3];
std::atomic<uint64_t> g_clusterings{0};
std::atomic<uint64_t> g_canary_samples{0};
std::atomic<uint64_t> g_canary_breaches{0};

HdrHistogram &
clusterCountHist()
{
    static HdrHistogram h(kHistSubBits, kHistMaxBits);
    return h;
}

HdrHistogram &
occupancyHist()
{
    static HdrHistogram h(kHistSubBits, kHistMaxBits);
    return h;
}

/** Find or create the (owner, stream) slot. Caller holds r.mu. */
LayerAudit &
slotLocked(Registry &r, uint64_t owner, uint16_t stream)
{
    for (Entry &e : r.entries) {
        if (e.owner == owner && e.data.stream == stream)
            return e.data;
    }
    r.entries.emplace_back();
    Entry &e = r.entries.back();
    e.owner = owner;
    e.data.stream = stream;
    for (const auto &n : r.names) {
        if (n.first == owner)
            e.data.name = n.second;
    }
    for (const auto &m : r.modeled) {
        if (m.first == owner) {
            e.data.hasModeled = true;
            e.data.modeled = m.second;
        }
    }
    return e.data;
}

/** Arms before main(): the audit when GENREUSE_AUDIT is a truthy value
 *  ("0" and "" stay off, anything else arms), the canary when
 *  GENREUSE_CANARY parses to a positive rate. A malformed rate is a
 *  user error: warn loudly. */
struct EnvInit
{
    EnvInit()
    {
        const char *v = std::getenv("GENREUSE_AUDIT");
        if (v != nullptr && *v != '\0' &&
            !(v[0] == '0' && v[1] == '\0'))
            setEnabled(true);
        const char *c = std::getenv("GENREUSE_CANARY");
        if (c == nullptr || *c == '\0')
            return;
        char *end = nullptr;
        const double r = std::strtod(c, &end);
        if (end == nullptr || *end != '\0' || !(r >= 0.0)) {
            warn("GENREUSE_CANARY='", c,
                 "' is not a rate in [0, 1]; canary stays disarmed");
            return;
        }
        setCanaryRate(r);
    }
};

EnvInit g_env_init;

} // namespace

bool
suppressed()
{
    return t_suppress > 0;
}

void
recordForwardSlow(uint64_t owner, const ReuseStats &stats)
{
    if (suppressed() || stats.totalVectors == 0)
        return;
    const double r = stats.redundancyRatio();
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        LayerAudit &a = slotLocked(reg, owner, streamtag::current());
        a.lastObserved = r;
        a.ewmaObserved = a.forwards == 0
                             ? r
                             : a.ewmaObserved +
                                   kEwmaAlpha * (r - a.ewmaObserved);
        a.sumObserved += r;
        ++a.forwards;
        a.vectors += stats.totalVectors;
        a.centroids += stats.totalCentroids;
    }
    // Global timeline view (the per-layer split lives in the JSON
    // exports); resolved once — the registry lookup heap-allocates.
    static metrics::Gauge &g_rt = metrics::gauge("audit.observed_rt");
    static metrics::Counter &g_fwd = metrics::counter("audit.forwards");
    g_rt.set(r);
    g_fwd.add();
}

void
recordKernelSlow(Kernel kind, const ReuseStats &local)
{
    if (suppressed())
        return;
    KernelSlot &k = g_kernels[static_cast<size_t>(kind)];
    k.invocations.fetch_add(1, std::memory_order_relaxed);
    k.vectors.fetch_add(local.totalVectors, std::memory_order_relaxed);
    k.centroids.fetch_add(local.totalCentroids,
                          std::memory_order_relaxed);
}

void
recordClusteringSlow(size_t items, size_t clusters, const size_t *sizes)
{
    if (suppressed())
        return;
    (void)items;
    g_clusterings.fetch_add(1, std::memory_order_relaxed);
    clusterCountHist().record(clusters);
    if (sizes != nullptr) {
        for (size_t i = 0; i < clusters; ++i)
            occupancyHist().record(sizes[i]);
    }
}

void
recordTrafficSlow(uint64_t owner, uint64_t reorder_elems,
                  uint64_t copy_elems)
{
    if (suppressed())
        return;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    LayerAudit &a = slotLocked(reg, owner, streamtag::current());
    a.reorderElems += reorder_elems;
    a.copyElems += copy_elems;
}

void
recordBudgetSlow(uint64_t owner, double measured, double budget)
{
    if (suppressed() || budget <= 0.0)
        return;
    const double burn = measured / budget;
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        LayerAudit &a = slotLocked(reg, owner, streamtag::current());
        ++a.burnSamples;
        a.burnSum += burn;
        a.burnMax = std::max(a.burnMax, burn);
    }
    static metrics::Gauge &g_burn = metrics::gauge("audit.burn");
    g_burn.set(burn);
}

void
recordCanarySlow(uint64_t owner, double rel_error, double rel_budget,
                 uint64_t rows, bool breach)
{
    // Not subject to Suppress: the canary only runs inside a guarded
    // forward, never in a fit-time profiling pass.
    double ewma = rel_error;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        LayerAudit &a = slotLocked(reg, owner, streamtag::current());
        a.canaryLast = rel_error;
        a.canaryEwma = a.canarySamples == 0
                           ? rel_error
                           : a.canaryEwma +
                                 kEwmaAlpha * (rel_error - a.canaryEwma);
        ewma = a.canaryEwma;
        ++a.canarySamples;
        const double d = rel_error - a.canaryMean;
        a.canaryMean += d / static_cast<double>(a.canarySamples);
        a.canaryM2 += d * (rel_error - a.canaryMean);
        a.canaryWorst = std::max(a.canaryWorst, rel_error);
        if (breach)
            ++a.canaryBreaches;
    }
    g_canary_samples.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter &c_samples = metrics::counter("canary.samples");
    static metrics::Gauge &g_err = metrics::gauge("canary.error");
    c_samples.add();
    g_err.set(rel_error);
    if (eventlog::enabled() || breach) {
        eventlog::record(eventlog::Type::CanarySample,
                         eventlog::currentTag(), rel_error, rel_budget,
                         ewma, static_cast<uint32_t>(rows),
                         static_cast<uint8_t>(overload::level()));
    }
    if (breach) {
        g_canary_breaches.fetch_add(1, std::memory_order_relaxed);
        static metrics::Counter &c_breaches =
            metrics::counter("canary.breaches");
        c_breaches.add();
        eventlog::record(eventlog::Type::CanaryBreach,
                         eventlog::currentTag(), rel_error, rel_budget,
                         ewma, static_cast<uint32_t>(rows),
                         static_cast<uint8_t>(overload::level()));
    }
}

} // namespace detail

double
LayerAudit::canaryCi95() const
{
    if (canarySamples < 2)
        return 0.0;
    const double n = static_cast<double>(canarySamples);
    return 1.96 * std::sqrt(canaryM2 / (n - 1.0) / n);
}

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

double
canaryRate()
{
    const uint64_t bits =
        detail::g_canary_rate_bits.load(std::memory_order_relaxed);
    double r;
    static_assert(sizeof(r) == sizeof(bits), "double is 64-bit");
    std::memcpy(&r, &bits, sizeof(r));
    return r;
}

void
setCanaryRate(double r)
{
    if (!(r >= 0.0))
        r = 0.0;
    r = std::min(r, 1.0);
    uint64_t bits = 0;
    if (r > 0.0)
        std::memcpy(&bits, &r, sizeof(bits));
    detail::g_canary_rate_bits.store(bits, std::memory_order_relaxed);
}

void
setModeled(uint64_t owner, double modeled_rt)
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    bool found = false;
    for (auto &m : reg.modeled) {
        if (m.first == owner) {
            m.second = modeled_rt;
            found = true;
        }
    }
    if (!found)
        reg.modeled.emplace_back(owner, modeled_rt);
    for (auto &e : reg.entries) {
        if (e.owner == owner) {
            e.data.hasModeled = true;
            e.data.modeled = modeled_rt;
        }
    }
}

void
setName(uint64_t owner, const std::string &name)
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    bool found = false;
    for (auto &n : reg.names) {
        if (n.first == owner) {
            n.second = name;
            found = true;
        }
    }
    if (!found)
        reg.names.emplace_back(owner, name);
    for (auto &e : reg.entries) {
        if (e.owner == owner)
            e.data.name = name;
    }
}

Suppress::Suppress() { ++detail::t_suppress; }
Suppress::~Suppress() { --detail::t_suppress; }

Snapshot
snapshot()
{
    Snapshot s;
    detail::Registry &reg = detail::registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        s.layers.reserve(reg.entries.size());
        for (const detail::Entry &e : reg.entries)
            s.layers.push_back(e.data);
    }
    for (size_t i = 0; i < 3; ++i) {
        s.kernels[i].invocations =
            detail::g_kernels[i].invocations.load(
                std::memory_order_relaxed);
        s.kernels[i].vectors = detail::g_kernels[i].vectors.load(
            std::memory_order_relaxed);
        s.kernels[i].centroids = detail::g_kernels[i].centroids.load(
            std::memory_order_relaxed);
    }
    s.clusterings = detail::g_clusterings.load(std::memory_order_relaxed);
    s.clusterCountHist = detail::clusterCountHist().snapshot();
    s.occupancyHist = detail::occupancyHist().snapshot();
    return s;
}

uint64_t
canarySamples()
{
    return detail::g_canary_samples.load(std::memory_order_relaxed);
}

uint64_t
canaryBreaches()
{
    return detail::g_canary_breaches.load(std::memory_order_relaxed);
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.entries.clear();
        reg.names.clear();
        reg.modeled.clear();
    }
    for (size_t i = 0; i < 3; ++i) {
        detail::g_kernels[i].invocations.store(0,
                                               std::memory_order_relaxed);
        detail::g_kernels[i].vectors.store(0, std::memory_order_relaxed);
        detail::g_kernels[i].centroids.store(0,
                                             std::memory_order_relaxed);
    }
    detail::g_clusterings.store(0, std::memory_order_relaxed);
    detail::g_canary_samples.store(0, std::memory_order_relaxed);
    detail::g_canary_breaches.store(0, std::memory_order_relaxed);
    detail::clusterCountHist().reset();
    detail::occupancyHist().reset();
}

namespace {

const char *
kernelKey(size_t i)
{
    switch (i) {
      case 0:
        return "vertical";
      case 1:
        return "horizontal";
      default:
        return "fc";
    }
}

void
writeLayer(JsonWriter &w, const LayerAudit &a)
{
    w.beginObject();
    w.key("name").value(a.name);
    w.key("stream").value(static_cast<uint64_t>(a.stream));
    w.key("forwards").value(a.forwards);
    w.key("observed_rt_last").value(a.lastObserved);
    w.key("observed_rt_ewma").value(a.ewmaObserved);
    w.key("observed_rt_mean").value(a.meanObserved());
    if (a.hasModeled) {
        w.key("modeled_rt").value(a.modeled);
        w.key("model_gap").value(a.modelGap());
    }
    w.key("vectors").value(a.vectors);
    w.key("centroids").value(a.centroids);
    w.key("reorder_elems").value(a.reorderElems);
    w.key("copy_elems").value(a.copyElems);
    w.key("burn_samples").value(a.burnSamples);
    w.key("burn_mean").value(a.meanBurn());
    w.key("burn_max").value(a.burnMax);
    if (a.canarySamples > 0) {
        w.key("canary_samples").value(a.canarySamples);
        w.key("canary_breaches").value(a.canaryBreaches);
        w.key("canary_error_last").value(a.canaryLast);
        w.key("canary_error_ewma").value(a.canaryEwma);
        w.key("canary_error_mean").value(a.canaryMean);
        w.key("canary_error_ci95").value(a.canaryCi95());
        w.key("canary_error_worst").value(a.canaryWorst);
    }
    w.endObject();
}

void
writeHist(JsonWriter &w, const HdrHistogram::Snapshot &h)
{
    w.beginObject();
    w.key("count").value(h.count);
    w.key("mean").value(h.empty() ? 0.0 : h.mean());
    w.key("p50").value(h.valueAtPercentile(50.0));
    w.key("p90").value(h.valueAtPercentile(90.0));
    w.key("p99").value(h.valueAtPercentile(99.0));
    w.key("max").value(h.max);
    w.endObject();
}

} // namespace

std::string
toJson()
{
    Snapshot s = snapshot();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.audit/1");
    w.key("enabled").value(enabled());
    w.key("canary_rate").value(canaryRate());
    w.key("canary_samples").value(canarySamples());
    w.key("canary_breaches").value(canaryBreaches());
    w.key("layers").beginArray();
    for (const LayerAudit &a : s.layers)
        writeLayer(w, a);
    w.endArray();
    w.key("kernels").beginObject();
    for (size_t i = 0; i < 3; ++i) {
        w.key(kernelKey(i)).beginObject();
        w.key("invocations").value(s.kernels[i].invocations);
        w.key("vectors").value(s.kernels[i].vectors);
        w.key("centroids").value(s.kernels[i].centroids);
        w.endObject();
    }
    w.endObject();
    w.key("clusterings").value(s.clusterings);
    w.key("cluster_count").raw([&] {
        JsonWriter h;
        writeHist(h, s.clusterCountHist);
        return h.str();
    }());
    w.key("occupancy").raw([&] {
        JsonWriter h;
        writeHist(h, s.occupancyHist);
        return h.str();
    }());
    w.endObject();
    return w.str();
}

} // namespace audit
} // namespace genreuse
