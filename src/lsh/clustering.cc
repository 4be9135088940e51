#include "clustering.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/arena.h"
#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/profiler.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/reuse_audit.h"

namespace genreuse {

double
ClusterResult::redundancyRatio() const
{
    if (numItems() == 0)
        return 0.0;
    return 1.0 - static_cast<double>(numClusters()) /
                 static_cast<double>(numItems());
}

ClusterResult
clusterBySignature(const StridedItems &items, const HashFamily &family,
                   OpCounts *ops)
{
    ClusterResult result;
    clusterBySignatureInto(items, family, result, ops);
    return result;
}

namespace {

/** Signature tables of at most this many bits are direct-indexed. */
constexpr size_t kDirectTableBits = 12;

/**
 * The unscaled sum rows of every cluster (centroids' first nc rows),
 * cluster by cluster from the CSR membership: each (cluster, element)
 * sum is 0 plus the members in ascending item order, the sequence an
 * item-major pass over the items would produce.
 */
void
sumClusters(const GatheredItems &items, ClusterResult &result)
{
    simd::ops().clusterSums(items.base, items.itemOffset, items.elemOffset,
                            items.length, result.memberOffsets.data(),
                            result.memberIndices.data(),
                            result.numClusters(), result.centroids.data());
}

/** sumClusters() of a strided view, through its offset tables. */
void
sumClusters(const StridedItems &items, ClusterResult &result)
{
    if (items.count == 0 || items.length == 0)
        return;
    GENREUSE_REQUIRE((items.count - 1) * items.itemStride +
                             (items.length - 1) * items.elemStride <=
                         UINT32_MAX,
                     "item panel too large for 32-bit offsets");
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    GatheredItems gathered;
    gathered.base = items.base;
    gathered.count = items.count;
    gathered.length = items.length;
    uint32_t *item_off = arena.allocSpan<uint32_t>(items.count);
    uint32_t *elem_off = arena.allocSpan<uint32_t>(items.length);
    for (size_t i = 0; i < items.count; ++i)
        item_off[i] = static_cast<uint32_t>(i * items.itemStride);
    for (size_t j = 0; j < items.length; ++j)
        elem_off[j] = static_cast<uint32_t>(j * items.elemStride);
    gathered.itemOffset = item_off;
    gathered.elemOffset = elem_off;
    sumClusters(gathered, result);
}

/**
 * Group items by signature into @p result: assignments in first-seen
 * order, mean centroids, size histogram and CSR membership. Items
 * flagged in @p singleton (when non-null) bypass the signature map and
 * each get a fresh cluster of their own — the repair path for
 * non-finite rows.
 *
 * Signatures of at most kDirectTableBits bits (@p sig_bits, the hash
 * count) index a direct table; wider ones go through an open-addressing
 * table. Both live in the stream arena, and either way ids are
 * assigned in first-seen item order, so the result does not depend on
 * the table. @p result's vectors/centroids are rebuilt in place,
 * reusing capacity.
 */
template <typename Items>
void
groupBySignature(const Items &items, const uint64_t *sigs, size_t sig_bits,
                 const uint8_t *singleton, ClusterResult &result,
                 OpCounts *ops)
{
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);

    result.assignments.resize(items.count);
    result.sizes.clear();
    constexpr uint32_t kEmpty = UINT32_MAX;
    // A fresh id starts a size-1 cluster; a hit grows its cluster.
    auto assign = [&](size_t i, uint32_t &id) {
        if (id == kEmpty) {
            id = static_cast<uint32_t>(result.sizes.size());
            result.sizes.push_back(0);
        }
        result.sizes[id]++;
        result.assignments[i] = id;
    };

    if (sig_bits <= kDirectTableBits) {
        const size_t table_size = size_t{1} << sig_bits;
        uint32_t *ids = arena.allocSpan<uint32_t>(table_size);
        std::memset(ids, 0xff, table_size * sizeof(uint32_t));
        for (size_t i = 0; i < items.count; ++i) {
            uint32_t fresh = kEmpty;
            assign(i, singleton && singleton[i] ? fresh : ids[sigs[i]]);
        }
    } else {
        // Open-addressing table: pow-2 size at most half full.
        size_t table_size = 16;
        while (table_size < 2 * items.count)
            table_size <<= 1;
        const size_t mask = table_size - 1;
        uint64_t *keys = arena.allocSpan<uint64_t>(table_size);
        uint32_t *vals = arena.allocSpan<uint32_t>(table_size);
        std::memset(vals, 0xff, table_size * sizeof(uint32_t));
        for (size_t i = 0; i < items.count; ++i) {
            uint32_t fresh = kEmpty;
            if (singleton && singleton[i]) {
                assign(i, fresh);
                continue;
            }
            const uint64_t sig = sigs[i];
            // Fibonacci-style mix; linear probe.
            size_t slot = static_cast<size_t>(
                              (sig ^ (sig >> 29)) * 0x9e3779b97f4a7c15ull) &
                          mask;
            while (vals[slot] != kEmpty && keys[slot] != sig)
                slot = (slot + 1) & mask;
            keys[slot] = sig;
            assign(i, vals[slot]);
        }
    }
    const size_t nc = result.sizes.size();

    // CSR membership: counting sort over items preserves ascending item
    // order within each cluster.
    result.memberOffsets.assign(nc + 1, 0);
    for (size_t c = 0; c < nc; ++c)
        result.memberOffsets[c + 1] = result.memberOffsets[c] +
                                      result.sizes[c];
    result.memberIndices.resize(items.count);
    size_t *cursor = arena.allocSpan<size_t>(nc + 1);
    std::memcpy(cursor, result.memberOffsets.data(),
                (nc + 1) * sizeof(size_t));
    for (size_t i = 0; i < items.count; ++i) {
        uint32_t c = result.assignments[i];
        result.memberIndices[cursor[c]++] = static_cast<uint32_t>(i);
    }

    // Centroids: the member sums, scaled by 1/size.
    const simd::Ops &simd_ops = simd::ops();
    result.centroids.resize({nc == 0 ? 1 : nc, items.length});
    sumClusters(items, result);
    for (size_t c = 0; c < nc; ++c) {
        float inv = 1.0f / static_cast<float>(result.sizes[c]);
        simd_ops.scaleInPlace(result.centroids.data() + c * items.length,
                              inv, items.length);
    }
    if (nc == 0)
        result.centroids.resize({0, items.length});

    if (ops) {
        // What the grouping actually did: one table probe/update per
        // item, a per-element accumulate per item, and a per-element
        // normalize per cluster.
        ops->tableOps += items.count;
        ops->aluOps += items.count * items.length + nc * items.length;
        ops->elemMoves += nc * items.length; // centroid panel store
    }
}

/**
 * True when some multi-member cluster's centroid carries a NaN/Inf —
 * the poisoned-mean symptom of a non-finite input row. Scanning the
 * nc x L centroid panel is much cheaper than scanning the n x L items,
 * and any non-finite member element provably propagates into its
 * cluster's mean, so this misses nothing. A singleton's non-finite
 * centroid IS its row — faithful, not poisoned — and is skipped.
 */
bool
centroidsPoisoned(const ClusterResult &r, size_t length)
{
    for (size_t c = 0; c < r.numClusters(); ++c) {
        if (r.sizes[c] <= 1)
            continue;
        const float *mu = r.centroids.data() + c * length;
        for (size_t j = 0; j < length; ++j)
            if (!std::isfinite(mu[j]))
                return true;
    }
    return false;
}

template <typename Items>
bool
rowFinite(const Items &items, size_t i)
{
    for (size_t j = 0; j < items.length; ++j)
        if (!std::isfinite(items.at(i, j)))
            return false;
    return true;
}

/** Deterministic degenerate clusterings for the fault matrix. */
template <typename Items>
void
injectClusterFaults(const Items &items, ClusterResult &result)
{
    using faultpoint::Fault;
    if (faultpoint::active(Fault::ClusterEmpty) && items.count > 0) {
        // A phantom size-0 cluster whose centroid is the 0/0-style
        // garbage a real empty cluster would produce. Consumers must
        // reject it via clusterTableValid, not average it in.
        faultpoint::noteFired(Fault::ClusterEmpty);
        const size_t nc = result.numClusters();
        Tensor grown({nc + 1, items.length});
        for (size_t j = 0; j < nc * items.length; ++j)
            grown.data()[j] = result.centroids.data()[j];
        for (size_t j = 0; j < items.length; ++j)
            grown.data()[nc * items.length + j] =
                std::numeric_limits<float>::infinity();
        result.centroids = std::move(grown);
        result.sizes.push_back(0);
        result.memberOffsets.push_back(result.memberOffsets.back());
    }
    if (faultpoint::active(Fault::CorruptClusterIds) &&
        items.count > 0) {
        // Seeded out-of-range bit-flips in the assignment table, AFTER
        // the CSR build so the table is inconsistent exactly the way a
        // memory corruption would leave it.
        faultpoint::noteFired(Fault::CorruptClusterIds);
        Rng rng(faultpoint::seed(Fault::CorruptClusterIds));
        const size_t flips = std::max<size_t>(1, items.count / 16);
        const uint32_t nc =
            static_cast<uint32_t>(result.numClusters());
        for (size_t k = 0; k < flips; ++k) {
            size_t i = rng.uniformInt(items.count);
            result.assignments[i] =
                nc + 1 + static_cast<uint32_t>(rng.uniformInt(1024));
        }
    }
}

/**
 * The clustering pipeline behind both public entry points. When
 * @p family is non-null the items are hashed here (into arena scratch)
 * and @p sigs is ignored, so the "lsh.cluster" span covers hashing as
 * well as grouping — the hash MACs are charged to the same
 * Stage::Clustering ledger entry.
 */
template <typename Items>
void
clusterInto(const Items &items, const HashFamily *family,
            const uint64_t *sigs, ClusterResult &result, OpCounts *ops)
{
    profiler::ProfSpan pspan("lsh.cluster");
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);

    if (family) {
        if (ops)
            ops->macs += family->hashMacs(items.count);
        uint64_t *own = arena.allocSpan<uint64_t>(items.count);
        family->signaturesInto(items, own);
        sigs = own;
    }

    // Precomputed signatures may use any of the 64 bits.
    size_t sig_bits = family ? family->numFunctions() : 64;
    const uint64_t *use = sigs;
    if (faultpoint::anyArmed() &&
        faultpoint::active(faultpoint::Fault::ClusterCollapse)) {
        // Simulate a pathological hash family: every signature
        // collides, so the whole panel becomes one giant cluster.
        faultpoint::noteFired(faultpoint::Fault::ClusterCollapse);
        uint64_t *collapsed = arena.allocSpan<uint64_t>(items.count);
        for (size_t i = 0; i < items.count; ++i)
            collapsed[i] = faultpoint::seed(faultpoint::Fault::ClusterCollapse);
        use = collapsed;
        sig_bits = 64;
    }

    groupBySignature(items, use, sig_bits, nullptr, result, ops);

    if (centroidsPoisoned(result, items.length)) {
        // Rare repair path: locate the non-finite rows (full scan is
        // fine here — we only get here when poisoned) and regroup with
        // each one in a singleton cluster, leaving every other cluster
        // mean clean. One pass only: if finite rows overflow a sum to
        // Inf the table stays poisoned and the reuse kernels' validity
        // check downgrades those panels to exact GEMM instead.
        warnOnce("lsh-nonfinite-items",
                 "non-finite item rows detected during clustering; "
                 "routing them to singleton clusters");
        uint8_t *bad = arena.allocSpan<uint8_t>(items.count);
        for (size_t i = 0; i < items.count; ++i)
            bad[i] = rowFinite(items, i) ? 0 : 1;
        groupBySignature(items, use, sig_bits, bad, result, ops);
    }

    if (faultpoint::anyArmed())
        injectClusterFaults(items, result);

    // Realized-reuse metrics (the ReuseSense argument: measure the
    // benefit actually obtained, not just the estimate). Handles are
    // resolved once; each update is a relaxed atomic RMW.
    static metrics::Counter &calls = metrics::counter("lsh.cluster_calls");
    static metrics::Counter &items_seen = metrics::counter("lsh.items");
    static metrics::Counter &clusters_made =
        metrics::counter("lsh.clusters");
    static metrics::Gauge &redundancy =
        metrics::gauge("lsh.redundancy_ratio");
    calls.add();
    items_seen.add(result.numItems());
    clusters_made.add(result.numClusters());
    redundancy.set(result.redundancyRatio());
    audit::recordClustering(result.numItems(), result.numClusters(),
                            result.sizes.data());
    if (eventlog::enabled())
        eventlog::record(eventlog::Type::Cluster, 0,
                         result.redundancyRatio(),
                         static_cast<double>(result.numItems()), 0.0,
                         static_cast<uint32_t>(result.numClusters()));
}

} // namespace

void
clusterSignaturesInto(const StridedItems &items, const uint64_t *sigs,
                      ClusterResult &result, OpCounts *ops)
{
    clusterInto(items, nullptr, sigs, result, ops);
}

void
clusterBySignatureInto(const StridedItems &items, const HashFamily &family,
                       ClusterResult &result, OpCounts *ops)
{
    clusterInto(items, &family, nullptr, result, ops);
}

void
clusterBySignatureInto(const GatheredItems &items, const HashFamily &family,
                       ClusterResult &result, OpCounts *ops)
{
    clusterInto(items, &family, nullptr, result, ops);
}

ClusterResult
clusterSignatures(const StridedItems &items,
                  const std::vector<uint64_t> &sigs, OpCounts *ops)
{
    GENREUSE_REQUIRE(sigs.size() == items.count,
                     "signature count mismatches item count");
    ClusterResult result;
    clusterSignaturesInto(items, sigs.data(), result, ops);
    return result;
}

bool
clusterTableValid(const ClusterResult &clusters)
{
    const size_t nc = clusters.numClusters();
    const size_t n = clusters.numItems();

    size_t total = 0;
    for (size_t c = 0; c < nc; ++c) {
        if (clusters.sizes[c] == 0)
            return false; // clustering never emits an empty cluster
        total += clusters.sizes[c];
    }
    if (total != n)
        return false;
    if (n > 0 && (clusters.centroids.shape().rank() != 2 ||
                  clusters.centroids.shape().dim(0) < nc))
        return false;
    for (size_t i = 0; i < n; ++i)
        if (clusters.assignments[i] >= nc)
            return false;
    if (clusters.memberOffsets.size() == nc + 1 &&
        clusters.memberOffsets[nc] != n)
        return false;

    // Multi-member means must be finite (a poisoned average); a
    // singleton's centroid is its row, so non-finite is faithful there.
    const size_t l = nc > 0 ? clusters.centroids.shape().dim(1) : 0;
    for (size_t c = 0; c < nc; ++c) {
        if (clusters.sizes[c] <= 1)
            continue;
        const float *mu = clusters.centroids.data() + c * l;
        for (size_t j = 0; j < l; ++j)
            if (!std::isfinite(mu[j]))
                return false;
    }
    return true;
}

namespace {

/**
 * Largest eigenvalue of the covariance matrix of one cluster's items,
 * via power iteration performed implicitly (never materializing the
 * L x L covariance): Cov * v = (1/m) Σ_i d_i (d_i . v), d_i = x_i - μ.
 *
 * @p members lists the cluster's item indices in ascending order, so
 * each iteration touches only the cluster's m items instead of scanning
 * the whole panel (the old O(items x clusters x iters) behavior), and
 * the float accumulation order — hence the result — is unchanged.
 */
double
clusterLambdaMax(const StridedItems &items, const ClusterResult &clusters,
                 uint32_t cluster, const uint32_t *members,
                 size_t max_iters)
{
    const size_t l = items.length;
    const size_t m = clusters.sizes[cluster];
    if (m <= 1)
        return 0.0;

    const float *mu = clusters.centroids.data() + cluster * l;

    // Deterministic start vector; re-seeded from the cluster id so
    // different clusters don't share a degenerate start.
    std::vector<double> v(l);
    for (size_t j = 0; j < l; ++j)
        v[j] = 1.0 + 0.01 * static_cast<double>((j * 2654435761u + cluster) % 97);
    double norm = 0.0;
    for (double x : v)
        norm += x * x;
    norm = std::sqrt(norm);
    for (double &x : v)
        x /= norm;

    double lambda = 0.0;
    std::vector<double> av(l);
    for (size_t iter = 0; iter < max_iters; ++iter) {
        std::fill(av.begin(), av.end(), 0.0);
        for (size_t k = 0; k < m; ++k) {
            const size_t i = members[k];
            double dot = 0.0;
            for (size_t j = 0; j < l; ++j)
                dot += (items.at(i, j) - mu[j]) * v[j];
            for (size_t j = 0; j < l; ++j)
                av[j] += (items.at(i, j) - mu[j]) * dot;
        }
        for (size_t j = 0; j < l; ++j)
            av[j] /= static_cast<double>(m);

        double av_norm = 0.0;
        for (double x : av)
            av_norm += x * x;
        av_norm = std::sqrt(av_norm);
        if (av_norm < 1e-12)
            return 0.0; // all points equal the centroid
        lambda = av_norm;
        for (size_t j = 0; j < l; ++j)
            v[j] = av[j] / av_norm;
    }
    return lambda;
}

/** Counting-sort CSR membership from assignments alone, for
 *  ClusterResults assembled without clusterSignatures(). */
void
buildMembership(const ClusterResult &clusters,
                std::vector<uint32_t> &indices, std::vector<size_t> &offsets)
{
    const size_t nc = clusters.numClusters();
    offsets.assign(nc + 1, 0);
    for (size_t c = 0; c < nc; ++c)
        offsets[c + 1] = offsets[c] + clusters.sizes[c];
    indices.resize(clusters.numItems());
    std::vector<size_t> cursor = offsets;
    for (size_t i = 0; i < clusters.numItems(); ++i) {
        uint32_t c = clusters.assignments[i];
        indices[cursor[c]++] = static_cast<uint32_t>(i);
    }
}

} // namespace

double
clusterScatterBound(const StridedItems &items, const ClusterResult &clusters,
                    size_t max_iters)
{
    const uint32_t *indices = clusters.memberIndices.data();
    const size_t *offsets = clusters.memberOffsets.data();
    std::vector<uint32_t> fallback_indices;
    std::vector<size_t> fallback_offsets;
    if (clusters.memberOffsets.size() != clusters.numClusters() + 1) {
        buildMembership(clusters, fallback_indices, fallback_offsets);
        indices = fallback_indices.data();
        offsets = fallback_offsets.data();
    }

    double total = 0.0;
    for (uint32_t c = 0; c < clusters.numClusters(); ++c) {
        total += clusterLambdaMax(items, clusters, c, indices + offsets[c],
                                  max_iters) *
                 static_cast<double>(clusters.sizes[c]);
    }
    return total;
}

double
withinClusterScatter(const StridedItems &items, const ClusterResult &clusters)
{
    double total = 0.0;
    const size_t l = items.length;
    for (size_t i = 0; i < items.count; ++i) {
        const float *mu =
            clusters.centroids.data() + clusters.assignments[i] * l;
        for (size_t j = 0; j < l; ++j) {
            double d = items.at(i, j) - mu[j];
            total += d * d;
        }
    }
    return total;
}

} // namespace genreuse
