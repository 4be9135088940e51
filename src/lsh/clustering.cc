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
 * First-seen cluster ids of @p count items by signature into @p ids;
 * returns the cluster count. Items flagged in @p singleton (when
 * non-null) bypass the signature map and each get a fresh cluster of
 * their own — the repair path for non-finite rows.
 *
 * Signatures of at most kDirectTableBits bits (@p sig_bits, the hash
 * count) index a direct table; wider ones go through an open-addressing
 * table. Both live in the stream arena, and either way ids are
 * assigned in first-seen item order, so the result does not depend on
 * the table.
 */
size_t
assignClusters(const uint64_t *sigs, size_t count, size_t sig_bits,
               const uint8_t *singleton, uint32_t *__restrict ids)
{
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    constexpr uint32_t kEmpty = UINT32_MAX;
    uint32_t nc = 0;
    if (sig_bits <= kDirectTableBits) {
        const size_t table_size = size_t{1} << sig_bits;
        uint32_t *__restrict table = arena.allocSpan<uint32_t>(table_size);
        std::memset(table, 0xff, table_size * sizeof(uint32_t));
        for (size_t i = 0; i < count; ++i) {
            if (singleton && singleton[i]) {
                ids[i] = nc++;
                continue;
            }
            uint32_t &slot = table[sigs[i]];
            if (slot == kEmpty)
                slot = nc++;
            ids[i] = slot;
        }
        return nc;
    }
    // Open-addressing table: pow-2 size at most half full.
    size_t table_size = 16;
    while (table_size < 2 * count)
        table_size <<= 1;
    const size_t mask = table_size - 1;
    uint64_t *keys = arena.allocSpan<uint64_t>(table_size);
    uint32_t *vals = arena.allocSpan<uint32_t>(table_size);
    std::memset(vals, 0xff, table_size * sizeof(uint32_t));
    for (size_t i = 0; i < count; ++i) {
        if (singleton && singleton[i]) {
            ids[i] = nc++;
            continue;
        }
        const uint64_t sig = sigs[i];
        // Fibonacci-style mix; linear probe.
        size_t slot = static_cast<size_t>(
                          (sig ^ (sig >> 29)) * 0x9e3779b97f4a7c15ull) &
                      mask;
        while (vals[slot] != kEmpty && keys[slot] != sig)
            slot = (slot + 1) & mask;
        if (vals[slot] == kEmpty) {
            keys[slot] = sig;
            vals[slot] = nc++;
        }
        ids[i] = vals[slot];
    }
    return nc;
}

/**
 * Cluster sizes into @p sizes (nc) and the CSR membership into
 * @p offsets (nc + 1) and @p members (count): a counting sort over the
 * items, which keeps ascending item order within each cluster.
 */
void
buildMembers(const uint32_t *ids, size_t count, size_t nc, size_t *sizes,
             size_t *offsets, uint32_t *__restrict members)
{
    std::fill(sizes, sizes + nc, size_t{0});
    for (size_t i = 0; i < count; ++i)
        ++sizes[ids[i]];
    offsets[0] = 0;
    for (size_t c = 0; c < nc; ++c)
        offsets[c + 1] = offsets[c] + sizes[c];
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    size_t *cursor = arena.allocSpan<size_t>(nc + 1);
    std::memcpy(cursor, offsets, (nc + 1) * sizeof(size_t));
    for (size_t i = 0; i < count; ++i)
        members[cursor[ids[i]]++] = static_cast<uint32_t>(i);
}

/** True when some element of @p row[0 .. length) is NaN or +/-Inf
 *  (all exponent bits set), checked without a branch per element. */
bool
rowNonFinite(const float *row, size_t length)
{
    constexpr uint32_t kExponent = 0x7f800000u;
    bool bad = false;
    for (size_t j = 0; j < length; ++j) {
        uint32_t u;
        std::memcpy(&u, row + j, sizeof u);
        bad |= (u & kExponent) == kExponent;
    }
    return bad;
}

/**
 * Mean centroids (nc x items.length at @p centroids): the member sums
 * of every cluster, cluster by cluster from the CSR membership (each
 * (cluster, element) sum is 0 plus the members in ascending item
 * order, the sequence an item-major pass would produce), each row
 * then scaled by 1/size. Returns whether some multi-member cluster's
 * mean carries a NaN/Inf — the poisoned-mean symptom of a non-finite
 * input row (see centroidsPoisoned()), checked while the row is hot.
 */
bool
meanCentroids(const GatheredItems &items, const size_t *offsets,
              const uint32_t *members, const size_t *sizes, size_t nc,
              float *centroids)
{
    const size_t l = items.length;
    simd::ops().clusterSums(items.base, items.itemOffset, items.elemOffset,
                            l, offsets, members, nc, centroids);
    bool poisoned = false;
    for (size_t c = 0; c < nc; ++c) {
        float *row = centroids + c * l;
        const float inv = 1.0f / static_cast<float>(sizes[c]);
        for (size_t j = 0; j < l; ++j)
            row[j] *= inv;
        if (sizes[c] > 1)
            poisoned |= rowNonFinite(row, l);
    }
    return poisoned;
}

/** What one grouping pass does: a table probe/update per item, a
 *  per-element accumulate per item and a per-element normalize per
 *  cluster, and the centroid panel store. */
void
chargeGrouping(OpCounts *ops, size_t count, size_t length, size_t nc)
{
    if (!ops)
        return;
    ops->tableOps += count;
    ops->aluOps += count * length + nc * length;
    ops->elemMoves += nc * length;
}

/**
 * Group strided items by signature into @p result: assignments in
 * first-seen order, mean centroids, size histogram and CSR membership,
 * with @p singleton as in assignClusters(). @p result's
 * vectors/centroids are rebuilt in place, reusing capacity. Returns
 * meanCentroids()'s poisoned verdict.
 */
bool
groupBySignature(const StridedItems &items, const uint64_t *sigs,
                 size_t sig_bits, const uint8_t *singleton,
                 ClusterResult &result, OpCounts *ops)
{
    const size_t n = items.count, l = items.length;
    result.assignments.resize(n);
    const size_t nc = assignClusters(sigs, n, sig_bits, singleton,
                                     result.assignments.data());
    result.sizes.resize(nc);
    result.memberOffsets.resize(nc + 1);
    result.memberIndices.resize(n);
    buildMembers(result.assignments.data(), n, nc, result.sizes.data(),
                 result.memberOffsets.data(), result.memberIndices.data());

    result.centroids.resize({nc == 0 ? 1 : nc, l});
    bool poisoned = false;
    if (n > 0 && l > 0) {
        // The strided view through offset tables, for clusterSums.
        GENREUSE_REQUIRE((n - 1) * items.itemStride +
                                 (l - 1) * items.elemStride <=
                             UINT32_MAX,
                         "item panel too large for 32-bit offsets");
        Arena &arena = Arena::forCurrentStream();
        ArenaFrame frame(arena);
        uint32_t *item_off = arena.allocSpan<uint32_t>(n);
        uint32_t *elem_off = arena.allocSpan<uint32_t>(l);
        for (size_t i = 0; i < n; ++i)
            item_off[i] = static_cast<uint32_t>(i * items.itemStride);
        for (size_t j = 0; j < l; ++j)
            elem_off[j] = static_cast<uint32_t>(j * items.elemStride);
        GatheredItems gathered{items.base, n, l, item_off, elem_off};
        poisoned = meanCentroids(gathered, result.memberOffsets.data(),
                                 result.memberIndices.data(),
                                 result.sizes.data(), nc,
                                 result.centroids.data());
    }
    if (nc == 0)
        result.centroids.resize({0, l});
    chargeGrouping(ops, n, l, nc);
    return poisoned;
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
centroidsPoisoned(const size_t *sizes, size_t nc, const float *centroids,
                  size_t length)
{
    for (size_t c = 0; c < nc; ++c)
        if (sizes[c] > 1 && rowNonFinite(centroids + c * length, length))
            return true;
    return false;
}

/** Flags, into @p bad, the items with a non-finite element. */
template <typename Items>
void
flagNonFinite(const Items &items, uint8_t *bad)
{
    warnOnce("lsh-nonfinite-items",
             "non-finite item rows detected during clustering; "
             "routing them to singleton clusters");
    for (size_t i = 0; i < items.count; ++i) {
        bad[i] = 0;
        for (size_t j = 0; j < items.length; ++j)
            if (!std::isfinite(items.at(i, j))) {
                bad[i] = 1;
                break;
            }
    }
}

/**
 * Deterministic degenerate clusterings for the fault matrix, on a
 * table of @p count items whose ids are @p assignments and which has
 * @p nc clusters. @p add_phantom appends a size-0 cluster whose
 * centroid is the +Inf garbage a real empty cluster would produce.
 */
template <typename AddPhantom>
void
injectClusterFaults(size_t count, uint32_t *assignments, size_t nc,
                    AddPhantom add_phantom)
{
    using faultpoint::Fault;
    if (faultpoint::active(Fault::ClusterEmpty) && count > 0) {
        // Consumers must reject the phantom via clusterTableValid, not
        // average it in.
        faultpoint::noteFired(Fault::ClusterEmpty);
        add_phantom();
        ++nc;
    }
    if (faultpoint::active(Fault::CorruptClusterIds) && count > 0) {
        // Seeded out-of-range bit-flips in the assignment table, AFTER
        // the CSR build so the table is inconsistent exactly the way a
        // memory corruption would leave it.
        faultpoint::noteFired(Fault::CorruptClusterIds);
        Rng rng(faultpoint::seed(Fault::CorruptClusterIds));
        const size_t flips = std::max<size_t>(1, count / 16);
        for (size_t k = 0; k < flips; ++k) {
            size_t i = rng.uniformInt(count);
            assignments[i] = static_cast<uint32_t>(nc) + 1 +
                             static_cast<uint32_t>(rng.uniformInt(1024));
        }
    }
}

/** The ClusterCollapse fault's signatures for @p count items, or
 *  @p sigs when it is not armed: a pathological family under which
 *  every signature collides, so the panel becomes one giant cluster. */
const uint64_t *
collapseFault(const uint64_t *sigs, size_t count, size_t &sig_bits,
              Arena &arena)
{
    using faultpoint::Fault;
    if (!faultpoint::anyArmed() || !faultpoint::active(Fault::ClusterCollapse))
        return sigs;
    faultpoint::noteFired(Fault::ClusterCollapse);
    uint64_t *collapsed = arena.allocSpan<uint64_t>(count);
    for (size_t i = 0; i < count; ++i)
        collapsed[i] = faultpoint::seed(Fault::ClusterCollapse);
    sig_bits = 64;
    return collapsed;
}

/**
 * The structural checks behind clusterTableValid() on a raw table: no
 * empty cluster, sizes summing to @p n, every id below @p nc, and the
 * CSR @p offsets (nc + 1 entries; may be null) ending at @p n.
 */
bool
tableConsistent(const uint32_t *assignments, size_t n, const size_t *sizes,
                size_t nc, const size_t *offsets)
{
    size_t total = 0;
    bool empty = false;
    for (size_t c = 0; c < nc; ++c) {
        empty |= sizes[c] == 0; // clustering never emits an empty cluster
        total += sizes[c];
    }
    uint32_t max_id = 0;
    for (size_t i = 0; i < n; ++i)
        max_id = std::max(max_id, assignments[i]);
    return !empty && total == n && (n == 0 || max_id < nc) &&
           (!offsets || offsets[nc] == n);
}

/**
 * The realized-reuse metrics (the ReuseSense argument: measure the
 * benefit actually obtained, not just the estimate) and the Cluster
 * journal event for @p calls clusterings of @p items items into
 * @p clusters clusters in total; @p last_ratio is the last one's
 * redundancy ratio. Handles are resolved once; each update is a
 * relaxed atomic RMW.
 */
void
noteClusterings(size_t calls, size_t items, size_t clusters,
                double last_ratio)
{
    static metrics::Counter &calls_made =
        metrics::counter("lsh.cluster_calls");
    static metrics::Counter &items_seen = metrics::counter("lsh.items");
    static metrics::Counter &clusters_made =
        metrics::counter("lsh.clusters");
    static metrics::Gauge &redundancy =
        metrics::gauge("lsh.redundancy_ratio");
    calls_made.add(calls);
    items_seen.add(items);
    clusters_made.add(clusters);
    redundancy.set(last_ratio);
    if (eventlog::enabled()) {
        const double ratio =
            items == 0 ? 0.0
                       : 1.0 - static_cast<double>(clusters) /
                                   static_cast<double>(items);
        eventlog::record(eventlog::Type::Cluster, 0, ratio,
                         static_cast<double>(items), 0.0,
                         static_cast<uint32_t>(clusters));
    }
}

/**
 * The clustering pipeline behind the public entry points. When
 * @p family is non-null the items are hashed here (into arena scratch)
 * and @p sigs is ignored, so the "lsh.cluster" span covers hashing as
 * well as grouping — the hash MACs are charged to the same
 * Stage::Clustering ledger entry.
 */
void
clusterInto(const StridedItems &items, const HashFamily *family,
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
    const uint64_t *use = collapseFault(sigs, items.count, sig_bits, arena);

    if (groupBySignature(items, use, sig_bits, nullptr, result, ops)) {
        // Rare repair path: locate the non-finite rows (full scan is
        // fine here — we only get here when poisoned) and regroup with
        // each one in a singleton cluster, leaving every other cluster
        // mean clean. One pass only: if finite rows overflow a sum to
        // Inf the table stays poisoned and the reuse kernels' validity
        // check downgrades those panels to exact GEMM instead.
        uint8_t *bad = arena.allocSpan<uint8_t>(items.count);
        flagNonFinite(items, bad);
        groupBySignature(items, use, sig_bits, bad, result, ops);
    }

    if (faultpoint::anyArmed()) {
        injectClusterFaults(
            items.count, result.assignments.data(), result.numClusters(),
            [&] {
                const size_t nc = result.numClusters(), l = items.length;
                Tensor grown({nc + 1, l});
                std::copy(result.centroids.data(),
                          result.centroids.data() + nc * l, grown.data());
                std::fill(grown.data() + nc * l, grown.data() + (nc + 1) * l,
                          std::numeric_limits<float>::infinity());
                result.centroids = std::move(grown);
                result.sizes.push_back(0);
                result.memberOffsets.push_back(result.memberOffsets.back());
            });
    }

    noteClusterings(1, result.numItems(), result.numClusters(),
                    result.redundancyRatio());
}

/**
 * Slice @p k of groupSlicesInto(): groupBySignature() into the slice's
 * place at the end of @p out's flat arrays (slices before it are
 * final; a regroup overwrites the slice). Returns the poisoned
 * verdict.
 */
bool
groupSlice(const GatheredItems &items, size_t k, const uint64_t *sigs,
           size_t sig_bits, const uint8_t *singleton, SliceClusters &out,
           OpCounts *ops)
{
    const size_t n = items.count, l = items.length;
    const size_t c0 = out.clusterBegin[k];
    const size_t nc = assignClusters(sigs, n, sig_bits, singleton,
                                     out.assignments + k * n);
    out.sizes.resize(c0 + nc);
    out.clusterBegin[k + 1] = c0 + nc;
    out.memberOffsets.resize(c0 + k + nc + 1);
    buildMembers(out.ids(k), n, nc, out.sizes.data() + c0,
                 out.memberOffsets.data() + c0 + k, out.memberIndices + k * n);
    // After the scratch frames above: the centroids stay in the
    // caller's frame.
    out.centroids[k] = Arena::forCurrentStream().allocSpan<float>(nc * l);
    const bool poisoned =
        meanCentroids(items, out.offsetsOf(k), out.membersOf(k),
                      out.sizesOf(k), nc, out.centroids[k]);
    chargeGrouping(ops, n, l, nc);
    return poisoned;
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
groupSlicesInto(const GatheredItems &items, size_t sliceLength,
                const uint64_t *sigs, const std::vector<HashFamily> &families,
                SliceClusters &out, OpCounts *ops)
{
    const size_t ns = families.size(), n = items.count;
    GENREUSE_REQUIRE(sliceLength > 0 &&
                         (ns == 0 || (ns - 1) * sliceLength < items.length),
                     "slices do not cover the items");
    Arena &arena = Arena::forCurrentStream();
    out.numItems = n;
    out.assignments = arena.allocSpan<uint32_t>(ns * n);
    out.memberIndices = arena.allocSpan<uint32_t>(ns * n);
    out.centroids.resize(ns);
    out.valid.resize(ns);
    out.clusterBegin.assign(ns + 1, 0);
    out.sizes.clear();
    out.memberOffsets.clear();

    // No per-slice frame: every span allocated here is part of the
    // table (or rare fault and repair scratch) and lives until the
    // caller's frame ends.
    for (size_t k = 0; k < ns; ++k) {
        const size_t col0 = k * sliceLength;
        GatheredItems slice = items;
        slice.elemOffset = items.elemOffset + col0;
        slice.length = std::min(sliceLength, items.length - col0);
        const HashFamily &family = families[k];
        GENREUSE_REQUIRE(family.vectorLength() == slice.length,
                         "slice ", k, " does not match its hash family");
        if (ops)
            ops->macs += family.hashMacs(n);
        size_t sig_bits = family.numFunctions();
        const uint64_t *use = collapseFault(sigs + k * n, n, sig_bits, arena);

        bool poisoned = groupSlice(slice, k, use, sig_bits, nullptr, out, ops);
        if (poisoned) {
            // clusterInto()'s repair path, for this slice.
            uint8_t *bad = arena.allocSpan<uint8_t>(n);
            flagNonFinite(slice, bad);
            poisoned = groupSlice(slice, k, use, sig_bits, bad, out, ops);
        }
        if (faultpoint::anyArmed()) {
            injectClusterFaults(
                n, out.assignments + k * n, out.numClusters(k), [&] {
                    const size_t nc = out.numClusters(k), l = slice.length;
                    float *grown = arena.allocSpan<float>((nc + 1) * l);
                    std::copy(out.centroids[k], out.centroids[k] + nc * l,
                              grown);
                    std::fill(grown + nc * l, grown + (nc + 1) * l,
                              std::numeric_limits<float>::infinity());
                    out.centroids[k] = grown;
                    out.sizes.push_back(0);
                    out.memberOffsets.push_back(out.memberOffsets.back());
                    ++out.clusterBegin[k + 1];
                });
        }
        // clusterTableValid(), with the centroid scan above: fault
        // injection changes no multi-member centroid.
        out.valid[k] = !poisoned && tableConsistent(out.ids(k), n,
                                                  out.sizesOf(k),
                                                  out.numClusters(k),
                                                  out.offsetsOf(k));
    }

    const size_t clusters = out.clusterBegin[ns];
    const double last_ratio =
        ns == 0 || n == 0
            ? 0.0
            : 1.0 - static_cast<double>(out.numClusters(ns - 1)) /
                        static_cast<double>(n);
    noteClusterings(ns, ns * n, clusters, last_ratio);
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
    if (n > 0 && (clusters.centroids.shape().rank() != 2 ||
                  clusters.centroids.shape().dim(0) < nc))
        return false;
    const bool has_offsets = clusters.memberOffsets.size() == nc + 1;
    // Multi-member means must be finite (a poisoned average); a
    // singleton's centroid is its row, so non-finite is faithful there.
    return tableConsistent(clusters.assignments.data(), n,
                           clusters.sizes.data(), nc,
                           has_offsets ? clusters.memberOffsets.data()
                                       : nullptr) &&
           !centroidsPoisoned(clusters.sizes.data(), nc,
                              clusters.centroids.data(),
                              nc > 0 ? clusters.centroids.shape().dim(1)
                                     : 0);
}

namespace {

/** CSR membership from assignments alone, for ClusterResults
 *  assembled without clusterSignatures(). */
void
buildMembership(const ClusterResult &clusters,
                std::vector<uint32_t> &indices, std::vector<size_t> &offsets)
{
    const size_t nc = clusters.numClusters();
    std::vector<size_t> sizes(nc);
    offsets.resize(nc + 1);
    indices.resize(clusters.numItems());
    buildMembers(clusters.assignments.data(), clusters.numItems(), nc,
                 sizes.data(), offsets.data(), indices.data());
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

    // Each multi-member cluster's deviations x_i - μ, formed once in
    // float (the power iteration's own first operation) into a
    // member-major panel in CSR member order. The panel is refilled
    // per cluster, so it is sized for the largest one. A singleton's
    // λmax is 0, so it gets no rows.
    const size_t l = items.length;
    const size_t nc = clusters.numClusters();
    size_t rows = 0;
    for (size_t c = 0; c < nc; ++c)
        if (clusters.sizes[c] > 1)
            rows = std::max<size_t>(rows, clusters.sizes[c]);
    Arena &arena = Arena::forCurrentStream();
    ArenaFrame frame(arena);
    float *dev = arena.allocSpan<float>(rows * l);
    double *v = arena.allocSpan<double>(l);
    double *av = arena.allocSpan<double>(l);
    const simd::Ops &ops = simd::ops();

    double total = 0.0;
    for (uint32_t c = 0; c < nc; ++c) {
        const size_t m = clusters.sizes[c];
        if (m <= 1)
            continue;
        const float *mu = clusters.centroids.data() + c * l;
        const uint32_t *members = indices + offsets[c];
        for (size_t k = 0; k < m; ++k)
            for (size_t j = 0; j < l; ++j)
                dev[k * l + j] = items.at(members[k], j) - mu[j];

        // Deterministic start vector; re-seeded from the cluster id so
        // different clusters don't share a degenerate start.
        for (size_t j = 0; j < l; ++j)
            v[j] = 1.0 +
                   0.01 * static_cast<double>((j * 2654435761u + c) % 97);
        double norm = 0.0;
        for (size_t j = 0; j < l; ++j)
            norm += v[j] * v[j];
        norm = std::sqrt(norm);
        for (size_t j = 0; j < l; ++j)
            v[j] /= norm;

        total += ops.lambdaMax(dev, m, l, max_iters, v, av) *
                 static_cast<double>(m);
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
