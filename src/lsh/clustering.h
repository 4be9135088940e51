/**
 * @file
 * Signature-based online clustering of neuron vectors/blocks: items
 * with identical H-bit LSH signatures form one cluster; the cluster's
 * centroid result is reused for every member (§3.1 step 1).
 */

#ifndef GENREUSE_LSH_CLUSTERING_H
#define GENREUSE_LSH_CLUSTERING_H

#include <cstdint>
#include <vector>

#include "common/op_ledger.h"
#include "lsh.h"
#include "tensor/matrix_view.h"
#include "tensor/tensor.h"

namespace genreuse {

/** Output of clustering one panel of neuron vectors. */
struct ClusterResult
{
    /** Cluster id of each item, in [0, numClusters). */
    std::vector<uint32_t> assignments;

    /** numClusters x length matrix of cluster means. */
    Tensor centroids;

    /** Item count per cluster. */
    std::vector<size_t> sizes;

    /**
     * Item indices grouped by cluster (CSR layout): the members of
     * cluster c are memberIndices[memberOffsets[c] ..
     * memberOffsets[c+1]), in ascending item order. Lets per-cluster
     * passes (the scatter bound's power iteration) touch only the
     * cluster's items instead of scanning the whole panel.
     */
    std::vector<uint32_t> memberIndices;
    std::vector<size_t> memberOffsets; //!< numClusters + 1 entries

    size_t numClusters() const { return sizes.size(); }
    size_t numItems() const { return assignments.size(); }

    /**
     * The paper's redundancy ratio for this panel:
     * r_t = 1 - n_c / n (§4.2). 0 when the panel is empty.
     */
    double redundancyRatio() const;
};

/**
 * Cluster the given items by their LSH signatures under @p family and
 * compute mean centroids. When @p ops is non-null the *actual*
 * operation counts of hashing + grouping + centroid math are reported
 * (hash MACs, one table probe per item, centroid accumulate/normalize
 * ALU ops) so callers need not estimate them.
 */
ClusterResult clusterBySignature(const StridedItems &items,
                                 const HashFamily &family,
                                 OpCounts *ops = nullptr);

/**
 * clusterBySignature() for the zero-allocation forward path: hashes
 * into arena scratch and rebuilds @p result in place, reusing the
 * capacity of its vectors/centroids across calls. After a warm-up call
 * has grown the capacities for a panel size, steady-state re-clustering
 * of same-or-smaller panels performs no heap allocation. Results are
 * identical to clusterBySignature (same first-seen cluster ids, same
 * accumulation order).
 */
void clusterBySignatureInto(const StridedItems &items,
                            const HashFamily &family, ClusterResult &result,
                            OpCounts *ops = nullptr);

/**
 * The clusterings of every vertical slice of one layer forward, as
 * groupSlicesInto() builds them. Slice k's table holds exactly what
 * clusterBySignatureInto() builds for its items, in the same fields.
 * The per-item arrays and the centroids are spans in the stream arena
 * of the groupSlicesInto() call, valid until the caller's arena frame
 * ends; the per-cluster vectors are rebuilt in place, so a warm table
 * regroups without heap allocation.
 */
struct SliceClusters
{
    size_t numItems = 0; //!< items per slice

    /** Slice k's cluster ids at [k * numItems, (k + 1) * numItems). */
    uint32_t *assignments = nullptr;

    /** Every slice's cluster sizes, slice after slice: slice k's are
     *  [clusterBegin[k], clusterBegin[k + 1]). */
    std::vector<size_t> sizes;
    std::vector<size_t> clusterBegin; //!< numSlices + 1 entries

    /** Slice k's CSR: numClusters(k) + 1 offsets from clusterBegin[k]
     *  + k, into its members at [k * numItems, (k + 1) * numItems) of
     *  memberIndices (item indices within the slice). */
    std::vector<size_t> memberOffsets;
    uint32_t *memberIndices = nullptr;

    /** Slice k's numClusters(k) x length mean centroids, row-major. */
    std::vector<float *> centroids;

    /** clusterTableValid()'s verdict on each slice's table. */
    std::vector<uint8_t> valid;

    size_t numSlices() const { return valid.size(); }

    size_t
    numClusters(size_t k) const
    {
        return clusterBegin[k + 1] - clusterBegin[k];
    }

    const uint32_t *
    ids(size_t k) const
    {
        return assignments + k * numItems;
    }

    const size_t *
    sizesOf(size_t k) const
    {
        return sizes.data() + clusterBegin[k];
    }

    const size_t *
    offsetsOf(size_t k) const
    {
        return memberOffsets.data() + clusterBegin[k] + k;
    }

    const uint32_t *
    membersOf(size_t k) const
    {
        return memberIndices + k * numItems;
    }

    const float *centroidsOf(size_t k) const { return centroids[k]; }
};

/**
 * Group every vertical slice of one layer forward in one pass. Slice
 * k is elements [k * sliceLength, min(length, (k + 1) * sliceLength))
 * of @p items, hashed by families[k] into sigs[k * items.count ..
 * (k + 1) * items.count). Per slice this is clusterBySignatureInto()
 * without the hashing, in slice order: first-seen ids, sizes, CSR,
 * centroid sums and scaling, the non-finite repair, fault injection
 * (each armed fault fires once per slice) and the validity check.
 * @p ops gets what per-slice calls would report, hash MACs included.
 * The lsh.* metrics and the Cluster journal event are updated once
 * for the layer, with the totals per-slice calls would add (the
 * lsh.redundancy_ratio gauge ends at the last slice's ratio). The
 * table's spans come from the calling stream's arena, in the caller's
 * frame.
 */
void groupSlicesInto(const GatheredItems &items, size_t sliceLength,
                     const uint64_t *sigs,
                     const std::vector<HashFamily> &families,
                     SliceClusters &out, OpCounts *ops = nullptr);

/** clusterSignatures() into a capacity-reusing @p result; @p sigs is a
 *  pointer span of items.count precomputed signatures. */
void clusterSignaturesInto(const StridedItems &items, const uint64_t *sigs,
                           ClusterResult &result, OpCounts *ops = nullptr);

/**
 * Cluster pre-computed signatures (used when the caller already hashed,
 * e.g. to reuse signatures across reuse-direction variants). @p ops as
 * in clusterBySignature, minus the hashing MACs.
 *
 * Non-finite items (a NaN/Inf element anywhere in the row) would
 * silently poison the mean of every cluster they land in; they are
 * instead routed to singleton clusters (detected cheaply through the
 * centroids, so the all-finite fast path pays nothing) with a
 * warn-once log. A singleton's centroid is the row itself, so the
 * member's reconstruction — like the exact GEMM — faithfully carries
 * the non-finite values while every other cluster stays clean.
 */
ClusterResult clusterSignatures(const StridedItems &items,
                                const std::vector<uint64_t> &sigs,
                                OpCounts *ops = nullptr);

/**
 * True when the cluster table is internally consistent: assignments in
 * range and matching the size histogram, no empty cluster, CSR
 * membership covering every item, and finite centroids for every
 * multi-member cluster (a singleton faithfully reproduces its row, so
 * it may carry the row's non-finite values). Reuse kernels validate
 * the table before trusting it — a corrupted table (bit-flip, fault
 * injection) downgrades the panel to exact GEMM instead of reading out
 * of bounds.
 */
bool clusterTableValid(const ClusterResult &clusters);

/**
 * Sum of per-cluster (largest covariance eigenvalue x cluster size),
 * the Σ λmax * m term of the paper's accuracy bound (§4.1). Eigenvalues
 * come from power iteration on each cluster's covariance matrix.
 *
 * @param max_iters power-iteration steps per cluster
 */
double clusterScatterBound(const StridedItems &items,
                           const ClusterResult &clusters,
                           size_t max_iters = 30);

/**
 * Total within-cluster sum of squared deviations from the centroid —
 * the exact (not bounded) counterpart of the scatter term; cheap and
 * used as an alternative accuracy indicator in tests.
 */
double withinClusterScatter(const StridedItems &items,
                            const ClusterResult &clusters);

} // namespace genreuse

#endif // GENREUSE_LSH_CLUSTERING_H
