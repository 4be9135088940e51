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
 * clusterBySignatureInto() over gathered items — an im2col slice read
 * in place from the padded input. Hashing, first-seen ids, centroid
 * sums in ascending item order, the non-finite repair, fault
 * injection and every counter are the same pipeline, so the result is
 * identical to clustering the materialized slice.
 */
void clusterBySignatureInto(const GatheredItems &items,
                            const HashFamily &family, ClusterResult &result,
                            OpCounts *ops = nullptr);

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
