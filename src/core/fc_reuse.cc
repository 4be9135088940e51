#include "fc_reuse.h"

#include <cstring>

#include "common/arena.h"
#include "common/eventlog.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "guard.h"
#include "lsh/clustering.h"
#include "reuse_audit.h"
#include "stream_context.h"
#include "tensor/gemm.h"

namespace genreuse {

Tensor
fcExactForward(const Tensor &x, const Tensor &w, const Tensor &bias)
{
    Tensor y = matmul(x, w);
    if (bias.size() == y.shape().cols()) {
        for (size_t r = 0; r < y.shape().rows(); ++r)
            for (size_t c = 0; c < y.shape().cols(); ++c)
                y.at2(r, c) += bias[c];
    }
    return y;
}

Tensor
fcReuseForward(const Tensor &x, const Tensor &w, const Tensor &bias,
               size_t segment_len, const HashFamily &family,
               OpLedger *ledger, ReuseStats *stats)
{
    Tensor y;
    fcReuseForwardInto(x, w, bias, segment_len, family, ledger, stats, y);
    return y;
}

void
fcReuseForwardInto(const Tensor &x, const Tensor &w, const Tensor &bias,
                   size_t segment_len, const HashFamily &family,
                   OpLedger *ledger, ReuseStats *stats, Tensor &y)
{
    GENREUSE_REQUIRE(x.shape().rank() == 2 && w.shape().rank() == 2,
                     "fcReuseForward expects matrices");
    const size_t n = x.shape().rows(), f = x.shape().cols();
    GENREUSE_REQUIRE(w.shape().rows() == f, "x/w inner dim mismatch");
    const size_t o = w.shape().cols();
    GENREUSE_REQUIRE(segment_len >= 1 && segment_len <= f,
                     "segment length out of range");
    GENREUSE_REQUIRE(family.vectorLength() == segment_len,
                     "hash family length mismatches segment length");

    const size_t full_segments = f / segment_len;
    const size_t rem = f - full_segments * segment_len;
    profiler::ProfSpan pspan("fc.reuse");

    y.resize({n, o});
    ReuseStats local;
    local.exactMacs = n * f * o;

    const simd::Ops &simd_ops = simd::ops();
    Arena &arena = Arena::forCurrentStream();
    // Per-stream cluster scratch (see vertical_reuse.cc for why this
    // is context state, not thread_local).
    ClusterResult &clusters =
        StreamContext::current().clusterScratch(StreamContext::kFc);

    for (size_t row = 0; row < n; ++row) {
        const float *xr = x.data() + row * f;
        float *yr = y.data() + row * o;
        std::memset(yr, 0, o * sizeof(float)); // centroid GEMMs accumulate
        ArenaFrame frame(arena); // per-row scratch

        // Cluster this sample's segments.
        StridedItems items;
        items.base = xr;
        items.count = full_segments;
        items.length = segment_len;
        items.itemStride = segment_len;
        items.elemStride = 1;
        OpCounts cluster_ops;
        clusterBySignatureInto(items, family, clusters, &cluster_ops);
        audit::recordClustering(clusters.numItems(), clusters.numClusters(),
                                clusters.sizes.data());
        if (!clusterTableValid(clusters)) {
            // Corrupted/degenerate segment table: exact product for
            // this row (full feature range, incl. trailing segment).
            guard::noteKernelFallback("fc");
            reportOps(ledger, Stage::Clustering, cluster_ops);
            local.reuseMacs += cluster_ops.macs;
            gemmRaw(xr, w.data(), yr, 1, o, f, f, o, o, false);
            local.reuseMacs += f * o;
            local.numPanels += 1;
            OpCounts mm;
            mm.macs = f * o;
            reportOps(ledger, Stage::Gemm, mm);
            if (bias.size() == o) {
                for (size_t c = 0; c < o; ++c)
                    yr[c] += bias[c];
            }
            continue;
        }
        const size_t nc = clusters.numClusters();
        local.totalVectors += full_segments;
        local.totalCentroids += nc;
        local.numPanels += 1;

        local.reuseMacs += cluster_ops.macs;
        reportOps(ledger, Stage::Clustering, cluster_ops);

        // Sum-reduce weight blocks per cluster, then multiply by the
        // centroids: y = Σ_c centroid_c x Wsum_c.
        float *wsum = arena.allocSpan<float>(nc * segment_len * o);
        std::memset(wsum, 0, nc * segment_len * o * sizeof(float));
        for (size_t k = 0; k < full_segments; ++k) {
            const float *wk = w.data() + k * segment_len * o;
            float *dst = wsum + clusters.assignments[k] * segment_len * o;
            simd_ops.addInto(dst, wk, segment_len * o);
        }
        {
            OpCounts rc;
            rc.aluOps = full_segments * segment_len * o; // = F x O adds
            reportOps(ledger, Stage::Recovering, rc);
        }

        for (size_t c = 0; c < nc; ++c) {
            gemmRaw(clusters.centroids.data() + c * segment_len,
                    wsum + c * segment_len * o, yr, 1, o,
                    segment_len, segment_len, o, o, /*accumulate=*/true);
        }
        const size_t gemm_macs = nc * segment_len * o;
        local.reuseMacs += gemm_macs;
        OpCounts mm;
        mm.macs = gemm_macs;
        reportOps(ledger, Stage::Gemm, mm);

        // Trailing partial segment: exact.
        if (rem > 0) {
            gemmRaw(xr + full_segments * segment_len,
                    w.data() + full_segments * segment_len * o, yr, 1, o,
                    rem, rem, o, o, true);
            local.reuseMacs += rem * o;
            OpCounts rem_mm;
            rem_mm.macs = rem * o;
            reportOps(ledger, Stage::Gemm, rem_mm);
        }

        if (bias.size() == o) {
            for (size_t c = 0; c < o; ++c)
                yr[c] += bias[c];
        }
    }

    if (eventlog::enabled())
        eventlog::record(eventlog::Type::KernelReuse, 0,
                         local.redundancyRatio(),
                         static_cast<double>(local.totalVectors), 0.0,
                         static_cast<uint32_t>(local.totalCentroids),
                         /*a8=*/2);
    audit::recordKernel(audit::Kernel::Fc, local);
    if (stats)
        *stats += local;
}

} // namespace genreuse
