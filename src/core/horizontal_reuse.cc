#include "horizontal_reuse.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/eventlog.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "guard.h"
#include "lsh/clustering.h"
#include "lsh/learned_hash.h"
#include "reuse_audit.h"
#include "stream_context.h"
#include "tensor/gemm.h"

namespace genreuse {

size_t
HorizontalSlicing::height(size_t i, size_t n) const
{
    const size_t start = i * bandHeight;
    return std::min(bandHeight, n - start);
}

HorizontalSlicing
HorizontalSlicing::plan(size_t n, size_t band_height)
{
    GENREUSE_REQUIRE(n > 0, "empty matrix");
    HorizontalSlicing s;
    s.bandHeight = band_height == 0 ? n : std::min(band_height, n);
    s.numBands = (n + s.bandHeight - 1) / s.bandHeight;
    return s;
}

Tensor
horizontalReuseMultiply(const Tensor &x, const Tensor &w,
                        const HorizontalSlicing &slicing,
                        const std::vector<HashFamily> &families,
                        OpLedger *ledger, ReuseStats *stats)
{
    Tensor y;
    horizontalReuseMultiplyInto(x, w, slicing, families, ledger, stats, y);
    return y;
}

void
horizontalReuseMultiplyInto(const Tensor &x, const Tensor &w,
                            const HorizontalSlicing &slicing,
                            const std::vector<HashFamily> &families,
                            OpLedger *ledger, ReuseStats *stats, Tensor &y)
{
    GENREUSE_REQUIRE(x.shape().rank() == 2 && w.shape().rank() == 2,
                     "reuse multiply expects matrices");
    const size_t n = x.shape().rows(), din = x.shape().cols();
    GENREUSE_REQUIRE(w.shape().rows() == din, "X/W inner dim mismatch");
    const size_t m = w.shape().cols();
    const bool shared_family = families.size() == 1;
    GENREUSE_REQUIRE(shared_family || families.size() == slicing.numBands,
                     "need 1 shared or per-band hash families");
    profiler::ProfSpan pspan("horizontal.reuse");

    y.resize({n, m}); // every band row range is fully written below
    ReuseStats local;
    local.exactMacs = n * din * m;

    const simd::Ops &simd_ops = simd::ops();
    Arena &arena = Arena::forCurrentStream();
    // Per-stream cluster scratch (see vertical_reuse.cc for why this
    // is context state, not thread_local).
    ClusterResult &clusters = StreamContext::current().clusterScratch(
        StreamContext::kHorizontal);

    for (size_t i = 0; i < slicing.numBands; ++i) {
        const size_t row0 = i * slicing.bandHeight;
        const size_t l = slicing.height(i, n);
        const HashFamily &family =
            shared_family ? families[0] : families[i];
        ArenaFrame frame(arena); // per-band scratch

        if (family.vectorLength() != l) {
            // Short trailing band (or mismatched family): exact GEMM.
            gemmRaw(x.data() + row0 * din, w.data(), y.data() + row0 * m,
                    l, m, din, din, m, m, false);
            local.reuseMacs += l * din * m;
            OpCounts mm;
            mm.macs = l * din * m;
            reportOps(ledger, Stage::Gemm, mm);
            continue;
        }

        // ---- cluster the band's columns ----------------------------
        StridedItems items;
        items.base = x.data() + row0 * din;
        items.count = din;
        items.length = l;
        items.itemStride = 1;
        items.elemStride = din;
        OpCounts cluster_ops;
        clusterBySignatureInto(items, family, clusters, &cluster_ops);
        audit::recordClustering(clusters.numItems(), clusters.numClusters(),
                                clusters.sizes.data());
        if (!clusterTableValid(clusters)) {
            // Corrupted/degenerate table: never dereference it — run
            // the band exactly, like the short-band path above.
            guard::noteKernelFallback("horizontal");
            reportOps(ledger, Stage::Clustering, cluster_ops);
            local.reuseMacs += cluster_ops.macs;
            gemmRaw(x.data() + row0 * din, w.data(), y.data() + row0 * m,
                    l, m, din, din, m, m, false);
            local.reuseMacs += l * din * m;
            local.numPanels += 1;
            OpCounts mm;
            mm.macs = l * din * m;
            reportOps(ledger, Stage::Gemm, mm);
            continue;
        }
        const size_t nc = clusters.numClusters();
        local.totalVectors += din;
        local.totalCentroids += nc;
        local.numPanels += 1;

        local.reuseMacs += cluster_ops.macs;
        reportOps(ledger, Stage::Clustering, cluster_ops);

        // ---- build X_i^c (l x nc) and W_i^c (nc x m) ----------------
        float *xc = arena.allocSpan<float>(l * nc);
        float *wc = arena.allocSpan<float>(nc * m);
        {
            profiler::ProfSpan span("horizontal.recover");
            for (size_t c = 0; c < nc; ++c)
                for (size_t j = 0; j < l; ++j)
                    xc[j * nc + c] = clusters.centroids.at2(c, j);

            std::memset(wc, 0, nc * m * sizeof(float));
            for (size_t col = 0; col < din; ++col) {
                const float *wr = w.data() + col * m;
                simd_ops.addInto(wc + clusters.assignments[col] * m, wr, m);
            }
            OpCounts rc;
            rc.aluOps = din * m;    // weight sum-reduction
            rc.elemMoves = l * nc;  // centroid transpose
            reportOps(ledger, Stage::Recovering, rc);
        }

        // ---- band GEMM ----------------------------------------------
        profiler::ProfSpan gemm_span("horizontal.gemm");
        simd_ops.gemmF32(xc, wc, y.data() + row0 * m, l, m, nc, nc, m,
                         m, false);
        const size_t gemm_macs = l * nc * m;
        local.reuseMacs += gemm_macs;
        OpCounts band_mm;
        band_mm.macs = gemm_macs;
        reportOps(ledger, Stage::Gemm, band_mm);
    }

    if (eventlog::enabled())
        eventlog::record(eventlog::Type::KernelReuse, 0,
                         local.redundancyRatio(),
                         static_cast<double>(local.totalVectors), 0.0,
                         static_cast<uint32_t>(local.totalCentroids),
                         /*a8=*/1);
    audit::recordKernel(audit::Kernel::Horizontal, local);
    if (stats)
        *stats += local;
}

std::vector<HashFamily>
randomHorizontalFamilies(const HorizontalSlicing &slicing, size_t n,
                         size_t num_hashes, Rng &rng)
{
    std::vector<HashFamily> families;
    families.reserve(slicing.numBands);
    for (size_t i = 0; i < slicing.numBands; ++i) {
        families.push_back(
            HashFamily::random(num_hashes, slicing.height(i, n), rng));
    }
    return families;
}

std::vector<HashFamily>
learnedHorizontalFamilies(const Tensor &sample_x,
                          const HorizontalSlicing &slicing,
                          size_t num_hashes)
{
    const size_t n = sample_x.shape().rows();
    const size_t din = sample_x.shape().cols();
    std::vector<HashFamily> families;
    families.reserve(slicing.numBands);
    for (size_t i = 0; i < slicing.numBands; ++i) {
        const size_t row0 = i * slicing.bandHeight;
        const size_t l = slicing.height(i, n);
        StridedItems items;
        items.base = sample_x.data() + row0 * din;
        items.count = din;
        items.length = l;
        items.itemStride = 1;
        items.elemStride = din;
        families.push_back(learnHashFamilyPca(items, num_hashes));
    }
    return families;
}

} // namespace genreuse
