/**
 * @file
 * Tests for src/lsh: hash-family signatures, signature clustering,
 * centroid math, the scatter bound, and PCA-learned hash vectors.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/simd.h"
#include "lsh/clustering.h"
#include "lsh/learned_hash.h"
#include "lsh/lsh.h"
#include "tensor/im2col.h"
#include "test_util.h"

namespace genreuse {
namespace {

StridedItems
rowsOf(const Tensor &m)
{
    StridedItems items;
    items.base = m.data();
    items.count = m.shape().rows();
    items.length = m.shape().cols();
    items.itemStride = m.shape().cols();
    items.elemStride = 1;
    return items;
}

TEST(HashFamily, SignatureDeterministic)
{
    Rng rng(1);
    HashFamily f = HashFamily::random(8, 16, rng);
    Tensor m = Tensor::randomNormal({4, 16}, rng);
    auto s1 = f.signatures(rowsOf(m));
    auto s2 = f.signatures(rowsOf(m));
    EXPECT_EQ(s1, s2);
}

TEST(HashFamily, EqualVectorsEqualSignatures)
{
    Rng rng(2);
    HashFamily f = HashFamily::random(6, 8, rng);
    Tensor m({3, 8});
    Rng vals(3);
    for (size_t c = 0; c < 8; ++c) {
        float v = vals.uniformFloat(-1, 1);
        m.at2(0, c) = v;
        m.at2(2, c) = v; // row 2 duplicates row 0
        m.at2(1, c) = vals.uniformFloat(-1, 1);
    }
    auto sigs = f.signatures(rowsOf(m));
    EXPECT_EQ(sigs[0], sigs[2]);
}

TEST(HashFamily, OppositeVectorsOppositeSignature)
{
    Rng rng(4);
    HashFamily f = HashFamily::random(8, 8, rng);
    Tensor m({2, 8});
    for (size_t c = 0; c < 8; ++c) {
        m.at2(0, c) = rng.uniformFloat(0.5f, 1.0f);
        m.at2(1, c) = -m.at2(0, c);
    }
    auto sigs = f.signatures(rowsOf(m));
    // With zero bias, h(-x) = 1 - h(x) (measure-zero ties aside).
    EXPECT_EQ(sigs[0] ^ sigs[1], (uint64_t{1} << 8) - 1);
}

TEST(HashFamily, GemmFastPathMatchesScalarPath)
{
    Rng rng(5);
    HashFamily f = HashFamily::random(10, 12, rng);
    Tensor m = Tensor::randomNormal({30, 12}, rng);
    StridedItems items = rowsOf(m);
    auto fast = f.signatures(items);
    for (size_t i = 0; i < items.count; ++i)
        EXPECT_EQ(fast[i], f.signature(items, i)) << "row " << i;
}

TEST(HashFamily, StridedColumnsHashable)
{
    Rng rng(6);
    Tensor m = Tensor::randomNormal({8, 5}, rng);
    // Hash columns (items strided by 1, elements by ld).
    StridedItems cols;
    cols.base = m.data();
    cols.count = 5;
    cols.length = 8;
    cols.itemStride = 1;
    cols.elemStride = 5;
    HashFamily f = HashFamily::random(4, 8, rng);
    auto sigs = f.signatures(cols);
    EXPECT_EQ(sigs.size(), 5u);
    // Compare one column against a materialized copy.
    Tensor col0({1, 8});
    for (size_t r = 0; r < 8; ++r)
        col0.at2(0, r) = m.at2(r, 0);
    EXPECT_EQ(sigs[0], f.signatures(rowsOf(col0))[0]);
}

TEST(HashFamily, HashMacsFormula)
{
    Rng rng(7);
    HashFamily f = HashFamily::random(5, 20, rng);
    EXPECT_EQ(f.hashMacs(100), 100u * 5u * 20u);
}

TEST(Clustering, IdenticalRowsFormOneCluster)
{
    Rng rng(8);
    Tensor m({10, 6});
    for (size_t r = 0; r < 10; ++r)
        for (size_t c = 0; c < 6; ++c)
            m.at2(r, c) = static_cast<float>(c) + 1.0f;
    HashFamily f = HashFamily::random(8, 6, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    EXPECT_EQ(res.numClusters(), 1u);
    EXPECT_EQ(res.sizes[0], 10u);
    EXPECT_NEAR(res.redundancyRatio(), 0.9, 1e-9);
    for (size_t c = 0; c < 6; ++c)
        EXPECT_NEAR(res.centroids.at2(0, c), c + 1.0f, 1e-6f);
}

TEST(Clustering, PrototypesRecovered)
{
    // Rows drawn from well-separated prototypes should cluster into at
    // most a few clusters and at least the prototype count is an upper
    // bound only when hashes split them; check redundancy is high.
    Rng rng(9);
    Tensor m = test::redundantRows(200, 16, 4, rng, 0.0f);
    HashFamily f = HashFamily::random(10, 16, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    EXPECT_LE(res.numClusters(), 4u);
    EXPECT_GE(res.redundancyRatio(), 0.97);
}

TEST(Clustering, CentroidIsMeanOfMembers)
{
    Rng rng(10);
    Tensor m = Tensor::randomNormal({40, 8}, rng);
    HashFamily f = HashFamily::random(3, 8, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    // Recompute means per cluster and compare.
    for (uint32_t c = 0; c < res.numClusters(); ++c) {
        std::vector<double> mean(8, 0.0);
        size_t count = 0;
        for (size_t r = 0; r < 40; ++r) {
            if (res.assignments[r] != c)
                continue;
            count++;
            for (size_t j = 0; j < 8; ++j)
                mean[j] += m.at2(r, j);
        }
        ASSERT_EQ(count, res.sizes[c]);
        for (size_t j = 0; j < 8; ++j)
            EXPECT_NEAR(res.centroids.at2(c, j), mean[j] / count, 1e-4);
    }
}

TEST(Clustering, AssignmentsInRange)
{
    Rng rng(11);
    Tensor m = Tensor::randomNormal({25, 5}, rng);
    HashFamily f = HashFamily::random(2, 5, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    for (uint32_t a : res.assignments)
        EXPECT_LT(a, res.numClusters());
    size_t total = 0;
    for (size_t s : res.sizes)
        total += s;
    EXPECT_EQ(total, 25u);
}

TEST(Clustering, ScatterZeroForIdenticalMembers)
{
    Rng rng(12);
    Tensor m({6, 4});
    for (size_t r = 0; r < 6; ++r)
        for (size_t c = 0; c < 4; ++c)
            m.at2(r, c) = 1.0f;
    HashFamily f = HashFamily::random(4, 4, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    EXPECT_NEAR(withinClusterScatter(rowsOf(m), res), 0.0, 1e-9);
    EXPECT_NEAR(clusterScatterBound(rowsOf(m), res), 0.0, 1e-9);
}

TEST(Clustering, LambdaMaxBoundBelowTotalScatter)
{
    // Per cluster, λmax * m <= trace(Σ) * m = within-cluster scatter,
    // so the scatter bound is between scatter/L and scatter.
    Rng rng(13);
    Tensor m = test::redundantRows(100, 10, 5, rng, 0.2f);
    HashFamily f = HashFamily::random(6, 10, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);
    double scatter = withinClusterScatter(rowsOf(m), res);
    double bound = clusterScatterBound(rowsOf(m), res);
    EXPECT_LE(bound, scatter + 1e-6);
    EXPECT_GE(bound, scatter / 10.0 - 1e-6);
}

TEST(Clustering, MemberListsAreConsistentCsr)
{
    Rng rng(21);
    Tensor m = test::redundantRows(64, 8, 6, rng, 0.1f);
    HashFamily f = HashFamily::random(5, 8, rng);
    ClusterResult res = clusterBySignature(rowsOf(m), f);

    ASSERT_EQ(res.memberOffsets.size(), res.numClusters() + 1);
    ASSERT_EQ(res.memberIndices.size(), res.numItems());
    EXPECT_EQ(res.memberOffsets.front(), 0u);
    EXPECT_EQ(res.memberOffsets.back(), res.numItems());

    std::vector<bool> seen(res.numItems(), false);
    for (size_t c = 0; c < res.numClusters(); ++c) {
        const size_t begin = res.memberOffsets[c];
        const size_t end = res.memberOffsets[c + 1];
        EXPECT_EQ(end - begin, res.sizes[c]);
        for (size_t k = begin; k < end; ++k) {
            const uint32_t item = res.memberIndices[k];
            ASSERT_LT(item, res.numItems());
            EXPECT_FALSE(seen[item]); // each item in exactly one cluster
            seen[item] = true;
            EXPECT_EQ(res.assignments[item], c);
            if (k > begin) // ascending item order within a cluster
                EXPECT_LT(res.memberIndices[k - 1], item);
        }
    }
}

TEST(Clustering, ScatterBoundBitIdenticalWithoutCsr)
{
    // The member-grouped power iteration must accumulate in the same
    // order as the fallback full-panel scan, so a hand-assembled
    // ClusterResult without the CSR arrays prices identically — to the
    // last bit, not within a tolerance.
    Rng rng(22);
    Tensor m = test::redundantRows(120, 12, 4, rng, 0.3f);
    HashFamily f = HashFamily::random(6, 12, rng);
    ClusterResult with_csr = clusterBySignature(rowsOf(m), f);

    ClusterResult without_csr = with_csr;
    without_csr.memberIndices.clear();
    without_csr.memberOffsets.clear();

    const double fast = clusterScatterBound(rowsOf(m), with_csr);
    const double fallback = clusterScatterBound(rowsOf(m), without_csr);
    EXPECT_EQ(fast, fallback); // exact double equality, by design
}

TEST(Clustering, ScatterBoundSameAtEveryLevelOnStridedItems)
{
    // The power iteration is a dispatched kernel: the scalar oracle and
    // the detected level must price a vertical slice (rows, element
    // stride 1) and a horizontal band (columns, element stride = row
    // width) to the same bits.
    Rng rng(24);
    const size_t rows = 300, cols = 40;
    Tensor m = test::redundantRows(rows, cols, 6, rng, 0.2f);
    StridedItems slice{m.data() + 5, rows, 25, cols, 1};
    StridedItems band{m.data(), cols, 17, 1, cols};
    const simd::Level restore = simd::activeLevel();
    for (const StridedItems &items : {slice, band}) {
        const HashFamily f = HashFamily::random(3, items.length, rng);
        const ClusterResult res = clusterBySignature(items, f);
        double bound[2];
        const simd::Level levels[2] = {simd::Level::Scalar, simd::detect()};
        for (size_t i = 0; i < 2; ++i) {
            ASSERT_TRUE(simd::setActiveLevel(levels[i]).ok());
            bound[i] = clusterScatterBound(items, res);
        }
        EXPECT_GT(bound[0], 0.0);
        EXPECT_EQ(std::memcmp(&bound[0], &bound[1], sizeof(double)), 0)
            << "element stride " << items.elemStride;
    }
    ASSERT_TRUE(simd::setActiveLevel(restore).ok());
}

TEST(Clustering, ReportsActualOpCounts)
{
    Rng rng(23);
    const size_t n = 48, len = 10;
    Tensor m = test::redundantRows(n, len, 4, rng, 0.2f);
    HashFamily f = HashFamily::random(4, len, rng);

    OpCounts ops;
    ClusterResult res = clusterBySignature(rowsOf(m), f, &ops);
    const size_t nc = res.numClusters();

    EXPECT_EQ(ops.macs, f.hashMacs(n));
    EXPECT_EQ(ops.tableOps, n); // one signature probe per item
    // Centroid accumulate (n*len) + normalize (nc*len) ALU work, and
    // the centroid panel store.
    EXPECT_EQ(ops.aluOps, n * len + nc * len);
    EXPECT_EQ(ops.elemMoves, nc * len);

    // Pre-hashed variant: same counts minus the hashing MACs.
    OpCounts ops2;
    clusterSignatures(rowsOf(m), f.signatures(rowsOf(m)), &ops2);
    EXPECT_EQ(ops2.macs, 0u);
    EXPECT_EQ(ops2.tableOps, n);
    EXPECT_EQ(ops2.aluOps, ops.aluOps);
}

TEST(Clustering, OneLayerPassMatchesPerSliceClusterings)
{
    // The fused conv pass hashes every slice of the patches read in
    // place in one sweep (simd::Ops::sliceSignatures) and groups every
    // slice in one pass, with cluster sums from simd::Ops::clusterSums.
    // Each slice must get the clustering of its materialized rows to
    // the bit, and the layer the op counts and lsh.* metric totals of
    // clustering slice by slice: across column orders (runs of taps, or
    // one tap per channel), slice lengths (ragged last slice, one
    // slice), direct and open-addressing signature tables, and
    // non-finite patches routed to singletons by the repair path.
    ConvGeometry g;
    g.batch = 2;
    g.inChannels = 6;
    g.inHeight = 9;
    g.inWidth = 11;
    g.outChannels = 4;
    g.kernelH = g.kernelW = 3;
    g.stride = 1;
    g.pad = 1;
    const size_t n = g.rows(), din = g.cols();
    const size_t pw = g.inWidth + 2, plane = (g.inHeight + 2) * pw;

    Rng rng(31);
    const Tensor planes = test::redundantRows(
        g.batch * g.inChannels, g.inHeight * g.inWidth, 3, rng, 0.05f);
    Tensor x(Shape({g.batch, g.inChannels, g.inHeight, g.inWidth}),
             std::vector<float>(planes.data(),
                                planes.data() + planes.size()));
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f,
                              std::numeric_limits<float>::denorm_min()};
    for (size_t k = 0; k < std::size(kSpecial); ++k)
        x.data()[37 + 131 * k] = kSpecial[k];
    std::vector<float> padded(paddedInputSize(g));
    padInputInto(x, g, padded.data());
    std::vector<uint32_t> row_off(n);
    patchRowOffsets(g, row_off.data());
    simd::PatchGrid grid;
    grid.images = g.batch;
    grid.rows = g.outHeight();
    grid.cols = g.outWidth();
    grid.pitch = pw;
    grid.imageStride = g.inChannels * plane;

    auto tap = [&](size_t c, size_t kh, size_t kw) {
        return static_cast<uint32_t>(c * plane + kh * pw + kw);
    };
    std::vector<std::vector<uint32_t>> orders(3);
    for (size_t c = 0; c < g.inChannels; ++c) // C1: [c][kh][kw]
        for (size_t kh = 0; kh < 3; ++kh)
            for (size_t kw = 0; kw < 3; ++kw)
                orders[0].push_back(tap(c, kh, kw));
    for (size_t kh = 0; kh < 3; ++kh) // C2: [kh][kw][c]
        for (size_t kw = 0; kw < 3; ++kw)
            for (size_t c = 0; c < g.inChannels; ++c)
                orders[1].push_back(tap(c, kh, kw));
    for (size_t kw = 0; kw < 3; ++kw) // KwMajor: [kw][c][kh]
        for (size_t c = 0; c < g.inChannels; ++c)
            for (size_t kh = 0; kh < 3; ++kh)
                orders[2].push_back(tap(c, kh, kw));

    metrics::Counter &calls = metrics::counter("lsh.cluster_calls");
    metrics::Counter &items_seen = metrics::counter("lsh.items");
    metrics::Counter &clusters_made = metrics::counter("lsh.clusters");
    for (size_t o = 0; o < orders.size(); ++o) {
        const GatheredItems all{padded.data(), n, din, row_off.data(),
                                orders[o].data()};
        Tensor matrix({n, din});
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < din; ++j)
                matrix.data()[i * din + j] = all.at(i, j);

        for (size_t slice_len : {size_t(9), size_t(18), size_t(20), din})
            for (size_t h : {size_t(1), size_t(4), size_t(20)}) {
                const size_t ns = (din + slice_len - 1) / slice_len;
                std::vector<HashFamily> fams;
                for (size_t k = 0; k < ns; ++k)
                    fams.push_back(HashFamily::random(
                        h, std::min(slice_len, din - k * slice_len), rng));

                // Per-slice reference on the materialized rows.
                const uint64_t calls0 = calls.get(),
                               items0 = items_seen.get(),
                               clusters0 = clusters_made.get();
                std::vector<ClusterResult> ref(ns);
                OpCounts ref_ops;
                for (size_t k = 0; k < ns; ++k) {
                    StridedItems rows = rowsOf(matrix);
                    rows.base += k * slice_len;
                    rows.length = fams[k].vectorLength();
                    clusterBySignatureInto(rows, fams[k], ref[k], &ref_ops);
                }
                const uint64_t ref_calls = calls.get() - calls0,
                               ref_items = items_seen.get() - items0,
                               ref_clusters = clusters_made.get() - clusters0;

                // The layer pass; its table's spans live in this frame.
                ArenaFrame frame(Arena::forCurrentStream());
                std::vector<uint64_t> sigs(ns * n);
                sliceSignaturesInto(all, grid, slice_len, fams, sigs.data());
                SliceClusters got;
                OpCounts got_ops;
                const uint64_t calls1 = calls.get(),
                               items1 = items_seen.get(),
                               clusters1 = clusters_made.get();
                groupSlicesInto(all, slice_len, sigs.data(), fams, got,
                                &got_ops);
                EXPECT_EQ(calls.get() - calls1, ref_calls);
                EXPECT_EQ(items_seen.get() - items1, ref_items);
                EXPECT_EQ(clusters_made.get() - clusters1, ref_clusters);
                EXPECT_TRUE(got_ops == ref_ops);

                ASSERT_EQ(got.numSlices(), ns);
                for (size_t k = 0; k < ns; ++k) {
                    const ClusterResult &r = ref[k];
                    const size_t nc = got.numClusters(k);
                    const std::string what =
                        "order " + std::to_string(o) + " len " +
                        std::to_string(slice_len) + " h " +
                        std::to_string(h) + " slice " + std::to_string(k);
                    ASSERT_EQ(nc, r.numClusters()) << what;
                    EXPECT_TRUE(std::equal(r.assignments.begin(),
                                           r.assignments.end(), got.ids(k)))
                        << what;
                    EXPECT_TRUE(std::equal(r.sizes.begin(), r.sizes.end(),
                                           got.sizesOf(k)))
                        << what;
                    EXPECT_TRUE(std::equal(r.memberOffsets.begin(),
                                           r.memberOffsets.end(),
                                           got.offsetsOf(k)))
                        << what;
                    EXPECT_TRUE(std::equal(r.memberIndices.begin(),
                                           r.memberIndices.end(),
                                           got.membersOf(k)))
                        << what;
                    EXPECT_EQ(std::memcmp(got.centroidsOf(k),
                                          r.centroids.data(),
                                          nc * fams[k].vectorLength() *
                                              sizeof(float)),
                              0)
                        << what;
                    EXPECT_EQ(got.valid[k] != 0, clusterTableValid(r))
                        << what;
                }
            }
    }
}
TEST(LearnedHash, BeatsRandomOnStructuredData)
{
    // PCA hashing should produce lower mean within-cluster scatter
    // than random hashing on prototype-structured data — the paper's
    // learned-vs-random hashing gap (footnote 1).
    Rng rng(14);
    Tensor m = test::redundantRows(300, 12, 6, rng, 0.15f);
    StridedItems items = rowsOf(m);
    HashFamily learned = learnHashFamilyPca(items, 5);
    double learned_scatter = familyScatterOnSample(learned, items);

    double random_scatter_sum = 0.0;
    const int trials = 5;
    for (int t = 0; t < trials; ++t) {
        Rng r2(100 + t);
        HashFamily random = HashFamily::random(5, 12, r2);
        random_scatter_sum += familyScatterOnSample(random, items);
    }
    EXPECT_LT(learned_scatter, random_scatter_sum / trials);
}

TEST(LearnedHash, StableAcrossCalls)
{
    Rng rng(15);
    Tensor m = test::redundantRows(50, 8, 3, rng, 0.1f);
    HashFamily a = learnHashFamilyPca(rowsOf(m), 4);
    HashFamily b = learnHashFamilyPca(rowsOf(m), 4);
    // Deterministic: identical vectors.
    for (size_t i = 0; i < a.vectors().size(); ++i)
        EXPECT_EQ(a.vectors()[i], b.vectors()[i]);
}

TEST(LearnedHash, MoreFunctionsThanDimensions)
{
    Rng rng(16);
    Tensor m = test::redundantRows(40, 3, 2, rng, 0.05f);
    HashFamily f = learnHashFamilyPca(rowsOf(m), 8);
    EXPECT_EQ(f.numFunctions(), 8u);
    EXPECT_EQ(f.vectorLength(), 3u);
    // Must still hash without error.
    auto sigs = f.signatures(rowsOf(m));
    EXPECT_EQ(sigs.size(), 40u);
}

TEST(LearnedHash, FirstComponentIsTopVarianceDirection)
{
    // Data varying only along one axis: the first learned hyperplane
    // must align with that axis.
    Tensor m({20, 4});
    for (size_t r = 0; r < 20; ++r)
        m.at2(r, 1) = static_cast<float>(r) - 10.0f; // variance on dim 1
    HashFamily f = learnHashFamilyPca(rowsOf(m), 1);
    float on_axis = std::fabs(f.vectors().at2(0, 1));
    for (size_t c = 0; c < 4; ++c) {
        if (c == 1)
            continue;
        EXPECT_GT(on_axis, std::fabs(f.vectors().at2(0, c)) * 10.0f);
    }
}

} // namespace
} // namespace genreuse
