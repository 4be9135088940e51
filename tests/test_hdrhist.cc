/**
 * @file
 * Tests for the mergeable HDR-style log-linear histogram
 * (common/hdrhist.h): exact unit buckets in the linear region, the
 * bucket-error bound against exact sorted percentiles on random
 * samples, merge associativity (bitwise on bucket counts), overflow
 * clamping into the top bucket, and geometry invariants.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "common/hdrhist.h"
#include "common/logging.h"
#include "common/rng.h"

namespace genreuse {
namespace {

/** Exact order statistic under the histogram's rank definition:
 *  rank = ceil(p/100 * n) clamped to [1, n], 1-based into the sorted
 *  sample. */
uint64_t
exactPercentile(std::vector<uint64_t> sorted, double p)
{
    std::sort(sorted.begin(), sorted.end());
    const double n = static_cast<double>(sorted.size());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    rank = std::min(std::max<size_t>(rank, 1), sorted.size());
    return sorted[rank - 1];
}

TEST(HdrHist, EmptyHistogramReportsZeros)
{
    HdrHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_EQ(h.valueAtPercentile(50.0), 0u);
    EXPECT_EQ(h.valueAtPercentile(99.9), 0u);
}

TEST(HdrHist, LinearRegionIsExact)
{
    // Values below 2^(subBits+1) get unit-width buckets: every
    // percentile is the exact order statistic, not an estimate.
    HdrHistogram h;
    const uint64_t top = 2u << h.subBucketBits(); // 64 at default 5
    std::vector<uint64_t> values;
    for (uint64_t v = 0; v < top; ++v) {
        h.record(v);
        values.push_back(v);
    }
    EXPECT_EQ(h.count(), top);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), top - 1);
    for (double p : {1.0, 25.0, 50.0, 75.0, 99.0, 100.0})
        EXPECT_EQ(h.valueAtPercentile(p), exactPercentile(values, p))
            << "p=" << p;
    for (uint64_t v = 0; v < top; ++v) {
        EXPECT_EQ(h.bucketIndex(v), static_cast<size_t>(v));
        EXPECT_EQ(h.bucketLowerBound(h.bucketIndex(v)), v);
        EXPECT_EQ(h.bucketUpperBound(h.bucketIndex(v)), v);
    }
}

TEST(HdrHist, GeometryInvariants)
{
    HdrHistogram h;
    // Buckets tile the value range contiguously...
    for (size_t i = 0; i + 1 < h.numBuckets(); ++i)
        EXPECT_EQ(h.bucketUpperBound(i) + 1, h.bucketLowerBound(i + 1))
            << "gap after bucket " << i;
    // ...and bucketIndex lands every value inside its bucket's range.
    Rng rng(11);
    for (int i = 0; i < 2000; ++i) {
        const uint64_t v = static_cast<uint64_t>(
            std::exp(rng.uniform() * 28.0)); // up to ~e^28 ≈ 1.4e12
        const size_t b = h.bucketIndex(v);
        ASSERT_LT(b, h.numBuckets());
        EXPECT_LE(h.bucketLowerBound(b), v);
        EXPECT_GE(h.bucketUpperBound(b), v);
    }
    // Relative bucket width is bounded by 2^-subBits outside the
    // linear region — the advertised percentile error bound.
    for (size_t i = (2u << h.subBucketBits()); i < h.numBuckets();
         i += 37) {
        const double lo = static_cast<double>(h.bucketLowerBound(i));
        const double width = static_cast<double>(h.bucketUpperBound(i)) -
                             lo + 1.0;
        EXPECT_LE(width / lo,
                  1.0 / static_cast<double>(1u << h.subBucketBits()) +
                      1e-12)
            << "bucket " << i;
    }
}

TEST(HdrHist, PercentilesWithinOneBucketOfExactSortedValue)
{
    HdrHistogram h;
    Rng rng(42);
    std::vector<uint64_t> values;
    values.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
        // Heavy-tailed mix spanning the linear region through ~1e9
        // (latency-like: mostly small, occasional huge).
        uint64_t v;
        if (rng.uniform() < 0.5)
            v = rng.uniformInt(2000);
        else
            v = static_cast<uint64_t>(std::exp(rng.uniform() * 21.0));
        values.push_back(v);
        h.record(v);
    }
    EXPECT_EQ(h.count(), values.size());
    for (double p : {10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0}) {
        const uint64_t exact = exactPercentile(values, p);
        const uint64_t est = h.valueAtPercentile(p);
        // The estimate lives in the bucket holding the exact order
        // statistic (same rank definition on both sides)...
        const size_t b = h.bucketIndex(exact);
        EXPECT_GE(est, h.bucketLowerBound(b)) << "p=" << p;
        EXPECT_LE(est, h.bucketUpperBound(b)) << "p=" << p;
        // ...so its relative error is bounded by the bucket width.
        const double err = std::fabs(static_cast<double>(est) -
                                     static_cast<double>(exact));
        EXPECT_LE(err,
                  static_cast<double>(exact) /
                          static_cast<double>(1u << h.subBucketBits()) +
                      1.0)
            << "p=" << p << " exact=" << exact << " est=" << est;
    }
    // Exact side channels.
    EXPECT_EQ(h.min(), *std::min_element(values.begin(), values.end()));
    EXPECT_EQ(h.max(), *std::max_element(values.begin(), values.end()));
    double sum = 0.0;
    for (uint64_t v : values)
        sum += static_cast<double>(v);
    EXPECT_NEAR(h.mean(), sum / static_cast<double>(values.size()),
                1e-6 * h.mean() + 1e-9);
}

/** Fill @p h with a deterministic pseudo-random stream. */
void
fill(HdrHistogram &h, uint64_t seed, int n)
{
    Rng rng(seed);
    for (int i = 0; i < n; ++i)
        h.recordMany(static_cast<uint64_t>(
                         std::exp(rng.uniform() * 20.0)),
                     1 + rng.uniformInt(3));
}

TEST(HdrHist, MergeIsAssociativeBitwise)
{
    // (a ⊕ b) ⊕ c and a ⊕ (b ⊕ c) from identical inputs must agree
    // bucket-for-bucket — merging is plain bucket-count addition.
    HdrHistogram a1, b1, c1, a2, b2, c2;
    fill(a1, 1, 500);
    fill(a2, 1, 500);
    fill(b1, 2, 700);
    fill(b2, 2, 700);
    fill(c1, 3, 300);
    fill(c2, 3, 300);

    a1.merge(b1); // left: (a+b)+c
    a1.merge(c1);
    b2.merge(c2); // right: a+(b+c)
    a2.merge(b2);

    ASSERT_EQ(a1.numBuckets(), a2.numBuckets());
    for (size_t i = 0; i < a1.numBuckets(); ++i)
        ASSERT_EQ(a1.bucketCount(i), a2.bucketCount(i)) << "bucket " << i;
    EXPECT_EQ(a1.count(), a2.count());
    EXPECT_EQ(a1.min(), a2.min());
    EXPECT_EQ(a1.max(), a2.max());
    EXPECT_EQ(a1.overflowCount(), a2.overflowCount());
    EXPECT_DOUBLE_EQ(a1.mean(), a2.mean());
    for (double p : {50.0, 95.0, 99.0, 99.9})
        EXPECT_EQ(a1.valueAtPercentile(p), a2.valueAtPercentile(p));
}

TEST(HdrHist, MergeRejectsMismatchedGeometry)
{
    HdrHistogram a(5, 42);
    HdrHistogram b(4, 42);
    HdrHistogram c(5, 30);
    RecoveryDomain domain; // contain the REQUIRE panic as an exception
    EXPECT_THROW(a.merge(b), PanicException);
    EXPECT_THROW(a.merge(c), PanicException);
}

TEST(HdrHist, OverflowClampsIntoTopBucket)
{
    // Small geometry so the max trackable value is tiny.
    HdrHistogram h(2, 10); // values up to 2^10 - 1
    const uint64_t cap = h.maxTrackableValue();
    ASSERT_EQ(cap, (uint64_t{1} << 10) - 1);

    h.record(cap);              // fits exactly
    h.record(cap + 1);          // clamps
    h.record(uint64_t{1} << 40); // clamps hard
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.overflowCount(), 2u);
    // All three land in the top bucket...
    EXPECT_EQ(h.bucketCount(h.numBuckets() - 1), 3u);
    // ...while max() still reports the raw value. The percentile
    // estimate stays inside the top bucket (resolution stops at the
    // trackable range — overflow moves the tail, not the estimate).
    EXPECT_EQ(h.max(), uint64_t{1} << 40);
    EXPECT_EQ(h.valueAtPercentile(100.0),
              h.bucketUpperBound(h.numBuckets() - 1));

    // reset() clears everything including the overflow counter.
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.overflowCount(), 0u);
    EXPECT_EQ(h.bucketCount(h.numBuckets() - 1), 0u);
}

// ---- snapshot ------------------------------------------------------

TEST(HdrHist, SnapshotMatchesLiveHistogram)
{
    HdrHistogram h;
    fill(h, 5, 1000);
    const HdrHistogram::Snapshot s = h.snapshot();
    EXPECT_EQ(s.count, h.count());
    EXPECT_EQ(s.min, h.min());
    EXPECT_EQ(s.max, h.max());
    EXPECT_EQ(s.overflow, h.overflowCount());
    EXPECT_DOUBLE_EQ(s.mean(), h.mean());
    ASSERT_EQ(s.counts.size(), h.numBuckets());
    for (size_t i = 0; i < h.numBuckets(); ++i)
        ASSERT_EQ(s.counts[i], h.bucketCount(i)) << "bucket " << i;
    for (double p : {50.0, 90.0, 99.0, 99.9})
        EXPECT_EQ(s.valueAtPercentile(p), h.valueAtPercentile(p))
            << "p=" << p;
}

TEST(HdrHist, RecordIsThreadSafe)
{
    HdrHistogram h;
    constexpr int kThreads = 4, kPerThread = 20000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&h, t] {
            Rng rng(static_cast<uint64_t>(100 + t));
            for (int i = 0; i < kPerThread; ++i)
                h.record(1 + rng.uniformInt(1u << 20));
        });
    for (std::thread &w : workers)
        w.join();
    EXPECT_EQ(h.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    uint64_t bucket_total = 0;
    for (size_t i = 0; i < h.numBuckets(); ++i)
        bucket_total += h.bucketCount(i);
    EXPECT_EQ(bucket_total, h.count());
    EXPECT_GE(h.min(), 1u);
    EXPECT_LE(h.max(), 1u << 20);
}

} // namespace
} // namespace genreuse
