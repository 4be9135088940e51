#include "hdrhist.h"

#include <algorithm>
#include <cmath>

#include "logging.h"

namespace genreuse {

namespace {

/** Index of the highest set bit (0 for value 0). */
inline uint32_t
highestBit(uint64_t v)
{
    uint32_t b = 0;
    while (v >>= 1)
        ++b;
    return b;
}

/** Bucket bounds from geometry alone, shared with Snapshot (which has
 *  no histogram to ask). Mirrors HdrHistogram::bucketLowerBound. */
inline uint64_t
lowerBoundFor(uint32_t sub_bits, size_t index)
{
    const uint64_t sub_count = uint64_t{1} << sub_bits;
    const size_t octave = index / sub_count;
    const uint64_t sub = index % sub_count;
    if (octave == 0)
        return sub;
    return (sub_count + sub) << (octave - 1);
}

inline uint64_t
upperBoundFor(uint32_t sub_bits, size_t index)
{
    const uint64_t sub_count = uint64_t{1} << sub_bits;
    const size_t octave = index / sub_count;
    const uint64_t width = octave == 0 ? 1 : (uint64_t{1} << (octave - 1));
    return lowerBoundFor(sub_bits, index) + width - 1;
}

} // namespace

HdrHistogram::HdrHistogram(uint32_t sub_bucket_bits,
                           uint32_t max_value_bits)
    : subBits_(sub_bucket_bits), maxBits_(max_value_bits)
{
    GENREUSE_REQUIRE(subBits_ >= 1 && subBits_ <= 16,
                     "hdrhist sub-bucket bits out of range: ", subBits_);
    GENREUSE_REQUIRE(maxBits_ > subBits_ && maxBits_ <= 62,
                     "hdrhist max-value bits out of range: ", maxBits_);
    // One linear region of 2^subBits unit buckets, then one octave of
    // 2^subBits sub-buckets per remaining power of two. The unified
    // index formula below makes the first octave coincide with the
    // upper half of the linear region, hence the +1 octave count.
    nBuckets_ =
        static_cast<size_t>(maxBits_ - subBits_ + 1) * (size_t{1} << subBits_);
    counts_ = std::make_unique<std::atomic<uint64_t>[]>(nBuckets_);
    for (size_t i = 0; i < nBuckets_; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

uint64_t
HdrHistogram::maxTrackableValue() const
{
    return (uint64_t{1} << maxBits_) - 1;
}

size_t
HdrHistogram::bucketIndex(uint64_t value) const
{
    const uint64_t sub_count = uint64_t{1} << subBits_;
    if (value < 2 * sub_count)
        return static_cast<size_t>(value); // exact linear region
    if (value > maxTrackableValue())
        return nBuckets_ - 1; // clamp: overflow lands in the top bucket
    const uint32_t msb = highestBit(value);
    const uint32_t shift = msb - subBits_;
    const uint64_t sub = (value >> shift) - sub_count;
    return static_cast<size_t>((shift + 1) * sub_count + sub);
}

uint64_t
HdrHistogram::bucketLowerBound(size_t index) const
{
    const uint64_t sub_count = uint64_t{1} << subBits_;
    const size_t octave = index / sub_count;
    const uint64_t sub = index % sub_count;
    if (octave == 0)
        return sub; // unit-width linear region
    return (sub_count + sub) << (octave - 1);
}

uint64_t
HdrHistogram::bucketUpperBound(size_t index) const
{
    const uint64_t sub_count = uint64_t{1} << subBits_;
    const size_t octave = index / sub_count;
    const uint64_t width = octave == 0 ? 1 : (uint64_t{1} << (octave - 1));
    return bucketLowerBound(index) + width - 1;
}

uint64_t
HdrHistogram::bucketCount(size_t index) const
{
    GENREUSE_REQUIRE(index < nBuckets_, "hdrhist bucket index ", index,
                     " out of range");
    return counts_[index].load(std::memory_order_relaxed);
}

void
HdrHistogram::recordMany(uint64_t value, uint64_t count)
{
    if (count == 0)
        return;
    if (value > maxTrackableValue())
        overflow_.fetch_add(count, std::memory_order_relaxed);
    counts_[bucketIndex(value)].fetch_add(count,
                                          std::memory_order_relaxed);
    count_.fetch_add(count, std::memory_order_relaxed);
    sum_.fetch_add(value * count, std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed))
        ;
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed))
        ;
}

uint64_t
HdrHistogram::valueAtPercentile(double p) const
{
    const uint64_t total = count();
    if (total == 0)
        return 0;
    p = std::min(100.0, std::max(0.0, p));
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::min(std::max<uint64_t>(rank, 1), total);
    uint64_t cum = 0;
    for (size_t i = 0; i < nBuckets_; ++i) {
        cum += counts_[i].load(std::memory_order_relaxed);
        if (cum >= rank) {
            const uint64_t lo = bucketLowerBound(i);
            const uint64_t hi = bucketUpperBound(i);
            const uint64_t mid = lo + (hi - lo) / 2;
            // Never report outside the observed range: the bucket
            // midpoint of a lone sample must not under/overshoot it.
            return std::min(std::max(mid, min()), max());
        }
    }
    return max();
}

void
HdrHistogram::merge(const HdrHistogram &other)
{
    GENREUSE_REQUIRE(subBits_ == other.subBits_ &&
                         maxBits_ == other.maxBits_,
                     "hdrhist merge requires identical geometry");
    uint64_t moved = 0;
    for (size_t i = 0; i < nBuckets_; ++i) {
        const uint64_t c =
            other.counts_[i].load(std::memory_order_relaxed);
        if (c == 0)
            continue;
        counts_[i].fetch_add(c, std::memory_order_relaxed);
        moved += c;
    }
    count_.fetch_add(moved, std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    overflow_.fetch_add(other.overflow_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    const uint64_t omin = other.min_.load(std::memory_order_relaxed);
    uint64_t cur = min_.load(std::memory_order_relaxed);
    while (omin < cur &&
           !min_.compare_exchange_weak(cur, omin,
                                       std::memory_order_relaxed))
        ;
    const uint64_t omax = other.max_.load(std::memory_order_relaxed);
    cur = max_.load(std::memory_order_relaxed);
    while (omax > cur &&
           !max_.compare_exchange_weak(cur, omax,
                                       std::memory_order_relaxed))
        ;
}

void
HdrHistogram::reset()
{
    for (size_t i = 0; i < nBuckets_; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    overflow_.store(0, std::memory_order_relaxed);
    min_.store(~uint64_t{0}, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

uint64_t
HdrHistogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

uint64_t
HdrHistogram::min() const
{
    const uint64_t v = min_.load(std::memory_order_relaxed);
    return v == ~uint64_t{0} ? 0 : v;
}

uint64_t
HdrHistogram::max() const
{
    return max_.load(std::memory_order_relaxed);
}

double
HdrHistogram::mean() const
{
    const uint64_t n = count();
    if (n == 0)
        return 0.0;
    return static_cast<double>(sum_.load(std::memory_order_relaxed)) /
           static_cast<double>(n);
}

uint64_t
HdrHistogram::overflowCount() const
{
    return overflow_.load(std::memory_order_relaxed);
}

HdrHistogram::Snapshot
HdrHistogram::snapshot() const
{
    Snapshot s;
    s.subBits = subBits_;
    s.maxBits = maxBits_;
    s.counts.resize(nBuckets_);
    for (size_t i = 0; i < nBuckets_; ++i)
        s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    s.count = count();
    s.sum = sum_.load(std::memory_order_relaxed);
    s.overflow = overflowCount();
    s.min = min();
    s.max = max();
    return s;
}

double
HdrHistogram::Snapshot::mean() const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(sum) / static_cast<double>(count);
}

uint64_t
HdrHistogram::Snapshot::valueAtPercentile(double p) const
{
    if (count == 0 || counts.empty())
        return 0;
    p = std::min(100.0, std::max(0.0, p));
    // Rank against the bucket total, not the count field: a snapshot
    // taken while recorders were mid-flight (or a delta of two such
    // snapshots) can have the two disagree by the in-flight records,
    // and the walk below must terminate inside the bucket array.
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    if (total == 0)
        return 0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(total)));
    rank = std::min(std::max<uint64_t>(rank, 1), total);
    uint64_t cum = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        cum += counts[i];
        if (cum >= rank) {
            const uint64_t lo = lowerBoundFor(subBits, i);
            const uint64_t hi = upperBoundFor(subBits, i);
            const uint64_t mid = lo + (hi - lo) / 2;
            if (min <= max && max > 0)
                return std::min(std::max(mid, min), max);
            return mid;
        }
    }
    return max;
}

} // namespace genreuse
