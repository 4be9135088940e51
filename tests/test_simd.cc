/**
 * @file
 * Parity matrix for the runtime SIMD dispatch layer (common/simd.h):
 * every entry of the ops table — gemmF32, gemmInt8, addInto,
 * scaleInPlace, signProject, allFinite, relu, sliceSignatures,
 * clusterSums, maxPool2x2, transpose, recoverRows, transposeBias,
 * addChannelBias, batchNormEval, lambdaMax — is compared against the scalar
 * oracle over ragged shapes (sizes that are not multiples of any
 * vector width), and the eval epilogue oracles against the element
 * loops they replaced, plus the dispatch plumbing itself: level
 * parsing, explicit
 * table selection, fallback for unavailable levels, and the
 * setActiveLevel() test hook. The eval max-pool's branch-free window
 * scan is checked against the training scan on the same special values
 * as relu.
 *
 * The float comparisons use a ULP distance with a bound of ZERO: the
 * design contract (DESIGN.md "Kernel dispatch & arena") is that vector
 * kernels are bit-identical to the scalar oracle, because the guard
 * ladder's exact-GEMM rung must not change when dispatch picks a
 * vector level. If that contract is ever deliberately relaxed (e.g.
 * FMA contraction), kMaxUlps is the single knob to loosen.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <iterator>
#include <string>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "nn/pooling.h"
#include "tensor/tensor.h"

namespace genreuse {
namespace {

constexpr int64_t kMaxUlps = 0; // bit-identity, per the dispatch contract

/** ULP distance between two floats (monotonic integer mapping). */
int64_t
ulpDistance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return a == a && b == b ? 0 : INT64_MAX;
    int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    // Map the sign-magnitude float ordering onto a monotonic integer
    // line so the distance is meaningful across zero.
    const int64_t ka = ia >= 0 ? ia : INT64_C(0x80000000) - ia;
    const int64_t kb = ib >= 0 ? ib : INT64_C(0x80000000) - ib;
    return ka >= kb ? ka - kb : kb - ka;
}

/** Restores the pre-test active level on scope exit. */
struct LevelRestorer
{
    simd::Level saved = simd::activeLevel();
    ~LevelRestorer() { (void)simd::setActiveLevel(saved); }
};

std::vector<float>
randomFloats(size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
}

std::vector<int8_t>
randomInt8(size_t n, Rng &rng)
{
    std::vector<int8_t> v(n);
    for (int8_t &x : v)
        x = static_cast<int8_t>(static_cast<int>(rng.uniformInt(256)) - 128);
    return v;
}

// Ragged dims: primes and off-by-one-past-a-vector-width sizes so no
// kernel can hide a tail-handling bug behind round shapes.
const size_t kRaggedDims[] = {1, 3, 7, 17, 33, 65};

TEST(SimdDispatch, TablesAreComplete)
{
    for (simd::Level lvl :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        const simd::Ops &t = simd::opsFor(lvl);
        EXPECT_NE(t.name, nullptr);
        EXPECT_NE(t.gemmF32, nullptr);
        EXPECT_NE(t.gemmInt8, nullptr);
        EXPECT_NE(t.addInto, nullptr);
        EXPECT_NE(t.scaleInPlace, nullptr);
        EXPECT_NE(t.signProject, nullptr);
        EXPECT_NE(t.allFinite, nullptr);
        EXPECT_NE(t.relu, nullptr);
        EXPECT_NE(t.sliceSignatures, nullptr);
        EXPECT_NE(t.clusterSums, nullptr);
        EXPECT_NE(t.maxPool2x2, nullptr);
        EXPECT_NE(t.transpose, nullptr);
        EXPECT_NE(t.recoverRows, nullptr);
        EXPECT_NE(t.transposeBias, nullptr);
        EXPECT_NE(t.addChannelBias, nullptr);
        EXPECT_NE(t.batchNormEval, nullptr);
        EXPECT_NE(t.lambdaMax, nullptr);
        if (!simd::available(lvl)) {
            // Unavailable levels fall back to the scalar oracle.
            EXPECT_EQ(t.level, simd::Level::Scalar);
        } else {
            EXPECT_EQ(t.level, lvl);
        }
    }
}

TEST(SimdDispatch, ParseLevel)
{
    EXPECT_EQ(*simd::parseLevel("scalar"), simd::Level::Scalar);
    EXPECT_EQ(*simd::parseLevel("SCALAR"), simd::Level::Scalar);
    EXPECT_EQ(*simd::parseLevel("avx2"), simd::Level::Avx2);
    EXPECT_EQ(*simd::parseLevel("Neon"), simd::Level::Neon);
    EXPECT_EQ(*simd::parseLevel("auto"), simd::detect());
    EXPECT_FALSE(simd::parseLevel("sse9").ok());
    EXPECT_FALSE(simd::parseLevel("").ok());
    EXPECT_EQ(simd::parseLevel("bogus").status().code(),
              ErrorCode::InvalidArgument);
}

TEST(SimdDispatch, SetActiveLevel)
{
    LevelRestorer restore;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar).ok());
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    EXPECT_STREQ(simd::ops().name, "scalar");

    // Whatever detect() picked is by definition available.
    ASSERT_TRUE(simd::setActiveLevel(simd::detect()).ok());
    EXPECT_EQ(simd::activeLevel(), simd::detect());

    // Some level is always unavailable (no CPU has AVX2 and NEON).
    for (simd::Level lvl : {simd::Level::Avx2, simd::Level::Neon}) {
        if (simd::available(lvl))
            continue;
        Status s = simd::setActiveLevel(lvl);
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    }
}

TEST(SimdParity, GemmF32Ragged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(11);
    for (size_t m : kRaggedDims) {
        for (size_t n : kRaggedDims) {
            for (size_t k : {size_t(1), size_t(7), size_t(33)}) {
                std::vector<float> a = randomFloats(m * k, rng);
                std::vector<float> b = randomFloats(k * n, rng);
                std::vector<float> seed = randomFloats(m * n, rng);
                for (bool accumulate : {false, true}) {
                    std::vector<float> c0 = seed, c1 = seed;
                    scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k,
                                   k, n, n, accumulate);
                    vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, k,
                                n, n, accumulate);
                    for (size_t i = 0; i < m * n; ++i)
                        ASSERT_LE(ulpDistance(c0[i], c1[i]), kMaxUlps)
                            << "m=" << m << " n=" << n << " k=" << k
                            << " acc=" << accumulate << " i=" << i
                            << " scalar=" << c0[i] << " vec=" << c1[i];
                }
            }
        }
    }
}

TEST(SimdParity, GemmF32StridedLeadingDims)
{
    // Sub-matrix views: leading dims larger than the logical width.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(12);
    const size_t m = 17, n = 29, k = 13;
    const size_t lda = k + 5, ldb = n + 3, ldc = n + 9;
    std::vector<float> a = randomFloats(m * lda, rng);
    std::vector<float> b = randomFloats(k * ldb, rng);
    std::vector<float> c0 = randomFloats(m * ldc, rng), c1 = c0;
    scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k, lda, ldb, ldc,
                   true);
    vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, lda, ldb, ldc,
                true);
    // The whole buffer must match: padding columns untouched, logical
    // columns bit-identical.
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0);
}

TEST(SimdParity, GemmF32NarrowNSignProjectionShape)
{
    // The LSH sign projection: 256 items read in place from a
    // 1600-wide im2col matrix, projected onto n < 8 hash vectors. The
    // whole C buffer is compared, so a masked store that touched a
    // padding column would show.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(17);
    const size_t m = 256, lda = 1600;
    std::vector<float> a = randomFloats(m * lda, rng);
    // An infinite input makes 0 * a[i][p] NaN in any lane past n, so a
    // kernel that stored such a lane would change a padding column.
    a[5 * lda + 2] = std::numeric_limits<float>::infinity();
    for (size_t k : {size_t(9), size_t(25)}) {
        for (size_t n = 1; n <= 7; ++n) {
            const size_t ldc = n + 3;
            std::vector<float> b = randomFloats(k * n, rng);
            std::vector<float> seed = randomFloats(m * ldc, rng);
            for (bool accumulate : {false, true}) {
                std::vector<float> c0 = seed, c1 = seed;
                scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k, lda,
                               n, ldc, accumulate);
                vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, lda, n,
                            ldc, accumulate);
                ASSERT_EQ(std::memcmp(c0.data(), c1.data(),
                                      c0.size() * sizeof(float)),
                          0)
                    << "n=" << n << " k=" << k << " acc=" << accumulate;
            }
        }
    }
}

TEST(SimdParity, GemmF32ColumnRemainders)
{
    // n past a vector width with a ragged tail, and row counts that
    // are not multiples of the four-row remainder tile.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(18);
    for (size_t m : {size_t(1), size_t(5), size_t(70)}) {
        for (size_t n : {size_t(9), size_t(12), size_t(39), size_t(300)}) {
            const size_t k = 11, ldb = n + 2, ldc = n + 5;
            std::vector<float> a = randomFloats(m * k, rng);
            std::vector<float> b = randomFloats(k * ldb, rng);
            std::vector<float> c0 = randomFloats(m * ldc, rng), c1 = c0;
            scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k, k, ldb,
                           ldc, true);
            vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, k, ldb,
                        ldc, true);
            ASSERT_EQ(std::memcmp(c0.data(), c1.data(),
                                  c0.size() * sizeof(float)),
                      0)
                << "m=" << m << " n=" << n;
        }
    }
}

TEST(SimdParity, AllFiniteMatchesOracle)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    const float kBad[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()};
    Rng rng(19);
    // Sizes around the 8-float vector and 32-float step, so a planted
    // value lands in the head, the tail and every lane position.
    for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(31),
                     size_t(32), size_t(33), size_t(71), size_t(100)}) {
        std::vector<float> v = randomFloats(n, rng);
        // Extreme but finite values must not trip the scan.
        if (n >= 4) {
            v[0] = std::numeric_limits<float>::max();
            v[1] = -std::numeric_limits<float>::max();
            v[2] = std::numeric_limits<float>::denorm_min();
            v[3] = -0.0f;
        }
        EXPECT_TRUE(scalar.allFinite(v.data(), n)) << "n=" << n;
        EXPECT_TRUE(vec.allFinite(v.data(), n)) << "n=" << n;
        for (size_t i = 0; i < n; ++i) {
            for (float bad : kBad) {
                const float saved = v[i];
                v[i] = bad;
                EXPECT_FALSE(scalar.allFinite(v.data(), n));
                ASSERT_FALSE(vec.allFinite(v.data(), n))
                    << "n=" << n << " i=" << i << " value=" << bad;
                v[i] = saved;
            }
        }
    }
}

TEST(SimdParity, GemmInt8Ragged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(13);
    for (size_t m : {size_t(1), size_t(7), size_t(33)}) {
        for (size_t n : kRaggedDims) {
            for (size_t k : {size_t(1), size_t(17), size_t(65)}) {
                std::vector<int8_t> a = randomInt8(m * k, rng);
                std::vector<int8_t> b = randomInt8(k * n, rng);
                std::vector<int32_t> c0(m * n, -1), c1(m * n, -1);
                scalar.gemmInt8(a.data(), b.data(), c0.data(), m, n, k, k,
                                n, n);
                vec.gemmInt8(a.data(), b.data(), c1.data(), m, n, k, k, n,
                             n);
                ASSERT_EQ(c0, c1) << "m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

TEST(SimdParity, AddIntoRagged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(14);
    for (size_t n : kRaggedDims) {
        std::vector<float> src = randomFloats(n, rng);
        std::vector<float> d0 = randomFloats(n, rng), d1 = d0;
        scalar.addInto(d0.data(), src.data(), n);
        vec.addInto(d1.data(), src.data(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_LE(ulpDistance(d0[i], d1[i]), kMaxUlps)
                << "n=" << n << " i=" << i;
    }
}

TEST(SimdParity, ScaleInPlaceRagged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(15);
    for (size_t n : kRaggedDims) {
        for (float s : {0.0f, 1.0f, -2.5f, 0.333f}) {
            std::vector<float> d0 = randomFloats(n, rng), d1 = d0;
            scalar.scaleInPlace(d0.data(), s, n);
            vec.scaleInPlace(d1.data(), s, n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_LE(ulpDistance(d0[i], d1[i]), kMaxUlps)
                    << "n=" << n << " s=" << s << " i=" << i;
        }
    }
}

TEST(SimdParity, SignProjectRagged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(16);
    for (size_t count : {size_t(1), size_t(3), size_t(17), size_t(65),
                         size_t(257)}) {
        for (size_t h : {size_t(1), size_t(2), size_t(7), size_t(8),
                         size_t(15)}) {
            std::vector<float> proj = randomFloats(count * h, rng);
            std::vector<float> biases = randomFloats(h, rng);
            std::vector<uint64_t> s0(count, ~0ull), s1(count, ~0ull);
            scalar.signProject(proj.data(), biases.data(), count, h,
                               s0.data());
            vec.signProject(proj.data(), biases.data(), count, h,
                            s1.data());
            ASSERT_EQ(s0, s1) << "count=" << count << " h=" << h;
        }
    }
}

TEST(SimdParity, SignProjectExactZeroBoundary)
{
    // proj + bias == 0 exactly: the strict `> 0` comparison must agree
    // across levels (a vectorized >= would flip these bits).
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    const size_t count = 33, h = 5;
    std::vector<float> biases = {0.5f, -0.25f, 0.0f, 1.0f, -2.0f};
    std::vector<float> proj(count * h);
    for (size_t i = 0; i < count; ++i)
        for (size_t f = 0; f < h; ++f)
            proj[i * h + f] = (i + f) % 3 == 0 ? -biases[f]
                                               : (f % 2 ? 0.125f : -0.125f);
    std::vector<uint64_t> s0(count), s1(count);
    scalar.signProject(proj.data(), biases.data(), count, h, s0.data());
    vec.signProject(proj.data(), biases.data(), count, h, s1.data());
    EXPECT_EQ(s0, s1);
}

/** Random values with NaN (both signs, unless @p nan is false), +/-0,
 *  +/-Inf, +/-denormals and +/-FLT_MAX planted every few elements. */
std::vector<float>
specialFloats(size_t n, Rng &rng, bool nan_values = true)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float den = std::numeric_limits<float>::denorm_min();
    const float kSpecial[] = {nan,  -nan, 0.0f, -0.0f, inf,  -inf,
                              den,  -den, 3 * den, -5 * den,
                              std::numeric_limits<float>::max(),
                              -std::numeric_limits<float>::max()};
    const size_t skip = nan_values ? 0 : 2; // the NaNs lead kSpecial
    std::vector<float> v = randomFloats(n, rng);
    for (size_t i = 0; i < n; i += 3)
        v[i] = kSpecial[skip + rng.uniformInt(std::size(kSpecial) - skip)];
    return v;
}

bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

TEST(SimdParity, ReluMatchesOracleOnSpecialValues)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(21);
    for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(33), size_t(100)}) {
        const std::vector<float> x = specialFloats(n, rng);
        std::vector<float> ref(n), y0(n, 7.0f), y1(n, 7.0f);
        for (size_t i = 0; i < n; ++i)
            ref[i] = x[i] > 0.0f ? x[i] : 0.0f;
        scalar.relu(x.data(), y0.data(), n);
        vec.relu(x.data(), y1.data(), n);
        EXPECT_TRUE(sameBits(y0, ref)) << "n=" << n;
        EXPECT_TRUE(sameBits(y1, ref)) << "n=" << n;
    }
}

/**
 * Element offsets of a (c, kh, kw) im2col column over a padded input
 * of @p pw-float rows and @p plane-float channel planes, in C1
 * ([c][kh][kw]) or C2 ([kh][kw][c]) order.
 */
std::vector<uint32_t>
patchColumns(size_t channels, size_t k, size_t pw, size_t plane, bool c2)
{
    std::vector<uint32_t> off;
    auto tap = [&](size_t c, size_t kh, size_t kw) {
        off.push_back(static_cast<uint32_t>(c * plane + kh * pw + kw));
    };
    if (c2) {
        for (size_t kh = 0; kh < k; ++kh)
            for (size_t kw = 0; kw < k; ++kw)
                for (size_t c = 0; c < channels; ++c)
                    tap(c, kh, kw);
    } else {
        for (size_t c = 0; c < channels; ++c)
            for (size_t kh = 0; kh < k; ++kh)
                for (size_t kw = 0; kw < k; ++kw)
                    tap(c, kh, kw);
    }
    return off;
}

TEST(SimdParity, SliceSignaturesMatchOracleAndGemmPath)
{
    // The fused conv pass hashes every slice of a layer's patches in
    // one sweep over the padded input; vector levels step along the
    // flat padded-row index and drop border lanes. Every signature must
    // be the scalar oracle's, and the oracle's must be the GEMM path's
    // on the materialized rows, across slice lengths L (one crossing
    // the GEMM's 256-wide k-block), hash counts H (a second 8-function
    // group past 8), output widths 1-33 with pad 0-2 at batch 1 and 3,
    // C1 and C2 column orders, and ±0, NaN, ±Inf and denormal inputs.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(22);
    struct SliceCase
    {
        size_t len, k, channels;
    };
    // din = k * k * channels, cut into slices of len (the last shorter).
    const SliceCase kCases[] = {{1, 1, 3}, {9, 3, 4}, {25, 5, 3},
                                {300, 5, 13}};
    const float kSpecial[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              -0.0f, 0.0f,
                              std::numeric_limits<float>::denorm_min()};
    for (size_t ow = 1; ow <= 33; ++ow) {
        const size_t pad = ow % 3, batch = ow % 2 ? 1 : 3;
        const size_t oh = 1 + ow % 4;
        for (const SliceCase &sc : kCases)
            for (bool c2 : {false, true}) {
                const size_t k = sc.k;
                if (ow + k - 1 < 2 * pad + 1)
                    continue; // no input column left inside the padding
                const size_t pw = ow + k - 1, ph = oh + k - 1;
                const size_t plane = ph * pw, image = sc.channels * plane;
                // Zero borders around random interiors, then specials.
                std::vector<float> x(batch * image, 0.0f);
                for (size_t pl = 0; pl < batch * sc.channels; ++pl)
                    for (size_t y = pad; y + pad < ph; ++y)
                        for (size_t xx = pad; xx + pad < pw; ++xx)
                            x[pl * plane + y * pw + xx] =
                                static_cast<float>(rng.normal(0.0, 1.0));
                const bool specials = ow % 4 == 1;
                if (specials)
                    for (size_t s = 0; s < std::size(kSpecial); ++s)
                        x[rng.uniformInt(x.size())] = kSpecial[s];
                const std::vector<uint32_t> off =
                    patchColumns(sc.channels, k, pw, plane, c2);
                const size_t din = off.size();
                const size_t ns = (din + sc.len - 1) / sc.len;

                simd::PatchGrid grid;
                grid.images = batch;
                grid.rows = oh;
                grid.cols = ow;
                grid.pitch = pw;
                grid.imageStride = image;
                const size_t n = grid.count();
                // The materialized rows, for the GEMM path.
                std::vector<float> rows(n * din);
                for (size_t b = 0, i = 0; b < batch; ++b)
                    for (size_t r = 0; r < oh; ++r)
                        for (size_t c = 0; c < ow; ++c, ++i)
                            for (size_t j = 0; j < din; ++j)
                                rows[i * din + j] =
                                    x[b * image + r * pw + c + off[j]];

                for (size_t h : {size_t(1), size_t(4), size_t(8), size_t(9),
                                 size_t(13)}) {
                    std::vector<std::vector<float>> v(ns), biases(ns);
                    std::vector<simd::SliceHash> slices(ns);
                    std::vector<uint64_t> gemm(ns * n);
                    for (size_t s = 0; s < ns; ++s) {
                        const size_t col0 = s * sc.len;
                        const size_t len = std::min(sc.len, din - col0);
                        v[s] = randomFloats(h * len, rng);
                        std::vector<float> vt(len * h), proj(n * h);
                        for (size_t f = 0; f < h; ++f)
                            for (size_t j = 0; j < len; ++j)
                                vt[j * h + f] = v[s][f * len + j];
                        vec.gemmF32(rows.data() + col0, vt.data(),
                                    proj.data(), n, h, len, din, h, h,
                                    false);
                        // Biases cancel one item's projection exactly,
                        // so any other summation order (a missing
                        // k-block split, FMA) flips that item's bits.
                        biases[s].resize(h);
                        for (size_t f = 0; f < h; ++f)
                            biases[s][f] = -proj[(f % n) * h + f];
                        vec.signProject(proj.data(), biases[s].data(), n, h,
                                        gemm.data() + s * n);
                        slices[s] = {off.data() + col0, len, v[s].data(),
                                     biases[s].data(), h};
                    }
                    std::vector<uint64_t> s0(ns * n, ~0ull),
                        s1(ns * n, ~0ull);
                    scalar.sliceSignatures(x.data(), grid, slices.data(), ns,
                                           s0.data());
                    vec.sliceSignatures(x.data(), grid, slices.data(), ns,
                                        s1.data());
                    const std::string what =
                        "ow=" + std::to_string(ow) + " oh=" +
                        std::to_string(oh) + " pad=" + std::to_string(pad) +
                        " batch=" + std::to_string(batch) + " L=" +
                        std::to_string(sc.len) + " c2=" +
                        std::to_string(c2) + " h=" + std::to_string(h);
                    ASSERT_EQ(s1, s0) << what;
                    if (!specials) {
                        ASSERT_EQ(s0, gemm) << what;
                    }
                }
            }
    }
}

/** The pre-dispatch item-major centroid sums: zeroed rows, then each
 *  item added into its cluster's row in item order. */
std::vector<float>
itemMajorSums(const std::vector<float> &x, const std::vector<uint32_t> &item_off,
              const std::vector<uint32_t> &elem_off,
              const std::vector<uint32_t> &assign, size_t nc)
{
    const size_t len = elem_off.size();
    std::vector<float> sums(nc * len, 0.0f);
    for (size_t i = 0; i < assign.size(); ++i)
        for (size_t j = 0; j < len; ++j)
            sums[assign[i] * len + j] += x[item_off[i] + elem_off[j]];
    return sums;
}

TEST(SimdParity, ClusterSumsMatchOracleAcrossOffsetTables)
{
    // The element tables of the fused reuse pass's slices over a
    // zero-padded 16 x 16 input (20-float rows): C1 5x5 (five runs of
    // five taps) and 3x3 (three of three), conv1's whole 75-wide row
    // (fifteen runs, two register passes), KwMajor (one tap per input
    // row), C2 (one tap per channel, a plane apart) and more. Inputs carry NaN, +/-Inf, -0
    // and denormals; every sum must match the item-major loop bit for
    // bit, except that any NaN matches any NaN (which of two NaN
    // operands an add returns is not part of the contract).
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    const size_t side = 16, pw = 20, plane = pw * pw, n = side * side;
    Rng rng(24);
    const std::vector<float> x = specialFloats(20 * plane, rng);
    std::vector<uint32_t> item_off(n);
    for (size_t i = 0; i < n; ++i)
        item_off[i] = static_cast<uint32_t>(i / side * pw + i % side);
    auto tap = [&](size_t c, size_t kh, size_t kw) {
        return static_cast<uint32_t>(c * plane + kh * pw + kw);
    };
    std::vector<std::pair<std::string, std::vector<uint32_t>>> tables;
    std::vector<uint32_t> t;
    auto add = [&](std::string name) {
        tables.emplace_back(std::move(name), std::move(t));
        t.clear();
    };
    for (size_t k : {size_t(3), size_t(5)}) {
        for (size_t kh = 0; kh < k; ++kh)
            for (size_t kw = 0; kw < k; ++kw)
                t.push_back(tap(3, kh, kw));
        add("C1 " + std::to_string(k) + "x" + std::to_string(k));
    }
    for (size_t c = 0; c < 3; ++c)
        for (size_t kh = 0; kh < 5; ++kh)
            for (size_t kw = 0; kw < 5; ++kw)
                t.push_back(tap(c, kh, kw));
    add("conv1 L=75");
    for (size_t kw = 0; kw < 5; ++kw)
        for (size_t c = 0; c < 2; ++c)
            for (size_t kh = 0; kh < 5; ++kh)
                t.push_back(tap(c, kh, kw));
    add("KwMajor");
    // Every pass size of both kinds: 1..17 one-tap runs (C2, a plane
    // apart) and 1..17 runs of three taps, plus runs longer than a
    // vector and a random table.
    for (size_t r = 1; r <= 17; ++r) {
        for (size_t c = 0; c < r; ++c)
            t.push_back(tap(c, 1, 2));
        add("C2 stride-only x" + std::to_string(r));
        for (size_t c = 0; c < r; ++c)
            for (size_t kw = 0; kw < 3; ++kw)
                t.push_back(tap(c, 2, kw));
        add("runs of 3 x" + std::to_string(r));
    }
    for (size_t kh = 0; kh < 3; ++kh)
        for (size_t kw = 0; kw < 11; ++kw)
            t.push_back(static_cast<uint32_t>(kh * 2 * pw + kw));
    add("runs of 11");
    for (size_t j = 0; j < 29; ++j)
        t.push_back(static_cast<uint32_t>(rng.uniformInt(19 * plane)));
    add("random");

    for (const auto &[name, elem_off] : tables)
        for (size_t nc : {size_t(1), size_t(16), n}) {
            // Every cluster used; nc == n makes every cluster a
            // singleton.
            std::vector<uint32_t> assign(n);
            for (size_t i = 0; i < n; ++i)
                assign[i] = static_cast<uint32_t>(
                    nc == n || i < nc ? i : rng.uniformInt(nc));
            std::vector<size_t> offsets(nc + 1, 0);
            for (uint32_t c : assign)
                ++offsets[c + 1];
            for (size_t c = 0; c < nc; ++c)
                offsets[c + 1] += offsets[c];
            std::vector<uint32_t> members(n);
            std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
            for (size_t i = 0; i < n; ++i)
                members[cursor[assign[i]]++] = static_cast<uint32_t>(i);

            const size_t len = elem_off.size();
            const std::vector<float> ref =
                itemMajorSums(x, item_off, elem_off, assign, nc);
            // Sentinels past the panel catch stores beyond row nc - 1.
            for (const simd::Ops *ops : {&scalar, &vec}) {
                std::vector<float> sums(nc * len + 9, 7.0f);
                ops->clusterSums(x.data(), item_off.data(), elem_off.data(),
                                 len, offsets.data(), members.data(), nc,
                                 sums.data());
                size_t bad = 0;
                for (size_t e = 0; e < nc * len; ++e)
                    bad += std::isnan(ref[e])
                               ? !std::isnan(sums[e])
                               : std::memcmp(&sums[e], &ref[e],
                                             sizeof(float)) != 0;
                EXPECT_EQ(bad, 0u)
                    << ops->name << " " << name << " nc=" << nc;
                for (size_t e = nc * len; e < sums.size(); ++e)
                    ASSERT_EQ(sums[e], 7.0f) << ops->name << " " << name;
            }
        }
}

TEST(SimdParity, MaxPool2x2MatchesOracle)
{
    // Widths with and without an ow % 8 tail (SqueezeNet's last pool
    // has ow = 4), odd input sides, and special values; a select has
    // no rounding, so the bits must match exactly.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(25);
    for (auto [ih, iw] : {std::pair<size_t, size_t>{2, 2}, {9, 9}, {4, 17},
                          {16, 16}, {32, 32}, {7, 35}, {10, 34}}) {
        const size_t planes = 3, oh = ih / 2, ow = iw / 2;
        const std::vector<float> x = specialFloats(planes * ih * iw, rng);
        std::vector<float> y0(planes * oh * ow + 3, 7.0f), y1 = y0;
        scalar.maxPool2x2(x.data(), planes, ih, iw, oh, ow, y0.data());
        vec.maxPool2x2(x.data(), planes, ih, iw, oh, ow, y1.data());
        EXPECT_TRUE(sameBits(y0, y1)) << ih << "x" << iw;
        EXPECT_EQ(y0.back(), 7.0f);
        EXPECT_EQ(y1.back(), 7.0f);
    }
}

TEST(SimdParity, TransposeMatchesOracle)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(26);
    std::vector<std::pair<size_t, size_t>> shapes = {{1024, 64}, {64, 1600}};
    for (size_t r : kRaggedDims)
        for (size_t c : {size_t(1), size_t(8), size_t(9), size_t(16),
                         size_t(33)})
            shapes.emplace_back(r, c);
    for (auto [rows, cols] : shapes) {
        const std::vector<float> src = randomFloats(rows * cols, rng);
        std::vector<float> d0(rows * cols), d1(rows * cols);
        scalar.transpose(src.data(), rows, cols, d0.data());
        vec.transpose(src.data(), rows, cols, d1.data());
        bool ok = true;
        for (size_t i = 0; i < rows && ok; ++i)
            for (size_t j = 0; j < cols && ok; ++j)
                ok = d0[j * rows + i] == src[i * cols + j];
        EXPECT_TRUE(ok) << rows << "x" << cols;
        EXPECT_TRUE(sameBits(d0, d1)) << rows << "x" << cols;
    }
}

// Widths and heights around every vector, 8 x 8 block and 64-float
// chunk edge of the epilogue kernels. An add or multiply of two NaNs
// may return either operand's payload (x86 returns the first source's,
// and a compiler may commute the operands to fold a load), so no
// operation in these tests sees two NaN operands: only one input of
// each kernel carries NaNs, and the others carry every other special
// value.
const size_t kEpilogueDims[] = {1, 7, 8, 9, 63, 64, 65, 192, 256};

TEST(SimdParity, GemmF32NarrowTile)
{
    // Every n below the 1x32 tile (the four-row tile's full vectors,
    // the masked remainder, rows past the last multiple of four) across
    // k-block edges, both ways of accumulate. Large terms that cancel
    // (+L at p = 0, -L at p = k - 1, in different k-blocks once k >
    // 256) make every partial sum order-sensitive, so a reassociated
    // chain flips bits. Without accumulate C starts as NaN: the first
    // k-block must overwrite it, and k = 0 must still zero it. The
    // padding columns past n must stay untouched.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(27);
    const float big = 3.0e7f;
    for (size_t k : {size_t(0), size_t(1), size_t(255), size_t(256),
                     size_t(257), size_t(600)})
        for (size_t m = 1; m <= 9; ++m)
            for (size_t n = 1; n <= 31; ++n) {
                const size_t ldc = n + 3;
                std::vector<float> a = randomFloats(m * k, rng);
                std::vector<float> b = randomFloats(k * n, rng);
                if (k >= 2) {
                    for (size_t i = 0; i < m; ++i) {
                        a[i * k] = 1.0f;
                        a[i * k + k - 1] = 1.0f;
                    }
                    for (size_t j = 0; j < n; ++j) {
                        b[j] = big * static_cast<float>(j + 1);
                        b[(k - 1) * n + j] = -big * static_cast<float>(j + 1);
                    }
                }
                const std::vector<float> seed = randomFloats(m * ldc, rng);
                for (bool accumulate : {false, true}) {
                    std::vector<float> c0 = seed;
                    if (!accumulate)
                        for (size_t i = 0; i < m; ++i)
                            std::fill(c0.begin() + i * ldc,
                                      c0.begin() + i * ldc + n,
                                      std::numeric_limits<float>::quiet_NaN());
                    std::vector<float> c1 = c0;
                    scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k,
                                   k, n, ldc, accumulate);
                    vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, k,
                                n, ldc, accumulate);
                    ASSERT_TRUE(sameBits(c0, c1))
                        << "m=" << m << " n=" << n << " k=" << k
                        << " acc=" << accumulate;
                    for (size_t i = 0; i < m; ++i)
                        for (size_t j = n; j < ldc; ++j)
                            ASSERT_EQ(c1[i * ldc + j], seed[i * ldc + j]);
                }
            }
}

TEST(SimdParity, RecoverRowsMatchOracleAndSliceLoop)
{
    // Each output row is 0 + the rows its slices' assignments pick, in
    // slice order: what zeroing the row and adding one slice at a time
    // with addInto gave. Special values make any other order, a skipped
    // +0 start (-0 + -0 stays -0; +0 + -0 is +0) or a lost NaN show;
    // NaNs sit in slice 0 only.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(28);
    const size_t n = 5, nc = 3;
    for (size_t m : kEpilogueDims)
        for (size_t ns = 1; ns <= 67; ++ns) {
            std::vector<float> yc = specialFloats(ns * nc * m, rng, false);
            const std::vector<float> first = specialFloats(nc * m, rng);
            std::copy(first.begin(), first.end(), yc.begin());
            std::vector<const float *> slices(ns);
            for (size_t k = 0; k < ns; ++k)
                slices[k] = yc.data() + k * nc * m;
            std::vector<uint32_t> ids(ns * n);
            for (uint32_t &id : ids)
                id = static_cast<uint32_t>(rng.uniformInt(nc));
            std::vector<float> ref(n * m + 3, 7.0f);
            for (size_t row = 0; row < n; ++row) {
                float *yr = ref.data() + row * m;
                std::fill(yr, yr + m, 0.0f);
                for (size_t k = 0; k < ns; ++k)
                    scalar.addInto(yr, slices[k] + ids[k * n + row] * m, m);
            }
            std::vector<float> y0(n * m + 3, 7.0f), y1 = y0;
            scalar.recoverRows(slices.data(), ids.data(), ns, n, m,
                               y0.data());
            vec.recoverRows(slices.data(), ids.data(), ns, n, m, y1.data());
            ASSERT_TRUE(sameBits(y0, ref)) << "m=" << m << " ns=" << ns;
            ASSERT_TRUE(sameBits(y1, ref)) << "m=" << m << " ns=" << ns;
        }
}

TEST(SimdParity, TransposeBiasMatchesAddThenTranspose)
{
    // The fused bias + fold against one addInto of the bias per row and
    // then the transpose, on special values in both operands.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(29);
    for (size_t rows : kEpilogueDims)
        for (size_t cols : kEpilogueDims) {
            const std::vector<float> src = specialFloats(rows * cols, rng);
            const std::vector<float> bias = specialFloats(cols, rng, false);
            std::vector<float> biased = src;
            for (size_t r = 0; r < rows; ++r)
                scalar.addInto(biased.data() + r * cols, bias.data(), cols);
            std::vector<float> ref(rows * cols);
            scalar.transpose(biased.data(), rows, cols, ref.data());
            std::vector<float> d0(rows * cols), d1(rows * cols);
            scalar.transposeBias(src.data(), rows, cols, bias.data(),
                                 d0.data());
            vec.transposeBias(src.data(), rows, cols, bias.data(),
                              d1.data());
            ASSERT_TRUE(sameBits(d0, ref)) << rows << "x" << cols;
            ASSERT_TRUE(sameBits(d1, ref)) << rows << "x" << cols;
        }
}

TEST(SimdParity, AddChannelBiasMatchesPlaneLoop)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(30);
    for (size_t batch : {size_t(1), size_t(3)})
        for (size_t channels : {size_t(1), size_t(7), size_t(9)})
            for (size_t hw : kEpilogueDims) {
                const std::vector<float> x =
                    specialFloats(batch * channels * hw, rng);
                const std::vector<float> bias =
                    specialFloats(channels, rng, false);
                std::vector<float> ref = x;
                for (size_t b = 0; b < batch; ++b)
                    for (size_t c = 0; c < channels; ++c)
                        for (size_t p = 0; p < hw; ++p)
                            ref[(b * channels + c) * hw + p] += bias[c];
                std::vector<float> y0 = x, y1 = x;
                scalar.addChannelBias(y0.data(), bias.data(), batch,
                                      channels, hw);
                vec.addChannelBias(y1.data(), bias.data(), batch, channels,
                                   hw);
                ASSERT_TRUE(sameBits(y0, ref))
                    << batch << "x" << channels << "x" << hw;
                ASSERT_TRUE(sameBits(y1, ref))
                    << batch << "x" << channels << "x" << hw;
            }
}

TEST(SimdParity, BatchNormEvalMatchesElementLoop)
{
    // Special values in the input and in every per-channel statistic
    // (NaNs in the input only); a zero variance with eps = 0 gives an
    // infinite scale.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(31);
    for (float eps : {1e-5f, 0.0f})
        for (size_t batch : {size_t(1), size_t(3)})
            for (size_t channels : {size_t(1), size_t(7), size_t(9)})
                for (size_t hw : kEpilogueDims) {
                    const std::vector<float> x =
                        specialFloats(batch * channels * hw, rng);
                    const std::vector<float> mean =
                        specialFloats(channels, rng, false);
                    std::vector<float> var = randomFloats(channels, rng);
                    for (float &v : var)
                        v = std::fabs(v);
                    var[0] = 0.0f;
                    const std::vector<float> gamma =
                        specialFloats(channels, rng, false);
                    const std::vector<float> beta =
                        specialFloats(channels, rng, false);
                    std::vector<float> ref(x.size());
                    for (size_t c = 0; c < channels; ++c) {
                        const float is = 1.0f / std::sqrt(var[c] + eps);
                        for (size_t b = 0; b < batch; ++b)
                            for (size_t i = 0; i < hw; ++i) {
                                const size_t e = (b * channels + c) * hw + i;
                                const float xn = (x[e] - mean[c]) * is;
                                ref[e] = gamma[c] * xn + beta[c];
                            }
                    }
                    std::vector<float> y0(x.size()), y1(x.size());
                    scalar.batchNormEval(x.data(), batch, channels, hw,
                                         mean.data(), var.data(), eps,
                                         gamma.data(), beta.data(),
                                         y0.data());
                    vec.batchNormEval(x.data(), batch, channels, hw,
                                      mean.data(), var.data(), eps,
                                      gamma.data(), beta.data(), y1.data());
                    ASSERT_TRUE(sameBits(y0, ref))
                        << batch << "x" << channels << "x" << hw;
                    ASSERT_TRUE(sameBits(y1, ref))
                        << batch << "x" << channels << "x" << hw;
                }
}

/** lambdaMax of @p dev (m x len) from a fixed unit start vector
 *  under @p ops: the returned double and the final v, as bytes. */
std::vector<unsigned char>
lambdaMaxBytes(const simd::Ops &ops, const std::vector<float> &dev,
               size_t m, size_t len, size_t iters)
{
    std::vector<double> v(len), av(len);
    for (size_t j = 0; j < len; ++j)
        v[j] = (1.0 + 0.01 * static_cast<double>(j % 7)) /
               std::sqrt(static_cast<double>(len));
    const double lambda =
        ops.lambdaMax(dev.data(), m, len, iters, v.data(), av.data());
    std::vector<unsigned char> out(sizeof lambda + len * sizeof(double));
    std::memcpy(out.data(), &lambda, sizeof lambda);
    std::memcpy(out.data() + sizeof lambda, v.data(), len * sizeof(double));
    return out;
}

TEST(SimdParity, LambdaMaxMatchesOracle)
{
    // Member counts either side of the four- and eight-row blocks and
    // lengths either side of the four- and eight-element steps; the
    // result and the final iterate must match the oracle bit for bit.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(41);
    const size_t kMembers[] = {2, 3, 4, 5, 6, 7, 8, 9, 16, 161, 1024};
    const size_t kLengths[] = {1, 3, 4, 5, 7, 8, 9, 25, 75, 800, 1600};
    for (size_t m : kMembers)
        for (size_t len : kLengths) {
            const std::vector<float> dev = randomFloats(m * len, rng);
            for (size_t iters : {size_t(0), size_t(1), size_t(30)})
                ASSERT_EQ(lambdaMaxBytes(scalar, dev, m, len, iters),
                          lambdaMaxBytes(vec, dev, m, len, iters))
                    << "m=" << m << " len=" << len << " iters=" << iters;
        }
}

TEST(SimdParity, LambdaMaxMatchesOracleOnSpecialValues)
{
    // All-zero deviations (every member equals the mean) take the
    // early return; ±0, denormals, ±Inf and ±max in the deviations
    // produce NaNs mid-iteration, all of one payload. A single NaN
    // input keeps every NaN operand of one payload too (simd.h's
    // exception needs two different NaN operands).
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(43);
    for (size_t m : {size_t(2), size_t(5), size_t(9), size_t(16)})
        for (size_t len : {size_t(1), size_t(7), size_t(9), size_t(25)})
            for (size_t iters : {size_t(0), size_t(1), size_t(30)}) {
                const std::string what = "m=" + std::to_string(m) +
                                         " len=" + std::to_string(len) +
                                         " iters=" + std::to_string(iters);
                const std::vector<float> zeros(m * len, 0.0f);
                const auto z = lambdaMaxBytes(vec, zeros, m, len, iters);
                ASSERT_EQ(lambdaMaxBytes(scalar, zeros, m, len, iters), z)
                    << what;
                double lambda = -1.0;
                std::memcpy(&lambda, z.data(), sizeof lambda);
                EXPECT_EQ(lambda, 0.0) << what;

                const std::vector<float> special =
                    specialFloats(m * len, rng, false);
                ASSERT_EQ(lambdaMaxBytes(scalar, special, m, len, iters),
                          lambdaMaxBytes(vec, special, m, len, iters))
                    << what;

                std::vector<float> one_nan = randomFloats(m * len, rng);
                one_nan[rng.uniformInt(m * len)] =
                    std::numeric_limits<float>::quiet_NaN();
                ASSERT_EQ(lambdaMaxBytes(scalar, one_nan, m, len, iters),
                          lambdaMaxBytes(vec, one_nan, m, len, iters))
                    << what;
            }
}

TEST(SimdParity, EvalMaxPoolMatchesTrainingScanOnSpecialValues)
{
    // The training scan (branch per element, first maximum wins) is the
    // oracle for the eval scan's select.
    Rng rng(23);
    for (auto [size, stride] : {std::pair<size_t, size_t>{2, 2}, {3, 1},
                                {3, 2}}) {
        MaxPool2D pool("pool", size, stride);
        const std::vector<float> v = specialFloats(2 * 3 * 9 * 9, rng);
        const Tensor x(Shape({2, 3, 9, 9}), v);
        const Tensor eval = pool.forward(x, false);
        const Tensor train = pool.forward(x, true);
        ASSERT_EQ(eval.shape(), train.shape());
        EXPECT_EQ(std::memcmp(eval.data(), train.data(),
                              eval.size() * sizeof(float)),
                  0)
            << "size=" << size << " stride=" << stride;
    }
}

TEST(SimdParity, ActiveTableMatchesOpsForActiveLevel)
{
    LevelRestorer restore;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar).ok());
    EXPECT_EQ(simd::ops().gemmF32,
              simd::opsFor(simd::Level::Scalar).gemmF32);
    ASSERT_TRUE(simd::setActiveLevel(simd::detect()).ok());
    EXPECT_EQ(simd::ops().gemmF32, simd::opsFor(simd::detect()).gemmF32);
}

} // namespace
} // namespace genreuse
