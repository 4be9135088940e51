/**
 * @file
 * AVX2 kernel table. This TU is the only one compiled with -mavx2, so
 * the rest of the binary stays runnable on any x86-64; avx2Ops()
 * returns nullptr when the running CPU lacks AVX2.
 *
 * Bit-identity with the scalar oracle is load-bearing (the guard's
 * exact-GEMM rung must not move): the f32 GEMM keeps the scalar
 * kernel's blocking (64/256/256) and per-element op order, and uses
 * separate _mm256_mul_ps/_mm256_add_ps — never FMA — so every output
 * element sees the same IEEE-754 sequence the scalar 1x8 tile
 * produces. The wider 1x32 tile only changes which *columns* advance
 * together, never the per-column order.
 *
 * Column remainders (the last n % 8 columns, which is every column
 * when n < 8, e.g. the H-column LSH sign projection) go through a 4x8
 * masked tile instead of the scalar kernel's one-column loop. Each
 * lane is one output element and runs the scalar remainder's exact
 * sequence — acc = 0, then acc += a[i][p] * b[p][j] for p ascending,
 * then c[i][j] += acc — so the result is still bit-identical. The
 * tile only advances four rows and several columns at once, which
 * breaks the scalar loop's single serial add chain. B is read with
 * masked loads (lanes past n read as zero and are never stored), and
 * each row's partial sums are added into C one scalar column at a
 * time, so nothing past column n is written.
 *
 * Panels narrower than 32 columns (SqueezeNet's late pointwise convs
 * have n = HW = 16) run a 4-row tile over their full 8-column vectors:
 * one B load feeds four rows' accumulators, so four independent add
 * chains per vector replace the 1x8 tile's one, with each lane's
 * sequence unchanged.
 */

#include "simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(GENREUSE_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <utility>

namespace genreuse::simd {

// The scalar oracle's tiled transposes (simd.cc), for the edges the
// 8 x 8 blocks leave.
void transposeTileScalar(const float *src, size_t rows, size_t cols,
                         size_t r0, size_t r1, size_t c0, size_t c1,
                         float *dst);
void transposeBiasTileScalar(const float *src, size_t rows, size_t cols,
                             size_t r0, size_t r1, size_t c0, size_t c1,
                             const float *bias, float *dst);

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

/** Lane mask selecting the first @p w (0..8) of eight floats. */
__m256i
firstLanes(size_t w)
{
    alignas(32) static const int32_t kTable[16] = {-1, -1, -1, -1, -1, -1,
                                                   -1, -1, 0,  0,  0,  0,
                                                   0,  0,  0,  0};
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kTable + 8 - w));
}

/**
 * c[j] += lane j of @p acc for j < @p w, one scalar add per element
 * (the same IEEE-754 add a lane would do), so no byte past column w is
 * read or written even when rows are closer than eight floats apart.
 */
inline void
addLanes(float *c, __m256 acc, size_t w)
{
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, acc);
    for (size_t j = 0; j < w; ++j)
        c[j] += lanes[j];
}

/**
 * The last @p w (< 8) columns of a row panel, four rows at a time: one
 * masked B load feeds four independent accumulators (see the file
 * comment for why this is bit-identical to the scalar remainder).
 */
void
narrowTileAvx2(const float *a, const float *b, float *c, size_t rows,
               size_t w, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    const __m256i mask = firstLanes(w);
    size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        const float *a0 = a + i * lda;
        const float *a1 = a0 + lda;
        const float *a2 = a1 + lda;
        const float *a3 = a2 + lda;
        __m256 acc0 = _mm256_setzero_ps();
        __m256 acc1 = _mm256_setzero_ps();
        __m256 acc2 = _mm256_setzero_ps();
        __m256 acc3 = _mm256_setzero_ps();
        for (size_t p = 0; p < kc; ++p) {
            const __m256 bv = _mm256_maskload_ps(b + p * ldb, mask);
            acc0 = _mm256_add_ps(
                acc0, _mm256_mul_ps(_mm256_broadcast_ss(a0 + p), bv));
            acc1 = _mm256_add_ps(
                acc1, _mm256_mul_ps(_mm256_broadcast_ss(a1 + p), bv));
            acc2 = _mm256_add_ps(
                acc2, _mm256_mul_ps(_mm256_broadcast_ss(a2 + p), bv));
            acc3 = _mm256_add_ps(
                acc3, _mm256_mul_ps(_mm256_broadcast_ss(a3 + p), bv));
        }
        float *ci = c + i * ldc;
        addLanes(ci, acc0, w);
        addLanes(ci + ldc, acc1, w);
        addLanes(ci + 2 * ldc, acc2, w);
        addLanes(ci + 3 * ldc, acc3, w);
    }
    for (; i < rows; ++i) {
        const float *ai = a + i * lda;
        __m256 acc = _mm256_setzero_ps();
        for (size_t p = 0; p < kc; ++p) {
            acc = _mm256_add_ps(
                acc, _mm256_mul_ps(_mm256_broadcast_ss(ai + p),
                                   _mm256_maskload_ps(b + p * ldb, mask)));
        }
        addLanes(c + i * ldc, acc, w);
    }
}

/**
 * The first @p rows (a multiple of four) rows of a panel whose F full
 * 8-column vectors are all it has below 32 columns: per step of p, F B
 * loads feed 4 * F independent accumulators, each the 1x8 tile's
 * acc += a[i][p] * b[p][j] chain for its lane.
 */
template <size_t F>
void
fourRowTileAvx2(const float *a, const float *b, float *c, size_t rows,
                size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; i += 4) {
        const float *ai = a + i * lda;
        __m256 acc[4][F];
#pragma GCC unroll 12
        for (size_t t = 0; t < 4 * F; ++t)
            acc[t / F][t % F] = _mm256_setzero_ps();
        for (size_t p = 0; p < kc; ++p) {
            __m256 bv[F];
#pragma GCC unroll 3
            for (size_t f = 0; f < F; ++f)
                bv[f] = _mm256_loadu_ps(b + p * ldb + 8 * f);
#pragma GCC unroll 4
            for (size_t r = 0; r < 4; ++r) {
                const __m256 av = _mm256_broadcast_ss(ai + r * lda + p);
#pragma GCC unroll 3
                for (size_t f = 0; f < F; ++f)
                    acc[r][f] = _mm256_add_ps(acc[r][f],
                                              _mm256_mul_ps(av, bv[f]));
            }
        }
#pragma GCC unroll 12
        for (size_t t = 0; t < 4 * F; ++t) {
            float *ct = c + (i + t / F) * ldc + 8 * (t % F);
            _mm256_storeu_ps(ct, _mm256_add_ps(_mm256_loadu_ps(ct),
                                               acc[t / F][t % F]));
        }
    }
}

using FourRowTileFn = void (*)(const float *, const float *, float *, size_t,
                               size_t, size_t, size_t, size_t);

constexpr FourRowTileFn kFourRowTiles[3] = {
    &fourRowTileAvx2<1>, &fourRowTileAvx2<2>, &fourRowTileAvx2<3>};

void
microKernelAvx2(const float *a, const float *b, float *c, size_t rows,
                size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    const size_t full = cols - cols % 8;
    size_t i0 = 0;
    if (cols < 32 && full > 0) {
        i0 = rows - rows % 4;
        kFourRowTiles[full / 8 - 1](a, b, c, i0, kc, lda, ldb, ldc);
    }
    for (size_t i = i0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        // 1x32 tile: four ymm accumulators amortize the broadcast.
        for (; j + 32 <= full; j += 32) {
            __m256 acc0 = _mm256_setzero_ps();
            __m256 acc1 = _mm256_setzero_ps();
            __m256 acc2 = _mm256_setzero_ps();
            __m256 acc3 = _mm256_setzero_ps();
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                __m256 av = _mm256_broadcast_ss(ai + p);
                const float *bp = bj + p * ldb;
                acc0 = _mm256_add_ps(acc0,
                                     _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
                acc2 = _mm256_add_ps(
                    acc2, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 16)));
                acc3 = _mm256_add_ps(
                    acc3, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 24)));
            }
            float *cj = ci + j;
            _mm256_storeu_ps(cj,
                             _mm256_add_ps(_mm256_loadu_ps(cj), acc0));
            _mm256_storeu_ps(cj + 8,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 8), acc1));
            _mm256_storeu_ps(cj + 16,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 16), acc2));
            _mm256_storeu_ps(cj + 24,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 24), acc3));
        }
        for (; j < full; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                __m256 av = _mm256_broadcast_ss(ai + p);
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(av, _mm256_loadu_ps(bj + p * ldb)));
            }
            float *cj = ci + j;
            _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), acc));
        }
    }
    if (full < cols)
        narrowTileAvx2(a, b + full, c + full, rows, cols - full, kc, lda,
                       ldb, ldc);
}

void
gemmF32Avx2(const float *a, const float *b, float *c, size_t m, size_t n,
            size_t k, size_t lda, size_t ldb, size_t ldc, bool accumulate)
{
    if (!accumulate) {
        for (size_t i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    for (size_t i0 = 0; i0 < m; i0 += kBlockM) {
        size_t mi = std::min(kBlockM, m - i0);
        for (size_t p0 = 0; p0 < k; p0 += kBlockK) {
            size_t kp = std::min(kBlockK, k - p0);
            for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
                size_t nj = std::min(kBlockN, n - j0);
                microKernelAvx2(a + i0 * lda + p0, b + p0 * ldb + j0,
                                c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                ldc);
            }
        }
    }
}

/**
 * Int8 GEMM, j-inner layout: for each output row, walk k broadcasting
 * a[i][p] (widened to i16) against contiguous 16-lane chunks of B's
 * row p; int8*int8 products fit in i16 exactly, and are widened to
 * i32 before accumulating. Integer adds are associative, so
 * restructuring the scalar p-inner loop is exact.
 */
void
gemmInt8Avx2(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
             size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256i acc_lo = _mm256_setzero_si256();
            __m256i acc_hi = _mm256_setzero_si256();
            const int8_t *bj = b + j;
            for (size_t p = 0; p < k; ++p) {
                __m256i av = _mm256_set1_epi16(static_cast<int16_t>(ai[p]));
                __m128i braw = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(bj + p * ldb));
                __m256i bv = _mm256_cvtepi8_epi16(braw);
                __m256i prod = _mm256_mullo_epi16(av, bv);
                // Widen the 16 i16 products to i32 and accumulate.
                __m256i lo = _mm256_cvtepi16_epi32(
                    _mm256_castsi256_si128(prod));
                __m256i hi = _mm256_cvtepi16_epi32(
                    _mm256_extracti128_si256(prod, 1));
                acc_lo = _mm256_add_epi32(acc_lo, lo);
                acc_hi = _mm256_add_epi32(acc_hi, hi);
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(ci + j),
                                acc_lo);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(ci + j + 8),
                                acc_hi);
        }
        for (; j < n; ++j) {
            int32_t acc = 0;
            for (size_t p = 0; p < k; ++p) {
                acc += static_cast<int32_t>(ai[p]) *
                       static_cast<int32_t>(b[p * ldb + j]);
            }
            ci[j] = acc;
        }
    }
}

void
addIntoAvx2(float *dst, const float *src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(dst + i,
                         _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                       _mm256_loadu_ps(src + i)));
    }
    for (; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceAvx2(float *dst, float s, size_t n)
{
    __m256 sv = _mm256_set1_ps(s);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_loadu_ps(dst + i), sv));
    for (; i < n; ++i)
        dst[i] *= s;
}

void
signProjectAvx2(const float *proj, const float *biases, size_t count,
                size_t h, uint64_t *sigs)
{
    const __m256 zero = _mm256_setzero_ps();
    const size_t full = h - h % 8;
    // The last h % 8 functions (all of them when h < 8) use masked
    // loads; masked lanes read 0, and 0 + 0 > 0 is false, so they
    // contribute no bits.
    __m256i tail_mask = _mm256_setzero_si256();
    __m256 tail_bias = zero;
    if (full < h) {
        tail_mask = firstLanes(h - full);
        tail_bias = _mm256_maskload_ps(biases + full, tail_mask);
    }
    for (size_t i = 0; i < count; ++i) {
        const float *pi = proj + i * h;
        uint64_t sig = 0;
        for (size_t f = 0; f < full; f += 8) {
            __m256 sum = _mm256_add_ps(_mm256_loadu_ps(pi + f),
                                       _mm256_loadu_ps(biases + f));
            __m256 gt = _mm256_cmp_ps(sum, zero, _CMP_GT_OQ);
            uint64_t mask =
                static_cast<uint64_t>(_mm256_movemask_ps(gt)) & 0xffu;
            sig |= mask << f;
        }
        if (full < h) {
            __m256 sum = _mm256_add_ps(
                _mm256_maskload_ps(pi + full, tail_mask), tail_bias);
            __m256 gt = _mm256_cmp_ps(sum, zero, _CMP_GT_OQ);
            sig |= static_cast<uint64_t>(_mm256_movemask_ps(gt)) << full;
        }
        sigs[i] = sig;
    }
}

/**
 * Non-finite scan, 32 floats per step: |x| >= Inf is true for +/-Inf,
 * and the unordered predicate is also true for NaN. The early exit
 * happens at 32-float granularity; the answer is the oracle's.
 */
bool
allFiniteAvx2(const float *p, size_t n)
{
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
    auto bad = [&](const float *q) {
        return _mm256_cmp_ps(_mm256_and_ps(_mm256_loadu_ps(q), abs_mask),
                             inf, _CMP_NLT_UQ);
    };
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256 any = _mm256_or_ps(
            _mm256_or_ps(bad(p + i), bad(p + i + 8)),
            _mm256_or_ps(bad(p + i + 16), bad(p + i + 24)));
        if (_mm256_movemask_ps(any) != 0)
            return false;
    }
    for (; i + 8 <= n; i += 8)
        if (_mm256_movemask_ps(bad(p + i)) != 0)
            return false;
    for (; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

/** max(x, 0) returns its second operand (+0) for NaN and for -0, so
 *  it is the oracle's x > 0 ? x : 0 with no branch. */
void
reluAvx2(const float *src, float *dst, size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i,
                         _mm256_max_ps(_mm256_loadu_ps(src + i), zero));
    for (; i < n; ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

/**
 * One 256-wide k-block of G (<= 8) hash functions' projections for
 * 8 * NV consecutive patch items, one item per lane: acc = +0, then
 * acc += x * v with j ascending, into @p acc. Two vectors of items
 * (NV = 2) give the add chains twice the independent work. Partial
 * steps (@p Full false, NV = 1) load only lanes under @p mask; the
 * others read 0 and the caller drops them.
 */
template <size_t G, size_t NV, bool Full>
inline void
hashBlockAvx2(const float *xi, const uint32_t *off, size_t j0, size_t j1,
              const float *v, size_t len, __m256i mask, __m256 (&acc)[NV][G])
{
#pragma GCC unroll 16
    for (size_t k = 0; k < NV * G; ++k)
        acc[k / G][k % G] = _mm256_setzero_ps();
    for (size_t j = j0; j < j1; ++j) {
        const float *xj = xi + off[j];
        __m256 xv[NV];
#pragma GCC unroll 2
        for (size_t n = 0; n < NV; ++n)
            xv[n] = Full ? _mm256_loadu_ps(xj + 8 * n)
                         : _mm256_maskload_ps(xj + 8 * n, mask);
#pragma GCC unroll 8
        for (size_t g = 0; g < G; ++g) {
            const __m256 vb = _mm256_broadcast_ss(v + g * len + j);
#pragma GCC unroll 2
            for (size_t n = 0; n < NV; ++n)
                acc[n][g] =
                    _mm256_add_ps(acc[n][g], _mm256_mul_ps(xv[n], vb));
        }
    }
}

/**
 * Sign bits of G (<= 8) hash functions, f0 .. f0 + G - 1, for 8 * NV
 * consecutive patch items, OR-ed into @p sig: lane l of sig[n] holds
 * the bits of item 8n + l at bit positions (f0 + g) % 32. Every lane
 * runs the oracle's sequence of k-block sums, except that the first
 * block's sum is used as is where the oracle adds it to p = +0: the
 * two differ only when that sum is -0, and a -0 in place of +0 leaves
 * every later sum's value and the final p + bias > 0 test unchanged.
 */
/** Signature lanes of up to 16 items, 32 bits of each per vector. */
struct SigLanes
{
    __m256i v[2];
};

template <size_t G, size_t NV, bool Full>
void
hashGroupAvx2(const float *xi, const uint32_t *off, size_t len,
              const float *v, const float *biases, size_t f0, size_t w,
              SigLanes *sig)
{
    const __m256i mask = Full ? _mm256_setzero_si256() : firstLanes(w);
    __m256 p[NV][G];
    hashBlockAvx2<G, NV, Full>(xi, off, 0, std::min(len, kBlockK), v, len,
                               mask, p);
    for (size_t j0 = kBlockK; j0 < len; j0 += kBlockK) {
        __m256 acc[NV][G];
        hashBlockAvx2<G, NV, Full>(xi, off, j0, std::min(len, j0 + kBlockK),
                                   v, len, mask, acc);
#pragma GCC unroll 16
        for (size_t k = 0; k < NV * G; ++k)
            p[k / G][k % G] = _mm256_add_ps(p[k / G][k % G], acc[k / G][k % G]);
    }
    const __m256 zero = _mm256_setzero_ps();
#pragma GCC unroll 8
    for (size_t g = 0; g < G; ++g) {
        const __m256 b = _mm256_broadcast_ss(biases + g);
        const __m256i bit = _mm256_set1_epi32(
            static_cast<int>(uint32_t{1} << ((f0 + g) % 32)));
#pragma GCC unroll 2
        for (size_t n = 0; n < NV; ++n) {
            const __m256 gt =
                _mm256_cmp_ps(_mm256_add_ps(p[n][g], b), zero, _CMP_GT_OQ);
            sig->v[n] = _mm256_or_si256(
                sig->v[n], _mm256_and_si256(_mm256_castps_si256(gt), bit));
        }
    }
}

using HashGroupFn = void (*)(const float *, const uint32_t *, size_t,
                             const float *, const float *, size_t, size_t,
                             SigLanes *);

/** hashGroupAvx2 for G = 1..8, indexed by G - 1. */
template <size_t NV, bool Full, size_t... G>
constexpr std::array<HashGroupFn, sizeof...(G)>
hashGroupTable(std::index_sequence<G...>)
{
    return {&hashGroupAvx2<G + 1, NV, Full>...};
}

constexpr auto kGroupPair = hashGroupTable<2, true>(
    std::make_index_sequence<8>{});
constexpr auto kGroupFull = hashGroupTable<1, true>(
    std::make_index_sequence<8>{});
constexpr auto kGroupPartial = hashGroupTable<1, false>(
    std::make_index_sequence<8>{});

/**
 * The sweep visits each image as runs of flat positions t (relative to
 * the run's first row, wrapping at the pitch), in steps of up to 16
 * lanes. Flat mode makes one run of (rows - 1) * pitch + cols
 * positions per image and drops the border lanes (c >= cols), so a
 * 4 x 4 output is one 16-lane step and a 6-lane step instead of four
 * masked 4-lane ones; row mode makes one run of cols positions per row
 * and wastes nothing when cols fills whole vectors. The sweep takes
 * whichever needs fewer 8-lane vectors. Every lane runs the oracle's
 * per-item sequence either way, so the choice never changes a bit.
 *
 * Signatures are built in registers, 32 bits per lane (a second
 * vector holds functions 32-63), and an 8-lane vector whose lanes are
 * all real, consecutive items is widened to 64 bits and stored whole;
 * other lanes are stored one by one.
 */
void
sliceSignaturesAvx2(const float *x, const PatchGrid &grid,
                    const SliceHash *slices, size_t ns, uint64_t *sigs)
{
    const size_t n = grid.count();
    if (n == 0)
        return;
    size_t max_h = 0;
    for (size_t s = 0; s < ns; ++s)
        max_h = std::max(max_h, slices[s].h);
    // 16 lanes per step while the add chains are few (h <= 4), else 8.
    const size_t step = max_h <= 4 ? 16 : 8;
    const size_t span = (grid.rows - 1) * grid.pitch + grid.cols;
    const bool flat =
        (span + 7) / 8 < grid.rows * ((grid.cols + 7) / 8);
    const size_t runs = flat ? 1 : grid.rows;
    const size_t run_len = flat ? span : grid.cols;

    for (size_t b = 0; b < grid.images; ++b)
        for (size_t q = 0; q < runs; ++q) {
            const float *xr =
                x + b * grid.imageStride + q * grid.pitch;
            for (size_t t0 = 0; t0 < run_len;) {
                const size_t w = run_len - t0 >= step
                                     ? step
                                     : std::min<size_t>(8, run_len - t0);
                // Item of each lane (or -1 for a border or dropped lane),
                // and whether each 8-lane vector is 8 consecutive items.
                int32_t item[16];
                size_t r = q + t0 / grid.pitch, c = t0 % grid.pitch;
                for (size_t l = 0; l < 16; ++l) {
                    item[l] = l < w && c < grid.cols
                                  ? static_cast<int32_t>(
                                        (b * grid.rows + r) * grid.cols + c)
                                  : -1;
                    if (++c == grid.pitch) {
                        c = 0;
                        ++r;
                    }
                }
                bool whole[2];
                for (size_t v = 0; v < 2; ++v)
                    whole[v] = item[8 * v] >= 0 &&
                               item[8 * v + 7] == item[8 * v] + 7;
                for (size_t s = 0; s < ns; ++s) {
                    const SliceHash &sh = slices[s];
                    SigLanes lo = {{_mm256_setzero_si256(),
                                    _mm256_setzero_si256()}};
                    SigLanes hi = lo;
                    for (size_t f0 = 0; f0 < sh.h; f0 += 8) {
                        const size_t g = std::min<size_t>(8, sh.h - f0);
                        const HashGroupFn fn =
                            w == 16  ? kGroupPair[g - 1]
                            : w == 8 ? kGroupFull[g - 1]
                                     : kGroupPartial[g - 1];
                        fn(xr + t0, sh.off, sh.len, sh.v + f0 * sh.len,
                           sh.biases + f0, f0, w, f0 < 32 ? &lo : &hi);
                    }
                    uint64_t *out = sigs + s * n;
                    for (size_t v = 0; v * 8 < w; ++v) {
                        // 64-bit lanes 0, 1, 4, 5 and 2, 3, 6, 7.
                        const __m256i a =
                            _mm256_unpacklo_epi32(lo.v[v], hi.v[v]);
                        const __m256i d =
                            _mm256_unpackhi_epi32(lo.v[v], hi.v[v]);
                        const __m256i first = _mm256_permute2x128_si256(a, d, 0x20);
                        const __m256i second = _mm256_permute2x128_si256(a, d, 0x31);
                        if (whole[v]) {
                            uint64_t *dst = out + item[8 * v];
                            _mm256_storeu_si256(
                                reinterpret_cast<__m256i *>(dst), first);
                            _mm256_storeu_si256(
                                reinterpret_cast<__m256i *>(dst + 4), second);
                            continue;
                        }
                        alignas(32) uint64_t lane[8];
                        _mm256_store_si256(reinterpret_cast<__m256i *>(lane),
                                           first);
                        _mm256_store_si256(
                            reinterpret_cast<__m256i *>(lane + 4), second);
                        for (size_t l = 0; l < 8; ++l)
                            if (item[8 * v + l] >= 0)
                                out[item[8 * v + l]] = lane[l];
                    }
                }
                t0 += w;
            }
        }
}

/** Consecutive-address taps of a gathered item: elements
 *  [dst, dst + w) of a row live at src, src + 1, ... src + w - 1. */
struct TapRun
{
    uint32_t src;
    uint32_t dst;
    uint32_t w; //!< 1..8
};

/** Runs (and so ymm accumulators) one pass keeps in registers. */
constexpr size_t kPassRuns = 8;

/**
 * One pass of clusterSumsAvx2 over R tap runs: per cluster, one ymm
 * accumulator per run starts at +0 and adds one masked load per member
 * in member order, then a masked store writes the run's w lanes. Each
 * lane is one (cluster, element) sum with the oracle's add sequence;
 * masked-off lanes read 0 and are never stored.
 */
template <size_t R>
void
clusterRunsAvx2(const float *x, const uint32_t *itemOff, const TapRun *runs,
                size_t len, const size_t *memberOffsets,
                const uint32_t *members, size_t nc, float *sums)
{
    __m256i mask[R];
    uint32_t src[R];
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
        mask[r] = firstLanes(runs[r].w);
        src[r] = runs[r].src;
    }
    for (size_t c = 0; c < nc; ++c) {
        __m256 acc[R];
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r)
            acc[r] = _mm256_setzero_ps();
        for (size_t k = memberOffsets[c]; k < memberOffsets[c + 1]; ++k) {
            const float *p = x + itemOff[members[k]];
#pragma GCC unroll 8
            for (size_t r = 0; r < R; ++r)
                acc[r] = _mm256_add_ps(
                    acc[r], _mm256_maskload_ps(p + src[r], mask[r]));
        }
        float *dst = sums + c * len;
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r)
            _mm256_maskstore_ps(dst + runs[r].dst, mask[r], acc[r]);
    }
}

/**
 * A pass whose R runs are all one tap long (C2 and KwMajor slices put
 * consecutive elements a plane or an input row apart), so they are R
 * consecutive elements from runs[0].dst: scalar accumulators, one per
 * tap, with the oracle's per-element sequence.
 */
template <size_t R>
void
clusterTapsAvx2(const float *x, const uint32_t *itemOff, const TapRun *runs,
                size_t len, const size_t *memberOffsets,
                const uint32_t *members, size_t nc, float *sums)
{
    uint32_t src[R];
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r)
        src[r] = runs[r].src;
    const size_t dst0 = runs[0].dst;
    for (size_t c = 0; c < nc; ++c) {
        float acc[R];
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r)
            acc[r] = 0.0f;
        for (size_t k = memberOffsets[c]; k < memberOffsets[c + 1]; ++k) {
            const float *p = x + itemOff[members[k]];
#pragma GCC unroll 8
            for (size_t r = 0; r < R; ++r)
                acc[r] += p[src[r]];
        }
        float *dst = sums + c * len + dst0;
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r)
            dst[r] = acc[r];
    }
}

using ClusterPassFn = void (*)(const float *, const uint32_t *,
                               const TapRun *, size_t, const size_t *,
                               const uint32_t *, size_t, float *);

template <bool Taps, size_t... R>
constexpr std::array<ClusterPassFn, sizeof...(R)>
clusterPassTable(std::index_sequence<R...>)
{
    if constexpr (Taps)
        return {&clusterTapsAvx2<R + 1>...};
    else
        return {&clusterRunsAvx2<R + 1>...};
}

constexpr auto kRunPasses =
    clusterPassTable<false>(std::make_index_sequence<kPassRuns>{});
constexpr auto kTapPasses =
    clusterPassTable<true>(std::make_index_sequence<kPassRuns>{});

/**
 * Cluster-major sums with register accumulators: the element table is
 * split into runs of consecutive addresses (at most eight taps each; a
 * C1 5x5 slice is five runs of five), and each pass keeps up to
 * kPassRuns of them in registers across a cluster's members. Passes
 * split the elements, never the members, so every (cluster, element)
 * sum still adds the members in order.
 */
void
clusterSumsAvx2(const float *x, const uint32_t *itemOff,
                const uint32_t *elemOff, size_t len,
                const size_t *memberOffsets, const uint32_t *members,
                size_t nc, float *sums)
{
    TapRun runs[kPassRuns];
    for (size_t j = 0; j < len;) {
        size_t r = 0;
        bool taps = true;
        for (; r < kPassRuns && j < len; ++r) {
            size_t w = 1;
            while (w < 8 && j + w < len && elemOff[j + w] == elemOff[j] + w)
                ++w;
            runs[r] = {elemOff[j], static_cast<uint32_t>(j),
                       static_cast<uint32_t>(w)};
            taps = taps && w == 1;
            j += w;
        }
        (taps ? kTapPasses : kRunPasses)[r - 1](
            x, itemOff, runs, len, memberOffsets, members, nc, sums);
    }
}

/** The even- and odd-indexed floats of a[0..7], b[0..7], in order. */
inline void
deinterleave(__m256 a, __m256 b, __m256 &even, __m256 &odd)
{
    even = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0x88)), 0xd8));
    odd = _mm256_castpd_ps(_mm256_permute4x64_pd(
        _mm256_castps_pd(_mm256_shuffle_ps(a, b, 0xdd)), 0xd8));
}

/**
 * Eight windows per step. max(v, best) is v > best ? v : best (it
 * returns its second operand when either is NaN or both are zero), so
 * folding the taps in the oracle's scan order from best = (0,0) gives
 * its bits; (0,0) against itself is a no-op and is skipped. The last
 * ow % 8 windows take the oracle's scan.
 */
void
maxPool2x2Avx2(const float *src, size_t planes, size_t ih, size_t iw,
               size_t oh, size_t ow, float *dst)
{
    const size_t full = ow - ow % 8;
    for (size_t pl = 0; pl < planes; ++pl) {
        const float *plane = src + pl * ih * iw;
        for (size_t yy = 0; yy < oh; ++yy, dst += ow) {
            const float *r0 = plane + 2 * yy * iw;
            const float *r1 = r0 + iw;
            size_t xx = 0;
            for (; xx < full; xx += 8) {
                __m256 e0, o0, e1, o1;
                deinterleave(_mm256_loadu_ps(r0 + 2 * xx),
                             _mm256_loadu_ps(r0 + 2 * xx + 8), e0, o0);
                deinterleave(_mm256_loadu_ps(r1 + 2 * xx),
                             _mm256_loadu_ps(r1 + 2 * xx + 8), e1, o1);
                __m256 best = _mm256_max_ps(o0, e0);
                best = _mm256_max_ps(e1, best);
                best = _mm256_max_ps(o1, best);
                _mm256_storeu_ps(dst + xx, best);
            }
            for (; xx < ow; ++xx) {
                const float *win = r0 + 2 * xx;
                float best = win[0];
                for (const float v : {win[1], win[iw], win[iw + 1]})
                    best = v > best ? v : best;
                dst[xx] = best;
            }
        }
    }
}

/** dst (8 rows, stride ldd) = the 8 x 8 block at src (stride lds),
 *  transposed in registers; with @p Bias, destination row i (source
 *  column i) then gets + bias[i]. */
template <bool Bias>
inline void
transpose8x8Block(const float *src, size_t lds, float *dst, size_t ldd,
                  const float *bias = nullptr)
{
    __m256 r[8], t[8];
#pragma GCC unroll 8
    for (size_t i = 0; i < 8; ++i)
        r[i] = _mm256_loadu_ps(src + i * lds);
#pragma GCC unroll 4
    for (size_t i = 0; i < 8; i += 2) {
        t[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
        t[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
    }
    // Per 128-bit half, rows 4q..4q+3 of columns (0,1) / (2,3) pairs.
#pragma GCC unroll 2
    for (size_t q = 0; q < 8; q += 4) {
        r[q] = _mm256_shuffle_ps(t[q], t[q + 2], 0x44);
        r[q + 1] = _mm256_shuffle_ps(t[q], t[q + 2], 0xee);
        r[q + 2] = _mm256_shuffle_ps(t[q + 1], t[q + 3], 0x44);
        r[q + 3] = _mm256_shuffle_ps(t[q + 1], t[q + 3], 0xee);
    }
#pragma GCC unroll 4
    for (size_t i = 0; i < 4; ++i) {
        __m256 lo = _mm256_permute2f128_ps(r[i], r[i + 4], 0x20);
        __m256 hi = _mm256_permute2f128_ps(r[i], r[i + 4], 0x31);
        if constexpr (Bias) {
            lo = _mm256_add_ps(lo, _mm256_broadcast_ss(bias + i));
            hi = _mm256_add_ps(hi, _mm256_broadcast_ss(bias + i + 4));
        }
        _mm256_storeu_ps(dst + i * ldd, lo);
        _mm256_storeu_ps(dst + (i + 4) * ldd, hi);
    }
}

/**
 * 8 x 8 register blocks, walked column band by column band so each of
 * the eight destination rows a band writes is filled contiguously (the
 * oracle's reason for walking the destination). The rows and columns
 * past the last multiple of eight take the oracle's tiled loop.
 */
void
transposeAvx2(const float *src, size_t rows, size_t cols, float *dst)
{
    const size_t r8 = rows - rows % 8, c8 = cols - cols % 8;
    for (size_t c0 = 0; c0 < c8; c0 += 8)
        for (size_t r0 = 0; r0 < r8; r0 += 8)
            transpose8x8Block<false>(src + r0 * cols + c0, cols,
                                     dst + c0 * rows + r0, rows);
    transposeTileScalar(src, rows, cols, 0, r8, c8, cols, dst);
    transposeTileScalar(src, rows, cols, r8, rows, 0, cols, dst);
}

/** transposeAvx2 with the bias added to each 8 x 8 block's rows in
 *  registers (src + bias[c], as the oracle), and the oracle's loop on
 *  the edges. */
void
transposeBiasAvx2(const float *src, size_t rows, size_t cols,
                  const float *bias, float *dst)
{
    const size_t r8 = rows - rows % 8, c8 = cols - cols % 8;
    for (size_t c0 = 0; c0 < c8; c0 += 8)
        for (size_t r0 = 0; r0 < r8; r0 += 8)
            transpose8x8Block<true>(src + r0 * cols + c0, cols,
                                    dst + c0 * rows + r0, rows, bias + c0);
    transposeBiasTileScalar(src, rows, cols, 0, r8, c8, cols, bias, dst);
    transposeBiasTileScalar(src, rows, cols, r8, rows, 0, cols, bias, dst);
}

/**
 * Up to V vectors (8V columns) of one output row, summed across every
 * slice in ymm accumulators and stored once: each lane starts at +0
 * and adds its slice rows in slice order, the oracle's sequence. With
 * @p Masked the last vector covers only its first @p w lanes.
 */
template <size_t V, bool Masked>
void
recoverChunkAvx2(const float *const *slices, const uint32_t *ids,
                 size_t ns, size_t n, size_t m, size_t row, size_t j0,
                 size_t w, float *y)
{
    const __m256i tail = Masked ? firstLanes(w) : _mm256_setzero_si256();
    __m256 acc[V];
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v)
        acc[v] = _mm256_setzero_ps();
    for (size_t k = 0; k < ns; ++k) {
        const float *src = slices[k] + size_t{ids[k * n + row]} * m + j0;
#pragma GCC unroll 8
        for (size_t v = 0; v < V; ++v)
            acc[v] = _mm256_add_ps(
                acc[v], Masked && v + 1 == V
                            ? _mm256_maskload_ps(src + 8 * v, tail)
                            : _mm256_loadu_ps(src + 8 * v));
    }
    float *dst = y + row * m + j0;
#pragma GCC unroll 8
    for (size_t v = 0; v < V; ++v) {
        if (Masked && v + 1 == V)
            _mm256_maskstore_ps(dst + 8 * v, tail, acc[v]);
        else
            _mm256_storeu_ps(dst + 8 * v, acc[v]);
    }
}

using RecoverChunkFn = void (*)(const float *const *, const uint32_t *,
                                size_t, size_t, size_t, size_t, size_t,
                                size_t, float *);

template <size_t... V>
constexpr std::array<RecoverChunkFn, sizeof...(V)>
recoverChunkTable(std::index_sequence<V...>)
{
    return {&recoverChunkAvx2<V + 1, false>...};
}

constexpr auto kRecoverChunks =
    recoverChunkTable(std::make_index_sequence<8>{});

/** Each row in chunks of up to 64 columns (eight accumulators); the
 *  last m % 8 columns take one masked vector. */
void
recoverRowsAvx2(const float *const *slices, const uint32_t *ids, size_t ns,
                size_t n, size_t m, float *y)
{
    const size_t full = m / 8;
    for (size_t row = 0; row < n; ++row) {
        for (size_t v0 = 0; v0 < full; v0 += 8)
            kRecoverChunks[std::min<size_t>(8, full - v0) - 1](
                slices, ids, ns, n, m, row, 8 * v0, 0, y);
        if (m % 8 != 0)
            recoverChunkAvx2<1, true>(slices, ids, ns, n, m, row, 8 * full,
                                      m % 8, y);
    }
}

void
addChannelBiasAvx2(float *x, const float *bias, size_t batch,
                   size_t channels, size_t hw)
{
    float *row = x;
    for (size_t b = 0; b < batch; ++b)
        for (size_t c = 0; c < channels; ++c, row += hw) {
            const float bc = bias[c];
            const __m256 bv = _mm256_set1_ps(bc);
            size_t p = 0;
            for (; p + 8 <= hw; p += 8)
                _mm256_storeu_ps(row + p,
                                 _mm256_add_ps(_mm256_loadu_ps(row + p), bv));
            for (; p < hw; ++p)
                row[p] += bc;
        }
}

/** The oracle's per-channel scalars broadcast; the same sub, mul, mul,
 *  add per element in the same operand order. */
void
batchNormEvalAvx2(const float *x, size_t batch, size_t channels, size_t hw,
                  const float *mean, const float *var, float eps,
                  const float *gamma, const float *beta, float *y)
{
    for (size_t c = 0; c < channels; ++c) {
        const float mu = mean[c];
        const float is = 1.0f / std::sqrt(var[c] + eps);
        const float g = gamma[c], bt = beta[c];
        const __m256 muv = _mm256_set1_ps(mu), isv = _mm256_set1_ps(is);
        const __m256 gv = _mm256_set1_ps(g), btv = _mm256_set1_ps(bt);
        for (size_t b = 0; b < batch; ++b) {
            const float *px = x + (b * channels + c) * hw;
            float *py = y + (b * channels + c) * hw;
            size_t i = 0;
            for (; i + 8 <= hw; i += 8) {
                const __m256 xn = _mm256_mul_ps(
                    _mm256_sub_ps(_mm256_loadu_ps(px + i), muv), isv);
                _mm256_storeu_ps(
                    py + i, _mm256_add_ps(_mm256_mul_ps(gv, xn), btv));
            }
            for (; i < hw; ++i) {
                const float xn = (px[i] - mu) * is;
                py[i] = g * xn + bt;
            }
        }
    }
}

// ---- the accuracy bound's power iteration ----------------------------
//
// Lanes run across members for the dots and across elements for av,
// and every lane keeps the oracle's sequence: each member's dot is one
// j-ascending chain of double adds, and each av[j] adds the members in
// ascending order. Only which chains advance together changes.

/** acc += widened @p col * @p vq: one j step of four rows' dots. */
inline __m256d
dotStep(__m256d acc, __m128 col, __m256d vq)
{
    return _mm256_add_pd(acc, _mm256_mul_pd(_mm256_cvtps_pd(col), vq));
}

/**
 * The dots with @p v of rows r[0 .. 4) (and r[4 .. 8) with @p Two),
 * lane i holding 0 + r[i][0] v[0] + r[i][1] v[1] + ..., j ascending.
 * A 4 x 4 transpose turns four rows' floats j .. j+3 into four lane
 * vectors. Written out, not looped, so the accumulators stay in
 * registers.
 */
template <bool Two>
void
rowDotsAvx2(const float *const *r, size_t len, const double *v,
            double *dots)
{
    __m256d lo = _mm256_setzero_pd(), hi = _mm256_setzero_pd();
    size_t j = 0;
    for (; j + 4 <= len; j += 4) {
        __m128 a0 = _mm_loadu_ps(r[0] + j), a1 = _mm_loadu_ps(r[1] + j);
        __m128 a2 = _mm_loadu_ps(r[2] + j), a3 = _mm_loadu_ps(r[3] + j);
        _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
        const __m256d v0 = _mm256_broadcast_sd(v + j);
        const __m256d v1 = _mm256_broadcast_sd(v + j + 1);
        const __m256d v2 = _mm256_broadcast_sd(v + j + 2);
        const __m256d v3 = _mm256_broadcast_sd(v + j + 3);
        if constexpr (Two) {
            __m128 b0 = _mm_loadu_ps(r[4] + j), b1 = _mm_loadu_ps(r[5] + j);
            __m128 b2 = _mm_loadu_ps(r[6] + j), b3 = _mm_loadu_ps(r[7] + j);
            _MM_TRANSPOSE4_PS(b0, b1, b2, b3);
            lo = dotStep(lo, a0, v0);
            hi = dotStep(hi, b0, v0);
            lo = dotStep(lo, a1, v1);
            hi = dotStep(hi, b1, v1);
            lo = dotStep(lo, a2, v2);
            hi = dotStep(hi, b2, v2);
            lo = dotStep(lo, a3, v3);
            hi = dotStep(hi, b3, v3);
        } else {
            lo = dotStep(lo, a0, v0);
            lo = dotStep(lo, a1, v1);
            lo = dotStep(lo, a2, v2);
            lo = dotStep(lo, a3, v3);
        }
    }
    for (; j < len; ++j) {
        const __m256d vj = _mm256_broadcast_sd(v + j);
        lo = dotStep(lo, _mm_set_ps(r[3][j], r[2][j], r[1][j], r[0][j]), vj);
        if constexpr (Two)
            hi = dotStep(hi, _mm_set_ps(r[7][j], r[6][j], r[5][j], r[4][j]),
                         vj);
    }
    _mm256_storeu_pd(dots, lo);
    if constexpr (Two)
        _mm256_storeu_pd(dots + 4, hi);
}

/** av[j] += r[i][j] * dots[i] for i = 0 .. n-1 in order, eight
 *  elements of av per step held in registers across the rows. */
void
accumulateRowsAvx2(const float *const *r, size_t n, const double *dots,
                   size_t len, double *av)
{
    size_t j = 0;
    for (; j + 8 <= len; j += 8) {
        __m256d s0 = _mm256_loadu_pd(av + j);
        __m256d s1 = _mm256_loadu_pd(av + j + 4);
        for (size_t i = 0; i < n; ++i) {
            const __m256d d = _mm256_broadcast_sd(dots + i);
            s0 = _mm256_add_pd(
                s0, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(r[i] + j)),
                                  d));
            s1 = _mm256_add_pd(
                s1, _mm256_mul_pd(
                        _mm256_cvtps_pd(_mm_loadu_ps(r[i] + j + 4)), d));
        }
        _mm256_storeu_pd(av + j, s0);
        _mm256_storeu_pd(av + j + 4, s1);
    }
    if (j + 4 <= len) {
        __m256d s = _mm256_loadu_pd(av + j);
        for (size_t i = 0; i < n; ++i)
            s = _mm256_add_pd(
                s, _mm256_mul_pd(_mm256_cvtps_pd(_mm_loadu_ps(r[i] + j)),
                                 _mm256_broadcast_sd(dots + i)));
        _mm256_storeu_pd(av + j, s);
        j += 4;
    }
    for (; j < len; ++j) {
        double s = av[j];
        for (size_t i = 0; i < n; ++i)
            s += r[i][j] * dots[i];
        av[j] = s;
    }
}

/** Members in blocks of up to eight: the block's dots, then its
 *  contributions to av. Lanes past a short block repeat its last row
 *  and are dropped. */
double
lambdaMaxAvx2(const float *dev, size_t m, size_t len, size_t maxIters,
              double *v, double *av)
{
    if (m <= 1)
        return 0.0;
    double lambda = 0.0;
    for (size_t iter = 0; iter < maxIters; ++iter) {
        std::fill(av, av + len, 0.0);
        for (size_t k = 0; k < m; k += 8) {
            const size_t n = std::min<size_t>(8, m - k);
            const float *r[8];
            for (size_t i = 0; i < 8; ++i)
                r[i] = dev + (k + std::min(i, n - 1)) * len;
            alignas(32) double dots[8];
            if (n <= 4)
                rowDotsAvx2<false>(r, len, v, dots);
            else
                rowDotsAvx2<true>(r, len, v, dots);
            accumulateRowsAvx2(r, n, dots, len, av);
        }
        const double md = static_cast<double>(m);
        for (size_t j = 0; j < len; ++j)
            av[j] /= md;

        double av_norm = 0.0;
        for (size_t j = 0; j < len; ++j)
            av_norm += av[j] * av[j];
        av_norm = std::sqrt(av_norm);
        if (av_norm < 1e-12)
            return 0.0;
        lambda = av_norm;
        for (size_t j = 0; j < len; ++j)
            v[j] = av[j] / av_norm;
    }
    return lambda;
}

const Ops kAvx2Ops = {
    "avx2",
    Level::Avx2,
    gemmF32Avx2,
    gemmInt8Avx2,
    addIntoAvx2,
    scaleInPlaceAvx2,
    signProjectAvx2,
    allFiniteAvx2,
    reluAvx2,
    sliceSignaturesAvx2,
    clusterSumsAvx2,
    maxPool2x2Avx2,
    transposeAvx2,
    recoverRowsAvx2,
    transposeBiasAvx2,
    addChannelBiasAvx2,
    batchNormEvalAvx2,
    lambdaMaxAvx2,
};

} // namespace

const Ops *
avx2Ops()
{
    return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

} // namespace genreuse::simd

#else // not x86-64: TU compiles to an accessor that reports "absent"

namespace genreuse::simd {

const Ops *
avx2Ops()
{
    return nullptr;
}

} // namespace genreuse::simd

#endif
