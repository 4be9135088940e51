/**
 * @file
 * NEON kernel table for aarch64 targets (the MCU deployment ISA the
 * paper targets is Arm; this path is what a Cortex-A/Neoverse build
 * dispatches to). Advanced SIMD is mandatory on aarch64, so no
 * runtime CPU probe is needed — availability is a compile-time fact.
 *
 * The same bit-identity contract as AVX2 applies: scalar blocking and
 * per-element op order, vmulq+vaddq (never vfmaq), so the guard's
 * exact-GEMM rung is unchanged by dispatch.
 */

#include "simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace genreuse::simd {

// Scalar oracles (simd.cc) this table has no NEON form of yet.
void sliceSignaturesScalar(const float *x, const PatchGrid &grid,
                           const SliceHash *slices, size_t ns,
                           uint64_t *sigs);
void clusterSumsScalar(const float *x, const uint32_t *itemOff,
                       const uint32_t *elemOff, size_t len,
                       const size_t *memberOffsets, const uint32_t *members,
                       size_t nc, float *sums);
void maxPool2x2Scalar(const float *src, size_t planes, size_t ih, size_t iw,
                      size_t oh, size_t ow, float *dst);
void transposeScalar(const float *src, size_t rows, size_t cols, float *dst);
void recoverRowsScalar(const float *const *slices, const uint32_t *ids,
                       size_t ns, size_t n, size_t m, float *y);
void transposeBiasScalar(const float *src, size_t rows, size_t cols,
                         const float *bias, float *dst);
void addChannelBiasScalar(float *x, const float *bias, size_t batch,
                          size_t channels, size_t hw);
void batchNormEvalScalar(const float *x, size_t batch, size_t channels,
                         size_t hw, const float *mean, const float *var,
                         float eps, const float *gamma, const float *beta,
                         float *y);
double lambdaMaxScalar(const float *dev, size_t m, size_t len,
                       size_t maxIters, double *v, double *av);

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

void
microKernelNeon(const float *a, const float *b, float *c, size_t rows,
                size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        // 1x16 tile: four q-register accumulators per item row.
        for (; j + 16 <= cols; j += 16) {
            float32x4_t acc0 = vdupq_n_f32(0.0f);
            float32x4_t acc1 = vdupq_n_f32(0.0f);
            float32x4_t acc2 = vdupq_n_f32(0.0f);
            float32x4_t acc3 = vdupq_n_f32(0.0f);
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float32x4_t av = vdupq_n_f32(ai[p]);
                const float *bp = bj + p * ldb;
                acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(bp)));
                acc1 = vaddq_f32(acc1, vmulq_f32(av, vld1q_f32(bp + 4)));
                acc2 = vaddq_f32(acc2, vmulq_f32(av, vld1q_f32(bp + 8)));
                acc3 = vaddq_f32(acc3, vmulq_f32(av, vld1q_f32(bp + 12)));
            }
            float *cj = ci + j;
            vst1q_f32(cj, vaddq_f32(vld1q_f32(cj), acc0));
            vst1q_f32(cj + 4, vaddq_f32(vld1q_f32(cj + 4), acc1));
            vst1q_f32(cj + 8, vaddq_f32(vld1q_f32(cj + 8), acc2));
            vst1q_f32(cj + 12, vaddq_f32(vld1q_f32(cj + 12), acc3));
        }
        for (; j + 4 <= cols; j += 4) {
            float32x4_t acc = vdupq_n_f32(0.0f);
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float32x4_t av = vdupq_n_f32(ai[p]);
                acc = vaddq_f32(acc, vmulq_f32(av, vld1q_f32(bj + p * ldb)));
            }
            float *cj = ci + j;
            vst1q_f32(cj, vaddq_f32(vld1q_f32(cj), acc));
        }
        for (; j < cols; ++j) {
            float acc = 0;
            for (size_t p = 0; p < kc; ++p)
                acc += ai[p] * b[p * ldb + j];
            ci[j] += acc;
        }
    }
}

void
gemmF32Neon(const float *a, const float *b, float *c, size_t m, size_t n,
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
                microKernelNeon(a + i0 * lda + p0, b + p0 * ldb + j0,
                                c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                ldc);
            }
        }
    }
}

void
gemmInt8Neon(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
             size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
            int32x4_t acc_lo = vdupq_n_s32(0);
            int32x4_t acc_hi = vdupq_n_s32(0);
            const int8_t *bj = b + j;
            for (size_t p = 0; p < k; ++p) {
                int16x8_t av = vdupq_n_s16(static_cast<int16_t>(ai[p]));
                int16x8_t bv = vmovl_s8(vld1_s8(bj + p * ldb));
                int16x8_t prod = vmulq_s16(av, bv); // exact: fits i16
                acc_lo = vaddw_s16(acc_lo, vget_low_s16(prod));
                acc_hi = vaddw_s16(acc_hi, vget_high_s16(prod));
            }
            vst1q_s32(ci + j, acc_lo);
            vst1q_s32(ci + j + 4, acc_hi);
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
addIntoNeon(float *dst, const float *src, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i,
                  vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
    for (; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceNeon(float *dst, float s, size_t n)
{
    float32x4_t sv = vdupq_n_f32(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), sv));
    for (; i < n; ++i)
        dst[i] *= s;
}

void
signProjectNeon(const float *proj, const float *biases, size_t count,
                size_t h, uint64_t *sigs)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    // Lane -> bit masks for collapsing a comparison result to 4 bits.
    const int32x4_t bit = {1, 2, 4, 8};
    for (size_t i = 0; i < count; ++i) {
        const float *pi = proj + i * h;
        uint64_t sig = 0;
        size_t f = 0;
        for (; f + 4 <= h; f += 4) {
            float32x4_t sum =
                vaddq_f32(vld1q_f32(pi + f), vld1q_f32(biases + f));
            uint32x4_t gt = vcgtq_f32(sum, zero);
            int32x4_t bits = vandq_s32(vreinterpretq_s32_u32(gt), bit);
            uint64_t mask = static_cast<uint64_t>(vaddvq_s32(bits)) & 0xfu;
            sig |= mask << f;
        }
        for (; f < h; ++f) {
            if (pi[f] + biases[f] > 0.0f)
                sig |= uint64_t{1} << f;
        }
        sigs[i] = sig;
    }
}

// Plain loop: the NEON table is not built or tested on x86 hosts, so
// this entry stays the scalar oracle's code until it can be.
bool
allFiniteNeon(const float *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

// Compare-and-select, not vmaxq_f32: NEON max propagates NaN, the
// oracle maps it to 0.
void
reluNeon(const float *src, float *dst, size_t n)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t xv = vld1q_f32(src + i);
        vst1q_f32(dst + i, vbslq_f32(vcgtq_f32(xv, zero), xv, zero));
    }
    for (; i < n; ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

const Ops kNeonOps = {
    "neon",
    Level::Neon,
    gemmF32Neon,
    gemmInt8Neon,
    addIntoNeon,
    scaleInPlaceNeon,
    signProjectNeon,
    allFiniteNeon,
    reluNeon,
    sliceSignaturesScalar,
    clusterSumsScalar,
    maxPool2x2Scalar,
    transposeScalar,
    recoverRowsScalar,
    transposeBiasScalar,
    addChannelBiasScalar,
    batchNormEvalScalar,
    lambdaMaxScalar,
};

} // namespace

const Ops *
neonOps()
{
    return &kNeonOps;
}

} // namespace genreuse::simd

#else // non-aarch64 targets: report "absent"

namespace genreuse::simd {

const Ops *
neonOps()
{
    return nullptr;
}

} // namespace genreuse::simd

#endif
