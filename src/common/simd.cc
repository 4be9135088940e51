#include "simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace genreuse::simd {

// ---- scalar oracle ----------------------------------------------------
//
// These loops are the reference semantics for every level: the blocked
// f32 GEMM (1x8 register tiling over the k-panel) is the pre-dispatch
// genreuse::gemmRaw verbatim, and the int8 kernel mirrors int8Matmul's
// original accumulation. Vector tables must reproduce these
// bit-for-bit (see simd.h). The oracles with external linkage are the
// ones vector tables share: as their whole entry (NEON) or for the
// edges their vector loop leaves (the AVX2 transposes).

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

void
microKernelScalar(const float *a, const float *b, float *c, size_t rows,
                  size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 8 <= cols; j += 8) {
            float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
            float acc4 = 0, acc5 = 0, acc6 = 0, acc7 = 0;
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float av = ai[p];
                const float *bp = bj + p * ldb;
                acc0 += av * bp[0];
                acc1 += av * bp[1];
                acc2 += av * bp[2];
                acc3 += av * bp[3];
                acc4 += av * bp[4];
                acc5 += av * bp[5];
                acc6 += av * bp[6];
                acc7 += av * bp[7];
            }
            ci[j + 0] += acc0;
            ci[j + 1] += acc1;
            ci[j + 2] += acc2;
            ci[j + 3] += acc3;
            ci[j + 4] += acc4;
            ci[j + 5] += acc5;
            ci[j + 6] += acc6;
            ci[j + 7] += acc7;
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
gemmF32Scalar(const float *a, const float *b, float *c, size_t m, size_t n,
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
                microKernelScalar(a + i0 * lda + p0, b + p0 * ldb + j0,
                                  c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                  ldc);
            }
        }
    }
}

void
gemmInt8Scalar(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
               size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        for (size_t j = 0; j < n; ++j) {
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
addIntoScalar(float *dst, const float *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceScalar(float *dst, float s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] *= s;
}

void
signProjectScalar(const float *proj, const float *biases, size_t count,
                  size_t h, uint64_t *sigs)
{
    for (size_t i = 0; i < count; ++i) {
        const float *pi = proj + i * h;
        uint64_t sig = 0;
        for (size_t f = 0; f < h; ++f) {
            if (pi[f] + biases[f] > 0.0f)
                sig |= uint64_t{1} << f;
        }
        sigs[i] = sig;
    }
}

bool
allFiniteScalar(const float *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

void
reluScalar(const float *src, float *dst, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = src[i] > 0.0f ? src[i] : 0.0f;
}

/** The signature of the patch starting at @p xi under one slice's
 *  family: the sliceSignatures contract's per-function sequence. */
uint64_t
patchSignature(const float *xi, const SliceHash &s)
{
    uint64_t sig = 0;
    for (size_t f = 0; f < s.h; ++f) {
        const float *vf = s.v + f * s.len;
        float p = 0.0f;
        for (size_t j0 = 0; j0 < s.len; j0 += kBlockK) {
            const size_t j1 = std::min(s.len, j0 + kBlockK);
            float acc = 0.0f;
            for (size_t j = j0; j < j1; ++j)
                acc += xi[s.off[j]] * vf[j];
            p += acc;
        }
        if (p + s.biases[f] > 0.0f)
            sig |= uint64_t{1} << f;
    }
    return sig;
}

} // namespace

void
clusterSumsScalar(const float *x, const uint32_t *itemOff,
                  const uint32_t *elemOff, size_t len,
                  const size_t *memberOffsets, const uint32_t *members,
                  size_t nc, float *sums)
{
    for (size_t c = 0; c < nc; ++c) {
        float *dst = sums + c * len;
        std::fill(dst, dst + len, 0.0f);
        for (size_t k = memberOffsets[c]; k < memberOffsets[c + 1]; ++k) {
            const float *src = x + itemOff[members[k]];
            for (size_t j = 0; j < len; ++j)
                dst[j] += src[elemOff[j]];
        }
    }
}

void
sliceSignaturesScalar(const float *x, const PatchGrid &grid,
                      const SliceHash *slices, size_t ns, uint64_t *sigs)
{
    for (size_t s = 0; s < ns; ++s)
        for (size_t b = 0; b < grid.images; ++b)
            for (size_t r = 0; r < grid.rows; ++r) {
                const float *row =
                    x + b * grid.imageStride + r * grid.pitch;
                for (size_t c = 0; c < grid.cols; ++c)
                    *sigs++ = patchSignature(row + c, slices[s]);
            }
}

void
maxPool2x2Scalar(const float *src, size_t planes, size_t ih, size_t iw,
                 size_t oh, size_t ow, float *dst)
{
    for (size_t pl = 0; pl < planes; ++pl) {
        const float *plane = src + pl * ih * iw;
        for (size_t yy = 0; yy < oh; ++yy)
            for (size_t xx = 0; xx < ow; ++xx, ++dst) {
                const float *win = plane + 2 * yy * iw + 2 * xx;
                float best = win[0];
                for (size_t kh = 0; kh < 2; ++kh)
                    for (size_t kw = 0; kw < 2; ++kw) {
                        const float v = win[kh * iw + kw];
                        best = v > best ? v : best;
                    }
                *dst = best;
            }
    }
}

namespace {

/**
 * In square tiles so both sides stay cache-resident; the inner loop
 * walks the destination contiguously. With it innermost on the source,
 * every store was a `rows`-float stride, which aliases in the cache
 * when rows is a power of two (a 1024 x 64 conv output took about 8x
 * longer). With @p Bias each element gets src + bias[c].
 */
template <bool Bias>
void
transposeTile(const float *src, size_t rows, size_t cols, size_t r0,
              size_t r1, size_t c0, size_t c1, const float *bias,
              float *dst)
{
    constexpr size_t kTile = 16;
    for (size_t t0 = r0; t0 < r1; t0 += kTile) {
        const size_t t1 = std::min(r1, t0 + kTile);
        for (size_t u0 = c0; u0 < c1; u0 += kTile) {
            const size_t u1 = std::min(c1, u0 + kTile);
            for (size_t c = u0; c < u1; ++c)
                for (size_t r = t0; r < t1; ++r) {
                    if constexpr (Bias)
                        dst[c * rows + r] = src[r * cols + c] + bias[c];
                    else
                        dst[c * rows + r] = src[r * cols + c];
                }
        }
    }
}

} // namespace

/** transposeScalar() of source rows [r0, r1) x columns [c0, c1) only. */
void
transposeTileScalar(const float *src, size_t rows, size_t cols, size_t r0,
                    size_t r1, size_t c0, size_t c1, float *dst)
{
    transposeTile<false>(src, rows, cols, r0, r1, c0, c1, nullptr, dst);
}

void
transposeScalar(const float *src, size_t rows, size_t cols, float *dst)
{
    transposeTileScalar(src, rows, cols, 0, rows, 0, cols, dst);
}

/** transposeBiasScalar() of source rows [r0, r1) x columns [c0, c1). */
void
transposeBiasTileScalar(const float *src, size_t rows, size_t cols,
                        size_t r0, size_t r1, size_t c0, size_t c1,
                        const float *bias, float *dst)
{
    transposeTile<true>(src, rows, cols, r0, r1, c0, c1, bias, dst);
}

/** The per-column bias add and the transpose in one pass: one add per
 *  element, src + bias[c], the add an addInto of the bias row makes. */
void
transposeBiasScalar(const float *src, size_t rows, size_t cols,
                    const float *bias, float *dst)
{
    transposeBiasTileScalar(src, rows, cols, 0, rows, 0, cols, bias, dst);
}

void
recoverRowsScalar(const float *const *slices, const uint32_t *ids,
                  size_t ns, size_t n, size_t m, float *y)
{
    for (size_t row = 0; row < n; ++row) {
        float *yr = y + row * m;
        std::fill(yr, yr + m, 0.0f);
        for (size_t k = 0; k < ns; ++k) {
            const float *src = slices[k] + size_t{ids[k * n + row]} * m;
            for (size_t j = 0; j < m; ++j)
                yr[j] += src[j];
        }
    }
}

void
addChannelBiasScalar(float *x, const float *bias, size_t batch,
                     size_t channels, size_t hw)
{
    float *row = x;
    for (size_t b = 0; b < batch; ++b)
        for (size_t c = 0; c < channels; ++c, row += hw) {
            const float bc = bias[c];
            for (size_t p = 0; p < hw; ++p)
                row[p] += bc;
        }
}

void
batchNormEvalScalar(const float *x, size_t batch, size_t channels,
                    size_t hw, const float *mean, const float *var,
                    float eps, const float *gamma, const float *beta,
                    float *y)
{
    for (size_t c = 0; c < channels; ++c) {
        const float mu = mean[c];
        const float is = 1.0f / std::sqrt(var[c] + eps);
        const float g = gamma[c], bt = beta[c];
        for (size_t b = 0; b < batch; ++b) {
            const float *px = x + (b * channels + c) * hw;
            float *py = y + (b * channels + c) * hw;
            for (size_t i = 0; i < hw; ++i) {
                const float xn = (px[i] - mu) * is;
                py[i] = g * xn + bt;
            }
        }
    }
}

/** The accuracy bound's power iteration (clusterScatterBound): the
 *  Ops::lambdaMax sequence, one member's dot at a time. */
double
lambdaMaxScalar(const float *dev, size_t m, size_t len, size_t maxIters,
                double *v, double *av)
{
    if (m <= 1)
        return 0.0;
    double lambda = 0.0;
    for (size_t iter = 0; iter < maxIters; ++iter) {
        std::fill(av, av + len, 0.0);
        for (size_t k = 0; k < m; ++k) {
            const float *d = dev + k * len;
            double dot = 0.0;
            for (size_t j = 0; j < len; ++j)
                dot += d[j] * v[j];
            for (size_t j = 0; j < len; ++j)
                av[j] += d[j] * dot;
        }
        for (size_t j = 0; j < len; ++j)
            av[j] /= static_cast<double>(m);

        double av_norm = 0.0;
        for (size_t j = 0; j < len; ++j)
            av_norm += av[j] * av[j];
        av_norm = std::sqrt(av_norm);
        if (av_norm < 1e-12)
            return 0.0; // all points equal the centroid
        lambda = av_norm;
        for (size_t j = 0; j < len; ++j)
            v[j] = av[j] / av_norm;
    }
    return lambda;
}

namespace {

constexpr Ops kScalarOps = {
    "scalar",
    Level::Scalar,
    gemmF32Scalar,
    gemmInt8Scalar,
    addIntoScalar,
    scaleInPlaceScalar,
    signProjectScalar,
    allFiniteScalar,
    reluScalar,
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

std::atomic<const Ops *> g_active{nullptr};

} // namespace

// Vector tables live in separately-compiled TUs (simd_avx2.cc /
// simd_neon.cc) so only those files carry ISA compile flags; on
// targets where a table cannot exist the TU compiles to an accessor
// returning nullptr.
const Ops *avx2Ops(); // defined in simd_avx2.cc
const Ops *neonOps(); // defined in simd_neon.cc

namespace {

const Ops *
tableFor(Level level)
{
    switch (level) {
    case Level::Scalar:
        return &kScalarOps;
    case Level::Avx2:
        return avx2Ops(); // nullptr when not compiled in / CPU lacks it
    case Level::Neon:
        return neonOps();
    }
    return nullptr;
}

Level
bestAvailable()
{
    if (tableFor(Level::Avx2))
        return Level::Avx2;
    if (tableFor(Level::Neon))
        return Level::Neon;
    return Level::Scalar;
}

const Ops *
resolveStartupTable()
{
#if defined(GENREUSE_SIMD_FORCE_SCALAR)
    return &kScalarOps;
#else
    Level level = bestAvailable();
    if (const char *env = std::getenv("GENREUSE_SIMD")) {
        Expected<Level> parsed = parseLevel(env);
        if (!parsed.ok()) {
            warn("ignoring GENREUSE_SIMD=", env, ": ",
                 parsed.status().message());
        } else if (const Ops *t = tableFor(*parsed)) {
            return t;
        } else {
            warn("GENREUSE_SIMD=", env, " requests a level this "
                 "build/CPU cannot provide; falling back to scalar");
            return &kScalarOps;
        }
    }
    const Ops *t = tableFor(level);
    return t ? t : &kScalarOps;
#endif
}

} // namespace

bool
available(Level level)
{
    return tableFor(level) != nullptr;
}

Level
detect()
{
    return resolveStartupTable()->level;
}

const Ops &
ops()
{
    const Ops *t = g_active.load(std::memory_order_relaxed);
    if (t == nullptr) {
        // First call: resolve once. Races are benign (same answer).
        t = resolveStartupTable();
        g_active.store(t, std::memory_order_relaxed);
    }
    return *t;
}

const Ops &
opsFor(Level level)
{
    const Ops *t = tableFor(level);
    return t ? *t : kScalarOps;
}

Level
activeLevel()
{
    return ops().level;
}

Status
setActiveLevel(Level level)
{
    const Ops *t = tableFor(level);
    if (!t)
        return Status::error(ErrorCode::InvalidArgument, "SIMD level ",
                             levelName(level),
                             " is not available in this build/CPU");
    ops(); // make sure startup resolution happened first
    g_active.store(t, std::memory_order_relaxed);
    return Status();
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::Avx2:
        return "avx2";
    case Level::Neon:
        return "neon";
    }
    return "?";
}

Expected<Level>
parseLevel(const char *s)
{
    std::string v(s ? s : "");
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (v == "scalar")
        return Level::Scalar;
    if (v == "avx2")
        return Level::Avx2;
    if (v == "neon")
        return Level::Neon;
    if (v == "auto")
        return bestAvailable();
    return Status::error(ErrorCode::InvalidArgument,
                         "expected scalar|avx2|neon|auto, got \"",
                         v, "\"");
}

} // namespace genreuse::simd
