#include "calibrate.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "bench.h"

namespace perfbench {

namespace {

// The job is an exact CifarNet forward (width 64, 32x32x3 input, fixed
// random weights) written here, independently of the library but in the
// library's style: NCHW tensors with out-of-line element accessors and a
// fresh buffer per operation, im2col and a weight repack per conv, a
// blocked GEMM with a 1x32 AVX2 tile, bias, the transpose back to NCHW,
// ReLU, 2x2 max pooling and two dense layers. Across host states the
// library's guarded and exact forwards keep their ratio to within about
// 2% while either one swings by 1.7x, so a forward of the same shape and
// instruction mix is the yardstick that tracks them.

constexpr size_t kBlockM = 64, kBlockN = 256, kBlockK = 256;

using Kernel = void (*)(const float *a, const float *b, float *c,
                        size_t rows, size_t cols, size_t kc, size_t lda,
                        size_t ldb, size_t ldc);

void
kernelScalar(const float *a, const float *b, float *c, size_t rows,
             size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i)
        for (size_t j = 0; j < cols; ++j) {
            float acc = 0.0f;
            for (size_t p = 0; p < kc; ++p)
                acc += a[i * lda + p] * b[p * ldb + j];
            c[i * ldc + j] += acc;
        }
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void
kernelAvx2(const float *a, const float *b, float *c, size_t rows,
           size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 32 <= cols; j += 32) {
            __m256 acc[4] = {_mm256_setzero_ps(), _mm256_setzero_ps(),
                             _mm256_setzero_ps(), _mm256_setzero_ps()};
            for (size_t p = 0; p < kc; ++p) {
                const __m256 av = _mm256_broadcast_ss(ai + p);
                const float *bp = b + p * ldb + j;
                for (int t = 0; t < 4; ++t)
                    acc[t] = _mm256_add_ps(
                        acc[t], _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8 * t)));
            }
            for (int t = 0; t < 4; ++t)
                _mm256_storeu_ps(ci + j + 8 * t,
                                 _mm256_add_ps(
                                     _mm256_loadu_ps(ci + j + 8 * t), acc[t]));
        }
        if (j < cols)
            kernelScalar(ai, b + j, ci + j, 1, cols - j, kc, lda, ldb, ldc);
    }
}
#endif

Kernel
pickKernel()
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("avx2"))
        return kernelAvx2;
#endif
    return kernelScalar;
}

/** c[m x n] = a[m x k] * b[k x n], row-major. */
void
gemm(const float *a, const float *b, float *c, size_t m, size_t n, size_t k)
{
    static const Kernel kernel = pickKernel();
    std::fill(c, c + m * n, 0.0f);
    for (size_t i0 = 0; i0 < m; i0 += kBlockM)
        for (size_t p0 = 0; p0 < k; p0 += kBlockK)
            for (size_t j0 = 0; j0 < n; j0 += kBlockN)
                kernel(a + i0 * k + p0, b + p0 * n + j0, c + i0 * n + j0,
                       std::min(kBlockM, m - i0), std::min(kBlockN, n - j0),
                       std::min(kBlockK, k - p0), k, n, n);
}

/** A minimal row-major tensor; element access goes through out-of-line
 *  calls, as the library's Tensor::at2/at4 do. */
struct Buf
{
    std::vector<size_t> dims;
    std::vector<float> v;

    explicit Buf(std::vector<size_t> d) : dims(std::move(d))
    {
        size_t n = 1;
        for (size_t x : dims)
            n *= x;
        v.assign(n, 0.0f);
    }

    __attribute__((noinline)) size_t dim(size_t i) const { return dims[i]; }

    __attribute__((noinline)) float &
    at2(size_t r, size_t c)
    {
        return v[r * dim(1) + c];
    }

    __attribute__((noinline)) float &
    at4(size_t n, size_t c, size_t h, size_t w)
    {
        return v[((n * dim(1) + c) * dim(2) + h) * dim(3) + w];
    }
};

/** 5x5 'same' convolution of a 1xCxHxW tensor. */
Buf
conv(Buf &x, const Buf &kernel, const std::vector<float> &bias)
{
    constexpr long kK = 5, kPad = 2;
    const size_t ch = x.dim(1), h = x.dim(2), w = x.dim(3);
    const size_t m = kernel.dim(0), din = ch * kK * kK;
    Buf cols({h * w, din});
    size_t row = 0;
    for (size_t y = 0; y < h; ++y)
        for (size_t xo = 0; xo < w; ++xo, ++row) {
            float *dst = cols.v.data() + row * din;
            size_t col = 0;
            for (size_t c = 0; c < ch; ++c)
                for (long ky = 0; ky < kK; ++ky) {
                    const long sy = static_cast<long>(y) + ky - kPad;
                    for (long kx = 0; kx < kK; ++kx, ++col) {
                        const long sx = static_cast<long>(xo) + kx - kPad;
                        dst[col] = sy < 0 || sx < 0 ||
                                           sy >= static_cast<long>(h) ||
                                           sx >= static_cast<long>(w)
                                       ? 0.0f
                                       : x.at4(0, c, sy, sx);
                    }
                }
        }
    Buf wm({din, m});
    for (size_t f = 0; f < m; ++f)
        for (size_t d = 0; d < din; ++d)
            wm.at2(d, f) = kernel.v[f * din + d];
    Buf out({h * w, m});
    gemm(cols.v.data(), wm.v.data(), out.v.data(), h * w, m, din);
    for (size_t r = 0; r < h * w; ++r)
        for (size_t c = 0; c < m; ++c)
            out.at2(r, c) += bias[c];
    Buf act({1, m, h, w});
    row = 0;
    for (size_t y = 0; y < h; ++y)
        for (size_t xo = 0; xo < w; ++xo, ++row)
            for (size_t c = 0; c < m; ++c)
                act.at4(0, c, y, xo) = out.at2(row, c);
    return act;
}

Buf
relu(const Buf &x)
{
    Buf y(x.dims);
    for (size_t i = 0; i < x.v.size(); ++i)
        y.v[i] = x.v[i] > 0.0f ? x.v[i] : 0.0f;
    return y;
}

/** 2x2 max pooling, stride 2. */
Buf
pool(Buf &x)
{
    const size_t ch = x.dim(1), oh = x.dim(2) / 2, ow = x.dim(3) / 2;
    Buf y({1, ch, oh, ow});
    size_t out = 0;
    for (size_t c = 0; c < ch; ++c)
        for (size_t yy = 0; yy < oh; ++yy)
            for (size_t xx = 0; xx < ow; ++xx, ++out) {
                float best = x.at4(0, c, 2 * yy, 2 * xx);
                for (size_t kh = 0; kh < 2; ++kh)
                    for (size_t kw = 0; kw < 2; ++kw)
                        best = std::max(best,
                                        x.at4(0, c, 2 * yy + kh, 2 * xx + kw));
                y.v[out] = best;
            }
    return y;
}

Buf
dense(const Buf &x, const Buf &weight, const std::vector<float> &bias)
{
    const size_t in = weight.dim(0), n = weight.dim(1);
    Buf flat({1, in});
    flat.v = x.v;
    Buf y({1, n});
    gemm(flat.v.data(), weight.v.data(), y.v.data(), 1, n, in);
    for (size_t c = 0; c < n; ++c)
        y.at2(0, c) += bias[c];
    return y;
}

struct Job
{
    static constexpr size_t kIn = 32, kWidth = 64, kHidden = 192;

    Buf x{{1, 3, kIn, kIn}};
    Buf k1{{kWidth, 3, 5, 5}}, k2{{kWidth, kWidth, 5, 5}};
    Buf w3{{kWidth * 8 * 8, kHidden}}, w4{{kHidden, 10}};
    std::vector<float> b1 = std::vector<float>(kWidth, 0.01f);
    std::vector<float> b2 = std::vector<float>(kWidth, 0.01f);
    std::vector<float> b3 = std::vector<float>(kHidden, 0.01f);
    std::vector<float> b4 = std::vector<float>(10, 0.01f);

    Job()
    {
        uint32_t s = 12345;
        auto fill = [&s](Buf &b, float scale) {
            for (float &f : b.v) {
                s = s * 1664525u + 1013904223u;
                f = scale * (static_cast<float>(s >> 8) / 16777216.0f - 0.5f);
            }
        };
        fill(x, 1.0f);
        fill(k1, 0.2f);
        fill(k2, 0.05f);
        fill(w3, 0.03f);
        fill(w4, 0.1f);
    }

    float
    run()
    {
        Buf a = relu(conv(x, k1, b1));
        Buf p = pool(a);
        Buf c = relu(conv(p, k2, b2));
        Buf q = pool(c);
        Buf h = relu(dense(q, w3, b3));
        Buf out = dense(h, w4, b4);
        return *std::max_element(out.v.begin(), out.v.end());
    }
};

} // namespace

double
calibrationMs()
{
    static Job job;
    static volatile float sink = 0.0f;
    const uint64_t t0 = nowNs();
    sink = sink + job.run();
    return nsToMs(nowNs() - t0);
}

void
HostSpeed::sample(size_t times)
{
    for (size_t i = 0; i < times; ++i) {
        const uint64_t at = nowNs();
        add(at, calibrationMs());
    }
}

void
HostSpeed::add(uint64_t at_ns, double ms)
{
    atNs_.push_back(at_ns);
    ms_.push_back(ms);
}

double
HostSpeed::scale() const
{
    return ms_.empty() ? 1.0 : kCalibrationRefMs / median(ms_);
}

double
HostSpeed::scaleAt(uint64_t t_ns) const
{
    if (ms_.empty())
        return 1.0;
    constexpr uint64_t kWindowNs = 500'000'000;
    const auto lo = std::lower_bound(
        atNs_.begin(), atNs_.end(), t_ns > kWindowNs ? t_ns - kWindowNs : 0);
    const auto hi = std::upper_bound(atNs_.begin(), atNs_.end(),
                                     t_ns + kWindowNs);
    size_t a = lo - atNs_.begin(), b = hi - atNs_.begin();
    if (a == b) {
        // No job within the window: the nearest one.
        a = a == ms_.size() ||
                    (a > 0 && t_ns - atNs_[a - 1] < atNs_[a] - t_ns)
                ? a - 1
                : a;
        b = a + 1;
    }
    return kCalibrationRefMs /
           median(std::vector<double>(ms_.begin() + a, ms_.begin() + b));
}

std::vector<double>
HostSpeed::atRefSpeed(const std::vector<double> &ms,
                      const std::vector<uint64_t> &at_ns) const
{
    std::vector<double> out(ms.size());
    for (size_t i = 0; i < ms.size(); ++i)
        out[i] = ms[i] * scaleAt(at_ns[i]);
    return out;
}

} // namespace perfbench
