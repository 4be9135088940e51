#include "im2col.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"

namespace genreuse {

bool
ConvGeometry::valid() const
{
    if (batch == 0 || inChannels == 0 || inHeight == 0 || inWidth == 0 ||
        outChannels == 0 || kernelH == 0 || kernelW == 0 || stride == 0) {
        return false;
    }
    return inHeight + 2 * pad >= kernelH && inWidth + 2 * pad >= kernelW;
}

namespace {

void
checkGeometry(const ConvGeometry &geom)
{
    GENREUSE_REQUIRE(geom.valid(), "invalid convolution geometry");
}

void
checkInput(const Tensor &input, const ConvGeometry &geom)
{
    checkGeometry(geom);
    GENREUSE_REQUIRE(input.shape() ==
                     Shape({geom.batch, geom.inChannels, geom.inHeight,
                            geom.inWidth}),
                     "im2col input shape ", input.shape().toString(),
                     " mismatches geometry");
}

/** Row (y, x) of image @p img's im2col matrix into @p dst. */
void
im2colRow(const float *img, const ConvGeometry &geom, size_t y, size_t x,
          float *dst)
{
    const size_t ih = geom.inHeight, iw = geom.inWidth;
    const size_t kh_n = geom.kernelH, kw_n = geom.kernelW;
    const size_t plane = ih * iw;
    // Kernel columns [kw0, kw1) land inside the image; the ones either
    // side of that are zero padding.
    const long sx0 = static_cast<long>(x * geom.stride) -
                     static_cast<long>(geom.pad);
    const size_t kw0 =
        sx0 < 0 ? std::min(kw_n, static_cast<size_t>(-sx0)) : 0;
    const long hi = static_cast<long>(iw) - sx0;
    const size_t kw1 = hi <= static_cast<long>(kw0)
                           ? kw0
                           : std::min(kw_n, static_cast<size_t>(hi));
    for (size_t c = 0; c < geom.inChannels; ++c) {
        const float *chan = img + c * plane;
        for (size_t kh = 0; kh < kh_n; ++kh, dst += kw_n) {
            const long sy = static_cast<long>(y * geom.stride + kh) -
                            static_cast<long>(geom.pad);
            if (sy < 0 || sy >= static_cast<long>(ih)) {
                std::fill(dst, dst + kw_n, 0.0f);
                continue;
            }
            const float *src = chan + static_cast<size_t>(sy) * iw;
            std::fill(dst, dst + kw0, 0.0f);
            for (size_t kw = kw0; kw < kw1; ++kw)
                dst[kw] = src[static_cast<size_t>(sx0 + static_cast<long>(kw))];
            std::fill(dst + kw1, dst + kw_n, 0.0f);
        }
    }
}

} // namespace

Tensor
im2col(const Tensor &input, const ConvGeometry &geom)
{
    checkInput(input, geom);
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    const size_t image = geom.inChannels * geom.inHeight * geom.inWidth;
    const size_t cols = geom.cols();
    Tensor out({geom.rows(), cols});
    float *dst = out.data();
    for (size_t b = 0; b < geom.batch; ++b)
        for (size_t y = 0; y < oh; ++y)
            for (size_t x = 0; x < ow; ++x, dst += cols)
                im2colRow(input.data() + b * image, geom, y, x, dst);
    return out;
}

void
im2colRowsInto(const Tensor &input, const ConvGeometry &geom, size_t row0,
               size_t step, size_t count, float *dst)
{
    checkInput(input, geom);
    GENREUSE_REQUIRE(count == 0 || row0 + (count - 1) * step < geom.rows(),
                     "im2col row out of range");
    const size_t ow = geom.outWidth(), pixels = geom.outHeight() * ow;
    const size_t image = geom.inChannels * geom.inHeight * geom.inWidth;
    for (size_t k = 0; k < count; ++k, dst += geom.cols()) {
        const size_t row = row0 + k * step;
        const size_t b = row / pixels, p = row % pixels;
        im2colRow(input.data() + b * image, geom, p / ow, p % ow, dst);
    }
}

size_t
paddedInputSize(const ConvGeometry &geom)
{
    return geom.batch * geom.inChannels * (geom.inHeight + 2 * geom.pad) *
           (geom.inWidth + 2 * geom.pad);
}

void
padInputInto(const Tensor &input, const ConvGeometry &geom, float *dst)
{
    checkInput(input, geom);
    const size_t ih = geom.inHeight, iw = geom.inWidth, pad = geom.pad;
    const size_t pw = iw + 2 * pad, ph = ih + 2 * pad;
    const float *src = input.data();
    for (size_t pl = 0; pl < geom.batch * geom.inChannels; ++pl) {
        float *plane = dst + pl * ph * pw;
        std::fill(plane, plane + pad * pw, 0.0f);
        for (size_t y = 0; y < ih; ++y, src += iw) {
            float *row = plane + (y + pad) * pw;
            std::fill(row, row + pad, 0.0f);
            std::copy(src, src + iw, row + pad);
            std::fill(row + pad + iw, row + pw, 0.0f);
        }
        std::fill(plane + (ih + pad) * pw, plane + ph * pw, 0.0f);
    }
}

void
patchRowOffsets(const ConvGeometry &geom, uint32_t *out)
{
    const size_t pw = geom.inWidth + 2 * geom.pad;
    const size_t image =
        geom.inChannels * (geom.inHeight + 2 * geom.pad) * pw;
    for (size_t b = 0; b < geom.batch; ++b)
        for (size_t y = 0; y < geom.outHeight(); ++y)
            for (size_t x = 0; x < geom.outWidth(); ++x)
                *out++ = static_cast<uint32_t>(b * image +
                                               y * geom.stride * pw +
                                               x * geom.stride);
}

void
patchColOffsets(const ConvGeometry &geom, uint32_t *out)
{
    const size_t pw = geom.inWidth + 2 * geom.pad;
    const size_t plane = (geom.inHeight + 2 * geom.pad) * pw;
    for (size_t c = 0; c < geom.inChannels; ++c)
        for (size_t kh = 0; kh < geom.kernelH; ++kh)
            for (size_t kw = 0; kw < geom.kernelW; ++kw)
                *out++ = static_cast<uint32_t>(c * plane + kh * pw + kw);
}

Tensor
col2im(const Tensor &cols, const ConvGeometry &geom)
{
    checkGeometry(geom);
    GENREUSE_REQUIRE(cols.shape() == Shape({geom.rows(), geom.cols()}),
                     "col2im input shape ", cols.shape().toString(),
                     " mismatches geometry");

    // The walk mirrors im2col(): rows in order, and within a row only
    // the in-image kernel columns [kw0, kw1) of in-image kernel rows.
    // Each input element gets at most one term per row, so the terms
    // still arrive in row order.
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    const size_t ih = geom.inHeight, iw = geom.inWidth;
    const size_t kh_n = geom.kernelH, kw_n = geom.kernelW;
    const size_t plane = ih * iw;
    Tensor out({geom.batch, geom.inChannels, ih, iw});
    const float *src = cols.data();
    for (size_t b = 0; b < geom.batch; ++b) {
        float *img = out.data() + b * geom.inChannels * plane;
        for (size_t y = 0; y < oh; ++y) {
            for (size_t x = 0; x < ow; ++x) {
                const long sx0 = static_cast<long>(x * geom.stride) -
                                 static_cast<long>(geom.pad);
                const size_t kw0 =
                    sx0 < 0 ? std::min(kw_n, static_cast<size_t>(-sx0)) : 0;
                const long hi = static_cast<long>(iw) - sx0;
                const size_t kw1 =
                    hi <= static_cast<long>(kw0)
                        ? kw0
                        : std::min(kw_n, static_cast<size_t>(hi));
                for (size_t c = 0; c < geom.inChannels; ++c) {
                    float *chan = img + c * plane;
                    for (size_t kh = 0; kh < kh_n; ++kh, src += kw_n) {
                        const long sy = static_cast<long>(y * geom.stride +
                                                          kh) -
                                        static_cast<long>(geom.pad);
                        if (sy < 0 || sy >= static_cast<long>(ih))
                            continue;
                        float *dst = chan + static_cast<size_t>(sy) * iw;
                        for (size_t kw = kw0; kw < kw1; ++kw)
                            dst[static_cast<size_t>(
                                sx0 + static_cast<long>(kw))] += src[kw];
                    }
                }
            }
        }
    }
    return out;
}

Tensor
kernelToMatrix(const Tensor &kernel)
{
    GENREUSE_REQUIRE(kernel.shape().rank() == 4,
                     "kernel must be rank-4 (M, C, KH, KW)");
    const size_t m = kernel.shape().dim(0);
    const size_t din = kernel.shape().dim(1) * kernel.shape().dim(2) *
                       kernel.shape().dim(3);
    // Kernel storage is already [c][kh][kw]-major per filter, so the
    // weight matrix is the (M x Din) kernel transposed.
    Tensor w({din, m});
    simd::ops().transpose(kernel.data(), m, din, w.data());
    return w;
}

Tensor
matrixToKernel(const Tensor &mat, const ConvGeometry &geom)
{
    const size_t din = geom.cols(), m = geom.outChannels;
    GENREUSE_REQUIRE(mat.shape() == Shape({din, m}),
                     "weight matrix shape ", mat.shape().toString(),
                     " mismatches geometry");
    Tensor kernel({m, geom.inChannels, geom.kernelH, geom.kernelW});
    simd::ops().transpose(mat.data(), din, m, kernel.data());
    return kernel;
}

Tensor
gemmOutputToActivation(const Tensor &y, const ConvGeometry &geom,
                       const float *bias)
{
    const size_t pixels = geom.outHeight() * geom.outWidth();
    const size_t m = geom.outChannels;
    GENREUSE_REQUIRE(y.shape() == Shape({geom.rows(), m}),
                     "GEMM output shape ", y.shape().toString(),
                     " mismatches geometry");
    // Per image, the (pixels x M) GEMM rows transposed are the
    // (M x OH*OW) channel planes.
    Tensor act({geom.batch, m, geom.outHeight(), geom.outWidth()});
    const simd::Ops &simd_ops = simd::ops();
    for (size_t b = 0; b < geom.batch; ++b) {
        const float *src = y.data() + b * pixels * m;
        float *dst = act.data() + b * m * pixels;
        if (bias)
            simd_ops.transposeBias(src, pixels, m, bias, dst);
        else
            simd_ops.transpose(src, pixels, m, dst);
    }
    return act;
}

Tensor
activationToGemmOutput(const Tensor &act, const ConvGeometry &geom)
{
    const size_t pixels = geom.outHeight() * geom.outWidth();
    const size_t m = geom.outChannels;
    GENREUSE_REQUIRE(act.shape() == Shape({geom.batch, m, geom.outHeight(),
                                           geom.outWidth()}),
                     "activation shape ", act.shape().toString(),
                     " mismatches geometry");
    Tensor y({geom.rows(), m});
    for (size_t b = 0; b < geom.batch; ++b)
        simd::ops().transpose(act.data() + b * m * pixels, m, pixels,
                              y.data() + b * pixels * m);
    return y;
}

} // namespace genreuse
