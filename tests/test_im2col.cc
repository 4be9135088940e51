/**
 * @file
 * Tests for im2col/col2im: geometry math, explicit small cases, the
 * adjoint property linking im2col and col2im, kernel flattening, the
 * full GEMM-convolution equivalence against a naive convolution, and
 * bit-exact agreement of the pointer-walking layout transforms with
 * their element-by-element reference loops.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

using test::sameBytes;

ConvGeometry
makeGeom(size_t b, size_t c, size_t hw, size_t m, size_t k, size_t stride,
         size_t pad)
{
    ConvGeometry g;
    g.batch = b;
    g.inChannels = c;
    g.inHeight = hw;
    g.inWidth = hw;
    g.outChannels = m;
    g.kernelH = k;
    g.kernelW = k;
    g.stride = stride;
    g.pad = pad;
    return g;
}

/** Naive direct convolution for reference. */
Tensor
naiveConv(const Tensor &input, const Tensor &kernel, const ConvGeometry &g)
{
    Tensor out({g.batch, g.outChannels, g.outHeight(), g.outWidth()});
    for (size_t b = 0; b < g.batch; ++b)
        for (size_t f = 0; f < g.outChannels; ++f)
            for (size_t y = 0; y < g.outHeight(); ++y)
                for (size_t x = 0; x < g.outWidth(); ++x) {
                    float acc = 0.0f;
                    for (size_t c = 0; c < g.inChannels; ++c)
                        for (size_t kh = 0; kh < g.kernelH; ++kh)
                            for (size_t kw = 0; kw < g.kernelW; ++kw) {
                                long sy = static_cast<long>(y * g.stride +
                                                            kh) -
                                          static_cast<long>(g.pad);
                                long sx = static_cast<long>(x * g.stride +
                                                            kw) -
                                          static_cast<long>(g.pad);
                                if (sy < 0 || sx < 0 ||
                                    sy >= static_cast<long>(g.inHeight) ||
                                    sx >= static_cast<long>(g.inWidth))
                                    continue;
                                acc += input.at4(b, c, sy, sx) *
                                       kernel.at4(f, c, kh, kw);
                            }
                    out.at4(b, f, y, x) = acc;
                }
    return out;
}

// ---- element-by-element references ---------------------------------
//
// The straightforward nested loops over at4/at2 that define each
// layout transform; the library versions walk raw pointers instead
// and must produce the same bytes.

Tensor
refIm2col(const Tensor &input, const ConvGeometry &g)
{
    Tensor out({g.rows(), g.cols()});
    size_t row = 0;
    for (size_t b = 0; b < g.batch; ++b)
        for (size_t y = 0; y < g.outHeight(); ++y)
            for (size_t x = 0; x < g.outWidth(); ++x, ++row) {
                size_t col = 0;
                for (size_t c = 0; c < g.inChannels; ++c)
                    for (size_t kh = 0; kh < g.kernelH; ++kh)
                        for (size_t kw = 0; kw < g.kernelW; ++kw, ++col) {
                            long sy = static_cast<long>(y * g.stride + kh) -
                                      static_cast<long>(g.pad);
                            long sx = static_cast<long>(x * g.stride + kw) -
                                      static_cast<long>(g.pad);
                            out.at2(row, col) =
                                sy < 0 || sx < 0 ||
                                        sy >= static_cast<long>(g.inHeight) ||
                                        sx >= static_cast<long>(g.inWidth)
                                    ? 0.0f
                                    : input.at4(b, c, sy, sx);
                        }
            }
    return out;
}

Tensor
refCol2im(const Tensor &cols, const ConvGeometry &g)
{
    Tensor out({g.batch, g.inChannels, g.inHeight, g.inWidth});
    size_t row = 0;
    for (size_t b = 0; b < g.batch; ++b)
        for (size_t y = 0; y < g.outHeight(); ++y)
            for (size_t x = 0; x < g.outWidth(); ++x, ++row) {
                size_t col = 0;
                for (size_t c = 0; c < g.inChannels; ++c)
                    for (size_t kh = 0; kh < g.kernelH; ++kh)
                        for (size_t kw = 0; kw < g.kernelW; ++kw, ++col) {
                            long sy = static_cast<long>(y * g.stride + kh) -
                                      static_cast<long>(g.pad);
                            long sx = static_cast<long>(x * g.stride + kw) -
                                      static_cast<long>(g.pad);
                            if (sy >= 0 && sx >= 0 &&
                                sy < static_cast<long>(g.inHeight) &&
                                sx < static_cast<long>(g.inWidth))
                                out.at4(b, c, sy, sx) += cols.at2(row, col);
                        }
            }
    return out;
}

Tensor
refGemmOutputToActivation(const Tensor &y, const ConvGeometry &g)
{
    Tensor act({g.batch, g.outChannels, g.outHeight(), g.outWidth()});
    size_t row = 0;
    for (size_t b = 0; b < g.batch; ++b)
        for (size_t yy = 0; yy < g.outHeight(); ++yy)
            for (size_t xx = 0; xx < g.outWidth(); ++xx, ++row)
                for (size_t c = 0; c < g.outChannels; ++c)
                    act.at4(b, c, yy, xx) = y.at2(row, c);
    return act;
}

Tensor
refKernelToMatrix(const Tensor &kernel)
{
    const size_t m = kernel.shape().dim(0);
    const size_t din = kernel.size() / m;
    Tensor w({din, m});
    for (size_t f = 0; f < m; ++f)
        for (size_t d = 0; d < din; ++d)
            w.at2(d, f) = kernel[f * din + d];
    return w;
}

TEST(Im2col, LayoutTransformsMatchReferenceLoops)
{
    Rng rng(12);
    // Non-square inputs, including ones narrower than the kernel that
    // only fit with padding (pad >= kernel edge: whole rows and columns
    // of the matrix are padding).
    const std::pair<size_t, size_t> kInputs[] = {{5, 7}, {8, 3}, {1, 2},
                                                 {6, 6}};
    size_t checked = 0;
    for (size_t batch : {size_t(1), size_t(3)})
        for (size_t k : {size_t(1), size_t(3), size_t(5), size_t(7)})
            for (size_t stride : {size_t(1), size_t(2)})
                for (size_t pad = 0; pad <= 3; ++pad)
                    for (auto [h, w] : kInputs) {
                        ConvGeometry g = makeGeom(batch, 2, h, 3, k, stride,
                                                  pad);
                        g.inWidth = w;
                        if (!g.valid())
                            continue;
                        Tensor input = Tensor::randomNormal(
                            {batch, 2, h, w}, rng);
                        ASSERT_TRUE(sameBytes(im2col(input, g),
                                              refIm2col(input, g)))
                            << "b=" << batch << " k=" << k << " s=" << stride
                            << " pad=" << pad << " in=" << h << "x" << w;
                        Tensor grad_cols =
                            Tensor::randomNormal({g.rows(), g.cols()}, rng);
                        ASSERT_TRUE(sameBytes(col2im(grad_cols, g),
                                              refCol2im(grad_cols, g)))
                            << "col2im b=" << batch << " k=" << k
                            << " s=" << stride << " pad=" << pad;

                        Tensor y = Tensor::randomNormal(
                            {g.rows(), g.outChannels}, rng);
                        Tensor act = gemmOutputToActivation(y, g);
                        ASSERT_TRUE(
                            sameBytes(act, refGemmOutputToActivation(y, g)));
                        ASSERT_TRUE(
                            sameBytes(activationToGemmOutput(act, g), y));
                        ++checked;
                    }
    EXPECT_GT(checked, 100u);

    for (auto [m, c, k] : {std::make_tuple(1, 1, 1), std::make_tuple(3, 2, 3),
                           std::make_tuple(17, 5, 5),
                           std::make_tuple(64, 32, 5)}) {
        Tensor kernel = Tensor::randomNormal(
            {size_t(m), size_t(c), size_t(k), size_t(k)}, rng);
        Tensor w = kernelToMatrix(kernel);
        ASSERT_TRUE(sameBytes(w, refKernelToMatrix(kernel)))
            << "m=" << m << " c=" << c << " k=" << k;
        ConvGeometry g = makeGeom(1, c, 8, m, k, 1, k / 2);
        ASSERT_TRUE(sameBytes(matrixToKernel(w, g), kernel));
    }
}

TEST(ConvGeometry, OutputDims)
{
    ConvGeometry g = makeGeom(1, 3, 32, 64, 5, 1, 2);
    EXPECT_EQ(g.outHeight(), 32u);
    EXPECT_EQ(g.outWidth(), 32u);
    EXPECT_EQ(g.rows(), 1024u);
    EXPECT_EQ(g.cols(), 75u); // the paper's CifarNet Conv1 Din
    EXPECT_EQ(g.macs(), 1024u * 75u * 64u);
}

TEST(ConvGeometry, StridedOutput)
{
    ConvGeometry g = makeGeom(2, 3, 32, 96, 7, 2, 3);
    EXPECT_EQ(g.outHeight(), 16u);
    EXPECT_EQ(g.cols(), 147u); // ZfNet Conv1 Din
    EXPECT_EQ(g.rows(), 2u * 16u * 16u);
}

TEST(ConvGeometry, Validity)
{
    EXPECT_TRUE(makeGeom(1, 1, 8, 1, 3, 1, 0).valid());
    EXPECT_FALSE(makeGeom(1, 1, 2, 1, 5, 1, 0).valid()); // kernel too big
    ConvGeometry g = makeGeom(1, 1, 8, 1, 3, 1, 0);
    g.stride = 0;
    EXPECT_FALSE(g.valid());
}

TEST(Im2col, SingleChannelNoPad)
{
    // 1x1x3x3 input, 2x2 kernel sweep -> 4 rows of 4 values.
    Tensor in = Tensor::iota({1, 1, 3, 3});
    ConvGeometry g = makeGeom(1, 1, 3, 1, 2, 1, 0);
    Tensor cols = im2col(in, g);
    EXPECT_EQ(cols.shape(), Shape({4, 4}));
    // Top-left window: 0 1 / 3 4.
    EXPECT_EQ(cols.at2(0, 0), 0.0f);
    EXPECT_EQ(cols.at2(0, 1), 1.0f);
    EXPECT_EQ(cols.at2(0, 2), 3.0f);
    EXPECT_EQ(cols.at2(0, 3), 4.0f);
    // Bottom-right window: 4 5 / 7 8.
    EXPECT_EQ(cols.at2(3, 0), 4.0f);
    EXPECT_EQ(cols.at2(3, 3), 8.0f);
}

TEST(Im2col, PaddingProducesZeros)
{
    Tensor in = Tensor::full({1, 1, 2, 2}, 5.0f);
    ConvGeometry g = makeGeom(1, 1, 2, 1, 3, 1, 1);
    Tensor cols = im2col(in, g);
    EXPECT_EQ(cols.shape(), Shape({4, 9}));
    // First row's first element comes from the (-1,-1) padded corner.
    EXPECT_EQ(cols.at2(0, 0), 0.0f);
    // Center of the first window is in-bounds.
    EXPECT_EQ(cols.at2(0, 4), 5.0f);
}

TEST(Im2col, ChannelMajorColumnLayout)
{
    // Column index must be (c * KH + kh) * KW + kw.
    Tensor in = Tensor::iota({1, 2, 2, 2});
    ConvGeometry g = makeGeom(1, 2, 2, 1, 2, 1, 0);
    Tensor cols = im2col(in, g);
    EXPECT_EQ(cols.shape(), Shape({1, 8}));
    // First 4 entries are channel 0 (values 0..3), next 4 channel 1.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(cols.at2(0, i), static_cast<float>(i));
}

TEST(Im2col, Col2ImAdjoint)
{
    // <im2col(x), y> == <x, col2im(y)> for all x, y (adjoint pair).
    Rng rng(8);
    ConvGeometry g = makeGeom(2, 3, 6, 4, 3, 2, 1);
    Tensor x = Tensor::randomNormal(
        {g.batch, g.inChannels, g.inHeight, g.inWidth}, rng);
    Tensor y = Tensor::randomNormal({g.rows(), g.cols()}, rng);
    Tensor ix = im2col(x, g);
    Tensor cy = col2im(y, g);
    double lhs = 0.0, rhs = 0.0;
    for (size_t i = 0; i < ix.size(); ++i)
        lhs += static_cast<double>(ix[i]) * y[i];
    for (size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * cy[i];
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

TEST(Im2col, KernelMatrixRoundTrip)
{
    Rng rng(9);
    Tensor kernel = Tensor::randomNormal({4, 3, 5, 5}, rng);
    ConvGeometry g = makeGeom(1, 3, 8, 4, 5, 1, 2);
    Tensor w = kernelToMatrix(kernel);
    EXPECT_EQ(w.shape(), Shape({75, 4}));
    Tensor back = matrixToKernel(w, g);
    EXPECT_LT(maxAbsDiff(kernel, back), 1e-7f);
}

class ConvEquivalence
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t,
                                                 size_t, size_t>>
{
};

TEST_P(ConvEquivalence, GemmEqualsDirectConvolution)
{
    auto [c, hw, m, k, stride] = GetParam();
    size_t pad = k / 2;
    Rng rng(10 + c + hw + m + k);
    ConvGeometry g = makeGeom(2, c, hw, m, k, stride, pad);
    Tensor input = Tensor::randomNormal(
        {g.batch, g.inChannels, g.inHeight, g.inWidth}, rng);
    Tensor kernel =
        Tensor::randomNormal({m, c, k, k}, rng);

    Tensor cols = im2col(input, g);
    Tensor w = kernelToMatrix(kernel);
    Tensor y = matmul(cols, w);
    Tensor act = gemmOutputToActivation(y, g);

    Tensor ref = naiveConv(input, kernel, g);
    EXPECT_LT(maxAbsDiff(act, ref), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConvEquivalence,
    ::testing::Values(std::make_tuple(1, 6, 2, 3, 1),
                      std::make_tuple(3, 8, 4, 5, 1),
                      std::make_tuple(3, 9, 2, 3, 2),
                      std::make_tuple(2, 7, 3, 1, 1),
                      std::make_tuple(4, 6, 8, 3, 1)));

TEST(Im2col, ConvOneOutputFoldRoundTrip)
{
    // 1024 x 64: the 32x32, 64-channel conv1 output of CifarNet and
    // SqueezeNet, whose power-of-two row count is the case the
    // destination-contiguous transpose exists for.
    Rng rng(13);
    ConvGeometry g = makeGeom(1, 3, 32, 64, 5, 1, 2);
    ASSERT_EQ(g.rows(), 1024u);
    Tensor y = Tensor::randomNormal({g.rows(), g.outChannels}, rng);
    Tensor act = gemmOutputToActivation(y, g);
    ASSERT_TRUE(sameBytes(act, refGemmOutputToActivation(y, g)));
    EXPECT_TRUE(sameBytes(activationToGemmOutput(act, g), y));
}

TEST(Im2col, BlockedTransposeRoundTrips)
{
    // The layout folds run on 8 x 8 register blocks with a tiled loop
    // for the edges: whole-block shapes (1024 x 64 conv1, 256 x 64
    // conv2 outputs, two images) and shapes with ragged rows and
    // columns (15 x 15 and 7 x 7 outputs, 13 and 20 channels).
    Rng rng(15);
    for (auto [side, m] : {std::pair<size_t, size_t>{32, 64}, {16, 64},
                           {15, 13}, {7, 20}}) {
        ConvGeometry g = makeGeom(2, 3, side, m, 3, 1, 1);
        Tensor y = Tensor::randomNormal({g.rows(), g.outChannels}, rng);
        Tensor act = gemmOutputToActivation(y, g);
        ASSERT_TRUE(sameBytes(act, refGemmOutputToActivation(y, g)))
            << side * side << " x " << m;
        EXPECT_TRUE(sameBytes(activationToGemmOutput(act, g), y))
            << side * side << " x " << m;
    }
}

TEST(Im2col, RowGatherAndPatchOffsetsMatchTheMatrix)
{
    Rng rng(14);
    for (size_t batch : {size_t(1), size_t(3)})
        for (size_t k : {size_t(1), size_t(3), size_t(5)})
            for (size_t stride : {size_t(1), size_t(2)})
                for (size_t pad = 0; pad <= 2; ++pad) {
                    ConvGeometry g = makeGeom(batch, 2, 7, 3, k, stride, pad);
                    if (!g.valid())
                        continue;
                    Tensor input =
                        Tensor::randomNormal({batch, 2, 7, 7}, rng);
                    const Tensor cols = im2col(input, g);
                    const size_t n = g.rows(), din = g.cols();

                    // Every third row, gathered without the matrix.
                    const size_t count = (n + 2) / 3;
                    std::vector<float> rows(count * din);
                    im2colRowsInto(input, g, 0, 3, count, rows.data());
                    for (size_t r = 0; r < count; ++r)
                        ASSERT_EQ(std::memcmp(rows.data() + r * din,
                                              cols.data() + 3 * r * din,
                                              din * sizeof(float)),
                                  0)
                            << "row " << 3 * r;

                    std::vector<float> padded(paddedInputSize(g));
                    std::vector<uint32_t> row_off(n), col_off(din);
                    padInputInto(input, g, padded.data());
                    patchRowOffsets(g, row_off.data());
                    patchColOffsets(g, col_off.data());
                    for (size_t r = 0; r < n; ++r)
                        for (size_t c = 0; c < din; ++c)
                            ASSERT_EQ(padded[row_off[r] + col_off[c]],
                                      cols.at2(r, c))
                                << "b=" << batch << " k=" << k
                                << " s=" << stride << " pad=" << pad
                                << " r=" << r << " c=" << c;
                }
}

TEST(Im2col, ActivationFoldRoundTrip)
{
    Rng rng(11);
    ConvGeometry g = makeGeom(2, 1, 4, 3, 3, 1, 1);
    Tensor y = Tensor::randomNormal({g.rows(), g.outChannels}, rng);
    Tensor act = gemmOutputToActivation(y, g);
    Tensor back = activationToGemmOutput(act, g);
    EXPECT_LT(maxAbsDiff(y, back), 1e-7f);
}

} // namespace
} // namespace genreuse
