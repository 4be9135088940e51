/**
 * @file
 * im2col / col2im: the matrix view of a convolution (§3.3 of the paper).
 *
 * A convolution of a (B, C, H, W) input with M kernels of size
 * (C, KH, KW) becomes X(N x Din) x W(Din x M) with N = B*OH*OW and
 * Din = C*KH*KW. The default ("channel-major") column layout matches
 * Figure 6(b): one row holds the tile's values laid out channel by
 * channel, i.e. column index = (c * KH + kh) * KW + kw. Row index =
 * (b * OH + oh) * OW + ow. Reuse *orders* are permutations of these
 * rows/columns and live in src/core/reorder.h.
 */

#ifndef GENREUSE_TENSOR_IM2COL_H
#define GENREUSE_TENSOR_IM2COL_H

#include <cstddef>
#include <cstdint>

#include "tensor.h"

namespace genreuse {

/** Static geometry of one convolution layer. */
struct ConvGeometry
{
    size_t batch = 1;
    size_t inChannels = 1;
    size_t inHeight = 1;
    size_t inWidth = 1;
    size_t outChannels = 1;
    size_t kernelH = 1;
    size_t kernelW = 1;
    size_t stride = 1;
    size_t pad = 0;

    /** Output spatial height. */
    size_t outHeight() const
    {
        return (inHeight + 2 * pad - kernelH) / stride + 1;
    }

    /** Output spatial width. */
    size_t outWidth() const
    {
        return (inWidth + 2 * pad - kernelW) / stride + 1;
    }

    /** Rows of the im2col matrix: B * OH * OW. */
    size_t rows() const { return batch * outHeight() * outWidth(); }

    /** Columns of the im2col matrix: C * KH * KW (paper's K / Din). */
    size_t cols() const { return inChannels * kernelH * kernelW; }

    /** MAC count of the exact convolution (N * Din * Dout). */
    size_t macs() const { return rows() * cols() * outChannels; }

    /** Validity: kernel fits and all dims positive. */
    bool valid() const;
};

/**
 * Expand @p input (B, C, H, W) into the im2col matrix (rows() x cols())
 * in the default channel-major column layout. Zero padding is applied
 * where the kernel hangs over the border.
 */
Tensor im2col(const Tensor &input, const ConvGeometry &geom);

/**
 * Rows row0, row0 + step, ... (@p count rows) of im2col(input) into
 * @p dst (count x cols(), row-major), without building the matrix.
 */
void im2colRowsInto(const Tensor &input, const ConvGeometry &geom,
                    size_t row0, size_t step, size_t count, float *dst);

/**
 * In-place patch addressing, for kernels that read the im2col matrix
 * without building it: im2col(input)[r][c] equals
 * padded[rowOffset[r] + colOffset[c]], where padded is the input with
 * its zero border written out, (B, C, H + 2 pad, W + 2 pad).
 */
size_t paddedInputSize(const ConvGeometry &geom);

/** Write that zero-padded copy of @p input to @p dst
 *  (paddedInputSize() floats). */
void padInputInto(const Tensor &input, const ConvGeometry &geom,
                  float *dst);

/** rowOffset: each im2col row's patch origin in the padded input
 *  (rows() entries). With stride 1 the pixels of one output row are
 *  consecutive addresses. */
void patchRowOffsets(const ConvGeometry &geom, uint32_t *out);

/** colOffset: each default-layout column's (c, kh, kw) tap relative
 *  to a patch origin (cols() entries). */
void patchColOffsets(const ConvGeometry &geom, uint32_t *out);

/**
 * Reverse scatter-add of a matrix gradient back to the input layout:
 * the adjoint of im2col, needed by convolution backprop.
 */
Tensor col2im(const Tensor &cols, const ConvGeometry &geom);

/**
 * Flatten a kernel tensor (M, C, KH, KW) into the Din x M weight matrix
 * whose row layout matches the default im2col column layout.
 */
Tensor kernelToMatrix(const Tensor &kernel);

/** Inverse of kernelToMatrix. */
Tensor matrixToKernel(const Tensor &mat, const ConvGeometry &geom);

/**
 * Fold the N x M GEMM output back into the (B, M, OH, OW) activation
 * layout (rows are (b, oh, ow)-major as produced by im2col()). With
 * @p bias (M floats), channel c gets y + bias[c] in the same pass.
 */
Tensor gemmOutputToActivation(const Tensor &y, const ConvGeometry &geom,
                              const float *bias = nullptr);

/** Inverse of gemmOutputToActivation (used by backprop). */
Tensor activationToGemmOutput(const Tensor &act, const ConvGeometry &geom);

} // namespace genreuse

#endif // GENREUSE_TENSOR_IM2COL_H
