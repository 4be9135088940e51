/**
 * @file
 * INT8 affine ("linear") quantization — the alternative scheme the
 * paper evaluates in §5.3.8 (Figure 16), applied to both weights and
 * activations: value = scale * (raw - zeroPoint).
 */

#ifndef GENREUSE_QUANT_INT8_QUANT_H
#define GENREUSE_QUANT_INT8_QUANT_H

#include <cstdint>
#include <vector>

#include "common/aligned.h"
#include "common/status.h"
#include "common/op_ledger.h"
#include "tensor/tensor.h"

namespace genreuse {

/** Affine quantization parameters for one tensor. */
struct QuantParams
{
    float scale = 1.0f;
    int32_t zeroPoint = 0;
};

/** An int8 affine-quantized tensor (64-byte-aligned storage). */
struct Int8Tensor
{
    Shape shape;
    AlignedVec<int8_t> data;
    QuantParams params;

    size_t size() const { return data.size(); }

    float
    value(size_t i) const
    {
        return params.scale *
               (static_cast<int32_t>(data[i]) - params.zeroPoint);
    }
};

/**
 * Choose scale/zero-point so that [min(t), max(t)] maps onto
 * [-128, 127], always keeping 0 exactly representable (required so that
 * zero padding quantizes exactly, as in TFLite). The range is widened
 * to include 0 first, so an all-negative tensor gets zeroPoint 127 and
 * an all-positive one gets zeroPoint -128. scale is always > 0.
 */
QuantParams chooseQuantParams(const Tensor &t);

/**
 * chooseQuantParams() with recoverable-error reporting: non-finite
 * calibration input, or a degenerate scale (including the
 * zero_quant_scale fault point), returns a NumericFault Status instead
 * of terminating. chooseQuantParams() delegates here and panics on
 * error.
 */
Expected<QuantParams> tryChooseQuantParams(const Tensor &t);

/** Quantize with the given parameters (values saturate).
 *  @pre params.scale > 0 — a zero/negative scale would divide by zero
 *  or mirror the tensor, so it panics instead of producing garbage. */
Int8Tensor quantizeInt8(const Tensor &t, const QuantParams &params);

/** quantizeInt8() returning InvalidArgument on a non-positive or
 *  non-finite scale instead of panicking. */
Expected<Int8Tensor> tryQuantizeInt8(const Tensor &t,
                                     const QuantParams &params);

/** Quantize with automatically chosen parameters. */
Int8Tensor quantizeInt8(const Tensor &t);

/** Auto-calibrated quantization with recoverable-error reporting. */
Expected<Int8Tensor> tryQuantizeInt8(const Tensor &t);

/** Dequantize back to float. */
Tensor dequantize(const Int8Tensor &q);

/** Round-trip quantize + dequantize (deployment simulation). */
Tensor fakeQuantizeInt8(const Tensor &t);

/**
 * INT8 affine GEMM with int32 accumulation and zero-point correction,
 * returning the dequantized float result. When @p ledger is non-null
 * (or tracing is on) the actual op counts are reported: m*n*k int8
 * MACs as Gemm, plus the zero-point row/column sums and corrections as
 * Recovering ALU work.
 */
Tensor int8Matmul(const Int8Tensor &a, const Int8Tensor &b,
                  OpLedger *ledger = nullptr);

} // namespace genreuse

#endif // GENREUSE_QUANT_INT8_QUANT_H
