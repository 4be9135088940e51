#include "activation.h"

#include "common/logging.h"
#include "common/simd.h"

namespace genreuse {

Tensor
ReLU::forward(const Tensor &x, bool training)
{
    Tensor y(x.shape());
    const size_t n = x.size();
    const float *src = x.data();
    float *dst = y.data();
    if (!training) {
        // Inference: backward() is never called, so no mask, and the
        // dispatched op is a branch-free max(x, 0).
        simd::ops().relu(src, dst, n);
        return y;
    }
    mask_.resize(n);
    cachedShape_ = x.shape();
    haveCache_ = true;
    uint8_t *mask = mask_.data();
    for (size_t i = 0; i < n; ++i) {
        const bool pos = src[i] > 0.0f;
        dst[i] = pos ? src[i] : 0.0f;
        mask[i] = pos ? 1 : 0;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "ReLU::backward without training forward");
    GENREUSE_REQUIRE(grad_out.size() == mask_.size(),
                     "ReLU gradient size mismatch");
    Tensor gx(cachedShape_);
    for (size_t i = 0; i < gx.size(); ++i)
        gx[i] = mask_[i] ? grad_out[i] : 0.0f;
    haveCache_ = false;
    return gx;
}

void
ReLU::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = in.elems();
    ledger.add(Stage::Recovering, ops);
}

} // namespace genreuse
