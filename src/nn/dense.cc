#include "dense.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"
#include "tensor/gemm.h"

namespace genreuse {

namespace {

/** Flatten any-rank per-sample data to (N, features). */
Tensor
flattenSamples(const Tensor &x, size_t expected_features)
{
    GENREUSE_REQUIRE(x.shape().rank() >= 2, "Dense input must have a batch");
    size_t n = x.shape().dim(0);
    size_t f = x.size() / n;
    GENREUSE_REQUIRE(f == expected_features, "Dense expects ",
                     expected_features, " features, got ", f);
    return x.reshaped({n, f});
}

} // namespace

Dense::Dense(std::string name, size_t in_features, size_t out_features,
             Rng &rng)
    : Layer(std::move(name)),
      inFeatures_(in_features),
      outFeatures_(out_features),
      weight_(Tensor::randomNormal(
          {in_features, out_features}, rng, 0.0f,
          std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_(Tensor({out_features}))
{
}

Tensor
Dense::forward(const Tensor &x, bool training)
{
    Tensor flat = flattenSamples(x, inFeatures_);
    Tensor y = matmul(flat, weight_.value);
    const size_t m = y.shape().cols();
    const simd::Ops &simd_ops = simd::ops();
    for (size_t r = 0; r < y.shape().rows(); ++r)
        simd_ops.addInto(y.data() + r * m, bias_.value.data(), m);
    if (training) {
        cachedX_ = std::move(flat);
        cachedInShape_ = x.shape();
        haveCache_ = true;
    }
    return y;
}

Tensor
Dense::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "Dense::backward without training forward");
    const size_t n = grad_out.shape().rows();
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < outFeatures_; ++c)
            bias_.grad[c] += grad_out.at2(r, c);

    Tensor gw({inFeatures_, outFeatures_});
    gemmTransA(cachedX_, grad_out, gw);
    for (size_t i = 0; i < gw.size(); ++i)
        weight_.grad[i] += gw[i];

    Tensor gx({n, inFeatures_});
    gemmTransB(grad_out, weight_.value, gx);
    haveCache_ = false;
    return gx.reshaped(cachedInShape_);
}

std::vector<Param *>
Dense::params()
{
    return {&weight_, &bias_};
}

Shape
Dense::outputShape(const Shape &in) const
{
    return Shape({in.dim(0), outFeatures_});
}

void
Dense::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts mm;
    mm.macs = in.dim(0) * inFeatures_ * outFeatures_;
    ledger.add(Stage::Gemm, mm);
    OpCounts rc;
    rc.aluOps = in.dim(0) * outFeatures_;
    ledger.add(Stage::Recovering, rc);
}

} // namespace genreuse
