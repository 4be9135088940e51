#include "batchnorm.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd.h"

namespace genreuse {

BatchNorm2D::BatchNorm2D(std::string name, size_t channels, float momentum,
                         float eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_(Tensor::full({channels}, 1.0f)),
      beta_(Tensor({channels})),
      runningMean_({channels}),
      runningVar_(Tensor::full({channels}, 1.0f))
{
}

Tensor
BatchNorm2D::forward(const Tensor &x, bool training)
{
    GENREUSE_REQUIRE(x.shape().rank() == 4 && x.shape().channels() ==
                     channels_, "BatchNorm2D shape mismatch on ", name());
    const Shape &s = x.shape();
    const size_t hw = s.height() * s.width();
    const size_t per_channel = s.batch() * hw;

    Tensor y(s);
    if (!training) {
        // Running statistics; nothing is cached, since backward() only
        // follows a training forward.
        simd::ops().batchNormEval(x.data(), s.batch(), channels_, hw,
                                  runningMean_.data(), runningVar_.data(),
                                  eps_, gamma_.value.data(),
                                  beta_.value.data(), y.data());
        return y;
    }

    Tensor mean({channels_}), var({channels_});
    for (size_t c = 0; c < channels_; ++c) {
        double m = 0.0;
        for (size_t b = 0; b < s.batch(); ++b) {
            const float *p = x.data() + (b * channels_ + c) * hw;
            for (size_t i = 0; i < hw; ++i)
                m += p[i];
        }
        m /= static_cast<double>(per_channel);
        double v = 0.0;
        for (size_t b = 0; b < s.batch(); ++b) {
            const float *p = x.data() + (b * channels_ + c) * hw;
            for (size_t i = 0; i < hw; ++i) {
                double d = p[i] - m;
                v += d * d;
            }
        }
        v /= static_cast<double>(per_channel);
        mean[c] = static_cast<float>(m);
        var[c] = static_cast<float>(v);
        runningMean_[c] =
            momentum_ * runningMean_[c] + (1.0f - momentum_) * mean[c];
        runningVar_[c] =
            momentum_ * runningVar_[c] + (1.0f - momentum_) * var[c];
    }

    Tensor inv_std({channels_});
    for (size_t c = 0; c < channels_; ++c)
        inv_std[c] = 1.0f / std::sqrt(var[c] + eps_);

    Tensor xhat(s);
    for (size_t b = 0; b < s.batch(); ++b) {
        for (size_t c = 0; c < channels_; ++c) {
            const float *px = x.data() + (b * channels_ + c) * hw;
            float *ph = xhat.data() + (b * channels_ + c) * hw;
            float *py = y.data() + (b * channels_ + c) * hw;
            const float mu = mean[c], is = inv_std[c];
            const float g = gamma_.value[c], bt = beta_.value[c];
            for (size_t i = 0; i < hw; ++i) {
                float xn = (px[i] - mu) * is;
                ph[i] = xn;
                py[i] = g * xn + bt;
            }
        }
    }

    cachedXHat_ = std::move(xhat);
    cachedInvStd_ = std::move(inv_std);
    cachedShape_ = s;
    haveCache_ = true;
    return y;
}

Tensor
BatchNorm2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "BatchNorm2D::backward without forward");
    const Shape &s = cachedShape_;
    const size_t hw = s.height() * s.width();
    const size_t m = s.batch() * hw;
    Tensor gx(s);

    for (size_t c = 0; c < channels_; ++c) {
        // Reductions for the batch-statistics gradient terms.
        double sum_g = 0.0, sum_gx = 0.0;
        for (size_t b = 0; b < s.batch(); ++b) {
            const float *pg = grad_out.data() + (b * channels_ + c) * hw;
            const float *ph =
                cachedXHat_.data() + (b * channels_ + c) * hw;
            for (size_t i = 0; i < hw; ++i) {
                sum_g += pg[i];
                sum_gx += static_cast<double>(pg[i]) * ph[i];
            }
        }
        gamma_.grad[c] += static_cast<float>(sum_gx);
        beta_.grad[c] += static_cast<float>(sum_g);

        const float k = gamma_.value[c] * cachedInvStd_[c] /
                        static_cast<float>(m);
        const float sg = static_cast<float>(sum_g);
        const float sgx = static_cast<float>(sum_gx);
        const float fm = static_cast<float>(m);
        for (size_t b = 0; b < s.batch(); ++b) {
            const float *pg = grad_out.data() + (b * channels_ + c) * hw;
            const float *ph =
                cachedXHat_.data() + (b * channels_ + c) * hw;
            float *pgx = gx.data() + (b * channels_ + c) * hw;
            for (size_t i = 0; i < hw; ++i)
                pgx[i] = k * (fm * pg[i] - sg - ph[i] * sgx);
        }
    }
    haveCache_ = false;
    return gx;
}

std::vector<Param *>
BatchNorm2D::params()
{
    return {&gamma_, &beta_};
}

void
BatchNorm2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    // Folded into the conv at deployment: scale+shift per element.
    ops.aluOps = in.elems();
    ledger.add(Stage::Recovering, ops);
}

void
BatchNorm2D::foldInto(Conv2D &conv) const
{
    GENREUSE_REQUIRE(conv.outChannels() == channels_,
                     "fold target channel mismatch");
    Tensor &k = conv.kernel().value;
    Tensor &b = conv.bias().value;
    const size_t per_filter = k.size() / channels_;
    for (size_t c = 0; c < channels_; ++c) {
        float scale = gamma_.value[c] /
                      std::sqrt(runningVar_[c] + eps_);
        float *kw = k.data() + c * per_filter;
        for (size_t i = 0; i < per_filter; ++i)
            kw[i] *= scale;
        b[c] = (b[c] - runningMean_[c]) * scale + beta_.value[c];
    }
}

} // namespace genreuse
