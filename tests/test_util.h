/**
 * @file
 * Shared helpers for the test suite: reference (naive) kernels,
 * redundant-matrix builders, and numerical gradient checking.
 */

#ifndef GENREUSE_TESTS_TEST_UTIL_H
#define GENREUSE_TESTS_TEST_UTIL_H

#include <cstring>
#include <functional>
#include <memory>

#include "common/rng.h"
#include "nn/conv2d.h"
#include "tensor/tensor.h"

namespace genreuse::test {

/** True when @p a and @p b have the same shape and the same bytes. */
inline bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Naive O(n^3) reference matmul. */
inline Tensor
naiveMatmul(const Tensor &a, const Tensor &b)
{
    const size_t m = a.shape().rows(), k = a.shape().cols();
    const size_t n = b.shape().cols();
    Tensor c({m, n});
    for (size_t i = 0; i < m; ++i)
        for (size_t p = 0; p < k; ++p)
            for (size_t j = 0; j < n; ++j)
                c.at2(i, j) += a.at2(i, p) * b.at2(p, j);
    return c;
}

/**
 * A rows x cols matrix whose rows repeat a small pool of prototypes
 * plus optional noise — the redundant-input shape that reuse exploits.
 */
inline Tensor
redundantRows(size_t rows, size_t cols, size_t prototypes, Rng &rng,
              float noise = 0.0f)
{
    Tensor protos = Tensor::randomNormal({prototypes, cols}, rng);
    Tensor out({rows, cols});
    for (size_t r = 0; r < rows; ++r) {
        size_t p = rng.uniformInt(prototypes);
        for (size_t c = 0; c < cols; ++c) {
            out.at2(r, c) = protos.at2(p, c);
            if (noise > 0.0f)
                out.at2(r, c) += static_cast<float>(rng.normal(0.0, noise));
        }
    }
    return out;
}

/** Column-redundant matrix (for horizontal reuse tests). */
inline Tensor
redundantCols(size_t rows, size_t cols, size_t prototypes, Rng &rng,
              float noise = 0.0f)
{
    Tensor protos = Tensor::randomNormal({prototypes, rows}, rng);
    Tensor out({rows, cols});
    for (size_t c = 0; c < cols; ++c) {
        size_t p = rng.uniformInt(prototypes);
        for (size_t r = 0; r < rows; ++r) {
            out.at2(r, c) = protos.at2(p, r);
            if (noise > 0.0f)
                out.at2(r, c) += static_cast<float>(rng.normal(0.0, noise));
        }
    }
    return out;
}

/**
 * Central-difference gradient check: compares an analytic gradient of
 * a scalar function with respect to a tensor against finite
 * differences on a sample of coordinates.
 *
 * @param f evaluates the scalar loss for the current tensor contents
 * @param t the tensor being perturbed
 * @param analytic the gradient to verify (same size as t)
 * @param samples number of coordinates to probe
 * @return max relative error over the probed coordinates
 */
inline double
gradientCheck(const std::function<double()> &f, Tensor &t,
              const Tensor &analytic, Rng &rng, size_t samples = 12,
              double eps = 1e-3)
{
    double worst = 0.0;
    for (size_t s = 0; s < samples; ++s) {
        size_t i = rng.uniformInt(t.size());
        float saved = t[i];
        t[i] = saved + static_cast<float>(eps);
        double up = f();
        t[i] = saved - static_cast<float>(eps);
        double down = f();
        t[i] = saved;
        double numeric = (up - down) / (2.0 * eps);
        double denom = std::max({1e-4, std::abs(numeric),
                                 std::abs(static_cast<double>(analytic[i]))});
        worst = std::max(worst,
                         std::abs(numeric - analytic[i]) / denom);
    }
    return worst;
}

/**
 * Delegates multiply() to @p inner but declines multiplyNchw(), so a
 * conv running it always builds the im2col matrix: the reference the
 * fused eval pass is compared against.
 */
class Im2colPath : public ConvAlgo
{
  public:
    explicit Im2colPath(std::shared_ptr<ConvAlgo> inner)
        : inner_(std::move(inner))
    {
    }

    Tensor
    multiply(const Tensor &x, const Tensor &w, const ConvGeometry &geom,
             CostLedger *ledger) override
    {
        return inner_->multiply(x, w, geom, ledger);
    }

    std::string
    describe() const override
    {
        return "im2col(" + inner_->describe() + ")";
    }

  private:
    std::shared_ptr<ConvAlgo> inner_;
};

} // namespace genreuse::test

#endif // GENREUSE_TESTS_TEST_UTIL_H
