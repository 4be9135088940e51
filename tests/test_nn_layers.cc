/**
 * @file
 * Tests for src/nn layers: forward semantics and numerical gradient
 * checks for Conv2D, Dense, ReLU, pooling and BatchNorm, plus the
 * softmax cross-entropy loss. The 1x1 conv eval path is checked bit
 * for bit against the im2col path.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "core/reuse_conv.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/serialize.h"
#include "nn/sgd.h"
#include "quant/fixed_point.h"
#include "tensor/im2col.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

using test::gradientCheck;
using test::sameBytes;

/** Sum-of-outputs loss with per-element random weights (generic probe). */
struct WeightedSumLoss
{
    Tensor weights;

    explicit WeightedSumLoss(const Shape &shape)
    {
        Rng rng(555);
        weights = Tensor::randomNormal(shape, rng);
    }

    double
    value(const Tensor &y) const
    {
        double s = 0.0;
        for (size_t i = 0; i < y.size(); ++i)
            s += static_cast<double>(weights[i]) * y[i];
        return s;
    }

    Tensor
    grad() const
    {
        return weights;
    }
};

TEST(Conv2D, ForwardBiasApplied)
{
    Rng rng(1);
    Conv2D conv("c", 1, 2, 1, 1, 0, rng);
    conv.kernel().value.fill(0.0f);
    conv.bias().value[0] = 1.5f;
    conv.bias().value[1] = -2.0f;
    Tensor x = Tensor::full({1, 1, 2, 2}, 3.0f);
    Tensor y = conv.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({1, 2, 2, 2}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.5f);
    EXPECT_FLOAT_EQ(y.at4(0, 1, 1, 1), -2.0f);
}

/** Forward of a freshly built conv carrying @p conv's parameters. */
Tensor
freshForward(Conv2D &conv, const Tensor &x)
{
    Rng rng(999);
    Conv2D fresh("fresh", conv.inChannels(), conv.outChannels(),
                 conv.kernelSize(), conv.stride(), conv.pad(), rng);
    fresh.kernel().value = conv.kernel().value;
    fresh.bias().value = conv.bias().value;
    return fresh.forward(x, false);
}

/**
 * Conv2D packs its weight matrix once and reuses it across forwards;
 * every way the kernel can change must reach the next forward.
 */
class PackedWeights : public ::testing::Test
{
  protected:
    PackedWeights() : x(Tensor::randomNormal({1, 3, 7, 6}, rng))
    {
        net.emplace<Conv2D>("c", 3, 5, 3, 1, 1, rng);
        conv = net.convLayers()[0];
    }

    /** Forward, mutate, forward again: the second forward must match a
     *  fresh conv built from the mutated parameters. */
    template <typename Mutate>
    void
    check(Mutate mutate)
    {
        const Tensor before = conv->forward(x, false);
        mutate();
        const Tensor after = conv->forward(x, false);
        EXPECT_FALSE(sameBytes(before, after)) << "mutation was a no-op";
        EXPECT_TRUE(sameBytes(after, freshForward(*conv, x)));
    }

    Rng rng{21};
    Network net{"packed"};
    Conv2D *conv = nullptr;
    Tensor x;
};

TEST_F(PackedWeights, KernelValueAssignment)
{
    check([&] {
        conv->kernel().value = fakeQuantizeFixedPoint(conv->kernel().value);
    });
}

TEST_F(PackedWeights, WriteThroughHeldReference)
{
    Tensor &k = conv->kernel().value;
    check([&] { k[4] += 0.75f; });
}

TEST_F(PackedWeights, SgdStep)
{
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    Sgd opt(net.params(), cfg);
    check([&] {
        Tensor y = conv->forward(x, true);
        conv->backward(Tensor::full(y.shape(), 1.0f));
        opt.step();
    });
}

TEST_F(PackedWeights, LoadParameters)
{
    Rng other_rng(5);
    Network other("packed");
    other.emplace<Conv2D>("c", 3, 5, 3, 1, 1, other_rng);
    const std::string path =
        ::testing::TempDir() + "genreuse_packed_weights.bin";
    saveParameters(other, path);
    check([&] { loadParameters(net, path); });
    std::remove(path.c_str());
}

TEST_F(PackedWeights, BatchNormFold)
{
    BatchNorm2D bn("bn", 5);
    Rng bn_rng(6);
    bn.params()[0]->value = Tensor::randomUniform({5}, bn_rng, 0.5f, 2.0f);
    check([&] { bn.foldInto(*conv); });
}

TEST(Conv2D, InputGradientCheck)
{
    Rng rng(2);
    Conv2D conv("c", 2, 3, 3, 1, 1, rng);
    Tensor x = Tensor::randomNormal({1, 2, 5, 5}, rng);
    WeightedSumLoss loss(conv.outputShape(x.shape()));

    auto f = [&]() { return loss.value(conv.forward(x, false)); };
    conv.forward(x, true);
    Tensor gx = conv.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, x, gx, rng), 0.02);
}

TEST(Conv2D, WeightGradientCheck)
{
    Rng rng(3);
    Conv2D conv("c", 1, 2, 3, 1, 0, rng);
    Tensor x = Tensor::randomNormal({2, 1, 5, 5}, rng);
    WeightedSumLoss loss(conv.outputShape(x.shape()));

    auto f = [&]() { return loss.value(conv.forward(x, false)); };
    conv.kernel().zeroGrad();
    conv.forward(x, true);
    conv.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, conv.kernel().value, conv.kernel().grad,
                            rng), 0.02);
}

TEST(Conv2D, BiasGradientCheck)
{
    Rng rng(4);
    Conv2D conv("c", 1, 3, 3, 1, 1, rng);
    Tensor x = Tensor::randomNormal({1, 1, 4, 4}, rng);
    WeightedSumLoss loss(conv.outputShape(x.shape()));

    auto f = [&]() { return loss.value(conv.forward(x, false)); };
    conv.bias().zeroGrad();
    conv.forward(x, true);
    conv.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, conv.bias().value, conv.bias().grad, rng, 3),
              0.02);
}

TEST(Conv2D, StridedOutputShape)
{
    Rng rng(5);
    Conv2D conv("c", 3, 96, 7, 2, 3, rng);
    EXPECT_EQ(conv.outputShape({2, 3, 32, 32}), Shape({2, 96, 16, 16}));
}

TEST(Conv2D, CostLedgerFilled)
{
    Rng rng(6);
    Conv2D conv("c", 3, 4, 3, 1, 1, rng);
    CostLedger ledger;
    conv.setLedger(&ledger);
    Tensor x = Tensor::randomNormal({1, 3, 8, 8}, rng);
    conv.forward(x, false);
    EXPECT_EQ(ledger.stage(Stage::Gemm).macs, 64u * 27u * 4u);
    EXPECT_EQ(ledger.stage(Stage::Transformation).elemMoves, 64u * 27u);
    EXPECT_GT(ledger.stage(Stage::Recovering).aluOps, 0u);
}

/**
 * A 1x1/stride-1/pad-0 eval forward with the exact strategy multiplies
 * the NCHW planes directly; a training forward of the same conv still
 * goes through im2col. The two must agree bit for bit, across k-blocks
 * (Cin 300 > 256), narrow and wide column tiles, and batches.
 */
TEST(Conv2D, PointwiseEvalMatchesIm2colPath)
{
    Rng rng(31);
    const std::pair<size_t, size_t> kPlanes[] = {{1, 1}, {1, 7}, {8, 8},
                                                 {16, 16}};
    size_t checked = 0;
    for (size_t cin : {size_t(1), size_t(7), size_t(64), size_t(300)})
        for (size_t cout : {size_t(1), size_t(5), size_t(16), size_t(33)})
            for (auto [h, w] : kPlanes)
                for (size_t batch : {size_t(1), size_t(3)}) {
                    Conv2D conv("c", cin, cout, 1, 1, 0, rng);
                    conv.bias().value =
                        Tensor::randomNormal({cout}, rng);
                    Tensor x = Tensor::randomNormal({batch, cin, h, w}, rng);
                    CostLedger eval_ledger, train_ledger;
                    conv.setLedger(&eval_ledger);
                    const Tensor eval = conv.forward(x, false);
                    ASSERT_TRUE(sameBytes(conv.lastIm2col(),
                                             im2col(x, conv.lastGeometry())))
                        << "cin=" << cin << " cout=" << cout;
                    conv.setLedger(&train_ledger);
                    const Tensor train = conv.forward(x, true);
                    ASSERT_TRUE(sameBytes(eval, train))
                        << "cin=" << cin << " cout=" << cout << " hw=" << h
                        << "x" << w << " batch=" << batch;
                    ASSERT_TRUE(eval_ledger == train_ledger);
                    ++checked;
                }
    EXPECT_EQ(checked, 128u);
}

/** Records the im2col matrix it is handed, then delegates. */
class RecordingAlgo : public ConvAlgo
{
  public:
    explicit RecordingAlgo(std::shared_ptr<ConvAlgo> inner)
        : inner_(std::move(inner))
    {
    }

    Tensor
    multiply(const Tensor &x, const Tensor &w, const ConvGeometry &geom,
             CostLedger *ledger) override
    {
        seen = x;
        return inner_->multiply(x, w, geom, ledger);
    }

    std::string describe() const override { return "recording"; }

    Tensor seen;

  private:
    std::shared_ptr<ConvAlgo> inner_;
};

TEST(Conv2D, PointwiseReuseStillGetsIm2col)
{
    // Reuse needs im2col rows, so a 1x1 conv running any non-exact
    // strategy keeps the im2col path: the strategy sees im2col(x), and
    // the output is its product plus bias, folded back to NCHW.
    Rng rng(32);
    Conv2D conv("c", 16, 8, 1, 1, 0, rng);
    conv.bias().value = Tensor::randomNormal({8}, rng);
    Tensor x = Tensor::randomNormal({2, 16, 6, 6}, rng);
    conv.forward(x, false);
    const ConvGeometry geom = conv.lastGeometry();
    ReusePattern p;
    p.granularity = 4;
    p.numHashes = 3;
    auto reuse = std::make_shared<ReuseConvAlgo>(p, HashMode::Learned, 7);
    reuse->fit(conv.lastIm2col(), geom);
    auto recorder = std::make_shared<RecordingAlgo>(reuse);
    conv.setAlgo(recorder);

    const Tensor y = conv.forward(x, false);
    const Tensor cols = im2col(x, geom);
    ASSERT_TRUE(sameBytes(recorder->seen, cols));
    Tensor ref = reuse->multiply(cols, conv.weightMatrix(), geom, nullptr);
    for (size_t r = 0; r < ref.shape().rows(); ++r)
        for (size_t c = 0; c < ref.shape().cols(); ++c)
            ref.at2(r, c) += conv.bias().value[c];
    EXPECT_TRUE(sameBytes(y, gemmOutputToActivation(ref, geom)));
}

TEST(Dense, ForwardMatchesManual)
{
    Rng rng(7);
    Dense d("fc", 3, 2, rng);
    d.weight().value = Tensor({3, 2}, std::vector<float>{1, 0, 0, 1, 1, 1});
    d.bias().value = Tensor({2}, std::vector<float>{0.5f, -0.5f});
    Tensor x({1, 3}, std::vector<float>{1, 2, 3});
    Tensor y = d.forward(x, false);
    EXPECT_FLOAT_EQ(y.at2(0, 0), 1 + 3 + 0.5f);
    EXPECT_FLOAT_EQ(y.at2(0, 1), 2 + 3 - 0.5f);
}

TEST(Dense, GradientChecks)
{
    Rng rng(8);
    Dense d("fc", 6, 4, rng);
    Tensor x = Tensor::randomNormal({3, 6}, rng);
    WeightedSumLoss loss(Shape({3, 4}));

    auto f = [&]() { return loss.value(d.forward(x, false)); };
    d.weight().zeroGrad();
    d.bias().zeroGrad();
    d.forward(x, true);
    Tensor gx = d.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, x, gx, rng), 0.02);
    EXPECT_LT(gradientCheck(f, d.weight().value, d.weight().grad, rng),
              0.02);
    EXPECT_LT(gradientCheck(f, d.bias().value, d.bias().grad, rng, 4),
              0.02);
}

TEST(Dense, FlattensRank4Input)
{
    Rng rng(9);
    Dense d("fc", 2 * 3 * 3, 5, rng);
    Tensor x = Tensor::randomNormal({4, 2, 3, 3}, rng);
    Tensor y = d.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({4, 5}));
}

TEST(ReLU, ForwardBackward)
{
    ReLU r("relu");
    Tensor x({1, 4}, std::vector<float>{-1, 2, 0, 3});
    Tensor y = r.forward(x, true);
    EXPECT_FLOAT_EQ(y[0], 0);
    EXPECT_FLOAT_EQ(y[1], 2);
    Tensor g({1, 4}, std::vector<float>{10, 10, 10, 10});
    Tensor gx = r.backward(g);
    EXPECT_FLOAT_EQ(gx[0], 0);
    EXPECT_FLOAT_EQ(gx[1], 10);
    EXPECT_FLOAT_EQ(gx[2], 0); // x == 0 has zero gradient
    EXPECT_FLOAT_EQ(gx[3], 10);
}

TEST(MaxPool, ForwardSelectsMaxima)
{
    MaxPool2D pool("p", 2, 2);
    Tensor x = Tensor::iota({1, 1, 4, 4});
    Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({1, 1, 2, 2}));
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 5.0f);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 1, 1), 15.0f);
}

TEST(MaxPool, GradientRoutesToArgmax)
{
    MaxPool2D pool("p", 2, 2);
    Tensor x = Tensor::iota({1, 1, 2, 2});
    pool.forward(x, true);
    Tensor g({1, 1, 1, 1}, std::vector<float>{7.0f});
    Tensor gx = pool.backward(g);
    EXPECT_FLOAT_EQ(gx.at4(0, 0, 1, 1), 7.0f);
    EXPECT_FLOAT_EQ(gx.at4(0, 0, 0, 0), 0.0f);
}

TEST(MaxPool, GradientCheck)
{
    Rng rng(10);
    MaxPool2D pool("p", 2, 2);
    Tensor x = Tensor::randomNormal({1, 2, 4, 4}, rng);
    WeightedSumLoss loss(pool.outputShape(x.shape()));
    auto f = [&]() { return loss.value(pool.forward(x, false)); };
    pool.forward(x, true);
    Tensor gx = pool.backward(loss.grad());
    // Max pooling is piecewise linear; small eps keeps us off kinks.
    EXPECT_LT(gradientCheck(f, x, gx, rng, 8, 1e-4), 0.05);
}

TEST(AvgPool, ForwardAveragesWindow)
{
    AvgPool2D pool("p", 2, 2);
    Tensor x = Tensor::iota({1, 1, 2, 2});
    Tensor y = pool.forward(x, false);
    EXPECT_FLOAT_EQ(y.at4(0, 0, 0, 0), 1.5f);
}

TEST(AvgPool, GradientCheck)
{
    Rng rng(11);
    AvgPool2D pool("p", 2, 2);
    Tensor x = Tensor::randomNormal({2, 1, 4, 4}, rng);
    WeightedSumLoss loss(pool.outputShape(x.shape()));
    auto f = [&]() { return loss.value(pool.forward(x, false)); };
    pool.forward(x, true);
    Tensor gx = pool.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, x, gx, rng), 0.02);
}

TEST(GlobalAvgPool, ForwardShape)
{
    GlobalAvgPool2D pool("gap");
    Tensor x = Tensor::full({2, 3, 4, 4}, 2.0f);
    Tensor y = pool.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({2, 3}));
    EXPECT_FLOAT_EQ(y.at2(0, 0), 2.0f);
}

TEST(GlobalAvgPool, GradientCheck)
{
    Rng rng(12);
    GlobalAvgPool2D pool("gap");
    Tensor x = Tensor::randomNormal({1, 3, 3, 3}, rng);
    WeightedSumLoss loss(Shape({1, 3}));
    auto f = [&]() { return loss.value(pool.forward(x, false)); };
    pool.forward(x, true);
    Tensor gx = pool.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, x, gx, rng), 0.02);
}

TEST(BatchNorm, NormalizesTrainingBatch)
{
    Rng rng(13);
    BatchNorm2D bn("bn", 2);
    Tensor x = Tensor::randomNormal({4, 2, 5, 5}, rng, 3.0f, 2.0f);
    Tensor y = bn.forward(x, true);
    // Per-channel mean ≈ 0, variance ≈ 1 after normalization.
    for (size_t c = 0; c < 2; ++c) {
        double mean = 0.0, var = 0.0;
        size_t count = 0;
        for (size_t b = 0; b < 4; ++b)
            for (size_t h = 0; h < 5; ++h)
                for (size_t w = 0; w < 5; ++w) {
                    mean += y.at4(b, c, h, w);
                    count++;
                }
        mean /= count;
        for (size_t b = 0; b < 4; ++b)
            for (size_t h = 0; h < 5; ++h)
                for (size_t w = 0; w < 5; ++w)
                    var += (y.at4(b, c, h, w) - mean) *
                           (y.at4(b, c, h, w) - mean);
        var /= count;
        EXPECT_NEAR(mean, 0.0, 1e-4);
        EXPECT_NEAR(var, 1.0, 1e-2);
    }
}

TEST(BatchNorm, EvalAppliesRunningStatsBitForBit)
{
    // Eval normalizes with the running statistics, element by element
    // as gamma * ((x - mean) * (1 / sqrt(var + eps))) + beta.
    Rng rng(16);
    BatchNorm2D bn("bn", 3);
    bn.gamma().value = Tensor::randomUniform({3}, rng, 0.5f, 2.0f);
    bn.beta().value = Tensor::randomNormal({3}, rng);
    for (int i = 0; i < 3; ++i)
        bn.forward(Tensor::randomNormal({2, 3, 4, 5}, rng, 1.0f, 2.0f), true);
    Tensor x = Tensor::randomNormal({2, 3, 4, 5}, rng);
    Tensor ref(x.shape());
    for (size_t b = 0; b < 2; ++b)
        for (size_t c = 0; c < 3; ++c) {
            const float is = 1.0f / std::sqrt(bn.runningVar()[c] + 1e-5f);
            for (size_t h = 0; h < 4; ++h)
                for (size_t w = 0; w < 5; ++w) {
                    const float xn =
                        (x.at4(b, c, h, w) - bn.runningMean()[c]) * is;
                    ref.at4(b, c, h, w) =
                        bn.gamma().value[c] * xn + bn.beta().value[c];
                }
        }
    EXPECT_TRUE(sameBytes(bn.forward(x, false), ref));
}

TEST(BatchNorm, InputGradientCheck)
{
    Rng rng(14);
    BatchNorm2D bn("bn", 2);
    bn.gamma().value[0] = 1.3f;
    bn.beta().value[1] = -0.4f;
    Tensor x = Tensor::randomNormal({2, 2, 3, 3}, rng);
    WeightedSumLoss loss(x.shape());
    auto f = [&]() { return loss.value(bn.forward(x, true)); };
    bn.forward(x, true);
    Tensor gx = bn.backward(loss.grad());
    EXPECT_LT(gradientCheck(f, x, gx, rng, 10, 1e-3), 0.05);
}

TEST(BatchNorm, FoldIntoConvMatchesComposition)
{
    Rng rng(15);
    Conv2D conv("c", 2, 3, 3, 1, 1, rng);
    BatchNorm2D bn("bn", 3);
    // Populate running stats via a few training passes.
    for (int i = 0; i < 20; ++i) {
        Tensor x = Tensor::randomNormal({2, 2, 6, 6}, rng);
        bn.forward(conv.forward(x, false), true);
    }
    Tensor x = Tensor::randomNormal({1, 2, 6, 6}, rng);
    Tensor ref = bn.forward(conv.forward(x, false), false);

    bn.foldInto(conv);
    Tensor folded = conv.forward(x, false);
    EXPECT_LT(maxAbsDiff(ref, folded), 1e-3f);
}

TEST(Loss, SoftmaxCrossEntropyKnownValue)
{
    // Uniform logits over k classes: loss = log(k).
    Tensor logits({2, 4});
    LossResult res = softmaxCrossEntropy(logits, {0, 3});
    EXPECT_NEAR(res.loss, std::log(4.0), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow)
{
    Rng rng(16);
    Tensor logits = Tensor::randomNormal({3, 5}, rng);
    LossResult res = softmaxCrossEntropy(logits, {1, 0, 4});
    for (size_t r = 0; r < 3; ++r) {
        double s = 0.0;
        for (size_t c = 0; c < 5; ++c)
            s += res.gradLogits.at2(r, c);
        EXPECT_NEAR(s, 0.0, 1e-5);
    }
}

TEST(Loss, GradientNumericalCheck)
{
    Rng rng(17);
    Tensor logits = Tensor::randomNormal({2, 3}, rng);
    std::vector<int> labels = {0, 2};
    LossResult res = softmaxCrossEntropy(logits, labels);
    auto f = [&]() {
        return softmaxCrossEntropy(logits, labels).loss;
    };
    EXPECT_LT(gradientCheck(f, logits, res.gradLogits, rng, 6), 0.02);
}

TEST(Loss, AccuracyMetric)
{
    Tensor logits({2, 3},
                  std::vector<float>{1, 5, 2, /*row1*/ 0, -1, 3});
    EXPECT_DOUBLE_EQ(accuracy(logits, {1, 2}), 1.0);
    EXPECT_DOUBLE_EQ(accuracy(logits, {0, 2}), 0.5);
}

TEST(Loss, OodDetectionRate)
{
    // Confident row (one huge logit) vs flat row.
    Tensor logits({2, 3}, std::vector<float>{20, 0, 0, /*row1*/ 0, 0, 0});
    EXPECT_DOUBLE_EQ(oodDetectionRate(logits, 0.7), 0.5);
    auto scores = maxSoftmax(logits);
    EXPECT_GT(scores[0], 0.99);
    EXPECT_NEAR(scores[1], 1.0 / 3.0, 1e-5);
}

} // namespace
} // namespace genreuse
