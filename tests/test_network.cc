/**
 * @file
 * Tests for Network, composite blocks (Fire, ResidualBlock), SGD, the
 * trainer, and the model factories, including bit-identity of Fire and
 * whole networks against the im2col conv path and element-loop concat,
 * with exact convs and with fused guarded-reuse convs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <numeric>

#include "common/simd.h"
#include "core/guard.h"
#include "core/measurement.h"
#include "core/stream_context.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/composite.h"
#include "nn/loss.h"
#include "nn/trainer.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

using test::sameBytes;

TEST(Network, ForwardShapesThroughCifarNet)
{
    Rng rng(1);
    Network net = makeCifarNet(rng);
    Tensor x = Tensor::randomNormal({2, 3, 32, 32}, rng);
    Tensor y = net.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({2, 10}));
}

TEST(Network, ForwardShapesThroughZfNet)
{
    Rng rng(2);
    Network net = makeZfNet(rng);
    Tensor x = Tensor::randomNormal({1, 3, 32, 32}, rng);
    EXPECT_EQ(net.forward(x, false).shape(), Shape({1, 10}));
}

TEST(Network, ForwardShapesThroughSqueezeNetBothVariants)
{
    for (bool bypass : {false, true}) {
        Rng rng(3);
        Network net = makeSqueezeNet(rng, bypass);
        Tensor x = Tensor::randomNormal({1, 3, 32, 32}, rng);
        EXPECT_EQ(net.forward(x, false).shape(), Shape({1, 10}))
            << "bypass=" << bypass;
    }
}

TEST(Network, ForwardShapesThroughResNet18)
{
    Rng rng(4);
    Network net = makeResNet18(rng, 10, 16);
    Tensor x = Tensor::randomNormal({1, 3, 64, 64}, rng);
    EXPECT_EQ(net.forward(x, false).shape(), Shape({1, 10}));
}

TEST(Network, ConvLayerEnumeration)
{
    Rng rng(5);
    Network cifarnet = makeCifarNet(rng);
    EXPECT_EQ(cifarnet.convLayers().size(), 2u);
    EXPECT_NE(cifarnet.findConv("conv2"), nullptr);
    EXPECT_EQ(cifarnet.findConv("nope"), nullptr);

    Network squeezenet = makeSqueezeNet(rng, false);
    // conv1 + 7 fire modules x 3 convs each.
    EXPECT_EQ(squeezenet.convLayers().size(), 1u + 7u * 3u);
    EXPECT_NE(squeezenet.findConv("Fire2.expand_3x3.conv"), nullptr);

    Network resnet = makeResNet18(rng, 10, 8);
    // conv1 + 8 blocks x 2 convs + 3 projection convs.
    EXPECT_EQ(resnet.convLayers().size(), 1u + 16u + 3u);
}

TEST(Network, StaticCostPositive)
{
    Rng rng(6);
    Network net = makeCifarNet(rng);
    CostLedger cost = net.staticCost({1, 3, 32, 32});
    // Conv1: 1024*75*64 + Conv2: 256*1600*64 + FC MACs.
    EXPECT_GT(cost.stage(Stage::Gemm).macs,
              1024u * 75u * 64u + 256u * 1600u * 64u);
    CostLedger aux = net.staticAuxCost({1, 3, 32, 32});
    // Aux excludes all convolution MACs but includes the FC ones.
    EXPECT_LT(aux.stage(Stage::Gemm).macs, cost.stage(Stage::Gemm).macs);
}

TEST(Network, MemoryEstimateFitsF4ForCifarNet)
{
    Rng rng(7);
    Network net = makeCifarNet(rng);
    MemoryEstimate est = net.memoryEstimate({1, 3, 32, 32});
    EXPECT_TRUE(est.fits(McuSpec::stm32f469i()));
    EXPECT_GT(est.flashBytes(), 128u * 1024u);
    EXPECT_GT(est.sramPeakBytes(), 0u);
}

TEST(Fire, OutputConcatenatesExpands)
{
    Rng rng(8);
    FireModule fire("f", 8, 4, 6, 10, false, rng);
    Tensor x = Tensor::randomNormal({2, 8, 5, 5}, rng);
    Tensor y = fire.forward(x, false);
    EXPECT_EQ(y.shape(), Shape({2, 16, 5, 5}));
    EXPECT_EQ(fire.outputShape(x.shape()), y.shape());
}

TEST(Fire, BypassAddsInput)
{
    Rng rng(9);
    FireModule fire("f", 16, 4, 8, 8, true, rng);
    // Zero all conv weights/biases: output must equal the input.
    std::vector<Param *> params = fire.params();
    for (auto *p : params)
        p->value.zero();
    Tensor x = Tensor::randomNormal({1, 16, 4, 4}, rng);
    Tensor y = fire.forward(x, false);
    EXPECT_LT(maxAbsDiff(x, y), 1e-6f);
}

TEST(Fire, GradientCheckThroughModule)
{
    Rng rng(10);
    FireModule fire("f", 6, 3, 3, 3, true, rng);
    Tensor x = Tensor::randomNormal({1, 6, 4, 4}, rng);
    Rng loss_rng(556);
    Tensor lw = Tensor::randomNormal(fire.outputShape(x.shape()), loss_rng);
    auto f = [&]() {
        // Training mode: BN uses batch statistics, matching backward.
        Tensor y = fire.forward(x, true);
        double s = 0.0;
        for (size_t i = 0; i < y.size(); ++i)
            s += static_cast<double>(lw[i]) * y[i];
        return s;
    };
    fire.forward(x, true);
    Tensor gx = fire.backward(lw);
    EXPECT_LT(test::gradientCheck(f, x, gx, rng, 10, 1e-3), 0.05);
}

/** The element-by-element channel concat Fire used before block copies. */
Tensor
refConcatChannels(const Tensor &a, const Tensor &b)
{
    const Shape &sa = a.shape(), &sb = b.shape();
    Tensor out({sa.batch(), sa.channels() + sb.channels(), sa.height(),
                sa.width()});
    for (size_t n = 0; n < sa.batch(); ++n) {
        for (size_t c = 0; c < sa.channels(); ++c)
            for (size_t h = 0; h < sa.height(); ++h)
                for (size_t w = 0; w < sa.width(); ++w)
                    out.at4(n, c, h, w) = a.at4(n, c, h, w);
        for (size_t c = 0; c < sb.channels(); ++c)
            for (size_t h = 0; h < sb.height(); ++h)
                for (size_t w = 0; w < sb.width(); ++w)
                    out.at4(n, sa.channels() + c, h, w) = b.at4(n, c, h, w);
    }
    return out;
}

/** The element-by-element channel slice Fire backward used before. */
Tensor
refSliceChannels(const Tensor &x, size_t from, size_t count)
{
    const Shape &s = x.shape();
    Tensor out({s.batch(), count, s.height(), s.width()});
    for (size_t n = 0; n < s.batch(); ++n)
        for (size_t c = 0; c < count; ++c)
            for (size_t h = 0; h < s.height(); ++h)
                for (size_t w = 0; w < s.width(); ++w)
                    out.at4(n, c, h, w) = x.at4(n, from + c, h, w);
    return out;
}

/** The exact strategy behind a wrapper, so a conv running it always
 *  takes the im2col path. */
std::shared_ptr<ConvAlgo>
wrappedExact()
{
    return std::make_shared<test::Im2colPath>(
        std::make_shared<ExactConvAlgo>());
}

/**
 * A Fire module rebuilt from standalone layers, composed the way
 * FireModule was before its concat and slice became block copies.
 * Every conv is wrapped so it always takes the im2col path.
 */
struct FireReference
{
    FireReference(FireModule &fire, size_t in, size_t sq, size_t e1,
                  size_t e3, bool bn, Rng &rng)
        : squeeze("s", in, sq, 1, 1, 0, rng),
          expand1("e1", sq, e1, 1, 1, 0, rng),
          expand3("e3", sq, e3, 3, 1, 1, rng), bypass(fire.hasBypass())
    {
        if (bn) {
            bns[0] = std::make_unique<BatchNorm2D>("bs", sq);
            bns[1] = std::make_unique<BatchNorm2D>("b1", e1);
            bns[2] = std::make_unique<BatchNorm2D>("b3", e3);
        }
        std::vector<Param *> mine = params(), theirs = fire.params();
        EXPECT_EQ(mine.size(), theirs.size());
        for (size_t i = 0; i < mine.size(); ++i)
            mine[i]->value = theirs[i]->value;
        for (Conv2D *c : {&squeeze, &expand1, &expand3})
            c->setAlgo(wrappedExact());
    }

    std::vector<Param *>
    params()
    {
        std::vector<Param *> out;
        std::vector<Layer *> layers = {&squeeze, &expand1, &expand3};
        for (auto &bn : bns)
            if (bn)
                layers.push_back(bn.get());
        for (Layer *l : layers)
            for (Param *p : l->params())
                out.push_back(p);
        return out;
    }

    /** conv -> [bn] -> relu, as FireModule composes each branch. */
    Tensor
    branch(Conv2D &conv, size_t i, const Tensor &x, bool training)
    {
        Tensor y = conv.forward(x, training);
        if (bns[i])
            y = bns[i]->forward(y, training);
        return relus[i].forward(y, training);
    }

    Tensor
    forward(const Tensor &x, bool training)
    {
        Tensor s = branch(squeeze, 0, x, training);
        Tensor out = refConcatChannels(branch(expand1, 1, s, training),
                                       branch(expand3, 2, s, training));
        if (bypass)
            for (size_t i = 0; i < out.size(); ++i)
                out[i] += x[i];
        return out;
    }

    Tensor
    backwardBranch(Conv2D &conv, size_t i, const Tensor &g)
    {
        Tensor gi = relus[i].backward(g);
        if (bns[i])
            gi = bns[i]->backward(gi);
        return conv.backward(gi);
    }

    Tensor
    backward(const Tensor &grad_out)
    {
        const size_t c1 = expand1.outChannels(), c3 = expand3.outChannels();
        Tensor gs1 =
            backwardBranch(expand1, 1, refSliceChannels(grad_out, 0, c1));
        Tensor gs3 =
            backwardBranch(expand3, 2, refSliceChannels(grad_out, c1, c3));
        for (size_t i = 0; i < gs1.size(); ++i)
            gs1[i] += gs3[i];
        Tensor gx = backwardBranch(squeeze, 0, gs1);
        if (bypass)
            for (size_t i = 0; i < gx.size(); ++i)
                gx[i] += grad_out[i];
        return gx;
    }

    Conv2D squeeze, expand1, expand3;
    std::unique_ptr<BatchNorm2D> bns[3];
    ReLU relus[3] = {ReLU("rs"), ReLU("r1"), ReLU("r3")};
    bool bypass;
};

TEST(Fire, MatchesStandaloneLayersBitForBit)
{
    // 16 -> squeeze 6 -> expand 7 + 9 on a 5x4 plane: ragged sizes, so
    // the 1x1 convs' 20-column GEMMs end in the narrow column tile.
    for (bool bypass : {false, true})
        for (bool bn : {false, true})
            for (size_t batch : {size_t(1), size_t(3)}) {
                Rng rng(40 + batch);
                FireModule fire("f", 16, 6, 7, 9, bypass, rng, bn);
                FireReference ref(fire, 16, 6, 7, 9, bn, rng);
                const std::vector<Param *> mine = ref.params();
                const std::vector<Param *> theirs = fire.params();
                const std::string what = "bypass=" + std::to_string(bypass) +
                                         " bn=" + std::to_string(bn) +
                                         " batch=" + std::to_string(batch);
                Tensor x = Tensor::randomNormal({batch, 16, 5, 4}, rng);

                // Training forward + backward (also moves the BN
                // running statistics the eval forward then uses).
                const Tensor y_train = fire.forward(x, true);
                ASSERT_TRUE(sameBytes(y_train, ref.forward(x, true))) << what;
                Tensor g = Tensor::randomNormal(y_train.shape(), rng);
                ASSERT_TRUE(sameBytes(fire.backward(g), ref.backward(g)))
                    << what;
                for (size_t i = 0; i < mine.size(); ++i)
                    ASSERT_TRUE(sameBytes(theirs[i]->grad, mine[i]->grad))
                        << what << " param " << i;

                ASSERT_TRUE(sameBytes(fire.forward(x, false),
                                      ref.forward(x, false)))
                    << what;
            }
}

/** Logits of @p net with every conv forced onto the im2col path. */
Tensor
im2colLogits(Network &net, const Tensor &x)
{
    for (Conv2D *c : net.convLayers())
        c->setAlgo(wrappedExact());
    Tensor y = net.forward(x, false);
    for (Conv2D *c : net.convLayers())
        c->resetAlgo();
    return y;
}

TEST(Network, PointwisePathKeepsLogitsBitIdentical)
{
    // SqueezeNet's squeeze/expand_1x1 convs take the 1x1 NCHW path;
    // ResNet-18's strided 1x1 projections do not.
    struct Case
    {
        const char *name;
        std::function<Network(Rng &)> make;
    };
    const Case kCases[] = {
        {"squeezenet", [](Rng &r) { return makeSqueezeNet(r, false); }},
        {"squeezenet-bypass", [](Rng &r) { return makeSqueezeNet(r, true); }},
        {"resnet18", [](Rng &r) { return makeResNet18(r, 10, 16); }},
    };
    for (const Case &c : kCases)
        for (size_t batch : {size_t(1), size_t(3)}) {
            Rng rng(50 + batch);
            Network net = c.make(rng);
            Tensor x = Tensor::randomNormal({batch, 3, 32, 32}, rng);
            const Tensor fast = net.forward(x, false);
            EXPECT_TRUE(sameBytes(fast, im2colLogits(net, x)))
                << c.name << " batch=" << batch;
        }
}

/** FNV-1a over the bytes of @p t. */
uint64_t
bytesHash(const Tensor &t)
{
    uint64_t h = 1469598103934665603ull;
    const auto *p = reinterpret_cast<const unsigned char *>(t.data());
    for (size_t i = 0; i < t.size() * sizeof(float); ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

TEST(Network, EvalEpiloguesKeepLogitsBitIdentical)
{
    // ResNet-18's shortcut add and final ReLU, SqueezeNet's bypass add,
    // eval BatchNorm and the conv bias epilogues run as dispatched
    // kernels. The hashes were taken from the element loops those
    // kernels replaced; every level must reproduce them, in eval and in
    // training forwards.
    struct Case
    {
        const char *name;
        std::function<Network(Rng &)> make;
        uint64_t eval[2], train[2]; //!< batch 1, batch 3
    };
    const Case kCases[] = {
        {"resnet18",
         [](Rng &r) { return makeResNet18(r, 10, 16); },
         {0xa5136547d4e8edbdull, 0x985b1257cd3d83aeull},
         {0xffa4e197ce550195ull, 0xe0b3360028d0cdf9ull}},
        {"squeezenet-bypass",
         [](Rng &r) { return makeSqueezeNet(r, true); },
         {0x99774e39421229d8ull, 0x73382474e7b2d918ull},
         {0x90669eb75cc4028aull, 0x7fa1271d680698c5ull}},
    };
    const simd::Level restore = simd::activeLevel();
    for (simd::Level level : {simd::Level::Scalar, simd::detect()}) {
        ASSERT_TRUE(simd::setActiveLevel(level).ok());
        for (const Case &c : kCases)
            for (size_t bi = 0; bi < 2; ++bi) {
                const size_t batch = bi == 0 ? 1 : 3;
                Rng rng(80 + batch);
                Network net = c.make(rng);
                const Tensor x =
                    Tensor::randomNormal({batch, 3, 32, 32}, rng);
                const std::string what = std::string(c.name) + " batch=" +
                                         std::to_string(batch) + " " +
                                         simd::levelName(level);
                EXPECT_EQ(bytesHash(net.forward(x, false)), c.eval[bi])
                    << what;
                EXPECT_EQ(bytesHash(net.forward(x, true)), c.train[bi])
                    << what;
            }
    }
    ASSERT_TRUE(simd::setActiveLevel(restore).ok());
}

/**
 * Guard @p targets with the conventional one-tile pattern, fitted on
 * @p fit; with @p im2col_path each guard is wrapped so its conv always
 * builds the im2col matrix. Returns the guards.
 */
std::vector<std::shared_ptr<GuardedReuseConvAlgo>>
installGuards(Network &net, const std::vector<Conv2D *> &targets,
              const Dataset &fit, bool im2col_path)
{
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards;
    for (Conv2D *c : targets) {
        ReusePattern p;
        p.granularity = c->kernelSize() * c->kernelSize();
        p.numHashes = 4;
        guards.push_back(fitAndInstallGuarded(net, *c, p, fit));
    }
    if (im2col_path)
        for (size_t i = 0; i < targets.size(); ++i)
            targets[i]->setAlgo(
                std::make_shared<test::Im2colPath>(guards[i]));
    return guards;
}

TEST(Network, FusedGuardedReuseKeepsLogitsBitIdentical)
{
    // Every CifarNet conv and every SqueezeNet Fire expand_3x3 runs
    // guarded reuse; the fused pass and the im2col path must give the
    // same logits and take the same rungs.
    SyntheticConfig cfg;
    cfg.numSamples = 8;
    cfg.redundancy = 0.8f;
    cfg.noiseStddev = 0.03f;
    const Dataset data = makeSyntheticCifar(cfg);
    const Dataset fit = data.slice(0, 2);
    for (bool squeeze : {false, true})
        for (size_t batch : {size_t(1), size_t(3)}) {
            Rng rng(60 + batch);
            Network net = squeeze ? makeSqueezeNet(rng, false)
                                  : makeCifarNet(rng);
            std::vector<Conv2D *> targets;
            for (Conv2D *c : net.convLayers())
                if (!squeeze ||
                    c->name().find("expand_3x3") != std::string::npos)
                    targets.push_back(c);
            const Tensor x =
                data.slice(2, 2 + batch).gatherImages([&] {
                    std::vector<size_t> idx(batch);
                    std::iota(idx.begin(), idx.end(), size_t(0));
                    return idx;
                }());
            const std::string what = std::string(squeeze ? "squeezenet"
                                                         : "cifarnet") +
                                     " batch=" + std::to_string(batch);

            // A fresh stream: guard state is keyed by algorithm address.
            StreamContext stream(1);
            StreamContext::Bind bind(stream);
            auto fused = installGuards(net, targets, fit, false);
            const Tensor fused_logits = net.forward(x, false);
            std::vector<GuardRung> fused_rungs;
            for (size_t i = 0; i < fused.size(); ++i) {
                // Every target was eligible, so this forward was fused.
                EXPECT_TRUE(fused[i]->inner().acceptsNchw(
                    targets[i]->lastGeometry(), targets[i]->weightMatrix()))
                    << what << " " << targets[i]->name();
                fused_rungs.push_back(fused[i]->lastRung());
            }

            auto ref = installGuards(net, targets, fit, true);
            EXPECT_TRUE(sameBytes(fused_logits, net.forward(x, false)))
                << what;
            for (size_t i = 0; i < ref.size(); ++i)
                EXPECT_EQ(fused_rungs[i], ref[i]->lastRung())
                    << what << " " << targets[i]->name();
        }
}

TEST(Residual, IdentityShortcutWhenShapesMatch)
{
    Rng rng(11);
    ResidualBlock block("r", 8, 8, 1, rng);
    EXPECT_FALSE(block.hasProjection());
    ResidualBlock strided("r2", 8, 16, 2, rng);
    EXPECT_TRUE(strided.hasProjection());
}

TEST(Residual, OutputShape)
{
    Rng rng(12);
    ResidualBlock block("r", 8, 16, 2, rng);
    EXPECT_EQ(block.outputShape({1, 8, 8, 8}), Shape({1, 16, 4, 4}));
}

TEST(Residual, GradientCheckThroughBlock)
{
    Rng rng(13);
    ResidualBlock block("r", 4, 4, 1, rng);
    Tensor x = Tensor::randomNormal({2, 4, 4, 4}, rng);
    Rng loss_rng(557);
    Tensor lw = Tensor::randomNormal(block.outputShape(x.shape()),
                                     loss_rng);
    auto f = [&]() {
        Tensor y = block.forward(x, true);
        double s = 0.0;
        for (size_t i = 0; i < y.size(); ++i)
            s += static_cast<double>(lw[i]) * y[i];
        return s;
    };
    block.forward(x, true);
    Tensor gx = block.backward(lw);
    // BN in train mode makes this a composite, slightly noisy check.
    EXPECT_LT(test::gradientCheck(f, x, gx, rng, 8, 1e-3), 0.08);
}

TEST(Sgd, DecreasesQuadraticLoss)
{
    // Minimize ||w - target||^2 with SGD: loss must fall.
    Rng rng(14);
    Param w(Tensor::randomNormal({10}, rng));
    Tensor target = Tensor::randomNormal({10}, rng);
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.momentum = 0.5;
    cfg.weightDecay = 0.0;
    Sgd opt({&w}, cfg);
    auto loss = [&]() {
        double s = 0.0;
        for (size_t i = 0; i < 10; ++i)
            s += (w.value[i] - target[i]) * (w.value[i] - target[i]);
        return s;
    };
    double initial = loss();
    for (int step = 0; step < 50; ++step) {
        for (size_t i = 0; i < 10; ++i)
            w.grad[i] = 2.0f * (w.value[i] - target[i]);
        opt.step();
    }
    EXPECT_LT(loss(), initial * 0.01);
}

TEST(Sgd, LearningRateDecay)
{
    Rng rng(15);
    Param w(Tensor::randomNormal({2}, rng));
    SgdConfig cfg;
    cfg.learningRate = 0.1;
    cfg.lrDecayFactor = 0.1;
    cfg.lrDecayEveryEpochs = 2;
    Sgd opt({&w}, cfg);
    EXPECT_DOUBLE_EQ(opt.currentLearningRate(), 0.1);
    opt.endEpoch();
    EXPECT_DOUBLE_EQ(opt.currentLearningRate(), 0.1);
    opt.endEpoch();
    EXPECT_NEAR(opt.currentLearningRate(), 0.01, 1e-12);
}

TEST(Trainer, TinyNetLearnsSyntheticData)
{
    Rng rng(16);
    Network net = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 160;
    cfg.numClasses = 4;
    cfg.seed = 21;
    Dataset data = makeSyntheticCifar(cfg);

    TrainConfig tcfg;
    tcfg.epochs = 6;
    tcfg.batchSize = 16;
    tcfg.sgd.learningRate = 0.01;
    tcfg.sgd.momentum = 0.9;
    TrainReport report = train(net, data, tcfg);
    // Must far exceed the 25% chance level on the training set.
    EXPECT_GT(report.finalTrainAccuracy, 0.6);
    // Loss must drop from the first epoch to the last.
    EXPECT_LT(report.epochLoss.back(), report.epochLoss.front());
}

TEST(Trainer, EvaluateMatchesManualCount)
{
    Rng rng(17);
    Network net = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 32;
    cfg.seed = 22;
    Dataset data = makeSyntheticCifar(cfg);
    double acc = evaluate(net, data, 8);
    Tensor logits = evaluateLogits(net, data, 8);
    EXPECT_NEAR(acc, accuracy(logits, data.labels), 1e-9);
}

} // namespace
} // namespace genreuse
