#include "composite.h"

#include <cstring>

#include "common/logging.h"
#include "common/simd.h"

namespace genreuse {

namespace {

/**
 * Concatenate two NCHW tensors along the channel dimension. A channel
 * range of one image is one contiguous block, so each image is two
 * block copies.
 */
Tensor
concatChannels(const Tensor &a, const Tensor &b)
{
    const Shape &sa = a.shape(), &sb = b.shape();
    GENREUSE_REQUIRE(sa.batch() == sb.batch() &&
                     sa.height() == sb.height() &&
                     sa.width() == sb.width(),
                     "concat spatial mismatch: ", sa.toString(), " vs ",
                     sb.toString());
    Tensor out({sa.batch(), sa.channels() + sb.channels(), sa.height(),
                sa.width()});
    const size_t hw = sa.height() * sa.width();
    const size_t na = sa.channels() * hw, nb = sb.channels() * hw;
    float *dst = out.data();
    for (size_t n = 0; n < sa.batch(); ++n, dst += na + nb) {
        std::memcpy(dst, a.data() + n * na, na * sizeof(float));
        std::memcpy(dst + na, b.data() + n * nb, nb * sizeof(float));
    }
    return out;
}

/** Slice channels [from, from+count) out of an NCHW tensor. */
Tensor
sliceChannels(const Tensor &x, size_t from, size_t count)
{
    const Shape &s = x.shape();
    GENREUSE_REQUIRE(from + count <= s.channels(), "channel slice overflow");
    Tensor out({s.batch(), count, s.height(), s.width()});
    const size_t hw = s.height() * s.width();
    for (size_t n = 0; n < s.batch(); ++n)
        std::memcpy(out.data() + n * count * hw,
                    x.data() + (n * s.channels() + from) * hw,
                    count * hw * sizeof(float));
    return out;
}

} // namespace

FireModule::FireModule(std::string name, size_t in_channels, size_t squeeze,
                       size_t expand1x1, size_t expand3x3, bool bypass,
                       Rng &rng, bool batch_norm)
    : Layer(name), bypass_(bypass)
{
    GENREUSE_REQUIRE(!bypass || in_channels == expand1x1 + expand3x3,
                     "Fire bypass needs matching channel counts in ", name);
    squeeze_ = std::make_unique<Conv2D>(name + ".squeeze.conv", in_channels,
                                        squeeze, 1, 1, 0, rng);
    squeezeRelu_ = std::make_unique<ReLU>(name + ".squeeze.relu");
    expand1_ = std::make_unique<Conv2D>(name + ".expand_1x1.conv", squeeze,
                                        expand1x1, 1, 1, 0, rng);
    expand1Relu_ = std::make_unique<ReLU>(name + ".expand_1x1.relu");
    expand3_ = std::make_unique<Conv2D>(name + ".expand_3x3.conv", squeeze,
                                        expand3x3, 3, 1, 1, rng);
    expand3Relu_ = std::make_unique<ReLU>(name + ".expand_3x3.relu");
    if (batch_norm) {
        squeezeBn_ = std::make_unique<BatchNorm2D>(name + ".squeeze.bn",
                                                   squeeze);
        expand1Bn_ = std::make_unique<BatchNorm2D>(name + ".expand_1x1.bn",
                                                   expand1x1);
        expand3Bn_ = std::make_unique<BatchNorm2D>(name + ".expand_3x3.bn",
                                                   expand3x3);
    }
}

Tensor
FireModule::forward(const Tensor &x, bool training)
{
    Tensor s = squeeze_->forward(x, training);
    if (squeezeBn_)
        s = squeezeBn_->forward(s, training);
    s = squeezeRelu_->forward(s, training);
    Tensor e1 = expand1_->forward(s, training);
    if (expand1Bn_)
        e1 = expand1Bn_->forward(e1, training);
    e1 = expand1Relu_->forward(e1, training);
    Tensor e3 = expand3_->forward(s, training);
    if (expand3Bn_)
        e3 = expand3Bn_->forward(e3, training);
    e3 = expand3Relu_->forward(e3, training);
    Tensor out = concatChannels(e1, e3);
    if (bypass_)
        simd::ops().addInto(out.data(), x.data(), out.size());
    return out;
}

Tensor
FireModule::backward(const Tensor &grad_out)
{
    const size_t c1 = expand1_->outChannels();
    const size_t c3 = expand3_->outChannels();
    Tensor g1 = sliceChannels(grad_out, 0, c1);
    Tensor g3 = sliceChannels(grad_out, c1, c3);

    g1 = expand1Relu_->backward(g1);
    if (expand1Bn_)
        g1 = expand1Bn_->backward(g1);
    Tensor gs1 = expand1_->backward(g1);
    g3 = expand3Relu_->backward(g3);
    if (expand3Bn_)
        g3 = expand3Bn_->backward(g3);
    Tensor gs3 = expand3_->backward(g3);
    for (size_t i = 0; i < gs1.size(); ++i)
        gs1[i] += gs3[i];

    Tensor gs = squeezeRelu_->backward(gs1);
    if (squeezeBn_)
        gs = squeezeBn_->backward(gs);
    Tensor gx = squeeze_->backward(gs);
    if (bypass_) {
        for (size_t i = 0; i < gx.size(); ++i)
            gx[i] += grad_out[i];
    }
    return gx;
}

std::vector<Param *>
FireModule::params()
{
    std::vector<Param *> out;
    std::vector<Layer *> layers = {squeeze_.get(), expand1_.get(),
                                   expand3_.get()};
    if (squeezeBn_) {
        layers.push_back(squeezeBn_.get());
        layers.push_back(expand1Bn_.get());
        layers.push_back(expand3Bn_.get());
    }
    for (Layer *l : layers) {
        auto p = l->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

Shape
FireModule::outputShape(const Shape &in) const
{
    Shape s = squeeze_->outputShape(in);
    Shape e1 = expand1_->outputShape(s);
    Shape e3 = expand3_->outputShape(s);
    return Shape({e1.batch(), e1.channels() + e3.channels(), e1.height(),
                  e1.width()});
}

void
FireModule::appendCost(const Shape &in, CostLedger &ledger) const
{
    Shape s = squeeze_->outputShape(in);
    squeeze_->appendCost(in, ledger);
    expand1_->appendCost(s, ledger);
    expand3_->appendCost(s, ledger);
    if (bypass_) {
        OpCounts ops;
        ops.aluOps = outputShape(in).elems();
        ledger.add(Stage::Recovering, ops);
    }
}

void
FireModule::appendAuxCost(const Shape &in, CostLedger &ledger) const
{
    // BN folds into the convs at deployment, so it adds no aux cost.
    Shape s = squeeze_->outputShape(in);
    squeezeRelu_->appendAuxCost(s, ledger);
    Shape e1 = expand1_->outputShape(s);
    Shape e3 = expand3_->outputShape(s);
    expand1Relu_->appendAuxCost(e1, ledger);
    expand3Relu_->appendAuxCost(e3, ledger);
    OpCounts ops;
    ops.elemMoves = outputShape(in).elems(); // channel concat
    if (bypass_)
        ops.aluOps = outputShape(in).elems();
    ledger.add(Stage::Recovering, ops);
}

LayerFootprint
FireModule::footprint(const Shape &in) const
{
    LayerFootprint fp = Layer::footprint(in);
    // Scratch: squeeze output plus the larger expand im2col buffer.
    Shape s = squeeze_->outputShape(in);
    fp.scratchBytes = s.elems() + expand3_->footprint(s).scratchBytes;
    return fp;
}

void
FireModule::collectConvs(std::vector<Conv2D *> &out)
{
    out.push_back(squeeze_.get());
    out.push_back(expand1_.get());
    out.push_back(expand3_.get());
}

ResidualBlock::ResidualBlock(std::string name, size_t in_channels,
                             size_t out_channels, size_t stride, Rng &rng)
    : Layer(name)
{
    conv1_ = std::make_unique<Conv2D>(name + ".conv1", in_channels,
                                      out_channels, 3, stride, 1, rng);
    bn1_ = std::make_unique<BatchNorm2D>(name + ".bn1", out_channels);
    relu1_ = std::make_unique<ReLU>(name + ".relu1");
    conv2_ = std::make_unique<Conv2D>(name + ".conv2", out_channels,
                                      out_channels, 3, 1, 1, rng);
    bn2_ = std::make_unique<BatchNorm2D>(name + ".bn2", out_channels);
    if (stride != 1 || in_channels != out_channels) {
        proj_ = std::make_unique<Conv2D>(name + ".proj", in_channels,
                                         out_channels, 1, stride, 0, rng);
        projBn_ = std::make_unique<BatchNorm2D>(name + ".proj_bn",
                                                out_channels);
    }
}

Tensor
ResidualBlock::forward(const Tensor &x, bool training)
{
    Tensor main = bn1_->forward(conv1_->forward(x, training), training);
    main = relu1_->forward(main, training);
    main = bn2_->forward(conv2_->forward(main, training), training);

    Tensor projected;
    if (proj_)
        projected =
            projBn_->forward(proj_->forward(x, training), training);
    const Tensor &shortcut = proj_ ? projected : x;
    GENREUSE_REQUIRE(shortcut.size() == main.size(),
                     "residual shape mismatch in ", name());
    const simd::Ops &simd_ops = simd::ops();
    simd_ops.addInto(main.data(), shortcut.data(), main.size());

    // Final ReLU (mask kept manually so backward can split gradients).
    if (training) {
        cachedSum_ = main;
        haveCache_ = true;
    }
    simd_ops.relu(main.data(), main.data(), main.size());
    return main;
}

Tensor
ResidualBlock::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "ResidualBlock::backward without forward");
    Tensor g(cachedSum_.shape());
    for (size_t i = 0; i < g.size(); ++i)
        g[i] = cachedSum_[i] > 0.0f ? grad_out[i] : 0.0f;
    haveCache_ = false;

    Tensor g_main = conv2_->backward(bn2_->backward(g));
    g_main = conv1_->backward(bn1_->backward(relu1_->backward(g_main)));

    Tensor g_short =
        proj_ ? proj_->backward(projBn_->backward(g)) : g;
    for (size_t i = 0; i < g_main.size(); ++i)
        g_main[i] += g_short[i];
    return g_main;
}

std::vector<Param *>
ResidualBlock::params()
{
    std::vector<Param *> out;
    std::vector<Layer *> layers = {conv1_.get(), bn1_.get(), conv2_.get(),
                                   bn2_.get()};
    if (proj_) {
        layers.push_back(proj_.get());
        layers.push_back(projBn_.get());
    }
    for (Layer *l : layers) {
        auto p = l->params();
        out.insert(out.end(), p.begin(), p.end());
    }
    return out;
}

Shape
ResidualBlock::outputShape(const Shape &in) const
{
    return conv2_->outputShape(conv1_->outputShape(in));
}

void
ResidualBlock::appendCost(const Shape &in, CostLedger &ledger) const
{
    Shape mid = conv1_->outputShape(in);
    conv1_->appendCost(in, ledger);
    bn1_->appendCost(mid, ledger);
    conv2_->appendCost(mid, ledger);
    bn2_->appendCost(mid, ledger);
    if (proj_) {
        proj_->appendCost(in, ledger);
        projBn_->appendCost(mid, ledger);
    }
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * 2; // add + relu
    ledger.add(Stage::Recovering, ops);
}

void
ResidualBlock::appendAuxCost(const Shape &in, CostLedger &ledger) const
{
    Shape mid = conv1_->outputShape(in);
    bn1_->appendAuxCost(mid, ledger);
    relu1_->appendAuxCost(mid, ledger);
    bn2_->appendAuxCost(mid, ledger);
    if (projBn_)
        projBn_->appendAuxCost(mid, ledger);
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * 2; // residual add + relu
    ledger.add(Stage::Recovering, ops);
}

LayerFootprint
ResidualBlock::footprint(const Shape &in) const
{
    LayerFootprint fp = Layer::footprint(in);
    Shape mid = conv1_->outputShape(in);
    fp.scratchBytes = mid.elems() + conv2_->footprint(mid).scratchBytes;
    return fp;
}

void
ResidualBlock::collectConvs(std::vector<Conv2D *> &out)
{
    out.push_back(conv1_.get());
    out.push_back(conv2_.get());
    if (proj_)
        out.push_back(proj_.get());
}

} // namespace genreuse
