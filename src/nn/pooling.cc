#include "pooling.h"

#include "common/logging.h"
#include "common/simd.h"

namespace genreuse {

namespace {

void
checkPoolInput(const Shape &in, size_t size, const char *what)
{
    GENREUSE_REQUIRE(in.rank() == 4, what, " input must be NCHW");
    GENREUSE_REQUIRE(in.height() >= size && in.width() >= size, what,
                     " window ", size, " larger than input ", in.toString());
}

size_t
poolOut(size_t in, size_t size, size_t stride)
{
    return (in - size) / stride + 1;
}

} // namespace

MaxPool2D::MaxPool2D(std::string name, size_t size, size_t stride)
    : Layer(std::move(name)), size_(size), stride_(stride)
{
    GENREUSE_REQUIRE(size >= 1 && stride >= 1, "bad pooling parameters");
}

Tensor
MaxPool2D::forward(const Tensor &x, bool training)
{
    checkPoolInput(x.shape(), size_, "MaxPool2D");
    const Shape &s = x.shape();
    const size_t ih = s.height(), iw = s.width();
    const size_t oh = poolOut(ih, size_, stride_);
    const size_t ow = poolOut(iw, size_, stride_);
    Tensor y({s.batch(), s.channels(), oh, ow});
    const size_t planes = s.batch() * s.channels();
    float *dst = y.data();
    if (!training) {
        // Only backward() reads the argmax, so inference skips it and
        // scans each window with a select (a max instruction) instead
        // of a branch. v > best ? v : best keeps the first maximum's
        // value exactly as the training scan does, NaN included. The
        // common 2x2 / stride-2 window is a dispatched kernel.
        if (size_ == 2 && stride_ == 2) {
            simd::ops().maxPool2x2(x.data(), planes, ih, iw, oh, ow, dst);
            return y;
        }
        for (size_t pl = 0; pl < planes; ++pl) {
            const float *src = x.data() + pl * ih * iw;
            for (size_t yy = 0; yy < oh; ++yy)
                for (size_t xx = 0; xx < ow; ++xx, ++dst) {
                    const float *win = src + yy * stride_ * iw + xx * stride_;
                    float best = win[0];
                    for (size_t kh = 0; kh < size_; ++kh)
                        for (size_t kw = 0; kw < size_; ++kw) {
                            const float v = win[kh * iw + kw];
                            best = v > best ? v : best;
                        }
                    *dst = best;
                }
        }
        return y;
    }
    argmax_.assign(y.size(), 0);
    uint32_t *argmax = argmax_.data();
    cachedInShape_ = s;
    haveCache_ = true;

    for (size_t pl = 0; pl < planes; ++pl) {
        const float *src = x.data() + pl * ih * iw;
        for (size_t yy = 0; yy < oh; ++yy) {
            for (size_t xx = 0; xx < ow; ++xx, ++dst) {
                // Row-major window scan; the first maximum wins.
                size_t best_at = yy * stride_ * iw + xx * stride_;
                float best = src[best_at];
                for (size_t kh = 0; kh < size_; ++kh) {
                    const size_t row = (yy * stride_ + kh) * iw;
                    for (size_t kw = 0; kw < size_; ++kw) {
                        const size_t at = row + xx * stride_ + kw;
                        if (src[at] > best) {
                            best = src[at];
                            best_at = at;
                        }
                    }
                }
                *dst = best;
                *argmax++ = static_cast<uint32_t>(pl * ih * iw + best_at);
            }
        }
    }
    return y;
}

Tensor
MaxPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "MaxPool2D::backward without forward");
    Tensor gx(cachedInShape_);
    for (size_t i = 0; i < grad_out.size(); ++i)
        gx[argmax_[i]] += grad_out[i];
    haveCache_ = false;
    return gx;
}

Shape
MaxPool2D::outputShape(const Shape &in) const
{
    checkPoolInput(in, size_, "MaxPool2D");
    return Shape({in.batch(), in.channels(),
                  poolOut(in.height(), size_, stride_),
                  poolOut(in.width(), size_, stride_)});
}

void
MaxPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * size_ * size_;
    ledger.add(Stage::Recovering, ops);
}

AvgPool2D::AvgPool2D(std::string name, size_t size, size_t stride)
    : Layer(std::move(name)), size_(size), stride_(stride)
{
    GENREUSE_REQUIRE(size >= 1 && stride >= 1, "bad pooling parameters");
}

Tensor
AvgPool2D::forward(const Tensor &x, bool training)
{
    checkPoolInput(x.shape(), size_, "AvgPool2D");
    const Shape &s = x.shape();
    size_t oh = poolOut(s.height(), size_, stride_);
    size_t ow = poolOut(s.width(), size_, stride_);
    Tensor y({s.batch(), s.channels(), oh, ow});
    const float inv = 1.0f / static_cast<float>(size_ * size_);

    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c)
            for (size_t yy = 0; yy < oh; ++yy)
                for (size_t xx = 0; xx < ow; ++xx) {
                    float sum = 0.0f;
                    for (size_t kh = 0; kh < size_; ++kh)
                        for (size_t kw = 0; kw < size_; ++kw)
                            sum += x.at4(b, c, yy * stride_ + kh,
                                         xx * stride_ + kw);
                    y.at4(b, c, yy, xx) = sum * inv;
                }
    if (training) {
        cachedInShape_ = s;
        haveCache_ = true;
    }
    return y;
}

Tensor
AvgPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "AvgPool2D::backward without forward");
    const Shape &s = cachedInShape_;
    size_t oh = poolOut(s.height(), size_, stride_);
    size_t ow = poolOut(s.width(), size_, stride_);
    Tensor gx(s);
    const float inv = 1.0f / static_cast<float>(size_ * size_);
    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c)
            for (size_t yy = 0; yy < oh; ++yy)
                for (size_t xx = 0; xx < ow; ++xx) {
                    float g = grad_out.at4(b, c, yy, xx) * inv;
                    for (size_t kh = 0; kh < size_; ++kh)
                        for (size_t kw = 0; kw < size_; ++kw)
                            gx.at4(b, c, yy * stride_ + kh,
                                   xx * stride_ + kw) += g;
                }
    haveCache_ = false;
    return gx;
}

Shape
AvgPool2D::outputShape(const Shape &in) const
{
    checkPoolInput(in, size_, "AvgPool2D");
    return Shape({in.batch(), in.channels(),
                  poolOut(in.height(), size_, stride_),
                  poolOut(in.width(), size_, stride_)});
}

void
AvgPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * size_ * size_;
    ledger.add(Stage::Recovering, ops);
}

Tensor
GlobalAvgPool2D::forward(const Tensor &x, bool training)
{
    GENREUSE_REQUIRE(x.shape().rank() == 4, "GlobalAvgPool2D input NCHW");
    const Shape &s = x.shape();
    Tensor y({s.batch(), s.channels()});
    const size_t plane = s.height() * s.width();
    const float inv = 1.0f / static_cast<float>(plane);
    // One (b, c) plane per output, summed in storage order.
    for (size_t i = 0; i < y.size(); ++i) {
        const float *src = x.data() + i * plane;
        float sum = 0.0f;
        for (size_t j = 0; j < plane; ++j)
            sum += src[j];
        y[i] = sum * inv;
    }
    if (training) {
        cachedInShape_ = s;
        haveCache_ = true;
    }
    return y;
}

Tensor
GlobalAvgPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "GlobalAvgPool2D::backward without forward");
    const Shape &s = cachedInShape_;
    Tensor gx(s);
    const float inv = 1.0f / static_cast<float>(s.height() * s.width());
    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c) {
            float g = grad_out.at2(b, c) * inv;
            for (size_t h = 0; h < s.height(); ++h)
                for (size_t w = 0; w < s.width(); ++w)
                    gx.at4(b, c, h, w) = g;
        }
    haveCache_ = false;
    return gx;
}

Shape
GlobalAvgPool2D::outputShape(const Shape &in) const
{
    return Shape({in.batch(), in.channels()});
}

void
GlobalAvgPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = in.elems();
    ledger.add(Stage::Recovering, ops);
}

} // namespace genreuse
