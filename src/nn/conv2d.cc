#include "conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/eventlog.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "tensor/gemm.h"

namespace genreuse {

Tensor
ExactConvAlgo::multiply(const Tensor &x, const Tensor &w,
                        const ConvGeometry &geom, CostLedger *ledger)
{
    (void)geom;
    profiler::ProfSpan span("exact.gemm");
    Tensor y = matmul(x, w);
    OpCounts ops;
    ops.macs = x.shape().rows() * x.shape().cols() * w.shape().cols();
    reportOps(ledger, Stage::Gemm, ops);
    return y;
}

Conv2D::Conv2D(std::string name, size_t in_channels, size_t out_channels,
               size_t kernel, size_t stride, size_t pad, Rng &rng)
    : Layer(std::move(name)),
      inChannels_(in_channels),
      outChannels_(out_channels),
      kernelSize_(kernel),
      stride_(stride),
      pad_(pad),
      kernel_(Tensor::randomNormal(
          {out_channels, in_channels, kernel, kernel}, rng, 0.0f,
          std::sqrt(2.0f / static_cast<float>(in_channels * kernel *
                                              kernel)))),
      bias_(Tensor({out_channels})),
      algo_(std::make_shared<ExactConvAlgo>())
{
}

ConvGeometry
Conv2D::geometry(const Shape &in) const
{
    GENREUSE_REQUIRE(in.rank() == 4, "Conv2D input must be NCHW, got ",
                     in.toString());
    GENREUSE_REQUIRE(in.channels() == inChannels_, "Conv2D '", name(),
                     "' expects ", inChannels_, " channels, got ",
                     in.channels());
    ConvGeometry g;
    g.batch = in.batch();
    g.inChannels = inChannels_;
    g.inHeight = in.height();
    g.inWidth = in.width();
    g.outChannels = outChannels_;
    g.kernelH = kernelSize_;
    g.kernelW = kernelSize_;
    g.stride = stride_;
    g.pad = pad_;
    return g;
}

Tensor
Conv2D::weightMatrix() const
{
    return kernelToMatrix(kernel_.value);
}

const Tensor &
Conv2D::packedWeights()
{
    profiler::ProfSpan span("conv.pack");
    // Compared bit for bit, so the pack follows every way the kernel
    // can change — kernel().value assignment, an optimizer step, a
    // parameter load, a BN fold, or a write through a reference held
    // across forwards — at the cost of one contiguous compare.
    const Tensor &k = kernel_.value;
    if (packedFrom_.shape() != k.shape() ||
        std::memcmp(packedFrom_.data(), k.data(),
                    k.size() * sizeof(float)) != 0) {
        packedFrom_ = k;
        packedW_ = kernelToMatrix(k);
    }
    return packedW_;
}

Tensor
Conv2D::forward(const Tensor &x, bool training)
{
    profiler::ProfSpan pspan("conv.forward");
    // Active whenever the journal is on, so guard/fault/reuse events
    // inside the multiply carry the layer name into postmortem dumps.
    eventlog::LayerScope escope(name());
    ConvGeometry geom = geometry(x.shape());
    if (!training && kernelSize_ == 1 && stride_ == 1 && pad_ == 0 &&
        dynamic_cast<const ExactConvAlgo *>(algo_.get()) != nullptr)
        return forwardPointwise(x, geom);
    const size_t im2col_elems = geom.rows() * geom.cols();
    const Tensor *w = nullptr;
    if (!training) {
        // Free a matrix cached by a forward of another shape (a batched
        // fitting forward) before the multiply. One of this shape stays
        // until the next im2col forward replaces it, as on the im2col
        // path: freeing it here slowed eval forwards that alternate
        // between the two paths (exact and guarded).
        if (cachedX_.size() != im2col_elems)
            cachedX_ = Tensor(Shape({0}));
        Tensor y(Shape({0, 0})); // empty: no heap block if declined
        w = &packedWeights();
        if (algo_->multiplyNchw(x, *w, geom, ledger_, y)) {
            // The MCU kernel still builds its patches; charge them as
            // the im2col path does.
            OpCounts ops;
            ops.elemMoves = im2col_elems;
            reportOps(ledger_, Stage::Transformation, ops);
            keepInputForIm2col(x, geom);
            return finishGemmOutput(y, geom);
        }
    }
    Tensor cols = [&] {
        profiler::ProfSpan span("conv.im2col");
        return im2col(x, geom);
    }();
    {
        OpCounts ops;
        ops.elemMoves = im2col_elems; // one element move per matrix cell
        reportOps(ledger_, Stage::Transformation, ops);
    }

    if (w == nullptr)
        w = &packedWeights();
    Tensor y = algo_->multiply(cols, *w, geom, ledger_);

    // Backward needs the im2col matrix; eval keeps it for hash fitting.
    cachedX_ = std::move(cols);
    im2colPending_ = false;
    cachedGeom_ = geom;
    haveCache_ = training;
    return finishGemmOutput(y, geom);
}

Tensor
Conv2D::finishGemmOutput(const Tensor &y, const ConvGeometry &geom)
{
    profiler::ProfSpan span("conv.bias");
    OpCounts ops;
    ops.aluOps = y.size();    // bias adds
    ops.elemMoves = y.size(); // fold back into activation layout
    reportOps(ledger_, Stage::Recovering, ops);
    return gemmOutputToActivation(y, geom, bias_.value.data());
}

void
Conv2D::keepInputForIm2col(const Tensor &x, const ConvGeometry &geom)
{
    cachedInput_ = x;
    im2colPending_ = true;
    cachedGeom_ = geom;
    haveCache_ = false;
}

Tensor
Conv2D::forwardPointwise(const Tensor &x, const ConvGeometry &geom)
{
    // In NCHW each image is a (Cin x HW) matrix and the kernel is
    // (Cout x Cin), so the conv is K x X per image with no im2col and
    // no output transpose. Every output element still sees the same
    // k-blocks over Cin in the same order as in the (HW x Cin) x
    // (Cin x Cout) product, with the factors of each product swapped,
    // so the result is bit-identical. The ledger reports the im2col
    // path's counts: it models the MCU kernel, not this host shortcut.
    const size_t cin = inChannels_, cout = outChannels_;
    const size_t hw = geom.inHeight * geom.inWidth;
    {
        OpCounts ops;
        ops.elemMoves = x.size();
        reportOps(ledger_, Stage::Transformation, ops);
    }
    Tensor out({geom.batch, cout, geom.outHeight(), geom.outWidth()});
    {
        profiler::ProfSpan span("exact.gemm");
        for (size_t b = 0; b < geom.batch; ++b)
            gemmRaw(kernel_.value.data(), x.data() + b * cin * hw,
                    out.data() + b * cout * hw, cout, hw, cin, cin, hw, hw,
                    false);
        OpCounts ops;
        ops.macs = geom.macs();
        reportOps(ledger_, Stage::Gemm, ops);
    }
    {
        profiler::ProfSpan span("conv.bias");
        simd::ops().addChannelBias(out.data(), bias_.value.data(),
                                   geom.batch, cout, hw);
        OpCounts ops;
        ops.aluOps = out.size();
        ops.elemMoves = out.size();
        reportOps(ledger_, Stage::Recovering, ops);
    }
    keepInputForIm2col(x, geom);
    return out;
}

const Tensor &
Conv2D::lastIm2col() const
{
    if (im2colPending_) {
        cachedX_ = im2col(cachedInput_, cachedGeom_);
        im2colPending_ = false;
    }
    return cachedX_;
}

Tensor
Conv2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "Conv2D::backward without training forward");
    const ConvGeometry &geom = cachedGeom_;
    Tensor gy = activationToGemmOutput(grad_out, geom);

    // Bias gradient: column sums.
    const size_t n = gy.shape().rows(), m = gy.shape().cols();
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < m; ++c)
            bias_.grad[c] += gy.at2(r, c);

    // Weight gradient: X^T x gY, folded back to kernel layout.
    Tensor gw({geom.cols(), m});
    gemmTransA(cachedX_, gy, gw);
    Tensor gk = matrixToKernel(gw, geom);
    for (size_t i = 0; i < gk.size(); ++i)
        kernel_.grad[i] += gk[i];

    // Input gradient: gY x W^T, scattered by col2im.
    Tensor w = weightMatrix();
    Tensor gx_cols({n, geom.cols()});
    gemmTransB(gy, w, gx_cols);
    haveCache_ = false;
    return col2im(gx_cols, geom);
}

std::vector<Param *>
Conv2D::params()
{
    return {&kernel_, &bias_};
}

Shape
Conv2D::outputShape(const Shape &in) const
{
    ConvGeometry g = geometry(in);
    return Shape({g.batch, g.outChannels, g.outHeight(), g.outWidth()});
}

void
Conv2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    ConvGeometry g = geometry(in);
    OpCounts tf;
    tf.elemMoves = g.rows() * g.cols();
    ledger.add(Stage::Transformation, tf);
    OpCounts mm;
    mm.macs = g.macs();
    ledger.add(Stage::Gemm, mm);
    OpCounts rc;
    rc.aluOps = g.rows() * g.outChannels;
    rc.elemMoves = g.rows() * g.outChannels;
    ledger.add(Stage::Recovering, rc);
}

LayerFootprint
Conv2D::footprint(const Shape &in) const
{
    LayerFootprint fp = Layer::footprint(in);
    ConvGeometry g = geometry(in);
    // CMSIS-NN style kernels stream the im2col expansion through a
    // small row-tile buffer rather than materializing the full matrix;
    // reuse additionally keeps per-row signatures.
    constexpr size_t tile_rows = 8;
    fp.scratchBytes =
        g.cols() * std::min(g.rows(), tile_rows) + g.rows();
    return fp;
}

void
Conv2D::setAlgo(std::shared_ptr<ConvAlgo> algo)
{
    GENREUSE_REQUIRE(algo != nullptr, "null ConvAlgo");
    algo_ = std::move(algo);
}

void
Conv2D::resetAlgo()
{
    algo_ = std::make_shared<ExactConvAlgo>();
}

} // namespace genreuse
