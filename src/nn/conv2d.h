/**
 * @file
 * im2col-GEMM convolution with a pluggable multiplication strategy
 * (1x1 exact eval forwards skip im2col and multiply the NCHW planes;
 * eval strategies may take the NCHW input through
 * ConvAlgo::multiplyNchw instead of the matrix).
 * The exact strategy is a plain blocked GEMM; the reuse engine
 * (src/core) supplies alternative strategies that cluster the im2col
 * rows/columns and multiply centroids only. Backward always uses exact
 * gradients (reuse is an inference-time approximation; training and
 * fine-tuning follow the exact path, as in the paper).
 */

#ifndef GENREUSE_NN_CONV2D_H
#define GENREUSE_NN_CONV2D_H

#include <memory>

#include "layer.h"
#include "tensor/im2col.h"

namespace genreuse {

/**
 * Strategy interface for the X x W product inside a convolution.
 * Implementations must report their op counts to the ledger when one
 * is supplied.
 */
class ConvAlgo
{
  public:
    virtual ~ConvAlgo() = default;

    /**
     * Compute Y = X x W (N x Din times Din x M).
     * @param x im2col matrix in the default channel-major layout
     * @param w weight matrix
     * @param geom convolution geometry (for layout-aware strategies)
     * @param ledger optional per-stage cost accounting sink
     */
    virtual Tensor multiply(const Tensor &x, const Tensor &w,
                            const ConvGeometry &geom,
                            CostLedger *ledger) = 0;

    /**
     * Eval-mode fast path: compute Y = im2col(x) x W into @p y straight
     * from the NCHW input @p x, without building the im2col matrix.
     * Return false, having done nothing, to decline; Conv2D then builds
     * the matrix and calls multiply(). A strategy that accepts must
     * produce multiply()'s output and report its ledger ops (Conv2D
     * still charges the im2col transformation itself). The default
     * declines.
     */
    virtual bool
    multiplyNchw(const Tensor &x, const Tensor &w, const ConvGeometry &geom,
                 CostLedger *ledger, Tensor &y)
    {
        (void)x;
        (void)w;
        (void)geom;
        (void)ledger;
        (void)y;
        return false;
    }

    /** Short description for reports ("exact", "reuse[...]"). */
    virtual std::string describe() const = 0;
};

/**
 * The exact GEMM strategy (CMSIS-NN style baseline). Final because
 * Conv2D recognizes it to run 1x1 eval forwards without im2col; any
 * other strategy, wrappers included, gets the im2col matrix.
 */
class ExactConvAlgo final : public ConvAlgo
{
  public:
    Tensor multiply(const Tensor &x, const Tensor &w,
                    const ConvGeometry &geom, CostLedger *ledger) override;
    std::string describe() const override { return "exact"; }
};

/** 2-D convolution layer. */
class Conv2D : public Layer
{
  public:
    /**
     * @param name layer name (used by reports and pattern selection)
     * @param in_channels input channel count
     * @param out_channels number of kernels (M)
     * @param kernel square kernel size
     * @param stride convolution stride
     * @param pad zero padding on each border
     */
    Conv2D(std::string name, size_t in_channels, size_t out_channels,
           size_t kernel, size_t stride, size_t pad, Rng &rng);

    Tensor forward(const Tensor &x, bool training) override;
    Tensor backward(const Tensor &grad_out) override;
    std::vector<Param *> params() override;
    Shape outputShape(const Shape &in) const override;
    void appendCost(const Shape &in, CostLedger &ledger) const override;

    /** Convolution work is measured at runtime, not statically. */
    void
    appendAuxCost(const Shape &in, CostLedger &ledger) const override
    {
        (void)in;
        (void)ledger;
    }

    LayerFootprint footprint(const Shape &in) const override;

    /** Replace the multiplication strategy (exact by default). */
    void setAlgo(std::shared_ptr<ConvAlgo> algo);

    /** Current strategy. */
    ConvAlgo &algo() { return *algo_; }

    /** Restore the exact strategy. */
    void resetAlgo();

    /** Geometry for a given input shape. */
    ConvGeometry geometry(const Shape &in) const;

    /** Din x M weight matrix view of the kernel parameter. */
    Tensor weightMatrix() const;

    /** Kernel parameter (M, C, KH, KW). */
    Param &kernel() { return kernel_; }
    Param &bias() { return bias_; }

    size_t inChannels() const { return inChannels_; }
    size_t outChannels() const { return outChannels_; }
    size_t kernelSize() const { return kernelSize_; }
    size_t stride() const { return stride_; }
    size_t pad() const { return pad_; }

    /**
     * Attach a cost ledger that forward() fills with this layer's
     * op counts (including the strategy's reuse stages). Pass nullptr
     * to detach.
     */
    void setLedger(CostLedger *ledger) { ledger_ = ledger; }

    /**
     * im2col matrix of the last forward() input (for hash learning).
     * An eval forward that skips im2col (1x1 exact, or a strategy's
     * multiplyNchw) keeps its input instead; the matrix is built from
     * it on the first call here.
     */
    const Tensor &lastIm2col() const;

    /** Geometry of the last forward() input. */
    const ConvGeometry &lastGeometry() const { return cachedGeom_; }

    void collectConvs(std::vector<Conv2D *> &out) override
    {
        out.push_back(this);
    }

  private:
    size_t inChannels_, outChannels_, kernelSize_, stride_, pad_;
    Param kernel_;
    Param bias_;
    std::shared_ptr<ConvAlgo> algo_;
    CostLedger *ledger_ = nullptr;

    /** Eval forward of a 1x1/stride-1/pad-0 conv running the exact
     *  strategy, as one GEMM per image on the NCHW planes. */
    Tensor forwardPointwise(const Tensor &x, const ConvGeometry &geom);

    /** Bias add and fold of a GEMM-layout output (N x M) into NCHW,
     *  in one pass. */
    Tensor finishGemmOutput(const Tensor &y, const ConvGeometry &geom);

    /** Eval forwards that skipped im2col keep their input for
     *  lastIm2col(). */
    void keepInputForIm2col(const Tensor &x, const ConvGeometry &geom);

    /** kernelToMatrix(kernel_.value), repacked only when the kernel
     *  differs from packedFrom_, the copy it was packed from. */
    const Tensor &packedWeights();
    Tensor packedW_;
    Tensor packedFrom_;

    // Caches for backward and lastIm2col(): the im2col matrix, or, while
    // im2colPending_ is set, the input it is built from on demand.
    mutable Tensor cachedX_;
    Tensor cachedInput_;
    mutable bool im2colPending_ = false;
    ConvGeometry cachedGeom_;
    bool haveCache_ = false;
};

} // namespace genreuse

#endif // GENREUSE_NN_CONV2D_H
