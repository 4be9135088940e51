/**
 * @file
 * ReuseConvAlgo — a ConvAlgo strategy that executes a convolution's
 * GEMM under a generalized reuse pattern: reorder the im2col matrix
 * (and the weight rows) per the pattern, run vertical or horizontal
 * reuse with the fitted LSH families, and undo the row reorder on the
 * output. Drop-in for Conv2D::setAlgo(), so any model in src/models
 * can be reuse-optimized layer by layer.
 */

#ifndef GENREUSE_CORE_REUSE_CONV_H
#define GENREUSE_CORE_REUSE_CONV_H

#include <memory>

#include "common/status.h"
#include "horizontal_reuse.h"
#include "nn/conv2d.h"
#include "reorder.h"
#include "reuse_pattern.h"
#include "reuse_stats.h"
#include "stream_context.h"
#include "vertical_reuse.h"

namespace genreuse {

/** How the LSH hash vectors are obtained. */
enum class HashMode
{
    Random,  //!< random hyperplanes (lightweight profiling mode)
    Learned, //!< PCA-learned hyperplanes (TREC-equivalent; see DESIGN.md)
};

/** Convolution multiplication under a generalized reuse pattern. */
class ReuseConvAlgo : public ConvAlgo
{
  public:
    /**
     * @param pattern the reuse pattern to execute
     * @param mode hash-vector source; Learned requires fit()
     * @param seed RNG seed for Random mode hash vectors
     */
    explicit ReuseConvAlgo(ReusePattern pattern,
                           HashMode mode = HashMode::Learned,
                           uint64_t seed = 99);

    /**
     * Fit the hash families. @p sample_default_x is an im2col matrix
     * in the *default* layout (as produced by im2col()) from sample
     * data, e.g. a training batch; @p geom the layer geometry.
     * Random mode ignores the sample values but uses the shapes.
     */
    void fit(const Tensor &sample_default_x, const ConvGeometry &geom);

    /**
     * Fit from a sample whose columns are *already* permuted into the
     * pattern's order. The exploration engine memoizes that reorder
     * across candidates sharing a column order; results are identical
     * to fit() on the default layout.
     */
    void fitReordered(const Tensor &sample_reordered_x,
                      const ConvGeometry &geom);

    Tensor multiply(const Tensor &x, const Tensor &w,
                    const ConvGeometry &geom, CostLedger *ledger) override;

    /**
     * multiply() with recoverable-error reporting: an unfitted algo or
     * a geometry/shape mismatch returns a FailedPrecondition /
     * InvalidArgument Status instead of terminating, so a runtime
     * guard can downgrade to an exact strategy. multiply() delegates
     * here and panics on error (misuse stays a hard bug for direct
     * callers).
     */
    Expected<Tensor> tryMultiply(const Tensor &x, const Tensor &w,
                                 const ConvGeometry &geom,
                                 CostLedger *ledger);

    /**
     * tryMultiply() writing into @p y (resized in place, capacity
     * reused). Layout-transform scratch (the reordered input/weights,
     * the pre-unpermute output), the cached row permutation and any
     * band-remapped families live in the executing stream's context
     * (StreamContext::current()), so a steady-state call performs no
     * heap allocation and N streams can forward through one fitted
     * algorithm concurrently. @p y is untouched on error.
     */
    Status tryMultiplyInto(const Tensor &x, const Tensor &w,
                           const ConvGeometry &geom, CostLedger *ledger,
                           Tensor &y);

    /** tryMultiplyInto() with an explicit stream context: @p ctx is
     *  bound for the duration of the call (scratch, arena, stream tag),
     *  which is how the serve engine routes one fitted algorithm's
     *  forwards to per-stream state. The fit itself (families, column
     *  permutation, slicing) is shared and read-only here — concurrent
     *  calls with distinct contexts are safe on a fitted algo as long
     *  as nobody refits (fit()/setSeed() still require exclusivity). */
    Status tryMultiplyInto(StreamContext &ctx, const Tensor &x,
                           const Tensor &w, const ConvGeometry &geom,
                           CostLedger *ledger, Tensor &y);

    /** multiply() writing into @p y; panics on error like multiply(). */
    void multiplyInto(const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y);

    /** multiplyInto() with an explicit stream context (see the ctx
     *  tryMultiplyInto overload). */
    void multiplyInto(StreamContext &ctx, const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y);

    /**
     * The fused eval pass: hash, group and average the conv patches
     * straight from the NCHW input @p x, through the column order's
     * index table, with no im2col matrix and no reorder copy. Runs
     * only when acceptsNchw(); otherwise returns false having done
     * nothing. Outputs, lastStats() and ledger counts (the reorder is
     * still charged, as the MCU kernel pays it) equal multiply() on
     * im2col(x).
     */
    bool multiplyNchw(const Tensor &x, const Tensor &w,
                      const ConvGeometry &geom, CostLedger *ledger,
                      Tensor &y) override;

    /**
     * True when the fused pass can run this geometry on the calling
     * stream: fitted for it, vertical direction, 1-D neuron vectors
     * (blockRows 1), stride 1, and a row order that is the identity
     * here (so items stay in output-pixel order).
     */
    bool acceptsNchw(const ConvGeometry &geom, const Tensor &w);

    /**
     * multiply() for inputs already in the pattern's row/column order
     * (weights pre-permuted to match). The transformation cost is
     * charged exactly as multiply() would, so ledgers — and therefore
     * latency estimates — are bit-identical; only the redundant
     * per-candidate reorder work is skipped. Used by the exploration
     * engine with memoized reorders.
     */
    Tensor multiplyReordered(const Tensor &xr, const Tensor &wr,
                             const ConvGeometry &geom, CostLedger *ledger);

    std::string describe() const override;

    const ReusePattern &pattern() const { return pattern_; }
    bool fitted() const { return fitted_; }

    /** RNG seed for Random-mode hash vectors. */
    uint64_t seed() const { return seed_; }

    /**
     * Change the hash seed for the next fit(): the guard's re-cluster
     * rung refits with a stepped seed to draw fresh hash parameters.
     */
    void setSeed(uint64_t seed) { seed_ = seed; }

    /** Statistics of the calling stream's most recent multiply()
     *  through this algorithm (per-stream state: another stream's
     *  forwards do not disturb it). */
    const ReuseStats &lastStats() const;

    /** Monotonic fit counter: bumped by every (re)fit, it keys the
     *  per-stream scratch caches so a refit invalidates them lazily in
     *  every stream's context. */
    uint64_t fitEpoch() const { return fitEpoch_; }

    /** This instance's serial: the key of its audit slot. */
    uint64_t serial() const { return stateOwner_.serial(); }

  private:
    void fitFamilies(const Tensor &sample, const ConvGeometry &geom);
    ConvStreamScratch &scratch(StreamContext &ctx) const;
    /** @p w_rows: as in verticalReuseMultiplyInto (vertical patterns
     *  only; nullptr when @p wr is already in @p xr's column order). */
    void reuseCoreInto(ConvStreamScratch &sc, const Tensor &xr,
                       const Tensor &wr, const uint32_t *w_rows,
                       const std::vector<uint32_t> &row_perm,
                       bool reorder_rows, const ConvGeometry &geom,
                       CostLedger *ledger, Tensor &y);
    /** Charge the input reorder the way tryMultiplyInto does. */
    void chargeReorder(size_t elems, CostLedger *ledger) const;
    /** The per-layer reuse event and audit record of a finished
     *  forward. */
    void finishForward(const ConvStreamScratch &sc) const;
    std::vector<HashFamily> remapFamilies(ConvStreamScratch &sc,
                                          const HorizontalSlicing &plan);
    const std::vector<HashFamily> &
    remapFamiliesCached(ConvStreamScratch &sc,
                        const HorizontalSlicing &plan);
    const std::vector<uint32_t> &cachedRowPerm(ConvStreamScratch &sc,
                                               const ConvGeometry &geom);

    // The shared fit: immutable between fit() calls, so N streams can
    // read it concurrently. Everything a forward *writes* lives in
    // ConvStreamScratch inside the executing stream's context.
    ReusePattern pattern_;
    HashMode mode_;
    uint64_t seed_;

    std::vector<uint32_t> colPerm_;
    VerticalSlicing vslice_;
    HorizontalSlicing hslice_;
    std::vector<HashFamily> families_;
    bool fitted_ = false;
    size_t fittedDin_ = 0;
    uint64_t fitEpoch_ = 0;
    StateOwner stateOwner_; //!< keys this instance's per-stream scratch
};

/**
 * Convenience: build, fit and install a ReuseConvAlgo on a conv layer.
 * The sample im2col matrix comes from running @p sample_input through
 * the owning network up to this layer beforehand (the layer caches its
 * last im2col matrix); callers that already forwarded sample data can
 * pass Conv2D::lastIm2col().
 *
 * @return the installed algorithm (owned jointly with the layer)
 */
std::shared_ptr<ReuseConvAlgo> applyReusePattern(
    Conv2D &layer, const ReusePattern &pattern,
    const Tensor &sample_default_x, const ConvGeometry &geom,
    HashMode mode = HashMode::Learned, uint64_t seed = 99);

} // namespace genreuse

#endif // GENREUSE_CORE_REUSE_CONV_H
