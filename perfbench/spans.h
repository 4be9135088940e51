/**
 * @file
 * The benchmark's own tracing: spans recorded around calls into the
 * library, kept in memory and written out when the run ends.
 *
 * A traced forward walks Network::layer(i).forward with a span per
 * top-level layer, and a delegating ConvAlgo on every conv adds a span
 * per multiply. Work the spans cannot see from outside (im2col, weight
 * repack, the convs/BN/ReLUs inside a Fire module, the reuse kernel
 * without its guard, the exact GEMM) is timed by shadow calls on the
 * captured inputs after the forward, outside its spans.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "mcu/cost_model.h"
#include "nn/composite.h"
#include "nn/conv2d.h"

namespace perfbench {

/** One timed interval; spans of one request share @p request. */
struct Span
{
    uint32_t name = 0;
    uint64_t request = 0;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** In-memory span store. Capacity is reserved up front so recording
 *  does not allocate inside the measured forward. */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

    /** Stable id for a span name. */
    uint32_t intern(const std::string &name);

    /** Record a span; silently dropped once the capacity is used up. */
    void
    add(uint32_t name, uint64_t request, uint64_t start_ns, uint64_t end_ns)
    {
        if (spans_.size() < spans_.capacity())
            spans_.push_back({name, request, start_ns, end_ns});
    }

    /** Write every span as a Chrome trace-event JSON file. */
    void write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, uint32_t> ids_;
};

/** A ConvAlgo that times the multiply of the algorithm it wraps. */
class SpanAlgo : public genreuse::ConvAlgo
{
  public:
    SpanAlgo(std::shared_ptr<genreuse::ConvAlgo> inner, SpanLog &log,
             uint32_t name)
        : inner_(std::move(inner)), log_(log), name_(name)
    {
    }

    Tensor multiply(const Tensor &x, const Tensor &w,
                    const genreuse::ConvGeometry &geom,
                    genreuse::CostLedger *ledger) override;

    std::string describe() const override { return inner_->describe(); }

    const std::shared_ptr<genreuse::ConvAlgo> &inner() const
    {
        return inner_;
    }

    /** Duration of the most recent multiply. */
    uint64_t lastNs() const { return lastNs_; }

    /** Request id stamped on the spans that follow. */
    void setRequest(uint64_t id) { request_ = id; }

  private:
    std::shared_ptr<genreuse::ConvAlgo> inner_;
    SpanLog &log_;
    uint32_t name_;
    uint64_t request_ = 0;
    uint64_t lastNs_ = 0;
};

/**
 * Traced batch-1 forwards of one network with guarded reuse installed
 * on its targets. Construction wraps every conv in a SpanAlgo and
 * attaches a CostLedger to each target; destruction restores both.
 */
class LayerTracer
{
  public:
    LayerTracer(Network &net, Model model,
                const std::vector<std::shared_ptr<GuardedReuseConvAlgo>>
                    &guards,
                SpanLog &log);
    ~LayerTracer();

    LayerTracer(const LayerTracer &) = delete;
    LayerTracer &operator=(const LayerTracer &) = delete;

    /** One traced forward of @p x, then its shadow calls. Returns the
     *  network output; @p walk_ms receives the traced forward's time. */
    Tensor forward(const Tensor &x, uint64_t request, double &walk_ms);

    /** Per-layer metrics over every traced forward so far, plus the
     *  host-vs-model table of the target convs. */
    void report(Report &rep) const;

  private:
    struct ConvSlot
    {
        Conv2D *conv = nullptr;
        std::shared_ptr<SpanAlgo> wrapper;
        genreuse::CostLedger *ledger = nullptr; //!< targets only
    };
    struct Target
    {
        Conv2D *conv = nullptr;
        std::shared_ptr<GuardedReuseConvAlgo> guard;
        genreuse::CostLedger ledger;
        std::vector<double> multiplyMs, reuseMs, exactMs;
        size_t vectors = 0, centroids = 0, exactMacs = 0, reuseMacs = 0;
    };
    /** Per-inference sums of one traced forward (ms unless noted). */
    struct LayerSums
    {
        double conv = 0, convSelf = 0, act = 0, pool = 0, bn = 0,
               dense = 0, fireSelf = 0, im2col = 0, k2m = 0;
        double allocs = 0, allocBytes = 0; //!< count, bytes
    };

    ConvSlot &slotOf(const Conv2D *conv);
    /** Conv2D::forward of @p in on the exact path with no ledger;
     *  returns its time minus the multiply (the conv's self time). */
    double shadowConv(Conv2D &conv, const Tensor &in, Tensor &out);
    void shadowTensorOps(Conv2D &conv, const Tensor &in, LayerSums &sums);
    void tracedFire(genreuse::FireModule &fire, const Tensor &in,
                    double span_ms, LayerSums &sums);
    void recordTargets();
    double medianOf(double LayerSums::*field) const;

    Network &net_;
    SpanLog &log_;
    std::vector<ConvSlot> convs_;
    std::vector<Target> targets_;
    std::vector<uint32_t> layerSpan_;
    std::vector<Tensor> acts_;
    std::vector<uint64_t> bounds_;
    std::shared_ptr<SpanAlgo> shadowExact_;
    std::vector<LayerSums> sums_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
