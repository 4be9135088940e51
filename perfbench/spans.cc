#include "spans.h"

#include <cstdio>

#include "alloc_count.h"
#include "common/logging.h"
#include "core/latency_model.h"
#include "nn/activation.h"
#include "nn/batchnorm.h"
#include "nn/dense.h"
#include "tensor/im2col.h"

namespace perfbench {

using genreuse::ConvGeometry;
using genreuse::CostLedger;
using genreuse::CostModel;
using genreuse::ExactConvAlgo;
using genreuse::FireModule;
using genreuse::McuSpec;
using genreuse::Stage;

uint32_t
SpanLog::intern(const std::string &name)
{
    auto it = ids_.find(name);
    if (it != ids_.end())
        return it->second;
    const uint32_t id = static_cast<uint32_t>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
}

void
SpanLog::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
        return;
    }
    std::fputs("{\"traceEvents\":[", f);
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().startNs;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const uint64_t start = s.startNs >= t0 ? s.startNs - t0 : 0;
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f}",
                     i ? "," : "", names_[s.name].c_str(),
                     static_cast<unsigned long long>(s.request),
                     static_cast<double>(start) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3);
    }
    std::fputs("]}\n", f);
    std::fclose(f);
}

Tensor
SpanAlgo::multiply(const Tensor &x, const Tensor &w,
                   const ConvGeometry &geom, CostLedger *ledger)
{
    const uint64_t t0 = nowNs();
    Tensor y = inner_->multiply(x, w, geom, ledger);
    const uint64_t t1 = nowNs();
    lastNs_ = t1 - t0;
    log_.add(name_, request_, t0, t1);
    return y;
}

namespace {

template <typename F>
double
timeMs(F &&f)
{
    const uint64_t t0 = nowNs();
    f();
    return nsToMs(nowNs() - t0);
}

const CostModel &
mcuModel()
{
    static const CostModel model(McuSpec::stm32f469i());
    return model;
}

} // namespace

LayerTracer::LayerTracer(
    Network &net, Model model,
    const std::vector<std::shared_ptr<GuardedReuseConvAlgo>> &guards,
    SpanLog &log)
    : net_(net), log_(log)
{
    std::vector<Conv2D *> targets = reuseTargets(net, model);
    GENREUSE_REQUIRE(targets.size() == guards.size(),
                     "perfbench: guard/target count mismatch");
    targets_.resize(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) {
        targets_[i].conv = targets[i];
        targets_[i].guard = guards[i];
    }
    for (Conv2D *conv : net.convLayers()) {
        std::shared_ptr<genreuse::ConvAlgo> inner =
            std::make_shared<ExactConvAlgo>();
        CostLedger *ledger = nullptr;
        for (Target &t : targets_)
            if (t.conv == conv) {
                inner = t.guard;
                ledger = &t.ledger;
            }
        auto wrapper = std::make_shared<SpanAlgo>(
            inner, log, log.intern(conv->name() + ".multiply"));
        conv->setAlgo(wrapper);
        conv->setLedger(ledger);
        convs_.push_back({conv, wrapper, ledger});
    }
    for (size_t i = 0; i < net.numLayers(); ++i)
        layerSpan_.push_back(log.intern(net.layer(i).name()));
    acts_.reserve(net.numLayers());
    shadowExact_ = std::make_shared<SpanAlgo>(
        std::make_shared<ExactConvAlgo>(), log, log.intern("shadow.exact"));
}

LayerTracer::~LayerTracer()
{
    for (ConvSlot &c : convs_) {
        c.conv->setAlgo(c.wrapper->inner());
        c.conv->setLedger(nullptr);
    }
}

LayerTracer::ConvSlot &
LayerTracer::slotOf(const Conv2D *conv)
{
    for (ConvSlot &c : convs_)
        if (c.conv == conv)
            return c;
    genreuse::panic("perfbench: conv ", conv->name(), " is not wrapped");
}

double
LayerTracer::shadowConv(Conv2D &conv, const Tensor &in, Tensor &out)
{
    ConvSlot &slot = slotOf(&conv);
    conv.setLedger(nullptr);
    conv.setAlgo(shadowExact_);
    const double total = timeMs([&] { out = conv.forward(in, false); });
    conv.setAlgo(slot.wrapper);
    conv.setLedger(slot.ledger);
    return total - nsToMs(shadowExact_->lastNs());
}

void
LayerTracer::shadowTensorOps(Conv2D &conv, const Tensor &in,
                             LayerSums &sums)
{
    const ConvGeometry geom = conv.geometry(in.shape());
    sums.im2col += timeMs([&] { (void)genreuse::im2col(in, geom); });
    sums.k2m += timeMs(
        [&] { (void)genreuse::kernelToMatrix(conv.kernel().value); });
}

void
LayerTracer::recordTargets()
{
    ExactConvAlgo exact;
    for (Target &t : targets_) {
        const genreuse::ReuseStats &st = t.guard->inner().lastStats();
        t.vectors += st.totalVectors;
        t.centroids += st.totalCentroids;
        t.exactMacs += st.exactMacs;
        t.reuseMacs += st.reuseMacs;
        t.multiplyMs.push_back(nsToMs(slotOf(t.conv).wrapper->lastNs()));

        const Tensor x = t.conv->lastIm2col();
        const ConvGeometry geom = t.conv->lastGeometry();
        const Tensor w = t.conv->weightMatrix();
        t.reuseMs.push_back(timeMs([&] {
            (void)t.guard->inner().multiply(x, w, geom, nullptr);
        }));
        t.exactMs.push_back(
            timeMs([&] { (void)exact.multiply(x, w, geom, nullptr); }));
    }
}

Tensor
LayerTracer::forward(const Tensor &x, uint64_t request, double &walk_ms)
{
    for (ConvSlot &c : convs_)
        c.wrapper->setRequest(request);
    acts_.clear();
    bounds_.clear();
    bounds_.reserve(net_.numLayers() + 1);

    // The traced walk: one span per top-level layer. Nothing in this
    // loop allocates except the layers themselves, so the allocation
    // counter sees exactly the forward's own heap traffic.
    const alloc::Counts a0 = alloc::counts();
    bounds_.push_back(nowNs());
    for (size_t i = 0; i < net_.numLayers(); ++i) {
        const Tensor &in = i == 0 ? x : acts_.back();
        Tensor out = net_.layer(i).forward(in, false);
        const uint64_t t = nowNs();
        log_.add(layerSpan_[i], request, bounds_.back(), t);
        bounds_.push_back(t);
        acts_.push_back(std::move(out));
    }
    const alloc::Counts a1 = alloc::counts();
    walk_ms = nsToMs(bounds_.back() - bounds_.front());

    // Everything below is shadow work, outside the forward's spans.
    LayerSums sums;
    sums.allocs = static_cast<double>(a1.calls - a0.calls);
    sums.allocBytes = static_cast<double>(a1.bytes - a0.bytes);
    recordTargets();
    for (size_t i = 0; i < net_.numLayers(); ++i) {
        genreuse::Layer &layer = net_.layer(i);
        const Tensor &in = i == 0 ? x : acts_[i - 1];
        const double span_ms = nsToMs(bounds_[i + 1] - bounds_[i]);
        if (auto *conv = dynamic_cast<Conv2D *>(&layer)) {
            sums.conv += span_ms;
            sums.convSelf +=
                span_ms - nsToMs(slotOf(conv).wrapper->lastNs());
            shadowTensorOps(*conv, in, sums);
        } else if (auto *fire = dynamic_cast<FireModule *>(&layer)) {
            tracedFire(*fire, in, span_ms, sums);
        } else if (dynamic_cast<genreuse::ReLU *>(&layer)) {
            sums.act += span_ms;
        } else if (dynamic_cast<genreuse::BatchNorm2D *>(&layer)) {
            sums.bn += span_ms;
        } else if (dynamic_cast<genreuse::Dense *>(&layer)) {
            sums.dense += span_ms;
        } else {
            sums.pool += span_ms;
        }
    }
    sums_.push_back(sums);
    return acts_.back();
}

void
LayerTracer::tracedFire(FireModule &fire, const Tensor &in, double span_ms,
                        LayerSums &sums)
{
    // The expand convs share one input, recovered exactly from the 1x1
    // expand conv's cached im2col matrix (each input element appears
    // once in a 1x1/stride-1/pad-0 im2col, so col2im is its inverse).
    Conv2D &e1 = fire.expand1x1Conv();
    GENREUSE_REQUIRE(e1.kernelSize() == 1 && e1.stride() == 1 &&
                         e1.pad() == 0,
                     "perfbench: unexpected Fire expand_1x1 geometry");
    const Tensor expand_in =
        genreuse::col2im(e1.lastIm2col(), e1.lastGeometry());
    // A Fire module carries BN after each conv when its parameter list
    // holds more than the three convs' kernels and biases.
    const bool has_bn = fire.params().size() > 6;

    double inner_ms = 0.0;
    for (Conv2D *conv : {&fire.squeezeConv(), &fire.expand1x1Conv(),
                         &fire.expand3x3Conv()}) {
        const Tensor &conv_in = conv == &fire.squeezeConv() ? in : expand_in;
        shadowTensorOps(*conv, conv_in, sums);
        Tensor out;
        const double self_ms = shadowConv(*conv, conv_in, out);
        const double conv_ms =
            nsToMs(slotOf(conv).wrapper->lastNs()) + self_ms;
        sums.conv += conv_ms;
        sums.convSelf += self_ms;
        inner_ms += conv_ms;
        if (has_bn) {
            genreuse::BatchNorm2D bn("shadow.bn", conv->outChannels());
            const double bn_ms =
                timeMs([&] { out = bn.forward(out, false); });
            sums.bn += bn_ms;
            inner_ms += bn_ms;
        }
        genreuse::ReLU relu("shadow.relu");
        const double relu_ms =
            timeMs([&] { (void)relu.forward(out, false); });
        sums.act += relu_ms;
        inner_ms += relu_ms;
    }
    sums.fireSelf += span_ms - inner_ms;
}

double
LayerTracer::medianOf(double LayerSums::*field) const
{
    std::vector<double> v;
    v.reserve(sums_.size());
    for (const LayerSums &s : sums_)
        v.push_back(s.*field);
    return median(v);
}

void
LayerTracer::report(Report &rep) const
{
    rep.perLayer("nn.conv.ms", medianOf(&LayerSums::conv), "ms");
    rep.perLayer("nn.conv.self_ms", medianOf(&LayerSums::convSelf), "ms");
    rep.perLayer("nn.act.ms", medianOf(&LayerSums::act), "ms");
    rep.perLayer("nn.pool.ms", medianOf(&LayerSums::pool), "ms");
    rep.perLayer("nn.bn.ms", medianOf(&LayerSums::bn), "ms");
    rep.perLayer("nn.dense.ms", medianOf(&LayerSums::dense), "ms");
    rep.perLayer("nn.fire.self_ms", medianOf(&LayerSums::fireSelf), "ms");
    rep.perLayer("nn.heap_allocs_per_fwd", medianOf(&LayerSums::allocs),
                 "count");
    rep.perLayer("nn.heap_bytes_per_fwd", medianOf(&LayerSums::allocBytes),
                 "B");
    rep.perLayer("tensor.im2col_ms", medianOf(&LayerSums::im2col), "ms");
    rep.perLayer("tensor.kernel_to_matrix_ms", medianOf(&LayerSums::k2m),
                 "ms");

    const double fwd = static_cast<double>(std::max<size_t>(sums_.size(), 1));
    std::printf("\nhost vs MCU cost model per target conv (%zu traced "
                "forwards; ms are medians):\n"
                "%-24s %9s %11s %9s %8s %8s %6s %9s\n",
                sums_.size(), "conv", "exact_ms", "multiply_ms", "reuse_ms",
                "host_x", "model_x", "rt", "mac_ratio");
    CostLedger stages;
    for (const Target &t : targets_) {
        const std::string &name = t.conv->name();
        const double mult = median(t.multiplyMs);
        const double exact = median(t.exactMs);
        const double reuse = median(t.reuseMs);
        const double host = mult > 0 ? exact / mult : 0.0;
        const double model_exact = genreuse::exactConvLedger(
                                       t.conv->lastGeometry())
                                       .totalMs(mcuModel());
        const double model_reuse = t.ledger.totalMs(mcuModel()) / fwd;
        const double model = model_reuse > 0 ? model_exact / model_reuse
                                             : 0.0;
        const double rt =
            t.vectors ? 1.0 - static_cast<double>(t.centroids) /
                                  static_cast<double>(t.vectors)
                      : 0.0;
        const double mac_ratio =
            t.exactMacs ? static_cast<double>(t.reuseMacs) /
                              static_cast<double>(t.exactMacs)
                        : 0.0;
        std::printf("%-24s %9.4f %11.4f %9.4f %8.3f %8.3f %6.3f %9.4f%s\n",
                    name.c_str(), exact, mult, reuse, host, model, rt,
                    mac_ratio,
                    model > 1.0 && host < 1.0
                        ? "  <- model predicts a speedup, host measures a "
                          "slowdown"
                        : "");
        rep.perLayer(name + ".multiply_ms", mult, "ms");
        rep.perLayer(name + ".reuse_ms", reuse, "ms");
        rep.perLayer(name + ".exact_ms", exact, "ms");
        rep.perLayer(name + ".host_speedup", host, "x");
        rep.perLayer(name + ".model_speedup", model, "x");
        rep.perLayer(name + ".rt", rt, "fraction");
        rep.perLayer(name + ".mac_ratio", mac_ratio, "fraction");
        stages.merge(t.ledger);
    }

    static const char *kStages[] = {"transformation", "clustering", "gemm",
                                    "recovering"};
    for (size_t s = 0; s < 4; ++s) {
        const genreuse::OpCounts &ops = stages.stage(static_cast<Stage>(s));
        const std::string base = std::string("core.stage.") + kStages[s];
        rep.perLayer(base + ".macs", static_cast<double>(ops.macs) / fwd,
                     "count");
        rep.perLayer(base + ".elem_moves",
                     static_cast<double>(ops.elemMoves) / fwd, "count");
        rep.perLayer(base + ".table_ops",
                     static_cast<double>(ops.tableOps) / fwd, "count");
        // Computed, not measured: four bytes per moved f32 element.
        rep.perLayer(base + ".bytes_moved",
                     4.0 * static_cast<double>(ops.elemMoves) / fwd, "B");
    }
}

} // namespace perfbench
