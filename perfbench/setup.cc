#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "bench.h"
#include "common/logging.h"
#include "core/accuracy_model.h"
#include "core/latency_model.h"
#include "core/measurement.h"
#include "core/pattern_space.h"
#include "data/synthetic.h"
#include "mcu/mcu_spec.h"
#include "models/models.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

namespace perfbench {

using namespace genreuse;

// ---- report -------------------------------------------------------------

void
Report::endToEnd(const std::string &name, double value,
                 const std::string &unit)
{
    e2e_.push_back({name, value, unit});
}

void
Report::perLayer(const std::string &name, double value,
                 const std::string &unit)
{
    layer_.push_back({name, value, unit});
}

void
Report::check(bool ok, const std::string &what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    correct_ = correct_ && ok;
}

void
Report::print(bool traced) const
{
    std::printf("\nend-to-end%s:\n", traced ? " (untraced phase)" : "");
    for (const Metric &m : e2e_)
        std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (traced) {
        std::printf("per-layer:\n");
        for (const Metric &m : layer_)
            std::printf("  %-40s %14.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }
    const std::vector<Metric> &out = traced ? layer_ : e2e_;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < out.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                    i ? ", " : "", out[i].name.c_str(), out[i].value,
                    out[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---- order statistics ---------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    if (v.size() % 2)
        return v[mid];
    const double hi = v[mid];
    std::nth_element(v.begin(), v.begin() + mid - 1, v.end());
    return 0.5 * (v[mid - 1] + hi);
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    // 25 samples beyond (not 10) keeps the tail steady from run to run
    // at the sample counts one run collects.
    const size_t beyond = 25;
    const size_t idx = v.size() > beyond ? v.size() - beyond - 1
                                         : v.size() - 1;
    t.value = v[idx];
    t.percentile = 100.0 * static_cast<double>(idx + 1) /
                   static_cast<double>(v.size());
    return t;
}

std::string
describeLatency(const std::vector<double> &ms)
{
    const Tail t = tail(ms);
    char buf[160];
    std::snprintf(buf, sizeof buf, "p50 %.4f ms, p%.1f %.4f ms (n=%zu)",
                  median(ms), t.percentile, t.value, t.samples);
    return buf;
}

std::vector<size_t>
quietHalf(const std::vector<double> &cost, size_t block)
{
    const size_t blocks = std::max<size_t>(cost.size() / block, 1);
    std::vector<std::pair<double, size_t>> ranked;
    for (size_t b = 0; b < blocks; ++b) {
        const size_t lo = b * block;
        const size_t hi = b + 1 == blocks ? cost.size() : lo + block;
        ranked.emplace_back(
            median(std::vector<double>(cost.begin() + lo, cost.begin() + hi)),
            b);
    }
    std::sort(ranked.begin(), ranked.end());
    std::vector<size_t> kept;
    for (size_t r = 0; r < (blocks + 1) / 2; ++r) {
        const size_t b = ranked[r].second;
        const size_t lo = b * block;
        const size_t hi = b + 1 == blocks ? cost.size() : lo + block;
        for (size_t i = lo; i < hi; ++i)
            kept.push_back(i);
    }
    std::sort(kept.begin(), kept.end());
    return kept;
}

std::vector<double>
pick(const std::vector<double> &v, const std::vector<size_t> &idx)
{
    std::vector<double> out;
    out.reserve(idx.size());
    for (size_t i : idx)
        out.push_back(v[i]);
    return out;
}

// ---- models and inputs --------------------------------------------------

namespace {

// The model and its training data are fixed: training is the offline
// step, and the workload seed only generates the inputs served.
constexpr uint64_t kModelSeed = 1000;
constexpr size_t kTrainPerRegime = 112;
// Reuse patterns are selected at this hash count (the paper's H).
constexpr size_t kNumHashes = 4;
// BN statistics re-estimation after loading: passes and batch size.
constexpr size_t kBnPasses = 2;
constexpr size_t kBnBatch = 32;

Network
buildModel(Model m)
{
    Rng rng(kModelSeed);
    return m == Model::CifarNet ? makeCifarNet(rng)
                                : makeSqueezeNet(rng, /*bypass=*/false);
}

/** Training set covering both input regimes the workloads send: high
 *  tile redundancy with little noise, and low redundancy with more. */
Dataset
trainingSet()
{
    const Dataset hi = makeInputs(kTrainPerRegime, 0.8f, 0.03f,
                                  kModelSeed + 1);
    const Dataset lo = makeInputs(kTrainPerRegime, 0.2f, 0.08f,
                                  kModelSeed + 2);
    // Interleave so every prefix (the fit sample) holds both regimes.
    const Shape one = hi.sampleShape();
    const size_t per = one.elems();
    Dataset out;
    out.images = Tensor(Shape({2 * kTrainPerRegime, one.channels(),
                               one.height(), one.width()}));
    for (size_t i = 0; i < kTrainPerRegime; ++i) {
        std::memcpy(out.images.data() + (2 * i) * per,
                    hi.images.data() + i * per, per * sizeof(float));
        std::memcpy(out.images.data() + (2 * i + 1) * per,
                    lo.images.data() + i * per, per * sizeof(float));
        out.labels.push_back(hi.labels[i]);
        out.labels.push_back(lo.labels[i]);
    }
    return out;
}

const char *
modelName(Model m)
{
    return m == Model::CifarNet ? "cifarnet" : "squeezenet";
}

} // namespace

Network
loadTrained(Model m, const std::string &cache_dir)
{
    const std::string path = cache_dir + "/" + modelName(m) + "-seed" +
                             std::to_string(kModelSeed) + ".params";
    if (!std::filesystem::exists(path)) {
        std::fprintf(stderr, "perfbench: training %s (cached in %s)\n",
                     modelName(m), path.c_str());
        Network net = buildModel(m);
        TrainConfig cfg;
        cfg.epochs = m == Model::CifarNet ? 3 : 4;
        cfg.batchSize = 16;
        cfg.sgd.learningRate = m == Model::CifarNet ? 0.01 : 0.02;
        cfg.sgd.momentum = 0.9;
        cfg.sgd.weightDecay = 1e-4;
        cfg.shuffleSeed = kModelSeed + 3;
        train(net, trainingSet(), cfg);
        std::filesystem::create_directories(cache_dir);
        const std::string tmp = path + ".tmp";
        saveParameters(net, tmp);
        std::filesystem::rename(tmp, path);
    }
    Network net = buildModel(m);
    loadParameters(net, path);
    if (m == Model::SqueezeNet) {
        // saveParameters stores trainable parameters only, not BN
        // running statistics: re-estimate them with training-mode
        // forwards (which update no parameter) over the training set.
        const Dataset data = trainingSet();
        for (size_t pass = 0; pass < kBnPasses; ++pass)
            for (const auto &batch :
                 makeSequentialBatches(data.size(), kBnBatch))
                (void)net.forward(data.gatherImages(batch),
                                  /*training=*/true);
    }
    return net;
}

Network
cloneNetwork(Model m, Network &src)
{
    Network net = buildModel(m);
    std::vector<Param *> from = src.params();
    std::vector<Param *> to = net.params();
    GENREUSE_REQUIRE(from.size() == to.size(),
                     "perfbench: parameter count mismatch");
    for (size_t i = 0; i < from.size(); ++i)
        to[i]->value = from[i]->value;
    return net;
}

Dataset
makeInputs(size_t count, float redundancy, float noise, uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.numSamples = count;
    cfg.redundancy = redundancy;
    cfg.noiseStddev = noise;
    cfg.seed = seed;
    return makeSyntheticCifar(cfg);
}

std::vector<Conv2D *>
reuseTargets(Network &net, Model m)
{
    std::vector<Conv2D *> all = net.convLayers();
    if (m == Model::CifarNet)
        return all;
    std::vector<Conv2D *> targets;
    for (Conv2D *c : all)
        if (c->name().find("expand_3x3") != std::string::npos)
            targets.push_back(c);
    return targets;
}

Dataset
fitSample()
{
    return trainingSet().slice(0, 4);
}

Selection
selectPatterns(Network &net, Model m, const Dataset &fit)
{
    // The analytic selector of the paper's Figure 8, pruned to one
    // pattern per layer: score the generalized scope with the accuracy
    // bound and the MCU latency model on a batch-1 sample, and take the
    // best predicted speedup whose bound is no worse than the
    // conventional pattern's.
    const CostModel model(McuSpec::stm32f469i());
    for (Conv2D *c : net.convLayers())
        c->resetAlgo();
    net.forward(fit.gatherImages({0}), /*training=*/false);
    Selection sel;
    for (Conv2D *layer : reuseTargets(net, m)) {
        const Tensor &sample = layer->lastIm2col();
        const ConvGeometry geom = layer->lastGeometry();
        const Tensor w = layer->weightMatrix();
        PatternScope scope = PatternScope::defaultScope(geom);
        scope.hashCounts = {kNumHashes};
        scope.blockRows = {1, 2};

        ReusePattern chosen;
        chosen.granularity = geom.kernelH * geom.kernelW;
        chosen.numHashes = kNumHashes;
        const double bound_cap =
            accuracyBound(sample, w, chosen, geom, 7).bound * 1.05 + 1e-12;
        double best = estimateLatency(sample, w, chosen, geom, 7)
                          .speedup(model);
        for (const ReusePattern &p : enumeratePatterns(scope, geom)) {
            if (accuracyBound(sample, w, p, geom, 7).bound > bound_cap)
                continue;
            const double s =
                estimateLatency(sample, w, p, geom, 7).speedup(model);
            if (s > best) {
                best = s;
                chosen = p;
            }
        }
        sel.emplace_back(layer->name(), chosen);
    }
    return sel;
}

std::vector<std::shared_ptr<GuardedReuseConvAlgo>>
installGuarded(Network &net, const Selection &sel, const Dataset &fit)
{
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards;
    for (const auto &[name, pattern] : sel) {
        Conv2D *conv = net.findConv(name);
        GENREUSE_REQUIRE(conv != nullptr, "perfbench: no conv ", name);
        guards.push_back(fitAndInstallGuarded(net, *conv, pattern, fit, {},
                                              HashMode::Learned, 99));
    }
    return guards;
}

size_t
argmax(const Tensor &logits)
{
    size_t best = 0;
    for (size_t i = 1; i < logits.size(); ++i)
        if (logits[i] > logits[best])
            best = i;
    return best;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace perfbench
