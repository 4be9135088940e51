/**
 * @file
 * Shared pieces of the host wall-clock benchmark: options, the metric
 * report that ends every run with one JSON line, order statistics, and
 * the model/input set-up every workload starts from.
 *
 * The benchmark observes the library from outside: it times calls into
 * public functions (Network::layer(i).forward, a delegating ConvAlgo,
 * CostLedger, guard::snapshot, ServeEngine) and adds nothing to src/.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "core/guard.h"
#include "core/reuse_pattern.h"
#include "data/dataset.h"
#include "nn/network.h"

namespace perfbench {

using genreuse::Conv2D;
using genreuse::Dataset;
using genreuse::GuardedReuseConvAlgo;
using genreuse::Network;
using genreuse::ReusePattern;
using genreuse::Tensor;

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
nsToMs(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-6;
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string cacheDir = ".bench_build/perfbench-cache";
    std::string commit = "unknown";
    /** Offered rates of the serve workload's low/mid/high phases. */
    std::vector<double> rates;
    /** Tail-latency limit of the serve workload. */
    double latencyLimitMs = 0.0;
};

/**
 * Collects metrics and correctness checks. The last line printed is
 * the JSON object the benchmark contract asks for: end-to-end metrics
 * in an untraced run, per-layer metrics in a traced one.
 */
class Report
{
  public:
    void endToEnd(const std::string &name, double value,
                  const std::string &unit);
    void perLayer(const std::string &name, double value,
                  const std::string &unit);

    /** Record a check; a false @p ok makes the run incorrect. */
    void check(bool ok, const std::string &what);

    void
    count(uint64_t attempted, uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    bool correct() const { return correct_; }

    /** Print the metric table and the final JSON line. */
    void print(bool traced) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> e2e_, layer_;
    bool correct_ = true;
    uint64_t attempted_ = 0, failed_ = 0;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * The highest percentile with at least 25 samples beyond it, with the
 * percentile it is and the sample count it came from.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    size_t samples = 0;
};
Tail tail(std::vector<double> v);

/** "p50 x ms, p98.3 y ms (n=...)" for the human-readable output. */
std::string describeLatency(const std::vector<double> &ms);

/**
 * The quieter half of a run. Load from other tenants of a shared
 * machine slows whole seconds of a run by up to 2x, and how many such
 * seconds a run catches varies from run to run. So samples (in time
 * order) are cut into blocks of @p block, and only the half of the
 * blocks with the lowest median @p cost is kept: a slowdown the code
 * causes in most blocks still shows, one the neighbours cause in a
 * minority of them does not. Returns the kept sample indices.
 */
std::vector<size_t> quietHalf(const std::vector<double> &cost,
                              size_t block);

/** The elements of @p v at @p idx. */
std::vector<double> pick(const std::vector<double> &v,
                         const std::vector<size_t> &idx);

// ---- models, inputs and the reuse set-up ------------------------------

enum class Model
{
    CifarNet,
    SqueezeNet,
};

/** The trained network: built from a fixed seed, weights trained once
 *  and cached under @p cache_dir (training is the offline step). */
Network loadTrained(Model m, const std::string &cache_dir);

/** A freshly built network with the same trained weights as @p src. */
Network cloneNetwork(Model m, Network &src);

/** Synthetic labelled inputs; the same @p seed gives the same inputs. */
Dataset makeInputs(size_t count, float redundancy, float noise,
                   uint64_t seed);

/** Convs the paper's reuse targets: every conv of CifarNet, the Fire
 *  expand_3x3 convs of SqueezeNet. */
std::vector<Conv2D *> reuseTargets(Network &net, Model m);

/** Images the selector profiles and the hash families are fitted on:
 *  a fixed slice of training data, independent of the workload seed. */
Dataset fitSample();

/** Per-layer patterns picked by the analytic selector. */
using Selection = std::vector<std::pair<std::string, ReusePattern>>;
Selection selectPatterns(Network &net, Model m, const Dataset &fit);

/** Fit and install guarded reuse per @p sel on @p net. */
std::vector<std::shared_ptr<GuardedReuseConvAlgo>>
installGuarded(Network &net, const Selection &sel, const Dataset &fit);

/** Index of the largest logit of a batch-1 output. */
size_t argmax(const Tensor &logits);

/** Same shape and bit-identical values. */
bool bitEqual(const Tensor &a, const Tensor &b);

/** Peak resident set size of the process so far, in MB. */
double peakRssMb();

/** Switches a network's reuse targets between guarded reuse and the
 *  exact path, so one instance (one set of weights and BN statistics)
 *  serves both. */
class AlgoSwitch
{
  public:
    AlgoSwitch(std::vector<Conv2D *> targets,
               std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards)
        : targets_(std::move(targets)), guards_(std::move(guards)),
          exact_(std::make_shared<genreuse::ExactConvAlgo>())
    {
    }

    void
    guarded()
    {
        for (size_t i = 0; i < targets_.size(); ++i)
            targets_[i]->setAlgo(guards_[i]);
    }

    void
    exact()
    {
        for (Conv2D *c : targets_)
            c->setAlgo(exact_);
    }

    const std::vector<std::shared_ptr<GuardedReuseConvAlgo>> &
    guards() const
    {
        return guards_;
    }

  private:
    std::vector<Conv2D *> targets_;
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> guards_;
    std::shared_ptr<genreuse::ExactConvAlgo> exact_;
};

/** Interleaved guarded/exact forward pairs of one input each. */
struct LoopResult
{
    std::vector<double> guardedMs, exactMs, ratio; //!< per pair, wall
    std::vector<uint64_t> startNs;                 //!< per pair
    HostSpeed speed; //!< a calibration job after each pair
    size_t agree = 0;   //!< guarded argmax == exact argmax (first pass)
    size_t correct = 0; //!< guarded argmax == label (first pass)
    size_t checked = 0; //!< inputs of the first pass
    size_t nonFinite = 0;
};

/**
 * Guarded and exact forwards of each input back to back, alternating
 * which runs first, for @p seconds and at least one pass over @p xs.
 * @p guarded_out, when given, receives the first pass's guarded outputs.
 */
LoopResult pairedLoop(Network &net, AlgoSwitch &algos,
                      const std::vector<Tensor> &xs,
                      const std::vector<int> &labels, double seconds,
                      std::vector<Tensor> *guarded_out = nullptr);

/** Workloads; each fills @p rep. */
void runForwardWorkload(const Options &opt, Model m, float redundancy,
                        float noise, Report &rep);
void runServeWorkload(const Options &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
