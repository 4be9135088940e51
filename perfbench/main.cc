/**
 * @file
 * Host wall-clock benchmark entry point. perfbench/run.py builds this binary
 * and runs it as
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--rates low,mid,high --latency-limit-ms <ms>]
 *             [--cache-dir <dir>] [--commit <id>]
 *
 * Workloads (perfbench/README.md has the metric definitions):
 *   cifarnet-redundant        batch-1 guarded CifarNet, high redundancy
 *   squeezenet-lowredundancy  batch-1 guarded SqueezeNet, low redundancy
 *   serve-openloop            ServeEngine under open-loop Poisson load
 *
 * The last line of standard output is one JSON object with the run's
 * metrics; the exit code is non-zero when an output check failed.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "common/provenance.h"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--rates l,m,h "
                 "--latency-limit-ms <ms>] [--cache-dir <dir>] "
                 "[--commit <id>]\n",
                 msg);
    std::exit(2);
}

double
parseNumber(const std::string &s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (s.empty() || *end != '\0')
        usage((std::string("bad ") + what + ": " + s).c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        if (key == "--workload") {
            opt.workload = val;
        } else if (key == "--seed") {
            opt.seed = static_cast<uint64_t>(parseNumber(val, "seed"));
        } else if (key == "--seconds") {
            opt.seconds = parseNumber(val, "seconds");
        } else if (key == "--trace") {
            opt.trace = parseNumber(val, "trace") != 0.0;
        } else if (key == "--rates") {
            std::stringstream ss(val);
            std::string item;
            while (std::getline(ss, item, ','))
                opt.rates.push_back(parseNumber(item, "rate"));
        } else if (key == "--latency-limit-ms") {
            opt.latencyLimitMs = parseNumber(val, "latency limit");
        } else if (key == "--cache-dir") {
            opt.cacheDir = val;
        } else if (key == "--commit") {
            opt.commit = val;
        } else {
            usage(("unknown option " + key).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0.0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n"
                "provenance: commit=%s simd=%s nproc=%u build=\"%s\" "
                "compiler=\"%s\"\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, opt.commit.c_str(),
                genreuse::provenance::simdLevel(),
                std::thread::hardware_concurrency(),
                genreuse::provenance::buildPreset(),
                genreuse::provenance::compiler());

    Report rep;
    if (opt.workload == "cifarnet-redundant")
        runForwardWorkload(opt, Model::CifarNet, 0.8f, 0.03f, rep);
    else if (opt.workload == "squeezenet-lowredundancy")
        runForwardWorkload(opt, Model::SqueezeNet, 0.2f, 0.08f, rep);
    else if (opt.workload == "serve-openloop")
        runServeWorkload(opt, rep);
    else
        usage(("unknown workload " + opt.workload).c_str());

    rep.print(opt.trace);
    return rep.correct() ? 0 : 1;
}
