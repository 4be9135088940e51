/**
 * @file
 * Host-speed calibration. The shared host this benchmark runs on
 * switches between a fast and a slow state (forwards take about 1.7x
 * longer in the slow one) for seconds or minutes at a time, while the
 * benchmark's thread keeps its core: its CPU time rises with its wall
 * time. A run that falls wholly into the slow state cannot be told from
 * slow code by any statistic over its own samples. So a fixed job,
 * compiled into the benchmark so that no change to the library can
 * change it, runs between the measured calls and times the host at that
 * moment, and latencies are reported scaled to the speed at which the
 * job takes kCalibrationRefMs. The wall figures are printed beside them.
 */

#ifndef PERFBENCH_CALIBRATE_H
#define PERFBENCH_CALIBRATE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** The job's time at the reference speed: about its time on a 4-vCPU
 *  Xeon host in the fast state, so scaled figures read close to wall
 *  times there. */
constexpr double kCalibrationRefMs = 8.5;

/** Wall time of one run of the fixed calibration job, in ms. Not
 *  thread-safe: one thread calibrates at a time. */
double calibrationMs();

/** A timeline of calibration jobs over one run. */
class HostSpeed
{
  public:
    /** Run the job @p times times and record when each ran and how long
     *  it took. */
    void sample(size_t times = 1);

    /** Record a job timed elsewhere (on another thread, which must not
     *  overlap any other use of this timeline). Jobs are added in time
     *  order. */
    void add(uint64_t at_ns, double ms);

    /** kCalibrationRefMs over the median of every job so far. */
    double scale() const;

    /** kCalibrationRefMs over the median job time within half a second
     *  of @p t_ns (the nearest job when none is that close): multiply a
     *  wall time measured at @p t_ns by this to get reference time. */
    double scaleAt(uint64_t t_ns) const;

    /** @p ms[i], measured at @p at_ns[i], scaled to reference speed. */
    std::vector<double> atRefSpeed(const std::vector<double> &ms,
                                   const std::vector<uint64_t> &at_ns) const;

    const std::vector<double> &ms() const { return ms_; }

  private:
    std::vector<uint64_t> atNs_;
    std::vector<double> ms_;
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_H
