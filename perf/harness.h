/**
 * @file
 * ndpperf's shared pieces: the wall-clock span recorder every timed
 * public call goes through, the report fingerprint, order statistics,
 * and the workload table.
 *
 * The harness drives the system only from outside, through entry
 * points that outlive the standalone run* wrappers: sched::Cluster
 * with JobDesc, planJobs, data::PhotoWorld / VisionModel and
 * nn::evaluate. Every host-time number comes from a span recorded
 * here, never from inside the simulator, so wall-clock values cannot
 * leak into any report.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/apo.h"
#include "core/config.h"
#include "sim/arrival.h"

namespace ndp::core::sched {
struct ClusterReport;
}

namespace ndpperf {

/** Metric name -> value. */
using Metrics = std::map<std::string, double>;

/** What a span's host time counts toward. Only top-level spans carry
 *  a phase; a nested span's time is already inside its parent. */
enum class Phase
{
    Setup,
    Body,
    Nested,
};

/** One timed public call. */
struct Span
{
    const char *name = "";
    /** Rep the call belongs to (-1 before the first rep). */
    int rep = -1;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    Phase phase = Phase::Nested;
    double t0 = 0.0;
    double t1 = 0.0;

    double durS() const { return t1 - t0; }
};

/**
 * In-memory span log. Spans nest through an open-span stack; the log
 * is written out once, at exit, as a Chrome-trace sidecar.
 */
class Recorder
{
  public:
    class Scope
    {
      public:
        Scope(Recorder &r, int idx) : rec_(r), idx_(idx) {}
        ~Scope() { rec_.close(idx_); }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Recorder &rec_;
        int idx_;
    };

    Recorder();

    /** Open a span; it closes when the returned scope ends. A nested
     *  span ignores @p phase. */
    [[nodiscard]] Scope span(const char *name, Phase phase = Phase::Nested);

    /** Start attributing spans to rep @p rep. */
    void beginRep(int rep);

    /** @name Totals over the current rep's spans, seconds
     * @{ */
    double phaseS(Phase phase) const;
    double nameS(const char *name) const;
    /** @} */

    /** Self time per span name: each span's duration minus the part
     *  its child spans cover. */
    std::map<std::string, double> selfTimes() const;

    /** Write the log as Chrome trace-event JSON. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    void close(int idx);
    double now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int rep_ = -1;
    size_t repBegin_ = 0;
};

/** FNV-1a over the exact bits of every value fed to it. */
class Hasher
{
  public:
    void add(uint64_t v);
    void add(double v);
    void add(const std::string &s);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Hash every ClusterReport field except the per-job health roll-up,
 *  which is the monitor's own output (all zero when monitoring is
 *  off), so monitored and unmonitored runs must hash alike. */
void hashReport(Hasher &h, const ndp::core::sched::ClusterReport &r);

/** Median and quartiles, by the rule of Python's
 *  statistics.quantiles(values, n=4) (the "exclusive" method). */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

Quartiles quartiles(std::vector<double> values);

/** Peak resident set of this process (VmHWM), MiB. */
double peakRssMb();

/** Input size of one rep. */
enum class Scale
{
    /** The timed reps. */
    Full,
    /** 1/20: the warm-up and --quick. */
    Small,
    /** The reduced run recorded under the sim-time tracer. */
    Trace,
};

struct RepConfig
{
    uint64_t seed = 1;
    Scale scale = Scale::Full;
};

/** What one rep produced besides its spans. */
struct RepResult
{
    /** Hash of every report the rep produced. */
    uint64_t fingerprint = 0;
    /** Failed checks; a rep with any is a failed rep. */
    std::vector<std::string> failures;
    /** Per-layer values of this rep, the modelled ones included. */
    Metrics layer;
};

struct Workload
{
    const char *name;
    RepResult (*rep)(const RepConfig &cfg, Recorder &rec);
    /** The workload's DES dataflows consult the health monitor, so
     *  monitored and unmonitored runs are compared on it. */
    bool monitored;
    /** The workload runs the DES (the sim-time trace has content). */
    bool simulated;
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

/** @name Workload shapes the layer probes reuse
 * @{ */
/** serve-flash's open-loop stream: diurnal +/-35%, a 4x flash crowd. */
ndp::sim::ArrivalConfig flashArrivals(uint64_t seed, uint64_t requests);
/** nightly-geo's fleet: 16 stores in a home rack plus 4 WAN sites. */
ndp::core::ClusterSpec geoFleet();
/** nightly-geo's five fine-tuning jobs, as planJobs() sees them. */
std::vector<ndp::core::ApoJobSpec> nightlyJobs(uint64_t images);
/** The planner's view of a fleet's hardware. */
ndp::core::ExperimentConfig plannerFleet(const ndp::core::ClusterSpec &s);
inline constexpr uint64_t kNightlyImages = 1200000;
inline constexpr uint64_t kFlashRequests = 500000;
/** @} */

/** Layer probes: public calls timed in isolation at the workloads'
 *  shapes. */
Metrics runProbes();

/** `ndpperf compare`; returns the process exit code. */
int compareMain(int argc, char **argv);

} // namespace ndpperf
