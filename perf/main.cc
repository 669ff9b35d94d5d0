/**
 * @file
 * ndpperf: one benchmark for both clocks.
 *
 *     ndpperf run     --workload W [--seed S] [--seconds T] [--quick]
 *     ndpperf trace   --workload W [--seed S] [--seconds T] [--quick]
 *                     [--out-dir D]
 *     ndpperf compare A.json B.json [--bench BENCHMARK.json]
 *                     [--allow-model-change]
 *     ndpperf compare --self-test --bench BENCHMARK.json --testdata DIR
 *
 * `run` does one untimed warm-up at 1/20 scale, then timed reps until
 * T seconds (default 10) have passed, at least three. It prints every
 * end-to-end metric with its quartiles over the reps, the report
 * fingerprint, and as its last line one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Host times in the
 * JSON line are the lower quartile over the reps.
 *
 * `trace` runs the same reps, then the layer probes, a reduced run
 * under the sim-time tracer with its untraced twin (critical path and
 * tracing overhead), and for serving workloads a monitored and an
 * unmonitored twin. Its JSON line carries the per-layer metrics. The
 * harness spans go to D/<workload>-spans.json and the sim-time trace
 * to D/<workload>-trace.json.
 *
 * `--quick` runs one rep at 1/20 scale and no warm-up.
 *
 * Exit codes: 0 every check passed, 1 a check failed, 2 usage error.
 */

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "ndptrace/analyzer.h"
#include "obs/monitor.h"
#include "obs/trace.h"

using namespace ndpperf;

namespace {

struct Unit
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics of every workload. */
const std::vector<Unit> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/** Modelled end-to-end values, exact for a given seed, and the
 *  per-layer value each is read from; printed where a workload has
 *  them. */
struct Modelled
{
    const char *name;
    const char *unit;
    const char *layer;
};

const std::vector<Modelled> kModelled = {
    {"serve_goodput_frac", "frac", "serve.goodput_frac"},
    {"serve_p50_ms", "sim-ms", "serve.p50_ms"},
    {"serve_p999_ms", "sim-ms", "serve.p999_ms"},
    {"train_sim_s", "sim-s", "pipe.train_sim_s"},
    {"geo_staleness_p95_s", "sim-s", "geo.staleness_p95_s"},
    {"ndpipe_top1", "frac", "nn.top1"},
};

/** Per-layer metrics. A counter of a layer idle on a workload reports
 *  0. The probes (*_ns, *_us) time fixed inputs, so their values do
 *  not depend on the workload a traced run drives. */
const std::vector<Unit> kPerLayer = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.dispatch_ns", "ns"},
    {"sim.resume_ns", "ns"},
    {"sim.channel_ns", "ns"},
    {"net.flows", "count"},
    {"net.peak_flows", "count"},
    {"net.gb", "GB"},
    {"net.ingress_util", "frac"},
    {"net.wan_gb", "GB"},
    {"net.hub_flow_us", "us"},
    {"net.topo_flow_us", "us"},
    {"serve.offered", "count"},
    {"serve.goodput_frac", "frac"},
    {"serve.shed", "count"},
    {"serve.redispatched", "count"},
    {"serve.abandoned", "count"},
    {"serve.peak_queue_depth", "count"},
    {"serve.p50_ms", "sim-ms"},
    {"serve.p999_ms", "sim-ms"},
    {"serve.arrival_ns", "ns"},
    {"sched.preemptions", "count"},
    {"sched.wait_s", "sim-s"},
    {"sched.gpu_s", "sim-s"},
    {"apo.plan_us", "us"},
    {"apo.pred_err_pct", "%"},
    {"pipe.items", "count"},
    {"pipe.gpu_util", "frac"},
    {"pipe.cpu_util", "frac"},
    {"pipe.disk_util", "frac"},
    {"pipe.train_sim_s", "sim-s"},
    {"geo.versions", "count"},
    {"geo.retransmits", "count"},
    {"geo.fallbacks", "count"},
    {"geo.staleness_p95_s", "sim-s"},
    {"faults.crashes", "count"},
    {"faults.link_degrades", "count"},
    {"nn.epochs", "count"},
    {"nn.samples_per_s", "1/s"},
    {"nn.top1", "frac"},
    {"data.world_pct", "%"},
    {"nn.full_train_pct", "%"},
    {"nn.finetune_pct", "%"},
    {"nn.eval_pct", "%"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.monitor_overhead_pct", "%"},
    {"obs.trace_mb", "MB"},
    {"cp.gpu_s", "sim-s"},
    {"cp.cpu_s", "sim-s"},
    {"cp.disk_s", "sim-s"},
    {"cp.wire_s", "sim-s"},
    {"cp.tuner_s", "sim-s"},
    {"cp.stall_s", "sim-s"},
};

constexpr int kMinReps = 3;
/** Twin pairs behind the tracing and monitoring overheads. */
constexpr int kTracePairs = 3;
constexpr int kMonitorPairs = 5;

struct Options
{
    std::string cmd;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool quick = false;
    std::string outDir = "ndpperf-out";
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: ndpperf run|trace --workload W [--seed S] "
                 "[--seconds T] [--quick] [--out-dir D]\n"
                 "       ndpperf compare A.json B.json "
                 "[--bench BENCHMARK.json] [--allow-model-change]\n"
                 "       ndpperf compare --self-test --bench F "
                 "--testdata DIR\n"
                 "workloads:");
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parse(int argc, char **argv, Options &o)
{
    o.cmd = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= argc)
                return false;
            out = argv[++i];
            return true;
        };
        std::string v;
        if (a == "--quick") {
            o.quick = true;
        } else if (a == "--workload") {
            if (!value(o.workload))
                return false;
        } else if (a == "--out-dir") {
            if (!value(o.outDir))
                return false;
        } else if (a == "--seed" || a == "--seconds") {
            if (!value(v))
                return false;
            char *end = nullptr;
            if (a == "--seed")
                o.seed = std::strtoull(v.c_str(), &end, 10);
            else
                o.seconds = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0')
                return false;
        } else {
            return false;
        }
    }
    return o.seconds > 0.0 && findWorkload(o.workload) != nullptr;
}

/** Shortest text that reads back as exactly @p v. */
std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Median over reps of every per-rep value, keyed by name. */
Metrics
medians(const std::vector<Metrics> &per_rep)
{
    std::map<std::string, std::vector<double>> cols;
    for (const Metrics &m : per_rep)
        for (const auto &[k, v] : m)
            cols[k].push_back(v);
    Metrics out;
    for (const auto &[k, vs] : cols)
        out[k] = quartiles(vs).median;
    return out;
}

/** One run outside the timed reps (a traced or monitored twin). */
struct Twin
{
    double bodyS = 0.0;
    uint64_t fingerprint = 0;
    bool failed = false;
};

Twin
runTwin(const Workload &w, const RepConfig &cfg)
{
    Recorder rec;
    rec.beginRep(0);
    const RepResult r = w.rep(cfg, rec);
    return {rec.phaseS(Phase::Body), r.fingerprint, !r.failures.empty()};
}

/** The trace-only measurements: probes, the sim-time trace and its
 *  untraced twin, monitored vs unmonitored. */
struct Extras
{
    Metrics layer;
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;

    void
    fail(const std::string &what)
    {
        ++failed;
        failures.push_back(what);
    }
};

/**
 * Alternate @p pairs runs of @p w with an observer installed (by
 * @p observed) and without, checking that every run hashes like the
 * first; returns the observer's body-time overhead in percent.
 */
template <class Observed>
double
twinPairs(const Workload &w, const RepConfig &cfg, int pairs,
          const std::string &what, Extras &x, Observed observed)
{
    std::vector<double> on, off;
    uint64_t first = 0;
    for (int k = 0; k < pairs; ++k) {
        for (int side = 0; side < 2; ++side) {
            // Alternate which twin goes first so drift cancels.
            const bool with = (side == 0) == (k % 2 == 0);
            const Twin t = with ? observed(k) : runTwin(w, cfg);
            (with ? on : off).push_back(t.bodyS);
            ++x.attempted;
            if (k == 0 && side == 0)
                first = t.fingerprint;
            if (t.failed || t.fingerprint != first)
                x.fail(what + (with ? " on" : " off") +
                       ": twin failed a check or differs from its pair");
        }
    }
    return 100.0 * (quartiles(on).median / quartiles(off).median - 1.0);
}

void
simTrace(const Workload &w, const Options &o, Extras &x)
{
    const std::string path =
        (std::filesystem::path(o.outDir) / (std::string(w.name) +
                                            "-trace.json"))
            .string();
    const RepConfig cfg{o.seed, Scale::Trace};
    x.layer["obs.trace_overhead_pct"] =
        twinPairs(w, cfg, kTracePairs, "tracing", x, [&](int k) {
            // The session writes the trace when it closes, after the
            // twin's timed body.
            ndp::obs::TraceSession ts(k == 0 ? path : "");
            return runTwin(w, cfg);
        });

    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    x.layer["obs.trace_mb"] = static_cast<double>(text.size()) / 1e6;
    const ndp::trace::CheckResult chk = ndp::trace::checkTrace(text);
    ndp::trace::Trace trace;
    std::string err;
    if (!chk.ok() || !ndp::trace::parseTrace(text, trace, err)) {
        x.fail("ndptrace --check: " +
               (chk.ok() ? err : chk.errors.front()) + " in " + path);
        return;
    }
    std::printf("sim-time trace %s: ok (%zu events, %.1f MB)\n",
                path.c_str(), chk.events, text.size() / 1e6);
    const ndp::trace::Attribution a = ndp::trace::criticalPath(trace);
    for (const char *cat : {"gpu", "cpu", "disk", "wire", "tuner", "stall"})
        x.layer[std::string("cp.") + cat + "_s"] = a.catS(cat);
}

void
monitorTwins(const Workload &w, const Options &o, Extras &x)
{
    const RepConfig cfg{o.seed, Scale::Small};
    x.layer["obs.monitor_overhead_pct"] =
        twinPairs(w, cfg, kMonitorPairs, "monitoring", x, [&](int) {
            ndp::obs::MonitorSession ms;
            return runTwin(w, cfg);
        });
}

void
printRow(const char *name, const char *unit, const std::vector<double> &v,
         const char *note = "")
{
    const Quartiles q = quartiles(v);
    std::printf("  %-20s q1 %-12.6g median %-12.6g q3 %-12.6g %s%s\n", name,
                q.q1, q.median, q.q3, unit, note);
}

int
runMain(const Options &o)
{
    const Workload &w = *findWorkload(o.workload);
    const bool trace = o.cmd == "trace";
    const auto t_start = std::chrono::steady_clock::now();
    if (!o.quick) {
        Recorder warm;
        w.rep({o.seed, Scale::Small}, warm);
    }
    const double warm_s = seconds(t_start);

    Recorder rec;
    std::vector<double> setup, body;
    std::vector<Metrics> layer;
    std::vector<std::string> failures;
    uint64_t fingerprint = 0;
    int failed = 0;
    const auto t_reps = std::chrono::steady_clock::now();
    for (int i = 0;; ++i) {
        rec.beginRep(i);
        RepResult r = w.rep({o.seed, o.quick ? Scale::Small : Scale::Full},
                            rec);
        setup.push_back(rec.phaseS(Phase::Setup));
        body.push_back(rec.phaseS(Phase::Body));
        if (i == 0)
            fingerprint = r.fingerprint;
        else if (r.fingerprint != fingerprint)
            r.failures.push_back("report fingerprint differs from rep 0");
        const double events = r.layer["sim.events"];
        r.layer["sim.events_per_s"] = events > 0.0 ? events / body.back()
                                                   : 0.0;
        if (!r.failures.empty()) {
            ++failed;
            for (const std::string &f : r.failures)
                failures.push_back("rep " + std::to_string(i) + ": " + f);
        }
        layer.push_back(r.layer);
        if (o.quick || (i + 1 >= kMinReps && seconds(t_reps) >= o.seconds))
            break;
    }
    const double reps_s = seconds(t_reps);
    const double rss_mb = peakRssMb();
    const int reps = static_cast<int>(body.size());

    std::printf("ndpperf %s %s seed=%llu: %d reps in %.2f s after a "
                "%.2f s warm-up, %d failed\n",
                o.cmd.c_str(), w.name,
                static_cast<unsigned long long>(o.seed), reps, reps_s,
                warm_s, failed);
    std::printf("fingerprint %s seed=%llu %016llx\n", w.name,
                static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(fingerprint));
    printRow("wall_s", "s", body);
    printRow("setup_s", "s", setup);
    printRow("peak_rss_mb", "MB", {rss_mb});
    for (const Modelled &u : kModelled) {
        std::vector<double> v;
        for (const Metrics &m : layer)
            if (auto it = m.find(u.layer); it != m.end())
                v.push_back(it->second);
        if (!v.empty())
            printRow(u.name, u.unit, v, " (exact)");
    }

    Extras x;
    Metrics layer_med = medians(layer);
    if (trace) {
        std::filesystem::create_directories(o.outDir);
        x.layer = runProbes();
        if (w.simulated)
            simTrace(w, o, x);
        if (w.monitored)
            monitorTwins(w, o, x);
        for (const std::string &f : x.failures)
            failures.push_back(f);
        for (const auto &[k, v] : x.layer)
            layer_med[k] = v;
        const std::string spans =
            (std::filesystem::path(o.outDir) /
             (std::string(w.name) + "-spans.json"))
                .string();
        if (!rec.writeChromeTrace(spans))
            failures.push_back("cannot write " + spans);
    }

    if (trace) {
        std::printf("per-layer:\n");
        for (const Unit &u : kPerLayer)
            std::printf("  %-26s %14.6g %s\n", u.name, layer_med[u.name],
                        u.unit);
        std::printf("harness span self time (s):\n");
        for (const auto &[name, s] : rec.selfTimes())
            std::printf("  %-36s %10.6f\n", name.c_str(), s);
    }
    for (const std::string &f : failures)
        std::printf("CHECK FAILED: %s\n", f.c_str());

    Metrics out;
    if (trace) {
        for (const Unit &u : kPerLayer)
            out[u.name] = layer_med[u.name];
    } else {
        // Host times report the lower quartile over the reps: a busy
        // neighbour only ever adds time, and the lower quartile drops
        // the reps it slowed without resting on one lucky rep.
        out["wall_s"] = quartiles(body).q1;
        out["setup_s"] = quartiles(setup).q1;
        out["peak_rss_mb"] = rss_mb;
    }
    const auto &units = trace ? kPerLayer : kEndToEnd;
    bool finite = true;
    std::string json = "{";
    for (const Unit &u : units) {
        double v = out[u.name];
        if (!std::isfinite(v)) {
            finite = false;
            v = 0.0;
        }
        json += std::string(json.size() > 1 ? "," : "") + "\"" + u.name +
                "\":{\"value\":" + num(v) + ",\"unit\":\"" + u.unit + "\"}";
    }
    json += "}";
    const bool correct = failures.empty() && finite;
    std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false", reps + x.attempted,
                failed + x.failed, json.c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "compare")
        return compareMain(argc - 1, argv + 1);
    Options o;
    if ((cmd != "run" && cmd != "trace") || !parse(argc, argv, o))
        return usage();
    return runMain(o);
}
