/**
 * @file
 * `ndpperf compare A B`: judge result set B (a change) against A (its
 * parent), one row per workload and end-to-end metric, with the bounds
 * BENCHMARK.json fixes.
 *
 * A result set is the JSON perf/collect.py writes:
 *   {"label": ..., "runs": [{"workload", "seed", "fingerprint",
 *                            "result": <ndpperf's last line>}, ...]}
 *
 * Each row's bound is the larger of 10% and twice A's quartile spread
 * (as a share of its median), never looser than the metric's bound in
 * BENCHMARK.json. A metric with an absolute floor (setup_s: 5 ms)
 * counts a median change no larger than the floor as unchanged.
 *
 * Verdicts follow the benchmark's rules for a change:
 *  - unresolved: a side's quartile spread is wider than the row's
 *    bound, and not every run of B beats every run of A;
 *  - regressed: B's median is worse than A's by more than the bound;
 *  - improved: B's median is better by more than A's spread and B wins
 *    at least nine tenths of the seed-matched pairs;
 *  - unchanged otherwise.
 * Fingerprints of runs that share a workload and seed are compared
 * too: a speed-only change must keep every one identical.
 *
 * Exit code 1 when any metric regressed or any seed-matched
 * fingerprint differs (the gate a CI job calls). A change meant to
 * alter modelled results passes --allow-model-change to waive the
 * fingerprint rule.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness.h"
#include "ndptrace/json.h"

namespace ndpperf {

using ndp::trace::JsonValue;

namespace {

struct Bound
{
    std::string name;
    bool lowerIsBetter = true;
    /** Ceiling of the row bound, from BENCHMARK.json. */
    double bound = 0.0;
    /** Median changes up to this many units are unchanged. */
    double floor = 0.0;
};

/** Smallest row bound. The two HEAD result sets in perf/results/, taken
 *  back to back on a shared 4-vCPU VM, differ by up to 8% in median
 *  host time. */
constexpr double kMinRowBound = 0.10;

/** Absolute floors. Set-up takes tens of microseconds on the serving
 *  workloads, where a relative bound alone would flag noise. */
double
absoluteFloor(const std::string &metric)
{
    return metric == "setup_s" ? 0.005 : 0.0;
}

struct Run
{
    uint64_t seed = 0;
    std::string fingerprint;
    std::map<std::string, double> metrics;
};

/** workload -> runs, in file order of first appearance. */
struct ResultSet
{
    std::vector<std::string> order;
    std::map<std::string, std::vector<Run>> runs;
};

bool
loadJson(const std::string &path, JsonValue &out)
{
    std::ifstream f(path);
    if (!f) {
        std::fprintf(stderr, "ndpperf compare: cannot open %s\n",
                     path.c_str());
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    std::string err;
    if (!ndp::trace::parseJson(ss.str(), out, err)) {
        std::fprintf(stderr, "ndpperf compare: %s: %s\n", path.c_str(),
                     err.c_str());
        return false;
    }
    return true;
}

bool
loadBounds(const std::string &path, std::vector<Bound> &out)
{
    JsonValue doc;
    if (!loadJson(path, doc))
        return false;
    const JsonValue *e2e = doc.find("end_to_end");
    if (e2e == nullptr || !e2e->isArray()) {
        std::fprintf(stderr, "ndpperf compare: %s has no end_to_end\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue &m : e2e->arr) {
        const JsonValue *name = m.find("name");
        const JsonValue *better = m.find("better");
        const JsonValue *bound = m.find("bound");
        if (name == nullptr || better == nullptr || bound == nullptr)
            return false;
        const std::string n = name->stringOr("");
        out.push_back({n, better->stringOr("") == "lower",
                       bound->numberOr(0.0), absoluteFloor(n)});
    }
    return true;
}

bool
loadResults(const std::string &path, ResultSet &out)
{
    JsonValue doc;
    if (!loadJson(path, doc))
        return false;
    const JsonValue *runs = doc.find("runs");
    if (runs == nullptr || !runs->isArray()) {
        std::fprintf(stderr, "ndpperf compare: %s has no runs\n",
                     path.c_str());
        return false;
    }
    for (const JsonValue &r : runs->arr) {
        const JsonValue *w = r.find("workload");
        const JsonValue *res = r.find("result");
        const JsonValue *metrics = res ? res->find("metrics") : nullptr;
        if (w == nullptr || metrics == nullptr)
            continue;
        Run run;
        if (const JsonValue *s = r.find("seed"))
            run.seed = static_cast<uint64_t>(s->numberOr(0.0));
        if (const JsonValue *fp = r.find("fingerprint"))
            run.fingerprint = fp->stringOr("");
        for (const auto &[name, m] : metrics->obj)
            if (const JsonValue *v = m.find("value"))
                run.metrics[name] = v->numberOr(0.0);
        const std::string &wl = w->stringOr("");
        if (!out.runs.count(wl))
            out.order.push_back(wl);
        out.runs[wl].push_back(run);
    }
    return true;
}

enum class Verdict
{
    Unchanged,
    Improved,
    Regressed,
    Unresolved,
    Missing,
};

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::Unchanged:
        return "unchanged";
      case Verdict::Improved:
        return "improved";
      case Verdict::Regressed:
        return "REGRESSED";
      case Verdict::Unresolved:
        return "unresolved";
      case Verdict::Missing:
        return "missing";
    }
    return "?";
}

std::vector<std::pair<uint64_t, double>>
values(const std::vector<Run> &runs, const std::string &metric)
{
    std::vector<std::pair<uint64_t, double>> v;
    for (const Run &r : runs)
        if (auto it = r.metrics.find(metric); it != r.metrics.end())
            v.emplace_back(r.seed, it->second);
    return v;
}

std::vector<double>
only(const std::vector<std::pair<uint64_t, double>> &v)
{
    std::vector<double> out;
    for (const auto &p : v)
        out.push_back(p.second);
    return out;
}

struct Row
{
    std::string workload;
    std::string metric;
    Verdict verdict = Verdict::Missing;
};

/** The rows, and how many seed-matched runs hash alike. */
struct Outcome
{
    std::vector<Row> rows;
    int fingerprintsMatched = 0;
    int fingerprintsDiffer = 0;
};

Verdict
judge(const Bound &b, const std::vector<std::pair<uint64_t, double>> &a,
      const std::vector<std::pair<uint64_t, double>> &bv, Quartiles &qa,
      Quartiles &qb, double &bound)
{
    bound = b.bound;
    if (a.empty() || bv.empty())
        return Verdict::Missing;
    qa = quartiles(only(a));
    qb = quartiles(only(bv));
    if (qa.median == 0.0 || qb.median == 0.0)
        return Verdict::Missing;
    // "better" is positive when B beats A.
    auto gain = [&](double from, double to) {
        return b.lowerIsBetter ? from - to : to - from;
    };
    const double spread_a = (qa.q3 - qa.q1) / qa.median;
    const double spread_b = (qb.q3 - qb.q1) / qb.median;
    const double rel = gain(qa.median, qb.median) / qa.median;
    bound = std::min(b.bound, std::max(kMinRowBound, 2.0 * spread_a));
    if (std::abs(qb.median - qa.median) <= b.floor)
        return Verdict::Unchanged;
    if (std::max(spread_a, spread_b) > bound) {
        double worst_b = bv.front().second, best_a = a.front().second;
        for (const auto &p : bv)
            if (gain(p.second, worst_b) > 0.0)
                worst_b = p.second;
        for (const auto &p : a)
            if (gain(best_a, p.second) > 0.0)
                best_a = p.second;
        return gain(best_a, worst_b) > 0.0 ? Verdict::Improved
                                           : Verdict::Unresolved;
    }
    if (-rel > bound)
        return Verdict::Regressed;
    int pairs = 0, wins = 0;
    for (const auto &[seed, va] : a)
        for (const auto &[sb, vb] : bv)
            if (sb == seed) {
                ++pairs;
                wins += gain(va, vb) > 0.0 ? 1 : 0;
            }
    if (rel > spread_a && pairs > 0 && 10 * wins >= 9 * pairs)
        return Verdict::Improved;
    return Verdict::Unchanged;
}

Outcome
compareSets(const std::vector<Bound> &bounds, const ResultSet &a,
            const ResultSet &b, bool print)
{
    Outcome out;
    if (print)
        std::printf("%-14s %-12s %12s %23s %12s %23s %8s %6s  %s\n",
                    "workload", "metric", "A median", "A [q1, q3]",
                    "B median", "B [q1, q3]", "change", "bound",
                    "verdict");
    for (const std::string &w : a.order) {
        const std::vector<Run> &ra = a.runs.at(w);
        const std::vector<Run> empty;
        const auto it = b.runs.find(w);
        const std::vector<Run> &rb = it == b.runs.end() ? empty : it->second;
        for (const Bound &bd : bounds) {
            Quartiles qa, qb;
            double bound = 0.0;
            const Verdict v = judge(bd, values(ra, bd.name),
                                    values(rb, bd.name), qa, qb, bound);
            out.rows.push_back({w, bd.name, v});
            if (!print)
                continue;
            char qas[64], qbs[64];
            std::snprintf(qas, sizeof(qas), "[%.5g, %.5g]", qa.q1, qa.q3);
            std::snprintf(qbs, sizeof(qbs), "[%.5g, %.5g]", qb.q1, qb.q3);
            const double change =
                qa.median != 0.0 ? 100.0 * (qb.median / qa.median - 1.0)
                                 : 0.0;
            std::printf("%-14s %-12s %12.6g %23s %12.6g %23s %+7.2f%% %5.0f%%  "
                        "%s\n",
                        w.c_str(), bd.name.c_str(), qa.median, qas,
                        qb.median, qbs, change, 100.0 * bound,
                        verdictName(v));
        }
        int matched = 0, same = 0;
        for (const Run &x : ra)
            for (const Run &y : rb)
                if (x.seed == y.seed && !x.fingerprint.empty() &&
                    !y.fingerprint.empty()) {
                    ++matched;
                    same += x.fingerprint == y.fingerprint ? 1 : 0;
                }
        out.fingerprintsMatched += matched;
        out.fingerprintsDiffer += matched - same;
        if (print && matched > 0)
            std::printf("%-14s fingerprints: %d of %d seed-matched runs "
                        "identical\n",
                        w.c_str(), same, matched);
    }
    return out;
}

int
selfTest(const std::string &bench, const std::string &dir)
{
    std::vector<Bound> bounds;
    ResultSet base, regressed;
    if (!loadBounds(bench, bounds) ||
        !loadResults(dir + "/base.json", base) ||
        !loadResults(dir + "/regressed.json", regressed))
        return 2;
    int bad = 0;
    const Outcome same = compareSets(bounds, base, base, false);
    for (const Row &r : same.rows)
        if (r.verdict != Verdict::Unchanged) {
            std::printf("self-test: identical pair flags %s %s as %s\n",
                        r.workload.c_str(), r.metric.c_str(),
                        verdictName(r.verdict));
            ++bad;
        }
    if (same.fingerprintsDiffer != 0 || same.fingerprintsMatched == 0) {
        std::printf("self-test: identical pair has %d of %d fingerprints "
                    "differing\n",
                    same.fingerprintsDiffer, same.fingerprintsMatched);
        ++bad;
    }
    // regressed.json is base.json with:
    //  - fig15-sweep's wall_s 15% slower, past its 10% row bound;
    //  - drift-retrain's setup_s 50% slower, about 6 ms, past the floor;
    //  - serve-flash's setup_s 50% slower, about 10 us, under the floor;
    //  - one nightly-geo fingerprint changed.
    const Outcome changed = compareSets(bounds, base, regressed, false);
    for (const Row &r : changed.rows) {
        const bool target =
            (r.workload == "fig15-sweep" && r.metric == "wall_s") ||
            (r.workload == "drift-retrain" && r.metric == "setup_s");
        const Verdict want = target ? Verdict::Regressed : Verdict::Unchanged;
        if (r.verdict != want) {
            std::printf("self-test: %s %s is %s, expected %s\n",
                        r.workload.c_str(), r.metric.c_str(),
                        verdictName(r.verdict), verdictName(want));
            ++bad;
        }
    }
    if (changed.fingerprintsDiffer != 1) {
        std::printf("self-test: %d fingerprints differ, expected 1\n",
                    changed.fingerprintsDiffer);
        ++bad;
    }
    std::printf("compare self-test: %s\n", bad == 0 ? "ok" : "FAILED");
    return bad == 0 ? 0 : 1;
}

} // namespace

int
compareMain(int argc, char **argv)
{
    std::string bench = "BENCHMARK.json";
    std::string testdata;
    bool self_test = false;
    bool model_change = false;
    std::vector<std::string> files;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            self_test = true;
        } else if (a == "--allow-model-change") {
            model_change = true;
        } else if ((a == "--bench" || a == "--testdata") && i + 1 < argc) {
            (a == "--bench" ? bench : testdata) = argv[++i];
        } else if (!a.empty() && a[0] != '-') {
            files.push_back(a);
        } else {
            std::fprintf(stderr, "ndpperf compare: unknown option %s\n",
                         a.c_str());
            return 2;
        }
    }
    if (self_test)
        return selfTest(bench, testdata.empty() ? "perf/testdata" : testdata);
    if (files.size() != 2) {
        std::fprintf(stderr,
                     "usage: ndpperf compare A.json B.json "
                     "[--bench BENCHMARK.json] [--allow-model-change]\n");
        return 2;
    }
    std::vector<Bound> bounds;
    ResultSet a, b;
    if (!loadBounds(bench, bounds) || !loadResults(files[0], a) ||
        !loadResults(files[1], b))
        return 2;
    const Outcome out = compareSets(bounds, a, b, true);
    int regressed = 0;
    for (const Row &r : out.rows)
        regressed += r.verdict == Verdict::Regressed ? 1 : 0;
    const bool model_moved = out.fingerprintsDiffer > 0 && !model_change;
    if (model_moved)
        std::printf("%d seed-matched fingerprints differ: modelled results "
                    "changed (pass --allow-model-change if intended)\n",
                    out.fingerprintsDiffer);
    return regressed > 0 || model_moved ? 1 : 0;
}

} // namespace ndpperf
