#include "harness.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/sched/cluster.h"

namespace ndpperf {

Recorder::Recorder() : epoch_(std::chrono::steady_clock::now()) {}

double
Recorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

Recorder::Scope
Recorder::span(const char *name, Phase phase)
{
    Span s;
    s.name = name;
    s.rep = rep_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.phase = open_.empty() ? phase : Phase::Nested;
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back(s);
    open_.push_back(idx);
    // Read the clock last so the bookkeeping above is not timed.
    spans_.back().t0 = now();
    return Scope(*this, idx);
}

void
Recorder::close(int idx)
{
    spans_[static_cast<size_t>(idx)].t1 = now();
    open_.pop_back();
}

void
Recorder::beginRep(int rep)
{
    rep_ = rep;
    repBegin_ = spans_.size();
}

double
Recorder::phaseS(Phase phase) const
{
    double sum = 0.0;
    for (size_t i = repBegin_; i < spans_.size(); ++i)
        if (spans_[i].phase == phase)
            sum += spans_[i].durS();
    return sum;
}

double
Recorder::nameS(const char *name) const
{
    double sum = 0.0;
    for (size_t i = repBegin_; i < spans_.size(); ++i)
        if (std::strcmp(spans_[i].name, name) == 0)
            sum += spans_[i].durS();
    return sum;
}

std::map<std::string, double>
Recorder::selfTimes() const
{
    std::vector<double> childS(spans_.size(), 0.0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            childS[static_cast<size_t>(s.parent)] += s.durS();
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] += spans_[i].durS() - childS[i];
    return self;
}

bool
Recorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    char buf[512];
    os << "{\"traceEvents\":[\n"
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
          "\"args\":{\"name\":\"ndpperf\"}}";
    for (const Span &s : spans_) {
        const char *parent =
            s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name
                          : "";
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"cat\":\"ndpperf\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                      "\"args\":{\"rep\":%d,\"parent\":\"%s\"}}",
                      s.name, s.t0 * 1e6, s.durS() * 1e6, s.rep, parent);
        os << buf;
    }
    os << "\n],\"otherData\":{\"selfTimeS\":{";
    bool first = true;
    for (const auto &[name, sec] : selfTimes()) {
        std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9f", first ? "" : ",",
                      name.c_str(), sec);
        os << buf;
        first = false;
    }
    os << "}}}\n";
    return static_cast<bool>(os);
}

void
Hasher::add(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

void
Hasher::add(double v)
{
    add(std::bit_cast<uint64_t>(v));
}

void
Hasher::add(const std::string &s)
{
    add(static_cast<uint64_t>(s.size()));
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ull;
    }
}

void
hashReport(Hasher &h, const ndp::core::sched::ClusterReport &r)
{
    h.add(r.seconds);
    h.add(r.events);
    for (const auto &j : r.jobs) {
        h.add(j.name);
        h.add(static_cast<uint64_t>(j.kind));
        h.add(static_cast<uint64_t>(j.priority));
        h.add(j.share);
        for (int s : j.stores)
            h.add(static_cast<uint64_t>(s));
        for (double v : {j.submitAtS, j.startS, j.endS, j.makespanS,
                         j.waitS, j.chargedGpuS})
            h.add(v);
        h.add(j.preemptions);
        const auto &st = j.stages;
        for (double v : {st.readS, st.decompressS, st.preprocessS,
                         st.transferS, st.computeS, st.tunerS, st.syncS,
                         st.readBytes, st.wireBytes, st.shipBytes,
                         st.lastItemS, st.diskUtil, st.cpuUtil,
                         st.gpuUtil})
            h.add(v);
        h.add(st.itemsDone);
        h.add(st.pipelines);
        h.add(j.uploads);
        for (double v : {j.throughput, j.p50Ms, j.p95Ms, j.p99Ms,
                         j.meanMs, j.p999Ms})
            h.add(v);
        h.add(static_cast<uint64_t>(j.saturated));
        for (uint64_t v : {j.offered, j.goodput, j.shed, j.redispatched,
                           j.abandoned})
            h.add(v);
        h.add(static_cast<uint64_t>(j.peakQueueDepth));
        h.add(static_cast<uint64_t>(j.publishedVersions));
        h.add(static_cast<uint64_t>(j.minSiteVersion));
        h.add(j.geoWanBytes);
        h.add(j.geoRetransmits);
        h.add(j.geoCheckpointFallbacks);
        h.add(j.stalenessP95S);
        h.add(j.stalenessMaxS);
    }
    const auto &n = r.net;
    for (double v : {n.bytesMoved, n.ingressBytes, n.ingressUtil,
                     n.wanBytes})
        h.add(v);
    h.add(n.flowsCompleted);
    h.add(n.peakConcurrentFlows);
    const auto &f = r.faults;
    for (uint64_t v : {f.crashes, f.stalls, f.ioErrors, f.messagesLost,
                       f.linkDegrades, f.linkDowns, f.ioRetries,
                       f.messagesResent, f.itemsRedispatched, f.itemsLost,
                       f.deltaPushFailures, f.faultsDetected,
                       f.faultsRecovered})
        h.add(v);
    h.add(static_cast<uint64_t>(f.terminal));
    for (double v : {f.degradedS, f.timeToDetectSumS, f.timeToDetectMaxS,
                     f.timeToRecoverSumS, f.timeToRecoverMaxS})
        h.add(v);
}

Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        return {};
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 1)
        return {v[0], v[0], v[0]};
    // statistics.quantiles(n=4, method="exclusive"): cut point i sits
    // at rank i*(n+1)/4, clamped to [1, n-1], interpolated linearly.
    auto cut = [&](size_t i) {
        size_t j = i * (n + 1) / 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * (n + 1)) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    return {cut(1), cut(2), cut(3)};
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

} // namespace ndpperf
