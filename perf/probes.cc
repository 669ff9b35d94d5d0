/**
 * @file
 * Layer probes: single public calls timed in isolation, each at the
 * shape of the workload whose wall time it should move. A probe runs
 * a fixed amount of work five times and reports the median cost of
 * one call. The inputs are fixed, so every traced run reports the
 * same probes whatever workload it drives.
 */

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/apo.h"
#include "harness.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "sim/arrival.h"
#include "sim/channel.h"
#include "sim/simulator.h"

namespace ndpperf {

using namespace ndp;

namespace {

constexpr int kProbeReps = 5;

/** Median seconds of @p body over kProbeReps runs. */
double
medianS(const std::function<void()> &body)
{
    std::vector<double> t;
    for (int i = 0; i < kProbeReps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        t.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
    }
    return quartiles(t).median;
}

/** Event chains keep the queue at a steady depth, as a busy
 *  simulation does, instead of draining one pre-filled heap. */
constexpr int kChains = 256;
constexpr int kHops = 400;

struct Chain
{
    sim::Simulator *s = nullptr;
    int left = kHops;

    void
    fire()
    {
        if (--left > 0)
            s->schedule(1e-6, [this] { fire(); });
    }
};

// ndplint: allow(coroutine-ref-param, coroutine-escape: referents outlive s.run() in the probe body)
sim::Task
sleeper(sim::Simulator &s, int n)
{
    for (int i = 0; i < n; ++i)
        co_await s.delay(1e-6);
}

constexpr int kItems = 100000;

// ndplint: allow(coroutine-ref-param, coroutine-escape: referents outlive s.run() in the probe body)
sim::Task
producer(sim::Channel<int> &ch)
{
    for (int i = 0; i < kItems; ++i)
        co_await ch.put(i);
    ch.close();
}

// ndplint: allow(coroutine-ref-param, coroutine-escape: referents outlive s.run() in the probe body)
sim::Task
consumer(sim::Channel<int> &ch, long long &sum)
{
    while (true) {
        auto v = co_await ch.get();
        if (!v)
            break;
        sum += *v;
    }
}

/** Concurrent senders, each moving kFlowsEach transfers in a row. */
constexpr int kSenders = 20;
constexpr int kFlowsEach = 200;

// ndplint: allow(coroutine-ref-param, coroutine-escape: referents outlive s.run() in the probe body)
sim::Task
sender(net::NetFabric &fab, net::NodeId src, net::NodeId dst, double bytes,
       net::FlowClass cls)
{
    for (int k = 0; k < kFlowsEach; ++k)
        co_await fab.transfer(src, dst, bytes, cls);
}

/** serve-flash's hub: 16 stores, the Tuner, a front end and the
 *  client node; 20 upload-size flows from the client at a time. */
void
hubFlows()
{
    const core::ClusterSpec spec;
    sim::Simulator s;
    net::NetFabric fab(s);
    std::vector<net::NodeId> stores;
    for (int i = 0; i < 16; ++i)
        stores.push_back(fab.addNode(spec.storeSpec.nic));
    const net::NodeId tuner = fab.addNode(spec.nic());
    fab.setIngress(tuner);
    fab.addNode(spec.nic());
    const net::NodeId client = fab.addNode(spec.tunerSpec.nic);
    for (int i = 0; i < kSenders; ++i)
        s.spawn(sender(fab, client, stores[static_cast<size_t>(i % 16)],
                       2.7e6, net::FlowClass::Upload));
    s.run();
}

/** nightly-geo's topology: the fleet in a home rack, one rack per WAN
 *  site; 16 stores ship features to the Tuner while the Tuner pushes
 *  deltas to the 4 sites. */
void
topoFlows()
{
    const core::ClusterSpec spec = geoFleet();
    net::Topology topo;
    const net::SiteId home = topo.addSite("home");
    topo.addRack(home, 100.0);
    for (const core::WanSite &w : spec.wanSites) {
        const net::SiteId sid = topo.addSite(w.name);
        topo.addRack(sid, 25.0);
        topo.addWanLink(home, sid, w.gbps, w.latencyS);
    }
    sim::Simulator s;
    net::NetFabric fab(s, topo);
    std::vector<net::NodeId> stores;
    for (int i = 0; i < spec.nStores; ++i)
        stores.push_back(fab.addNode(spec.storeSpec.nic));
    const net::NodeId tuner = fab.addNode(spec.nic());
    fab.setIngress(tuner);
    fab.addNode(spec.nic());
    fab.addNode(spec.tunerSpec.nic);
    std::vector<net::NodeId> sites;
    for (size_t w = 0; w < spec.wanSites.size(); ++w)
        sites.push_back(
            fab.addNode(spec.storeSpec.nic, static_cast<net::RackId>(1 + w)));
    for (net::NodeId st : stores)
        s.spawn(sender(fab, st, tuner, 1.0e6, net::FlowClass::FeatureShip));
    for (net::NodeId site : sites)
        s.spawn(sender(fab, tuner, site, 250.0e3, net::FlowClass::GeoDelta));
    s.run();
}

} // namespace

Metrics
runProbes()
{
    Metrics m;
    constexpr double kEvents = static_cast<double>(kChains) * kHops;
    m["sim.dispatch_ns"] = 1e9 / kEvents * medianS([] {
        sim::Simulator s;
        std::vector<Chain> chains(kChains, Chain{&s});
        for (Chain &c : chains)
            s.schedule(0.0, [&c] { c.fire(); });
        s.run();
    });
    m["sim.resume_ns"] = 1e9 / kEvents * medianS([] {
        sim::Simulator s;
        for (int i = 0; i < kChains; ++i)
            s.spawn(sleeper(s, kHops));
        s.run();
    });
    m["sim.channel_ns"] = 1e9 / kItems * medianS([] {
        sim::Simulator s;
        sim::Channel<int> ch(s, 4);
        long long sum = 0;
        s.spawn(producer(ch));
        s.spawn(consumer(ch, sum));
        s.run();
    });
    constexpr double kFlows = static_cast<double>(kSenders) * kFlowsEach;
    m["net.hub_flow_us"] = 1e6 / kFlows * medianS(hubFlows);
    m["net.topo_flow_us"] = 1e6 / kFlows * medianS(topoFlows);
    m["serve.arrival_ns"] =
        1e9 / static_cast<double>(kFlashRequests) * medianS([] {
            sim::ArrivalProcess gen(flashArrivals(1, kFlashRequests));
            sim::Request r;
            while (gen.next(r)) {
            }
        });
    constexpr int kPlans = 100;
    m["apo.plan_us"] = 1e6 / kPlans * medianS([] {
        const core::ClusterSpec spec = geoFleet();
        const auto jobs = nightlyJobs(kNightlyImages);
        for (int i = 0; i < kPlans; ++i)
            core::planJobs(plannerFleet(spec), jobs, spec.nStores);
    });
    return m;
}

} // namespace ndpperf
