/**
 * @file
 * The four ndpperf workloads. A rep builds its inputs from the seed,
 * drives the system through public entry points inside recorder
 * spans, checks the outputs, and hashes every report it got back.
 *
 * They are chosen so that each layer dominates one workload and sits
 * idle in another (perf/README.md has the table and the measured
 * shares):
 *  - serve-flash: fabric upload churn first, the event queue second;
 *    the scheduler and the pipeline engine are idle.
 *  - nightly-geo: the only one with scheduler contention, APO
 *    planning and the multi-link topology fabric.
 *  - fig15-sweep: the event queue and coroutine resumes of solo
 *    fine-tunes on 80 fresh fleets first, the fabric second; no
 *    contention.
 *  - drift-retrain: nn and data only, no discrete-event work at all.
 */

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "core/sched/cluster.h"
#include "data/backbone.h"
#include "data/profiles.h"
#include "harness.h"
#include "models/zoo.h"
#include "nn/trainer.h"
#include "sim/random.h"

namespace ndpperf {

using namespace ndp;
using namespace ndp::core;

namespace {

/** Share of the full input a rep at @p s runs; @p trace is the
 *  workload's own reduction for the traced run. */
double
fraction(Scale s, double trace)
{
    switch (s) {
      case Scale::Full:
        return 1.0;
      case Scale::Small:
        return 1.0 / 20.0;
      case Scale::Trace:
        return trace;
    }
    return 1.0;
}

uint64_t
scaled(uint64_t n, double f)
{
    return std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(static_cast<double>(n) * f)));
}

void
expect(RepResult &r, bool ok, const std::string &what)
{
    if (!ok)
        r.failures.push_back(what);
}

std::vector<int>
allStores(int n)
{
    std::vector<int> s(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        s[static_cast<size_t>(i)] = i;
    return s;
}

/** Construct the fleet and submit @p jobs; the caller has opened the
 *  set-up span. */
void
setUp(Recorder &rec, std::optional<sched::Cluster> &c,
      const ClusterSpec &spec, const std::vector<sched::JobDesc> &jobs)
{
    {
        auto s = rec.span("Cluster");
        c.emplace(spec);
    }
    for (const sched::JobDesc &j : jobs) {
        auto s = rec.span("Cluster::submit");
        c->submit(j);
    }
}

sched::ClusterReport
runAndDestroy(Recorder &rec, std::optional<sched::Cluster> &c)
{
    sched::ClusterReport r;
    {
        auto s = rec.span("Cluster::run", Phase::Body);
        r = c->run();
    }
    {
        auto s = rec.span("~Cluster", Phase::Body);
        c.reset();
    }
    return r;
}

/** Per-layer roll-up of the cluster reports one rep produced. */
class Rollup
{
  public:
    void
    add(const sched::ClusterReport &r)
    {
        ++reports_;
        m_["sim.events"] += static_cast<double>(r.events);
        m_["net.flows"] += static_cast<double>(r.net.flowsCompleted);
        m_["net.peak_flows"] =
            std::max(m_["net.peak_flows"],
                     static_cast<double>(r.net.peakConcurrentFlows));
        m_["net.gb"] += r.net.bytesMoved / 1e9;
        m_["net.wan_gb"] += r.net.wanBytes / 1e9;
        ingressUtil_ += r.net.ingressUtil;
        m_["faults.crashes"] += static_cast<double>(r.faults.crashes);
        m_["faults.link_degrades"] +=
            static_cast<double>(r.faults.linkDegrades);
        for (const sched::JobReport &j : r.jobs) {
            m_["sched.preemptions"] += static_cast<double>(j.preemptions);
            m_["sched.wait_s"] += j.waitS;
            m_["sched.gpu_s"] += j.chargedGpuS;
            if (j.kind == sched::JobKind::FtDmpTrain)
                pipe_ += j.stages;
            if (j.kind == sched::JobKind::OpenLoopServe) {
                m_["serve.offered"] += static_cast<double>(j.offered);
                m_["serve.shed"] += static_cast<double>(j.shed);
                m_["serve.redispatched"] +=
                    static_cast<double>(j.redispatched);
                m_["serve.abandoned"] += static_cast<double>(j.abandoned);
                m_["serve.peak_queue_depth"] =
                    static_cast<double>(j.peakQueueDepth);
                m_["serve.goodput_frac"] =
                    j.offered > 0 ? static_cast<double>(j.goodput) /
                                        static_cast<double>(j.offered)
                                  : 0.0;
                m_["serve.p50_ms"] = j.p50Ms;
                m_["serve.p999_ms"] = j.p999Ms;
            }
            if (j.kind == sched::JobKind::GeoReplicate) {
                m_["geo.versions"] =
                    static_cast<double>(j.publishedVersions);
                m_["geo.retransmits"] =
                    static_cast<double>(j.geoRetransmits);
                m_["geo.fallbacks"] =
                    static_cast<double>(j.geoCheckpointFallbacks);
                m_["geo.staleness_p95_s"] = j.stalenessP95S;
            }
        }
    }

    void
    into(Metrics &layer) const
    {
        layer.insert(m_.begin(), m_.end());
        layer["net.ingress_util"] =
            reports_ > 0 ? ingressUtil_ / reports_ : 0.0;
        layer["pipe.items"] = static_cast<double>(pipe_.itemsDone);
        layer["pipe.gpu_util"] = pipe_.gpuUtil;
        layer["pipe.cpu_util"] = pipe_.cpuUtil;
        layer["pipe.disk_util"] = pipe_.diskUtil;
    }

  private:
    Metrics m_;
    StageMetrics pipe_;
    double ingressUtil_ = 0.0;
    int reports_ = 0;
};

/** The open-loop serving ledger must balance. */
void
checkServe(RepResult &res, const sched::JobReport &j, uint64_t requests)
{
    expect(res, j.offered == requests,
           "serve: offered " + std::to_string(j.offered) +
               " != nRequests " + std::to_string(requests));
    expect(res, j.goodput + j.shed + j.abandoned <= j.offered,
           "serve: goodput + shed + abandoned exceeds offered");
}

RepResult
serveFlash(const RepConfig &cfg, Recorder &rec)
{
    const uint64_t n = scaled(kFlashRequests, fraction(cfg.scale, 1.0 / 40));
    ClusterSpec spec;
    spec.nStores = 16;
    // Store 5 crashes inside the flash crowd while a store link runs
    // degraded, as in bench_ext_service's headline scenario.
    const double span = static_cast<double>(n) / 900.0;
    spec.faults.crashStore(5, 0.22 * span)
        .degradeLink(0, 0.15 * span, 0.15 * span, 0.3);

    sched::JobDesc d;
    d.name = "front";
    d.kind = sched::JobKind::OpenLoopServe;
    d.stores = allStores(spec.nStores);
    d.serve.arrivals = flashArrivals(cfg.seed, n);
    d.serve.admission.queueCap = 64;

    std::optional<sched::Cluster> c;
    {
        auto s = rec.span("setup", Phase::Setup);
        setUp(rec, c, spec, {d});
    }
    const sched::ClusterReport r = runAndDestroy(rec, c);

    RepResult res;
    Hasher h;
    hashReport(h, r);
    res.fingerprint = h.value();
    const sched::JobReport &j = r.jobs.front();
    checkServe(res, j, n);
    expect(res, r.faults.crashes == 1, "faults: the store crash never fired");
    Rollup roll;
    roll.add(r);
    roll.into(res.layer);
    return res;
}

RepResult
nightlyGeo(const RepConfig &cfg, Recorder &rec)
{
    const double f = fraction(cfg.scale, 1.0 / 20);
    const uint64_t images = scaled(kNightlyImages, f);
    const uint64_t requests = scaled(300000, f);
    const int rounds = std::max(2, static_cast<int>(std::lround(16 * f)));
    ClusterSpec spec = geoFleet();
    const double geo_span = rounds * 30.0;
    spec.faults.degradeWanLink(sim::FaultSpec::kAnySite, 0.25 * geo_span,
                               0.2 * geo_span, 0.3);
    const std::vector<ApoJobSpec> wants = nightlyJobs(images);

    sched::JobDesc serve;
    serve.name = "front";
    serve.kind = sched::JobKind::OpenLoopServe;
    serve.priority = 2;
    serve.stores = allStores(spec.nStores);
    serve.serve.arrivals.nRequests = requests;
    serve.serve.arrivals.nUsers = 2000000;
    serve.serve.arrivals.baseRatePerSec = 450.0;
    serve.serve.arrivals.seed = cfg.seed;

    sched::JobDesc geo;
    geo.name = "georep";
    geo.kind = sched::JobKind::GeoReplicate;
    geo.georep.nRounds = rounds;
    geo.georep.roundIntervalS = 30.0;
    geo.georep.lossProbability = 0.02;
    geo.georep.seed = cfg.seed;

    GlobalApoResult plan;
    std::optional<sched::Cluster> c;
    {
        auto s = rec.span("setup", Phase::Setup);
        {
            auto p = rec.span("planJobs");
            plan = planJobs(plannerFleet(spec), wants, spec.nStores);
        }
        std::vector<sched::JobDesc> jobs;
        for (size_t k = 0; k < plan.jobs.size(); ++k) {
            const ApoJobPlan &p = plan.jobs[k];
            sched::JobDesc d;
            d.name = p.name;
            d.priority = k == 0 ? 1 : 0; // the flagship model goes first
            d.share = k == 0 ? 2.0 : 1.0;
            for (int i = 0; i < p.nStores; ++i)
                d.stores.push_back(p.firstStore + i);
            d.model = wants[k].model;
            d.nImages = wants[k].nImages;
            d.train = wants[k].train;
            d.train.cut = p.choice.cut;
            jobs.push_back(d);
        }
        jobs.push_back(serve);
        jobs.push_back(geo);
        setUp(rec, c, spec, jobs);
    }
    const sched::ClusterReport r = runAndDestroy(rec, c);

    RepResult res;
    Hasher h;
    hashReport(h, r);
    res.fingerprint = h.value();
    double train_end = 0.0;
    for (size_t k = 0; k < wants.size(); ++k) {
        const sched::JobReport &j = r.jobs[k];
        expect(res, j.stages.itemsDone == wants[k].nImages,
               "pipe: " + j.name + " finished " +
                   std::to_string(j.stages.itemsDone) + " of " +
                   std::to_string(wants[k].nImages) + " images");
        train_end = std::max(train_end, j.endS);
    }
    const sched::JobReport &sv = r.jobs[wants.size()];
    const sched::JobReport &gr = r.jobs[wants.size() + 1];
    checkServe(res, sv, requests);
    expect(res,
           gr.minSiteVersion == gr.publishedVersions &&
               gr.publishedVersions == rounds,
           "georep: sites did not converge on every published version");
    expect(res, r.faults.linkDegrades >= 1,
           "faults: the WAN degrade window never opened");
    Rollup roll;
    roll.add(r);
    roll.into(res.layer);
    res.layer["pipe.train_sim_s"] = train_end;
    res.layer["apo.pred_err_pct"] =
        100.0 * std::abs(plan.makespanS - train_end) / train_end;
    return res;
}

RepResult
fig15Sweep(const RepConfig &cfg, Recorder &rec)
{
    // The seed adds up to 0.2% more images, so modelled times differ
    // from seed to seed while the work stays the same size.
    const uint64_t base =
        scaled(1200000, cfg.scale == Scale::Small ? 1.0 / 20 : 1.0);
    Rng rng(cfg.seed);
    const uint64_t images = base + rng.below(base / 500 + 1);

    struct Point
    {
        const models::ModelSpec *model;
        int stores;
    };
    std::vector<Point> points;
    if (cfg.scale == Scale::Trace) {
        points.push_back({&models::resnet50(), 10});
    } else {
        for (const models::ModelSpec *m : models::figureModels())
            for (int n = 1; n <= 20; ++n)
                points.push_back({m, n});
    }

    RepResult res;
    Hasher h;
    Rollup roll;
    double makespan_sum = 0.0;
    double err_sum = 0.0;
    for (const Point &p : points) {
        ClusterSpec spec;
        spec.nStores = p.stores;
        sched::JobDesc d;
        d.name = "ft";
        d.model = p.model;
        d.nImages = images;
        d.stores = allStores(p.stores);
        std::optional<sched::Cluster> c;
        {
            auto s = rec.span("setup", Phase::Setup);
            setUp(rec, c, spec, {d});
        }
        const sched::ClusterReport r = runAndDestroy(rec, c);
        hashReport(h, r);
        roll.add(r);
        const sched::JobReport &j = r.jobs.front();
        expect(res, j.stages.itemsDone == images,
               "pipe: " + p.model->name() + " x " +
                   std::to_string(p.stores) + " finished " +
                   std::to_string(j.stages.itemsDone) + " of " +
                   std::to_string(images) + " images");
        makespan_sum += j.makespanS;
        ExperimentConfig ec = plannerFleet(spec);
        ec.model = p.model;
        ec.nStores = p.stores;
        ec.nImages = images;
        const double predicted =
            evaluateCut(ec, d.train, d.train.resolveCut(*p.model))
                .predictedTotalS;
        err_sum += std::abs(predicted - j.makespanS) / j.makespanS;
    }
    res.fingerprint = h.value();
    roll.into(res.layer);
    res.layer["pipe.train_sim_s"] = makespan_sum;
    res.layer["apo.pred_err_pct"] =
        100.0 * err_sum / static_cast<double>(points.size());
    return res;
}

void
hashTraining(Hasher &h, const nn::TrainResult &t)
{
    for (const nn::EpochStat &e : t.history) {
        h.add(static_cast<uint64_t>(e.epoch));
        h.add(e.trainLoss);
        h.add(e.testTop1);
        h.add(e.testTop5);
    }
}

RepResult
driftRetrain(const RepConfig &cfg, Recorder &rec)
{
    // Fixed epoch counts (early stop off) keep the work per rep the
    // same for every seed.
    struct Epochs
    {
        int full, tune, refit;
    };
    const Epochs ep =
        cfg.scale == Scale::Full ? Epochs{8, 5, 3} : Epochs{2, 1, 1};
    data::DatasetProfile prof = data::imagenet1kProfile();
    prof.world.initialImages = 6000;
    prof.world.seed = cfg.seed;
    auto recipe = [&](nn::TrainConfig c, int epochs) {
        c.maxEpochs = epochs;
        c.convergePatience = 0;
        c.seed = cfg.seed;
        return c;
    };

    RepResult res;
    Hasher h;
    double top1_sum = 0.0;
    double samples = 0.0;
    int epochs = 0;
    const size_t widths[] = {12, 18};
    for (size_t width : widths) {
        std::optional<data::PhotoWorld> world;
        nn::Dataset pool, test0;
        {
            auto s = rec.span("setup", Phase::Setup);
            {
                auto t = rec.span("PhotoWorld");
                world.emplace(prof.world);
            }
            {
                auto t = rec.span("PhotoWorld::poolDataset");
                pool = world->poolDataset();
            }
            {
                auto t = rec.span("PhotoWorld::sampleTestSet");
                test0 = world->sampleTestSet(prof.testSetSize);
            }
        }
        Rng mrng(cfg.seed * 1000 + width);
        data::VisionModel base(prof.world.latentDim, width,
                               prof.world.maxClasses, mrng);
        nn::TrainResult br, ft, fr;
        nn::Dataset test, curated;
        nn::EvalResult outdated{};
        {
            auto t = rec.span("VisionModel::fullTrain", Phase::Body);
            br = base.fullTrain(pool, test0,
                                recipe(prof.fullTrainCfg, ep.full));
        }
        {
            auto t = rec.span("PhotoWorld::advanceDays", Phase::Body);
            world->advanceDays(14);
        }
        {
            auto t = rec.span("PhotoWorld::sampleTestSet", Phase::Body);
            test = world->sampleTestSet(prof.testSetSize);
        }
        {
            auto t = rec.span("nn::evaluate", Phase::Body);
            outdated = nn::evaluate(base, test);
        }
        {
            auto t = rec.span("PhotoWorld::recencyBiasedDataset",
                              Phase::Body);
            curated = world->recencyBiasedDataset(
                world->numImages(), prof.curatedRecentShare,
                prof.curatedWindowDays);
        }
        data::VisionModel tuned = base;
        {
            auto t = rec.span("VisionModel::fineTune", Phase::Body);
            ft = tuned.fineTune(curated, test,
                                recipe(prof.fineTuneCfg, ep.tune));
        }
        Rng frng(cfg.seed * 1000 + 500 + width);
        data::VisionModel full(prof.world.latentDim, width,
                               prof.world.maxClasses, frng);
        {
            auto t = rec.span("VisionModel::fullTrain", Phase::Body);
            fr = full.fullTrain(curated, test,
                                recipe(prof.fullTrainCfg, ep.refit));
        }

        expect(res, ft.finalTop1() > outdated.top1,
               "accuracy: fine-tuned top-1 not above outdated at width " +
                   std::to_string(width));
        for (const nn::TrainResult *t : {&br, &ft, &fr})
            hashTraining(h, *t);
        h.add(outdated.top1);
        h.add(outdated.top5);
        h.add(outdated.loss);
        top1_sum += ft.finalTop1();
        epochs += br.epochsRun + ft.epochsRun + fr.epochsRun;
        samples += static_cast<double>(br.epochsRun) *
                       static_cast<double>(pool.size()) +
                   static_cast<double>(ft.epochsRun + fr.epochsRun) *
                       static_cast<double>(curated.size());
    }
    res.fingerprint = h.value();
    res.layer["nn.top1"] = top1_sum / 2.0;
    res.layer["nn.epochs"] = epochs;
    const double train_s = rec.nameS("VisionModel::fullTrain") +
                           rec.nameS("VisionModel::fineTune");
    res.layer["nn.samples_per_s"] = train_s > 0.0 ? samples / train_s : 0.0;
    const double total = rec.phaseS(Phase::Setup) + rec.phaseS(Phase::Body);
    auto pct = [&](double s) { return total > 0.0 ? 100.0 * s / total : 0.0; };
    res.layer["data.world_pct"] =
        pct(rec.nameS("PhotoWorld") + rec.nameS("PhotoWorld::poolDataset") +
            rec.nameS("PhotoWorld::sampleTestSet") +
            rec.nameS("PhotoWorld::advanceDays") +
            rec.nameS("PhotoWorld::recencyBiasedDataset"));
    res.layer["nn.full_train_pct"] = pct(rec.nameS("VisionModel::fullTrain"));
    res.layer["nn.finetune_pct"] = pct(rec.nameS("VisionModel::fineTune"));
    res.layer["nn.eval_pct"] = pct(rec.nameS("nn::evaluate"));
    return res;
}

} // namespace

sim::ArrivalConfig
flashArrivals(uint64_t seed, uint64_t requests)
{
    sim::ArrivalConfig a;
    a.nRequests = requests;
    a.nUsers = 2000000;
    a.baseRatePerSec = 900.0;
    a.seed = seed;
    const double span = static_cast<double>(requests) / a.baseRatePerSec;
    a.diurnalAmplitude = 0.35;
    a.diurnalPeriodS = span / 2.0; // two cycles per run
    a.spikes.push_back(sim::SpikeSegment{0.2 * span, 0.1 * span, 4.0});
    return a;
}

ClusterSpec
geoFleet()
{
    ClusterSpec s;
    s.nStores = 16;
    s.wanSites = {{"eu", 1.0, 0.05},
                  {"ap", 0.6, 0.11},
                  {"sa", 0.25, 0.18},
                  {"us-w", 0.8, 0.03}};
    return s;
}

std::vector<ApoJobSpec>
nightlyJobs(uint64_t images)
{
    return {{"ft-resnet50", &models::resnet50(), images, {}},
            {"ft-shufflenet", &models::shufflenetV2(), images, {}},
            {"ft-inception", &models::inceptionV3(), images, {}},
            {"ft-resnext", &models::resnext101(), images / 2, {}},
            {"ft-resnet50-b", &models::resnet50(), images / 2, {}}};
}

ExperimentConfig
plannerFleet(const ClusterSpec &s)
{
    ExperimentConfig f;
    f.networkGbps = s.networkGbps;
    f.storeSpec = s.storeSpec;
    f.tunerSpec = s.tunerSpec;
    return f;
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"serve-flash", serveFlash, true, true},
        {"nightly-geo", nightlyGeo, true, true},
        {"fig15-sweep", fig15Sweep, false, true},
        {"drift-retrain", driftRetrain, false, false},
    };
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

} // namespace ndpperf
