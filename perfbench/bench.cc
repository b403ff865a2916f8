#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analysis/flops.h"
#include "analysis/static_analyzer.h"
#include "analysis/verify/verify.h"
#include "dnn/models.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "explore/explorer.h"
#include "explore/tuner.h"
#include "family/family.h"
#include "family/family_eval.h"
#include "graph/dag.h"
#include "graph/lower.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"
#include "ml/costmodel.h"
#include "ml/gbt.h"
#include "obs/metrics.h"
#include "ops/shapes.h"
#include "schedule/generator.h"
#include "schedule/serialize.h"
#include "serve/service.h"
#include "sim/perf_model.h"
#include "space/builder.h"
#include "support/journal.h"
#include "support/rng.h"
#include "host_speed.h"
#include "timing_evaluator.h"
#include "trace.h"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

// ---------------------------------------------------------------------
// Fixed tuning parameters. They are part of the workload definition:
// changing any of them changes what the benchmark measures.

/** op_search explorer steps: Q-method and P-method. */
constexpr int kOpSearchQTrials = 48;
constexpr int kOpSearchPTrials = 24;
/** learned_search per-request budget: 64 committed measurements for
 *  both methods (AutoTVM's per-trial cost grows with it: its GBT refits
 *  over all of H every round). AutoTVM counts measurements; 12 Q-method
 *  steps of 4 starting points after 16 warmup points commit about 64. */
constexpr int kLearnedAutoTvmTrials = 64;
constexpr int kLearnedQSteps = 12;
constexpr double kLearnedPrunerKeep = 0.5;
/** learned_search timed requests per second of --seconds (see
 *  timedRequests): 63 for 30 s, about 30 s on the reference host. */
constexpr double kLearnedRequestsPerSecond = 2.1;
/** network_serve budgets: single op, per DAG anchor, per family bucket. */
constexpr int kServeOpTrials = 40;
constexpr int kServeDagTrials = 20;
constexpr int kServeFamilyTrials = 15;
constexpr int kServeClients = 2;
constexpr int kServeEvalThreads = 2;
/** Requests generated up front; no run gets near the end. */
constexpr int kStreamLength = 20000;
/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupRepeats = 15;
/** Untimed warm-up before the timed loop, on separate state. */
constexpr double kWarmupSeconds = 2.0;
/** Host-speed probe period during the timed loop (about 1% of it). */
constexpr int64_t kHostSampleNs = 200'000'000;
/** Exec-checked requests per run, and their FLOP ceiling. */
constexpr int kExecChecks = 6;
constexpr double kExecMaxFlops = 4.5e6;
/** Points per explorer run re-scored by the base class (self-check). */
constexpr int kSelfCheckPoints = 4;

const ft::Target &
deviceTarget(int d)
{
    static const ft::Target targets[kNumDevices] = {
        ft::Target::forGpu(ft::v100()),
        ft::Target::forCpu(ft::xeonE5()),
        ft::Target::forFpga(ft::vu9p()),
    };
    return targets[d];
}

double
msSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-6;
}

std::string
hexBits(double v)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(bits));
    return buf;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 0.5);
}

/** CPU time of the calling thread, or of the whole process. */
int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------
// Inputs: everything set-up builds from the stream.

struct OpInput
{
    ft::Tensor out;
    ft::Operation anchor;
};

struct Inputs
{
    std::vector<Request> stream;
    std::map<int, OpInput> ops; ///< by opCatalog index
    /** dagFromNetwork results, by net * 4 + batch slot. */
    std::map<std::pair<int, int>, ft::graph::ComputeDag> dags;
    std::map<std::pair<int, int>, ft::ShapeFamily> families; ///< (layer, variant)
    std::unique_ptr<ft::CostModel> costModel;
    std::unique_ptr<ft::TuningService> service;
    std::vector<double> dagBuildMs;
};

ft::ShapeFamily
familyFor(int layer, int variant)
{
    ft::ShapeVar var;
    var.name = "batch_v" + std::to_string(variant);
    var.lo = 1;
    var.hi = 16;
    return ft::conv2dOverBatch(ft::ops::yoloLayers()[layer], std::move(var));
}

ft::CostModelOptions
learnedModelOptions(const std::string &journal)
{
    ft::CostModelOptions o;
    o.syncRefit = true;
    o.refitEvery = 256;
    o.maxTrials = 512;
    o.gbt.trees = 16;
    o.persistPath = journal;
    return o;
}

std::unique_ptr<ft::CostModel>
makeCostModel(const std::string &dir)
{
    return std::make_unique<ft::CostModel>(
        learnedModelOptions(dir + "/costmodel.ftj"));
}

std::unique_ptr<ft::TuningService>
makeService(const std::string &dir)
{
    ft::ServiceOptions o;
    o.evalThreads = kServeEvalThreads;
    o.requestThreads = kServeClients;
    o.dispatchDir = dir + "/dispatch";
    fs::create_directories(o.dispatchDir);
    return std::make_unique<ft::TuningService>(o);
}

/** One set-up: the stream, its operator graphs, DAGs, families and the
 *  stateful objects (cost model, service) in a fresh directory. */
std::unique_ptr<Inputs>
setUp(const Options &opt, const std::string &dir)
{
    auto in = std::make_unique<Inputs>();
    fs::remove_all(dir);
    fs::create_directories(dir);
    in->stream = makeStream(opt.workload, opt.seed, kStreamLength);
    const auto &catalog = opCatalog(opt.workload);
    for (const Request &r : in->stream) {
        if (r.kind == Kind::Op && !in->ops.count(r.op)) {
            const OpEntry &e = catalog[static_cast<size_t>(r.op)];
            OpInput input;
            input.out = ft::ops::table3Cases(e.kind)[static_cast<size_t>(
                                                         e.caseIndex)]
                            .build();
            input.anchor = ft::anchorOp(ft::MiniGraph(input.out));
            in->ops.emplace(r.op, std::move(input));
        } else if (r.kind == Kind::Dag &&
                   !in->dags.count({r.net, r.batch})) {
            const int64_t t0 = nowNs();
            ft::Network net =
                r.net == 0 ? ft::yoloV1(r.batch) : ft::overFeat(r.batch);
            in->dags.emplace(std::make_pair(r.net, r.batch),
                             ft::graph::dagFromNetwork(net));
            in->dagBuildMs.push_back(msSince(t0));
        } else if (r.kind == Kind::Family &&
                   !in->families.count({r.layer, r.variant})) {
            in->families.emplace(std::make_pair(r.layer, r.variant),
                                 familyFor(r.layer, r.variant));
        }
    }
    if (opt.workload == Workload::LearnedSearch)
        in->costModel = makeCostModel(dir);
    if (opt.workload == Workload::NetworkServe)
        in->service = makeService(dir);
    return in;
}

// ---------------------------------------------------------------------
// Outcomes of requests.

/** What one request returned, reduced to what the checks and metrics
 *  need. Fresh answers keep their report for the correctness gate. */
struct Outcome
{
    bool done = false;
    int64_t startNs = 0;
    double wallMs = 0.0;
    int64_t trials = 0; ///< committed measurements (op/learned)
    std::string failure; ///< empty unless the request failed
    double gflops = 0.0;        ///< op / family: modeled GFLOPS
    double latencySeconds = 0.0;///< op: kernel seconds; dag: totalSeconds
    double simSeconds = 0.0;    ///< simulated exploration seconds
    std::string digest;         ///< answer identity, compared over repeats
    std::optional<ft::TuneReport> op;
    std::shared_ptr<ft::graph::DagTuneReport> dag;
    std::optional<ft::FamilyServeResult> family;
};

std::string
opDigest(const ft::TuneReport &r)
{
    return ft::serializeConfig(r.config) + "|" + hexBits(r.gflops) + "|" +
           hexBits(r.simExploreSeconds) + "|" + std::to_string(r.trials);
}

void
fillFromOp(Outcome &o, ft::TuneReport report)
{
    o.gflops = report.gflops;
    o.latencySeconds = report.kernelSeconds;
    o.simSeconds = report.simExploreSeconds;
    o.digest = opDigest(report);
    if (report.degraded)
        o.failure = "degraded report";
    report.curve.clear();
    report.curve.shrink_to_fit();
    o.op = std::move(report);
}

void
fillFromDag(Outcome &o, ft::graph::DagTuneReport report)
{
    o.latencySeconds = report.totalSeconds;
    o.simSeconds = report.simExploreSeconds;
    o.digest = hexBits(report.totalSeconds) + "|" +
               std::to_string(report.groups.size()) + "|" +
               hexBits(report.simExploreSeconds);
    for (auto &g : report.groups) {
        g.report.curve.clear();
        g.report.curve.shrink_to_fit();
        if (g.tuned && g.report.degraded)
            o.failure = "degraded group report";
    }
    o.dag = std::make_shared<ft::graph::DagTuneReport>(std::move(report));
}

ft::TuneOptions
opTuneOptions(Workload w, const Request &r, ft::CostModel *model)
{
    ft::TuneOptions o;
    o.explore.seed = r.exploreSeed;
    switch (w) {
      case Workload::OpSearch:
        o.method = r.tuner == Tuner::QMethod ? ft::Method::QMethod
                                             : ft::Method::PMethod;
        o.explore.trials = r.tuner == Tuner::QMethod ? kOpSearchQTrials
                                                     : kOpSearchPTrials;
        break;
      case Workload::LearnedSearch:
        o.method = r.tuner == Tuner::AutoTvm ? ft::Method::AutoTvm
                                             : ft::Method::QMethod;
        o.explore.trials = r.tuner == Tuner::AutoTvm ? kLearnedAutoTvmTrials
                                                     : kLearnedQSteps;
        o.explore.costModel = model;
        o.explore.prunerKeep = kLearnedPrunerKeep;
        break;
      case Workload::NetworkServe:
        o.method = ft::Method::QMethod;
        o.explore.trials = kServeOpTrials;
        break;
    }
    return o;
}

// ---------------------------------------------------------------------
// Traced run state.

/** What the traced run measures beyond spans. */
struct TraceData
{
    std::mutex mu;
    TrialCounters trial;
    ft::MetricsRegistry registry; ///< explorer counters (op/learned)
    int64_t qSteps = 0;           ///< Q-method explorer steps
    std::vector<double> spaceBuildMs;
    int64_t selfChecked = 0;
    /** AutoTVM training sets (features per committed point, GFLOPS). */
    struct TrainSet
    {
        std::vector<std::vector<double>> x;
        std::vector<double> y;
    };
    std::vector<TrainSet> autotvmSets;
    /** learned_search: every trial the shared model recorded, in order. */
    TrainSet costTrials;
    std::vector<uint64_t> costGroups;
    int64_t costFeatureNs = 0; ///< costFeaturesFor over those trials
    // network_serve
    std::vector<double> partitionMs, dagTuneMs, familyTuneMs;
    std::vector<double> lookupNs;
    std::vector<double> groups, trafficMb;
    size_t maxEvalQueue = 0;
    /** CPU time of the client-side probes and bookkeeping (all of it
     *  the benchmark's own), and of the partitionDag probes within it. */
    int64_t probeCpuNs = 0, partitionCpuNs = 0;
};

// ---------------------------------------------------------------------
// Executing one request.

/** op_search / learned_search through ft::tuneOp (the untraced path). */
Outcome
runOpPlain(const Options &opt, const Inputs &in, const Request &r)
{
    Outcome o;
    const OpInput &input = in.ops.at(r.op);
    const ft::TuneOptions to = opTuneOptions(opt.workload, r, in.costModel.get());
    const int64_t t0 = nowNs();
    ft::TuneReport report =
        ft::tuneOp(input.anchor, deviceTarget(r.device), to);
    o.startNs = t0;
    o.wallMs = msSince(t0);
    o.trials = report.trials;
    fillFromOp(o, std::move(report));
    return o;
}

/**
 * The same request through the public pieces tuneOp is made of, with
 * spans around each: buildSpace, the timing Evaluator under the
 * explorer, then the report's decode and lowering.
 */
Outcome
runOpTraced(const Options &opt, const Inputs &in, const Request &r, int index,
            SpanRecorder &rec, TraceData &td)
{
    Outcome o;
    const OpInput &input = in.ops.at(r.op);
    const ft::Target &target = deviceTarget(r.device);
    ft::TuneOptions to = opTuneOptions(opt.workload, r, in.costModel.get());
    to.explore.obs.metrics = &td.registry;
    to.explore.obs.wallProfile = true;

    const int64_t t0 = nowNs();
    // The request span ends before the self-check and the replay data
    // collection below, which are the benchmark's own work.
    std::optional<Scoped> request;
    request.emplace(&rec, "request", index);
    ft::SpaceOptions so;
    so.templateRestricted = to.method == ft::Method::AutoTvm;
    std::optional<ft::ScheduleSpace> space;
    {
        const int64_t s0 = nowNs();
        Scoped s(&rec, "space.build", index);
        space.emplace(ft::buildSpace(input.anchor, target, so));
        td.spaceBuildMs.push_back(msSince(s0));
    }
    TimingEvaluator eval(input.anchor, *space, target);
    const uint64_t stepsBefore =
        td.registry.snapshot().counter("explore.steps");
    ft::ExploreResult result;
    {
        Scoped s(&rec, "explore.run", index);
        switch (to.method) {
          case ft::Method::QMethod:
            result = ft::exploreQMethod(eval, to.explore);
            break;
          case ft::Method::PMethod:
            result = ft::explorePMethod(eval, to.explore);
            break;
          default:
            result = ft::exploreAutoTvm(eval, to.explore);
            break;
        }
    }
    if (to.method == ft::Method::QMethod) {
        td.qSteps += static_cast<int64_t>(
            td.registry.snapshot().counter("explore.steps") - stepsBefore);
    }
    ft::TuneReport report;
    {
        Scoped s(&rec, "report", index);
        report.config = space->decode(result.bestPoint);
        report.gflops = result.bestGflops;
        ft::Scheduled sched = ft::generate(input.anchor, report.config,
                                           target);
        ft::PerfResult perf = ft::modelPerf(sched.features, target);
        report.kernelSeconds = perf.valid ? perf.seconds : 0.0;
        report.simExploreSeconds = result.simSeconds;
        report.trials = result.trialsUsed;
        report.degraded = result.deadlineExceeded;
    }
    request.reset();
    o.startNs = t0;
    o.wallMs = msSince(t0);
    o.trials = report.trials;
    td.trial.add(eval.counters());

    // Self-check: the timing subclass scores like the base class.
    const auto &hist = eval.history();
    ft::Rng pick(r.exploreSeed ^ 0x5e1fc4ecULL);
    for (int k = 0; k < kSelfCheckPoints && !hist.empty(); ++k) {
        const ft::Evaluated &e = hist[pick.below(hist.size())];
        const double base = eval.baseScore(e.point);
        ++td.selfChecked;
        if (hexBits(base) != hexBits(e.gflops)) {
            o.failure = "timing evaluator disagrees with base scoreOnly";
            break;
        }
    }
    if (to.method == ft::Method::AutoTvm) {
        TraceData::TrainSet set;
        for (const ft::Evaluated &e : hist) {
            set.x.push_back(space->features(e.point));
            set.y.push_back(e.gflops);
        }
        td.autotvmSets.push_back(std::move(set));
    }
    if (in.costModel) {
        // What commitMeasured recorded into the model, trial by trial.
        std::vector<double> f;
        for (const ft::Evaluated &e : hist) {
            const int64_t c0 = nowNs();
            eval.costFeaturesFor(e.point, f);
            td.costFeatureNs += nowNs() - c0;
            td.costTrials.x.push_back(f);
            td.costTrials.y.push_back(e.gflops);
            td.costGroups.push_back(eval.workloadKey());
        }
    }
    fillFromOp(o, std::move(report));
    return o;
}

/** network_serve: one request through the service's plain entry points. */
Outcome
runServe(const Inputs &in, const Request &r, int index, SpanRecorder *rec,
         TraceData *td)
{
    Outcome o;
    ft::TuningService &svc = *in.service;
    const ft::Target &target = deviceTarget(r.device);
    std::optional<ft::TuneReport> report;
    std::optional<ft::graph::DagTuneReport> dagReport;
    std::optional<ft::FamilyServeResult> served;
    double serveMs = 0.0;
    const int64_t t0 = nowNs();
    {
        Scoped request(rec, "request", index);
        switch (r.kind) {
          case Kind::Op: {
            const OpInput &input = in.ops.at(r.op);
            ft::TuneOptions to =
                opTuneOptions(Workload::NetworkServe, r, nullptr);
            to.explore.obs.wallProfile = td != nullptr;
            Scoped s(rec, "serve.tune", index);
            report = svc.tune(input.out, target, to);
            break;
          }
          case Kind::Dag: {
            const ft::graph::ComputeDag &dag = in.dags.at({r.net, r.batch});
            ft::TuneOptions to;
            to.explore.trials = kServeDagTrials;
            to.explore.seed = r.exploreSeed;
            to.explore.obs.wallProfile = td != nullptr;
            if (td && r.fresh) {
                // The graph cache keeps every DAG, so each fresh request
                // is the one tuneDag call that partitions this DAG.
                const int64_t c0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
                const int64_t s0 = nowNs();
                {
                    Scoped s(rec, "graph.partition", index);
                    ft::graph::partitionDag(dag, target);
                }
                const double ms = msSince(s0);
                const int64_t cpu = cpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
                std::lock_guard<std::mutex> lock(td->mu);
                td->partitionMs.push_back(ms);
                td->partitionCpuNs += cpu;
                td->probeCpuNs += cpu;
            }
            const int64_t s0 = nowNs();
            {
                Scoped s(rec, "graph.tune", index);
                dagReport = svc.tuneDag(dag, target, to);
            }
            serveMs = msSince(s0);
            break;
          }
          case Kind::Family: {
            const ft::ShapeFamily &family =
                in.families.at({r.layer, r.variant});
            ft::FamilyTuneOptions fo;
            fo.explore.trials = kServeFamilyTrials;
            fo.explore.seed = r.exploreSeed;
            fo.explore.obs.wallProfile = td != nullptr;
            const int64_t s0 = nowNs();
            {
                Scoped s(rec, "family.serve", index);
                served = svc.serveShape(family, r.shape, target, fo);
            }
            serveMs = msSince(s0);
            if (td) {
                // Dispatch lookup cost, timed on a copy of the published
                // table (the copy itself is outside the timed region).
                const int64_t c0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
                Scoped s(rec, "family.lookup", index);
                auto table = svc.dispatchTableFor(family.name,
                                                  target.deviceName());
                double ns = -1.0;
                if (table) {
                    const int64_t l0 = nowNs();
                    for (int k = 0; k < 64; ++k)
                        (void)table->lookup(1 + (r.shape + k) % 16);
                    ns = static_cast<double>(nowNs() - l0) / 64.0;
                }
                const int64_t cpu = cpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
                std::lock_guard<std::mutex> lock(td->mu);
                if (ns >= 0.0)
                    td->lookupNs.push_back(ns);
                td->probeCpuNs += cpu;
            }
            break;
          }
        }
    }
    o.startNs = t0;
    o.wallMs = msSince(t0);

    // Everything below is the benchmark's own bookkeeping.
    if (report) {
        fillFromOp(o, std::move(*report));
    } else if (dagReport) {
        if (td && r.fresh) {
            std::lock_guard<std::mutex> lock(td->mu);
            td->dagTuneMs.push_back(serveMs);
            td->groups.push_back(static_cast<double>(dagReport->groups.size()));
            td->trafficMb.push_back(
                static_cast<double>(dagReport->trafficBytes) * 1e-6);
        }
        fillFromDag(o, std::move(*dagReport));
    } else if (served) {
        const ft::ShapeFamily &family = in.families.at({r.layer, r.variant});
        if (td && !served->fromDispatch) {
            std::lock_guard<std::mutex> lock(td->mu);
            td->familyTuneMs.push_back(serveMs);
        }
        o.gflops = ft::instanceGflopsFor(family, served->config, r.shape,
                                         target);
        o.digest = family.name + "@" + target.deviceName();
        o.family = std::move(*served);
    }
    if (td) {
        const int64_t c0 = cpuNs(CLOCK_THREAD_CPUTIME_ID);
        const size_t depth = svc.stats().evalQueueDepth;
        const int64_t cpu = cpuNs(CLOCK_THREAD_CPUTIME_ID) - c0;
        std::lock_guard<std::mutex> lock(td->mu);
        td->maxEvalQueue = std::max(td->maxEvalQueue, depth);
        td->probeCpuNs += cpu;
    }
    return o;
}

// ---------------------------------------------------------------------
// The loops.

struct Pass
{
    std::vector<Outcome> outcomes; ///< by stream index; `done` marks run
    double wallSeconds = 0.0;
    int64_t startNs = 0, endNs = 0;
    int64_t completed = 0;
    uint64_t serviceEvals = 0; ///< network_serve: explore.evals delta
    /** Peak RSS when the last prefix request was handed out: a fixed
     *  amount of work on every run of a seed, whatever the host speed. */
    double prefixRssMb = 0.0;
};

/**
 * Run requests in stream order until at least `minRequests` are done and
 * `seconds` have passed (or, with seconds <= 0, exactly minRequests).
 */
Pass
runPass(const Options &opt, Inputs &in, int minRequests, double seconds,
        std::vector<SpanRecorder> *recs, TraceData *td,
        HostSpeed *host = nullptr)
{
    Pass pass;
    const int n = static_cast<int>(in.stream.size());
    pass.outcomes.resize(static_cast<size_t>(n));
    const uint64_t evalsBefore =
        in.service ? in.service->stats().metrics.counter("explore.evals") : 0;
    const int64_t t0 = nowNs();
    auto more = [&](int i) {
        if (i >= n)
            return false;
        if (i == minRequests - 1)
            pass.prefixRssMb = peakRssMb();
        if (i < minRequests)
            return true;
        return seconds > 0.0 &&
               static_cast<double>(nowNs() - t0) * 1e-9 < seconds;
    };
    auto guarded = [&](auto &&fn, int i) {
        try {
            pass.outcomes[static_cast<size_t>(i)] = fn();
        } catch (const std::exception &e) {
            pass.outcomes[static_cast<size_t>(i)].failure =
                std::string("exception: ") + e.what();
        }
        pass.outcomes[static_cast<size_t>(i)].done = true;
    };
    if (opt.workload == Workload::NetworkServe) {
        std::atomic<int> next{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < kServeClients; ++c) {
            clients.emplace_back([&, c] {
                SpanRecorder *rec = recs ? &(*recs)[static_cast<size_t>(c)]
                                         : nullptr;
                for (;;) {
                    if (host && c == 0)
                        host->sampleEvery(kHostSampleNs);
                    const int i = next.fetch_add(1);
                    if (!more(i))
                        break;
                    guarded(
                        [&] {
                            return runServe(in,
                                            in.stream[static_cast<size_t>(i)],
                                            i, rec, td);
                        },
                        i);
                }
            });
        }
        for (auto &t : clients)
            t.join();
    } else {
        for (int i = 0; more(i); ++i) {
            if (host)
                host->sampleEvery(kHostSampleNs);
            const Request &r = in.stream[static_cast<size_t>(i)];
            guarded(
                [&] {
                    return recs ? runOpTraced(opt, in, r, i, (*recs)[0], *td)
                                : runOpPlain(opt, in, r);
                },
                i);
        }
    }
    pass.startNs = t0;
    pass.endNs = nowNs();
    pass.wallSeconds = static_cast<double>(pass.endNs - t0) * 1e-9;
    for (const Outcome &o : pass.outcomes)
        pass.completed += o.done ? 1 : 0;
    if (in.service) {
        pass.serviceEvals =
            in.service->stats().metrics.counter("explore.evals") -
            evalsBefore;
    }
    return pass;
}

// ---------------------------------------------------------------------
// Modeled metrics: deterministic, over the fresh requests of the prefix.

struct Modeled
{
    double gflopsGeomean = 0.0;
    double latencyMsGeomean = 0.0;
    double exploreSeconds = 0.0;

    std::string record() const
    {
        return "tuned_gflops_geomean " + hexBits(gflopsGeomean) +
               "\nnetwork_latency_ms " + hexBits(latencyMsGeomean) +
               "\nmodeled_explore_s " + hexBits(exploreSeconds) + "\n";
    }
};

Modeled
modeledOf(const Options &opt, const Inputs &in, const Pass &pass)
{
    double logG = 0.0, logL = 0.0, sim = 0.0;
    int nG = 0, nL = 0, nS = 0;
    const int prefix = modeledPrefix(opt.workload);
    for (int i = 0; i < prefix; ++i) {
        const Request &r = in.stream[static_cast<size_t>(i)];
        const Outcome &o = pass.outcomes[static_cast<size_t>(i)];
        if (!r.fresh || !o.done || !o.failure.empty())
            continue;
        if (r.kind != Kind::Dag && o.gflops > 0.0) {
            logG += std::log(o.gflops);
            ++nG;
        }
        // A single operator is a one-layer network; network_serve
        // reports whole networks only.
        const bool latency = opt.workload == Workload::NetworkServe
                                 ? r.kind == Kind::Dag
                                 : r.kind == Kind::Op;
        if (latency && o.latencySeconds > 0.0) {
            logL += std::log(o.latencySeconds * 1e3);
            ++nL;
        }
        if (r.kind != Kind::Family) {
            sim += o.simSeconds;
            ++nS;
        }
    }
    Modeled m;
    m.gflopsGeomean = nG ? std::exp(logG / nG) : 0.0;
    m.latencyMsGeomean = nL ? std::exp(logL / nL) : 0.0;
    m.exploreSeconds = nS ? sim / nS : 0.0;
    return m;
}

// ---------------------------------------------------------------------
// Correctness gate.

/**
 * Re-lower and re-score one schedule; empty string when it is legal and,
 * given `expectGflops`, reproduces it bit for bit. `tc` (nullable)
 * collects the modelPerf timings network_serve reports.
 */
std::string
rescore(const ft::Operation &anchor, const ft::OpConfig &config,
        const ft::Target &target, std::optional<double> expectGflops,
        TrialCounters *tc)
{
    ft::Scheduled s = ft::generate(anchor, config, target);
    ft::verify::DiagReport diags = ft::verify::verifySchedule(s, target,
                                                              &config);
    const int64_t t0 = nowNs();
    ft::PerfResult perf = ft::modelPerf(s.features, target);
    if (tc) {
        tc->modelNs += nowNs() - t0;
        tc->modeled += 1;
        tc->invalid += perf.valid ? 0 : 1;
        tc->nestLoops += static_cast<int64_t>(s.nest.loops.size());
    }
    if (diags.hasError())
        return "verifier error on returned schedule: " +
               diags.firstError()->code;
    if (!perf.valid)
        return "device model rejects returned schedule: " + perf.reason;
    if (expectGflops && hexBits(perf.gflops) != hexBits(*expectGflops)) {
        std::ostringstream oss;
        oss << "re-scored GFLOPS " << perf.gflops << " != reported "
            << *expectGflops;
        return oss.str();
    }
    return "";
}

/**
 * Recompute a dispatch entry's family score the way the family evaluator
 * forms it (instances sampled from the bucket, weighted by shape value)
 * through instanceGflopsFor; it must equal the service's score bit for
 * bit. `samples` is the tuning's samplesPerBucket.
 */
std::string
rescoreEntry(const ft::ShapeFamily &family, const ft::DispatchEntry &entry,
             const ft::Target &target, int samples)
{
    const std::vector<int64_t> shapes =
        ft::sampleBucket(ft::ShapeBucket{entry.lo, entry.hi}, samples);
    double totalWeight = 0.0;
    for (int64_t v : shapes)
        totalWeight += static_cast<double>(v);
    double score = 0.0;
    for (int64_t v : shapes) {
        const double g = ft::instanceGflopsFor(family, entry.config, v, target);
        if (g <= 0.0)
            return "dispatch entry invalid at shape " + std::to_string(v);
        score += static_cast<double>(v) / totalWeight * g;
    }
    if (hexBits(score) != hexBits(entry.gflops)) {
        std::ostringstream oss;
        oss << "re-scored family score " << score << " != table entry "
            << entry.gflops;
        return oss.str();
    }
    return "";
}

/** Every element an integer in [-3, 3]: fp32 sums stay exact, so any
 *  legal schedule reproduces the reference bit for bit. */
ft::BufferMap
integerInputs(const ft::MiniGraph &graph, uint64_t seed)
{
    ft::BufferMap buffers;
    uint64_t c = mix64(seed);
    for (const auto &op : graph.postOrder()) {
        if (!op->isPlaceholder())
            continue;
        ft::Buffer buf(op);
        for (int64_t i = 0; i < buf.numel(); ++i) {
            c = c * 6364136223846793005ULL + 1442695040888963407ULL;
            buf[i] = static_cast<float>(static_cast<int64_t>((c >> 33) % 7) -
                                        3);
        }
        buffers.emplace(op.get(), std::move(buf));
    }
    return buffers;
}

std::string
execCheck(const OpInput &input, const ft::OpConfig &config,
          const ft::Target &target, uint64_t seed)
{
    ft::MiniGraph graph(input.out);
    ft::BufferMap reference = integerInputs(graph, seed);
    ft::runGraphReference(graph, reference);
    const ft::Buffer &gold = reference.at(input.anchor.get());
    ft::BufferMap run = reference;
    run.erase(input.anchor.get());
    ft::Scheduled s = ft::generate(input.anchor, config, target);
    ft::runScheduled(s.nest, run, 1);
    const ft::Buffer &got = run.at(input.anchor.get());
    if (got.numel() != gold.numel())
        return "scheduled output has the wrong size";
    for (int64_t i = 0; i < gold.numel(); ++i) {
        if (got[i] != gold[i])
            return "scheduled output differs from the reference at " +
                   std::to_string(i);
    }
    return "";
}

struct GateResult
{
    int64_t checked = 0;
    int64_t execChecked = 0;
};

GateResult
gate(const Options &opt, const Inputs &in, Pass &pass, TrialCounters *tc)
{
    GateResult g;
    std::unordered_map<std::string, std::string> freshDigest;
    std::vector<int> execCandidates;
    const int n = static_cast<int>(pass.outcomes.size());
    for (int i = 0; i < n; ++i) {
        Outcome &o = pass.outcomes[static_cast<size_t>(i)];
        const Request &r = in.stream[static_cast<size_t>(i)];
        if (!o.done || !o.failure.empty())
            continue;
        const ft::Target &target = deviceTarget(r.device);
        ++g.checked;
        if (r.kind == Kind::Family) {
            const ft::ShapeFamily &family =
                in.families.at({r.layer, r.variant});
            auto table = in.service->dispatchTableFor(family.name,
                                                      target.deviceName());
            if (!table) {
                o.failure = "no published dispatch table";
                continue;
            }
            const ft::DispatchEntry &entry = table->lookup(r.shape);
            ft::OpConfig adapted = entry.config;
            ft::adaptSplitToExtent(adapted, family.dynamicAxis, r.shape);
            if (hexBits(entry.gflops) != hexBits(o.family->gflops) ||
                ft::serializeConfig(adapted) !=
                    ft::serializeConfig(o.family->config)) {
                o.failure = "serveShape answer differs from its table";
                continue;
            }
            o.failure = rescoreEntry(family, entry, target,
                                     ft::FamilyTuneOptions{}.samplesPerBucket);
            if (o.failure.empty())
                o.failure = rescore(family.instanceAnchor(r.shape), adapted,
                                    target, std::nullopt, tc);
            continue;
        }
        // Repeats are compared with the first answer below, except in
        // learned_search, where the shared model has moved on since.
        if (!r.fresh && opt.workload != Workload::LearnedSearch)
            continue;
        if (r.fresh)
            freshDigest[r.identity] = o.digest;
        if (r.kind == Kind::Op) {
            const OpInput &input = in.ops.at(r.op);
            o.failure = rescore(input.anchor, o.op->config, target,
                                o.op->gflops, tc);
            if (o.failure.empty() &&
                ft::flopsOf(input.anchor) <= kExecMaxFlops)
                execCandidates.push_back(i);
            continue;
        }
        // DAG: every tuned group re-scores, and the group seconds sum
        // (in order) to the reported total.
        const ft::graph::ComputeDag &dag = in.dags.at({r.net, r.batch});
        double total = 0.0;
        for (const auto &sub : o.dag->groups) {
            if (sub.tuned) {
                ft::graph::LoweredAnchor lowered =
                    ft::graph::lowerAnchor(dag, sub.anchor);
                ft::Operation anchor =
                    ft::anchorOp(ft::MiniGraph(lowered.output));
                std::string why = rescore(anchor, sub.report.config, target,
                                          sub.report.gflops, tc);
                if (!why.empty()) {
                    o.failure = "group " + sub.name + ": " + why;
                    break;
                }
            }
            total += sub.seconds;
        }
        if (o.failure.empty() &&
            hexBits(total) != hexBits(o.dag->totalSeconds))
            o.failure = "group seconds do not sum to totalSeconds";
    }
    // Repeats must return what the first occurrence returned.
    for (int i = 0; i < n; ++i) {
        Outcome &o = pass.outcomes[static_cast<size_t>(i)];
        const Request &r = in.stream[static_cast<size_t>(i)];
        if (!o.done || r.fresh || r.kind == Kind::Family ||
            opt.workload == Workload::LearnedSearch || !o.failure.empty())
            continue;
        auto it = freshDigest.find(r.identity);
        if (it != freshDigest.end() && it->second != o.digest)
            o.failure = "repeat answer differs from the first answer";
    }
    // Reference execution on a seeded sample of the smallest operators.
    ft::Rng pick(opt.seed ^ 0xe8ecULL);
    for (int k = 0; k < kExecChecks && !execCandidates.empty(); ++k) {
        const size_t j = pick.below(execCandidates.size());
        const int i = execCandidates[j];
        execCandidates.erase(execCandidates.begin() +
                             static_cast<std::ptrdiff_t>(j));
        Outcome &o = pass.outcomes[static_cast<size_t>(i)];
        const Request &r = in.stream[static_cast<size_t>(i)];
        o.failure = execCheck(in.ops.at(r.op), o.op->config,
                              deviceTarget(r.device), opt.seed + i);
        ++g.execChecked;
    }
    return g;
}

int64_t
failures(const Pass &pass, int64_t limit = 10)
{
    int64_t failed = 0;
    for (size_t i = 0; i < pass.outcomes.size(); ++i) {
        const Outcome &o = pass.outcomes[i];
        if (o.done && !o.failure.empty()) {
            if (failed < limit)
                std::printf("  FAILED request %zu: %s\n", i,
                            o.failure.c_str());
            ++failed;
        }
    }
    return failed;
}

/**
 * Compare the modeled metrics with the record an earlier run of the same
 * build and seed left behind (or leave one). True when they agree.
 */
bool
checkRecord(const Options &opt, const Modeled &m)
{
    const std::string path = opt.outDir + "/modeled-" + opt.stateKey + "-" +
                             workloadName(opt.workload) + "-" +
                             std::to_string(opt.seed) + ".txt";
    const std::string now = m.record();
    std::ifstream f(path);
    if (f) {
        std::stringstream ss;
        ss << f.rdbuf();
        if (ss.str() != now) {
            std::printf("  determinism: modeled metrics differ from an "
                        "earlier run of this seed\n%s--- now:\n%s",
                        ss.str().c_str(), now.c_str());
            return false;
        }
        std::printf("  determinism: modeled metrics bit-identical to an "
                    "earlier run of this seed\n");
        return true;
    }
    std::ofstream(path) << now;
    return true;
}

// ---------------------------------------------------------------------
// Reporting.

void
printLatencies(const char *label, const std::vector<double> &v)
{
    std::printf("  %-8s n=%-6zu p50=%.3f ms  p90=%.3f ms  max=%.3f ms\n",
                label, v.size(), percentile(v, 0.5), percentile(v, 0.9),
                v.empty() ? 0.0 : *std::max_element(v.begin(), v.end()));
}

/** Median of timed replays of `fn`. */
template <typename Fn>
double
timeMedianMs(int reps, Fn &&fn)
{
    std::vector<double> t;
    for (int k = 0; k < reps; ++k) {
        const int64_t t0 = nowNs();
        fn();
        t.push_back(msSince(t0));
    }
    return median(t);
}

/** What replaying journals measures. */
struct JournalReplay
{
    double appendUs = 0.0; ///< mean per journalAppend
    double bytes = 0.0;    ///< size of the original journals
    double totalNs = 0.0;  ///< all appends: the journal work of the pass
};

/** Replay every record of the journals in `files`, in order, into a
 *  fresh journal each, the way the pass appended them. */
JournalReplay
replayJournals(const std::vector<std::string> &files, const std::string &out)
{
    JournalReplay j;
    int64_t appends = 0, ns = 0;
    for (const std::string &file : files) {
        ft::JournalContents contents = ft::readJournal(file);
        j.bytes += static_cast<double>(fs::file_size(file));
        fs::remove(out);
        for (const std::string &rec : contents.records) {
            const int64_t t0 = nowNs();
            ft::journalAppend(out, contents.kind, rec);
            ns += nowNs() - t0;
            ++appends;
        }
    }
    fs::remove(out);
    j.totalNs = static_cast<double>(ns);
    j.appendUs = appends ? j.totalNs * 1e-3 / static_cast<double>(appends)
                         : 0.0;
    return j;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double
frac(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * The fixed number of requests a timed loop runs, or 0 to run for
 * --seconds. learned_search answers slow down as the shared journal grows
 * (every append re-reads it), so on a time limit the host's speed would
 * pick which answers are measured; its loop runs a fixed count scaled
 * from --seconds instead.
 */
int
timedRequests(const Options &opt)
{
    if (opt.workload != Workload::LearnedSearch)
        return 0;
    return std::max(modeledPrefix(opt.workload),
                    static_cast<int>(std::lround(kLearnedRequestsPerSecond *
                                                 opt.seconds)));
}

/** --trace 0: the timed loop, the gate and the end-to-end metrics. */
Result
timedRun(const Options &opt, Inputs &in, std::vector<double> setupSeconds,
         HostSpeed &host)
{
    Result res;
    const int fixed = timedRequests(opt);
    Pass pass = fixed > 0 ? runPass(opt, in, fixed, 0.0, nullptr, nullptr,
                                    &host)
                          : runPass(opt, in, modeledPrefix(opt.workload),
                                    opt.seconds, nullptr, nullptr, &host);
    const GateResult g = gate(opt, in, pass, nullptr);
    const Modeled m = modeledOf(opt, in, pass);
    std::vector<double> fresh, repeat, rawFresh, rawRepeat;
    int64_t trials = 0;
    for (size_t i = 0; i < pass.outcomes.size(); ++i) {
        const Outcome &o = pass.outcomes[i];
        if (!o.done)
            continue;
        const double mid = static_cast<double>(o.startNs) + o.wallMs * 5e5;
        (in.stream[i].fresh ? fresh : repeat)
            .push_back(o.wallMs / host.factorAt(static_cast<int64_t>(mid)));
        (in.stream[i].fresh ? rawFresh : rawRepeat).push_back(o.wallMs);
        trials += o.trials;
    }
    if (in.service)
        trials = static_cast<int64_t>(pass.serviceEvals);
    res.attempted = pass.completed;
    res.failed = failures(pass);
    if (!checkRecord(opt, m))
        ++res.failed;
    std::printf("  requests=%lld wall=%.3f s trials=%lld checked=%lld "
                "exec.checked=%lld\n",
                static_cast<long long>(pass.completed), pass.wallSeconds,
                static_cast<long long>(trials),
                static_cast<long long>(g.checked),
                static_cast<long long>(g.execChecked));
    printLatencies("fresh", rawFresh);
    printLatencies("repeat", rawRepeat);
    if (opt.workload == Workload::NetworkServe) {
        // Where the client time goes, by request kind: the measured side
        // of the traffic mix, which is itself an assumption.
        const char *kinds[] = {"tune", "tuneDag", "serveShape"};
        double ms[3][2] = {}, all = 0.0;
        int64_t count[3][2] = {};
        for (size_t i = 0; i < pass.outcomes.size(); ++i) {
            if (!pass.outcomes[i].done)
                continue;
            const int k = static_cast<int>(in.stream[i].kind);
            const int f = in.stream[i].fresh ? 0 : 1;
            ms[k][f] += pass.outcomes[i].wallMs;
            count[k][f] += 1;
            all += pass.outcomes[i].wallMs;
        }
        for (int k = 0; k < 3; ++k) {
            std::printf("  %-10s fresh n=%-5lld %5.1f%% of client time, "
                        "repeat n=%-5lld %5.1f%%\n",
                        kinds[k], static_cast<long long>(count[k][0]),
                        100.0 * frac(ms[k][0], all),
                        static_cast<long long>(count[k][1]),
                        100.0 * frac(ms[k][1], all));
        }
    }
    std::printf("  error_rate %.6f fraction (failed %lld of %lld)\n",
                frac(static_cast<double>(res.failed),
                     static_cast<double>(res.attempted)),
                static_cast<long long>(res.failed),
                static_cast<long long>(res.attempted));
    // Wall-clock metrics on the reference host's scale (host_speed.h):
    // set-up and latencies by the host speed around each, rates over the
    // loop's wall time scaled 100 ms at a time.
    const double f = host.factor();
    const double loopSeconds = host.normalizedSeconds(pass.startNs,
                                                      pass.endNs);
    std::printf("  host speed: probe %.4f x reference (%d samples, %.3f s); "
                "raw requests/s %.3f, trials/s %.1f\n",
                f, host.samples(), host.overheadSeconds(),
                static_cast<double>(pass.completed) / pass.wallSeconds,
                static_cast<double>(trials) / pass.wallSeconds);
    res.metrics = {
        {"setup_s", median(std::move(setupSeconds)), "s"},
        {"requests_per_s",
         static_cast<double>(pass.completed) / loopSeconds, "1/s"},
        {"request_p50_ms", percentile(fresh, 0.5), "ms"},
        {"request_p90_ms", percentile(fresh, 0.9), "ms"},
        {"repeat_p50_ms", percentile(repeat, 0.5), "ms"},
        {"repeat_p90_ms", percentile(repeat, 0.9), "ms"},
        {"trials_per_s", static_cast<double>(trials) / loopSeconds, "1/s"},
        {"tuned_gflops_geomean", m.gflopsGeomean, "GFLOPS"},
        {"network_latency_ms", m.latencyMsGeomean, "ms"},
        {"modeled_explore_s", m.exploreSeconds, "s"},
        {"peak_rss_mb", pass.prefixRssMb, "MB"},
    };
    res.correct = res.failed == 0;
    return res;
}

/** What the learned_search replays measure. */
struct MlReplay
{
    double gbtFitMs = 0.0, gbtFitRankMs = 0.0, gbtPredictUs = 0.0;
    double refits = 0.0, pruneKeep = 0.0;
    /** Estimated ml time inside the explorers of the traced pass. */
    double estimateNs = 0.0;
};

/**
 * Replay the ml layer on the traced pass's own data: AutoTVM's GBT fits
 * (every fourth round of 8 measurements), the cost model's refit
 * (GbtModel::fitRank on its final trial window, without the journal
 * append refitNow adds) and CostModel::predict on the final model.
 */
MlReplay
replayMl(const Options &opt, ft::CostModel &model, const TraceData &td,
         const ft::MetricsSnapshot &reg)
{
    MlReplay ml;
    ml.refits = static_cast<double>(model.refits());
    std::vector<double> fits;
    double fitEstimateMs = 0.0;
    ft::Rng rng(opt.seed);
    for (const auto &set : td.autotvmSets) {
        double sampledMs = 0.0;
        int rounds = 0, sampled = 0;
        for (size_t n = 8; n <= set.x.size(); n += 8, ++rounds) {
            if (rounds % 4 != 3)
                continue;
            std::vector<std::vector<double>> x(set.x.begin(),
                                               set.x.begin() + n);
            std::vector<double> y(set.y.begin(), set.y.begin() + n);
            ft::GbtModel gbt;
            const double ms = timeMedianMs(
                1, [&] { gbt.fit(x, y, ft::GbtOptions{}, rng); });
            fits.push_back(ms);
            sampledMs += ms;
            ++sampled;
        }
        if (sampled)
            fitEstimateMs += sampledMs / sampled * rounds;
    }
    ml.gbtFitMs = meanOf(fits);

    // The model's window: the last maxTrials recorded trials.
    const ft::CostModelOptions options = learnedModelOptions("");
    const auto &all = td.costTrials;
    const size_t from = all.x.size() > options.maxTrials
                            ? all.x.size() - options.maxTrials
                            : 0;
    const std::vector<std::vector<double>> x(all.x.begin() + from,
                                             all.x.end());
    const std::vector<double> y(all.y.begin() + from, all.y.end());
    const std::vector<uint64_t> groups(td.costGroups.begin() + from,
                                       td.costGroups.end());
    if (!x.empty()) {
        ml.gbtFitRankMs = timeMedianMs(3, [&] {
            ft::GbtModel gbt;
            ft::Rng fitRng(opt.seed);
            gbt.fitRank(x, y, groups, options.gbt, fitRng);
        });
    }
    int64_t predictNs = 0;
    double sink = 0.0;
    for (const auto &f : x) {
        const int64_t t0 = nowNs();
        sink += model.predict(f);
        predictNs += nowNs() - t0;
    }
    (void)sink;
    ml.gbtPredictUs = frac(static_cast<double>(predictNs) * 1e-3,
                           static_cast<double>(x.size()));
    const double kept =
        static_cast<double>(reg.counter("costmodel.prune.kept"));
    const double dropped =
        static_cast<double>(reg.counter("costmodel.prune.dropped"));
    ml.pruneKeep = frac(kept, kept + dropped);
    ml.estimateNs = fitEstimateMs * 1e6 +
                    ml.refits * ml.gbtFitRankMs * 1e6 +
                    (kept + dropped) * ml.gbtPredictUs * 1e3 +
                    static_cast<double>(td.costFeatureNs);
    return ml;
}

/** Per-layer self times of the traced pass. */
struct Attribution
{
    std::vector<std::pair<std::string, double>> layers; ///< name, ns
    double totalNs = 0.0;
    double probeNs = 0.0; ///< the traced run's own probe calls
    /** Explorer self time net of scoring and the Q-network. */
    double exploreSelfNs = 0.0;
    const char *basis = "";
    const char *note = "";
};

/**
 * op_search / learned_search: one thread, so spans give wall self times,
 * and the timing evaluator's counters split the explorer's scoring. In
 * learned_search the explorer span also holds GBT and journal work that
 * only the replays estimate; the explorer's own time then cannot be
 * told apart from an estimate's error and stays unattributed.
 */
Attribution
attributeOps(const SpanFold &fold, const TrialCounters &tc,
             double qForwardNs, const double *mlEstimateNs,
             double journalEstimateNs)
{
    Attribution a;
    a.basis = "wall time, 1 thread";
    a.totalNs = static_cast<double>(fold.rootNs);
    a.exploreSelfNs = static_cast<double>(fold.at("explore.run").selfNs) -
                      static_cast<double>(tc.scoringNs()) - qForwardNs;
    a.layers = {
        {"space", static_cast<double>(fold.at("space.build").selfNs +
                                      tc.decodeNs)},
        {"schedule", static_cast<double>(tc.lowerNs)},
        {"analysis", static_cast<double>(tc.verifyNs)},
        {"sim", static_cast<double>(tc.modelNs)},
        {"nn", qForwardNs},
        {"report (decode+lower+model)",
         static_cast<double>(fold.at("report").selfNs)},
    };
    if (mlEstimateNs) {
        a.layers.emplace_back("ml (replay estimate)", *mlEstimateNs);
        a.layers.emplace_back("support (replay estimate)",
                              journalEstimateNs);
        a.note = "explorer logic and AutoTVM's own predict calls are in "
                 "unattributed; a replay estimate's error shows there too";
    } else {
        a.layers.emplace_back("explore", a.exploreSelfNs);
    }
    return a;
}

/**
 * network_serve: the work runs on two client threads and the service's
 * evaluation pool, so the attribution is of the process's CPU time over
 * the traced pass, less the traced run's own client-side probes. Layers
 * come from the service's per-trial wall counters (its pool threads are
 * busy while they run), the partitionDag probe, and estimates for
 * modelPerf (the gate's per-call cost times the evaluations), dispatch
 * lookups and journal appends. Everything else is unattributed.
 */
Attribution
attributeServe(double cpuNs, const TraceData &td, const TrialCounters &tc,
               double qForwardNs, double evals, double familyRequests,
               double journalNs)
{
    Attribution a;
    a.basis = "CPU time, all threads";
    a.probeNs = static_cast<double>(td.probeCpuNs);
    a.totalNs = cpuNs - a.probeNs;
    a.layers = {
        {"graph (partitionDag probe)",
         static_cast<double>(td.partitionCpuNs)},
        {"space (decode)", static_cast<double>(tc.decodeNs)},
        {"schedule (lower)", static_cast<double>(tc.lowerNs)},
        {"analysis (verify)", static_cast<double>(tc.verifyNs)},
        {"sim (modelPerf, estimate)",
         evals * frac(static_cast<double>(tc.modelNs),
                      static_cast<double>(tc.modeled))},
        {"nn (Q forward)", qForwardNs},
        {"family (dispatch lookup, estimate)",
         familyRequests * meanOf(td.lookupNs)},
        {"support (journal, replay estimate)", journalNs},
    };
    a.note = "explorer logic, service, graph lowering and family work "
             "outside scoring are in unattributed";
    return a;
}

/** Print the attribution; returns the unattributed fraction. */
double
printAttribution(const Attribution &a)
{
    double attributed = 0.0;
    std::printf("  attribution of %.3f s traced %s (%.3f s of probe calls "
                "excluded):\n",
                a.totalNs * 1e-9, a.basis, a.probeNs * 1e-9);
    for (const auto &[name, ns] : a.layers) {
        attributed += ns;
        std::printf("    %-36s %9.3f s  %6.2f%%\n", name.c_str(), ns * 1e-9,
                    100.0 * frac(ns, a.totalNs));
    }
    const double unattributed = frac(a.totalNs - attributed, a.totalNs);
    std::printf("    %-36s %9.3f s  %6.2f%%\n", "unattributed",
                (a.totalNs - attributed) * 1e-9, 100.0 * unattributed);
    if (*a.note)
        std::printf("    (%s)\n", a.note);
    if (unattributed < 0.0) {
        std::printf("  named layers' estimates exceed the traced time by "
                    "%.2f%%: the 95%% aim cannot be judged\n",
                    -100.0 * unattributed);
    } else {
        std::printf("  named layers cover %.2f%% of traced time (%s the "
                    "95%% aim)\n",
                    100.0 * (1.0 - unattributed),
                    unattributed <= 0.05 ? "meets" : "misses");
    }
    return unattributed;
}

/**
 * --trace 1: the modeled prefix untraced, then traced on fresh state,
 * the replays, the attribution and the per-layer metrics.
 */
Result
tracedRun(const Options &opt, Inputs &in, const std::string &scratch)
{
    Result res;
    const int prefix = modeledPrefix(opt.workload);
    // Each pass starts from fresh stateful objects in its own directory.
    auto freshState = [&](const std::string &dir) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        if (in.costModel)
            in.costModel = makeCostModel(dir);
        if (in.service) {
            in.service.reset();
            in.service = makeService(dir);
        }
    };
    // A warm-up pass on the set-up's objects, then an untraced and a
    // traced pass: the overhead compares the last two, both warm.
    Pass warm = runPass(opt, in, prefix, 0.0, nullptr, nullptr);
    const Modeled warmModeled = modeledOf(opt, in, warm);
    freshState(scratch + "/plain");
    Pass plain = runPass(opt, in, prefix, 0.0, nullptr, nullptr);
    const Modeled plainModeled = modeledOf(opt, in, plain);
    const std::string tracedDir = scratch + "/traced";
    freshState(tracedDir);
    TraceData td;
    std::vector<SpanRecorder> recs(
        opt.workload == Workload::NetworkServe ? kServeClients : 1);
    const int64_t cpu0 = cpuNs(CLOCK_PROCESS_CPUTIME_ID);
    Pass traced = runPass(opt, in, prefix, 0.0, &recs, &td);
    const double tracedCpuNs =
        static_cast<double>(cpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0);
    const Modeled tracedModeled = modeledOf(opt, in, traced);
    TrialCounters gateCounters;
    const GateResult g = gate(opt, in, traced, &gateCounters);

    res.attempted = warm.completed + plain.completed + traced.completed;
    res.failed = failures(warm) + failures(plain) + failures(traced);
    for (const Modeled *other : {&warmModeled, &tracedModeled}) {
        if (other->record() != plainModeled.record()) {
            std::printf("  determinism: passes of one seed differ\n%s"
                        "--- vs:\n%s",
                        plainModeled.record().c_str(),
                        other->record().c_str());
            ++res.failed;
        }
    }
    if (!checkRecord(opt, plainModeled))
        ++res.failed;

    std::vector<std::string> journals;
    if (in.costModel)
        journals.push_back(tracedDir + "/costmodel.ftj");
    if (in.service) {
        for (const auto &e : fs::directory_iterator(tracedDir + "/dispatch"))
            journals.push_back(e.path().string());
        std::sort(journals.begin(), journals.end());
    }
    const JournalReplay journal =
        replayJournals(journals, tracedDir + "/replay.ftj");
    const ft::MetricsSnapshot reg = td.registry.snapshot();
    MlReplay ml;
    if (in.costModel)
        ml = replayMl(opt, *in.costModel, td, reg);

    SpanFold fold;
    std::vector<const SpanRecorder *> recPtrs;
    for (const SpanRecorder &rec : recs) {
        fold.add(rec);
        recPtrs.push_back(&rec);
    }
    writeSpans(opt.outDir + "/spans-" + workloadName(opt.workload) + "-" +
                   std::to_string(opt.seed) + ".tsv",
               recPtrs);

    TrialCounters tc = td.trial;
    double qForwardNs = static_cast<double>(reg.counter("q.forward_batch.ns"));
    double qSteps = static_cast<double>(td.qSteps);
    Attribution attribution;
    double lruHit = 0, coalesced = 0, runs = 0, dispatchHit = 0;
    if (in.service) {
        const ft::ServiceStats st = in.service->stats();
        const auto &m = st.metrics;
        // Per-trial counters the library keeps under wallProfile.
        tc.trials = static_cast<int64_t>(m.counter("explore.evals"));
        tc.decodeNs = static_cast<int64_t>(m.counter("eval.decode.ns"));
        tc.lowerNs = static_cast<int64_t>(m.counter("eval.lower.ns"));
        tc.verifyNs = static_cast<int64_t>(m.counter("eval.verify.ns"));
        tc.rejected = static_cast<int64_t>(m.counter("verify.rejected"));
        // modelPerf has no counter inside the service; the gate's
        // re-scoring of every returned schedule times it instead.
        tc.modelNs = gateCounters.modelNs;
        tc.modeled = gateCounters.modeled;
        tc.invalid = gateCounters.invalid;
        tc.nestLoops = gateCounters.nestLoops;
        qForwardNs = static_cast<double>(m.counter("q.forward_batch.ns"));
        qSteps = static_cast<double>(m.counter("explore.steps"));
        attribution = attributeServe(
            tracedCpuNs, td, tc, qForwardNs,
            static_cast<double>(tc.trials - tc.rejected),
            static_cast<double>(st.familyRequests), journal.totalNs);
        lruHit = frac(static_cast<double>(st.resultCacheHits),
                      static_cast<double>(st.requests));
        coalesced = frac(static_cast<double>(st.coalescedJoins),
                         static_cast<double>(traced.completed));
        runs = static_cast<double>(st.tuningRuns);
        dispatchHit = frac(static_cast<double>(st.dispatchHits),
                           static_cast<double>(st.familyRequests));
        std::printf("  service: requests=%llu lru_hits=%llu joins=%llu "
                    "tuning_runs=%llu dispatch_hits=%llu graph_hits=%llu\n",
                    static_cast<unsigned long long>(st.requests),
                    static_cast<unsigned long long>(st.resultCacheHits),
                    static_cast<unsigned long long>(st.coalescedJoins),
                    static_cast<unsigned long long>(st.tuningRuns),
                    static_cast<unsigned long long>(st.dispatchHits),
                    static_cast<unsigned long long>(st.graphCacheHits));
        std::printf("  per-trial work (all threads): decode %.3f s, lower "
                    "%.3f s, verify %.3f s, q-forward %.3f s over %lld "
                    "trials\n",
                    static_cast<double>(tc.decodeNs) * 1e-9,
                    static_cast<double>(tc.lowerNs) * 1e-9,
                    static_cast<double>(tc.verifyNs) * 1e-9,
                    qForwardNs * 1e-9, static_cast<long long>(tc.trials));
    } else {
        attribution = attributeOps(fold, tc, qForwardNs,
                                   in.costModel ? &ml.estimateNs : nullptr,
                                   journal.totalNs);
    }
    const double unattributed = printAttribution(attribution);
    const double overhead = traced.wallSeconds / plain.wallSeconds - 1.0;
    std::printf("  tracing overhead: traced %.3f s vs untraced %.3f s "
                "(%+.2f%%)\n",
                traced.wallSeconds, plain.wallSeconds, 100.0 * overhead);
    std::printf("  self-check: %lld sampled points re-scored by the base "
                "Evaluator\n",
                static_cast<long long>(td.selfChecked));

    const double trials = static_cast<double>(tc.trials);
    const double modeled = static_cast<double>(tc.modeled);
    const double lowered = in.service ? modeled : trials;
    res.metrics = {
        {"space.build_ms", meanOf(td.spaceBuildMs), "ms"},
        {"space.decode_ns", frac(static_cast<double>(tc.decodeNs), trials),
         "ns"},
        {"schedule.lower_ns", frac(static_cast<double>(tc.lowerNs), trials),
         "ns"},
        {"schedule.nest_loops",
         frac(static_cast<double>(tc.nestLoops), lowered), "count"},
        {"verify.ns", frac(static_cast<double>(tc.verifyNs), trials), "ns"},
        {"verify.reject_frac",
         frac(static_cast<double>(tc.rejected), trials), "fraction"},
        {"sim.model_ns", frac(static_cast<double>(tc.modelNs), modeled),
         "ns"},
        {"sim.invalid_frac", frac(static_cast<double>(tc.invalid), modeled),
         "fraction"},
        {"explore.self_us_per_trial",
         frac(std::max(0.0, attribution.exploreSelfNs) * 1e-3, trials),
         "us"},
        {"explore.trials", trials, "count"},
        {"nn.forward_batch_us", frac(qForwardNs * 1e-3, qSteps), "us"},
        {"ml.gbt_fit_ms", ml.gbtFitMs, "ms"},
        {"ml.gbt_fit_rank_ms", ml.gbtFitRankMs, "ms"},
        {"ml.gbt_predict_us", ml.gbtPredictUs, "us"},
        {"ml.refits", ml.refits, "count"},
        {"ml.prune_keep_frac", ml.pruneKeep, "fraction"},
        {"journal.append_us", journal.appendUs, "us"},
        {"journal.bytes", journal.bytes, "bytes"},
        {"serve.lru_hit_frac", lruHit, "fraction"},
        {"serve.coalesced_frac", coalesced, "fraction"},
        {"serve.tuning_runs", runs, "count"},
        {"serve.eval_queue_depth_max", static_cast<double>(td.maxEvalQueue),
         "count"},
        {"family.tune_ms", meanOf(td.familyTuneMs), "ms"},
        {"family.dispatch_lookup_ns", meanOf(td.lookupNs), "ns"},
        {"family.dispatch_hit_frac", dispatchHit, "fraction"},
        {"graph.partition_ms", meanOf(td.partitionMs), "ms"},
        {"graph.tune_ms", meanOf(td.dagTuneMs), "ms"},
        {"graph.groups", meanOf(td.groups), "count"},
        {"graph.traffic_mb", meanOf(td.trafficMb), "MB"},
        {"dnn.dag_build_ms", meanOf(in.dagBuildMs), "ms"},
        {"exec.checked", static_cast<double>(g.execChecked), "count"},
        {"unattributed_frac", unattributed, "fraction"},
        {"trace.overhead_frac", overhead, "fraction"},
    };
    res.correct = res.failed == 0;
    return res;
}

} // namespace

Result
runBenchmark(const Options &opt)
{
    fs::create_directories(opt.outDir);
    const std::string scratch = opt.outDir + "/scratch-" +
                                workloadName(opt.workload) + "-" +
                                std::to_string(opt.seed);
    std::printf("== %s seed=%llu seconds=%g trace=%d\n",
                workloadName(opt.workload),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);

    if (!opt.trace) {
        // Warm the host and the process on another seed's stream, on
        // state of its own, so set-up and the first timed requests are
        // not cold.
        Options warmOpt = opt;
        warmOpt.seed = opt.seed ^ 0x5eedf00dull;
        std::unique_ptr<Inputs> warm =
            setUp(warmOpt, scratch + "/warm-up");
        runPass(warmOpt, *warm, 0, kWarmupSeconds, nullptr, nullptr);
    }

    // Set-up, repeated; the last one is used.
    std::vector<double> setupSeconds;
    std::unique_ptr<Inputs> in;
    HostSpeed host;
    const int repeats = opt.trace ? 1 : kSetupRepeats;
    std::vector<int64_t> setupStartNs;
    for (int k = 0; k < repeats; ++k) {
        in.reset();
        host.sample();
        const int64_t t0 = nowNs();
        in = setUp(opt, scratch + "/setup" + std::to_string(k));
        setupSeconds.push_back(msSince(t0) * 1e-3);
        setupStartNs.push_back(t0);
    }
    std::printf("  set-up ms:");
    for (size_t k = 0; k < setupSeconds.size(); ++k) {
        std::printf(" %.2f", setupSeconds[k] * 1e3);
        setupSeconds[k] /= host.factorAt(setupStartNs[k]);
    }
    std::printf("\n");
    Result res = opt.trace ? tracedRun(opt, *in, scratch)
                           : timedRun(opt, *in, std::move(setupSeconds), host);
    in.reset();
    fs::remove_all(scratch);
    return res;
}

} // namespace perfbench
