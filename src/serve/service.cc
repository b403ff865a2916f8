#include "serve/service.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <type_traits>

#include "analysis/static_analyzer.h"
#include "support/logging.h"

namespace ft {

namespace {

/**
 * Builds a request key: `|tag=value` fields appended to one string.
 * Strings are length-prefixed and reals are written in shortest
 * round-trip form, so two keys are equal exactly when every field is.
 */
class KeyWriter
{
  public:
    KeyWriter() { key_.reserve(256); }

    template <typename T>
    KeyWriter &put(const char *tag, const T &value)
    {
        key_ += '|';
        key_ += tag;
        key_ += '=';
        if constexpr (std::is_convertible_v<T, std::string_view>) {
            const std::string_view s = value;
            number(s.size());
            key_ += ':';
            key_ += s;
        } else if constexpr (std::is_same_v<T, bool>) {
            key_ += value ? '1' : '0';
        } else {
            number(value);
        }
        return *this;
    }

    std::string take() { return std::move(key_); }

  private:
    template <typename N>
    void number(N value)
    {
        char buf[32];
        const auto res = std::to_chars(buf, buf + sizeof(buf), value);
        key_.append(buf, res.ptr);
    }

    std::string key_;
};

/**
 * The one field list behind every request key: each option that can
 * change a returned report. Pointers stay out (pool, cache, obs sinks),
 * except the cost model as an on/off bit; so does the checkpoint
 * period, which never changes a result.
 */
void
putSearchFields(KeyWriter &k, Method method, bool templateRestricted,
                bool certify, const ExploreOptions &e)
{
    k.put("method", static_cast<int>(method))
        .put("tmpl", templateRestricted)
        .put("certify", certify)
        .put("trials", e.trials)
        .put("starts", e.startingPoints)
        .put("warmup", e.warmupPoints)
        .put("gamma", e.saGamma)
        .put("eps", e.epsilon)
        .put("qalpha", e.qAlpha)
        .put("train", e.trainEvery)
        .put("replay", e.replayBatch)
        .put("hidden", e.hidden)
        .put("seed", e.seed)
        .put("target", e.targetGflops)
        .put("step", e.stepOverheadSeconds)
        .put("par", e.measureParallelism)
        .put("deadline", e.deadlineSimSeconds)
        .put("ckpt", e.checkpointPath)
        .put("cm", e.costModel != nullptr)
        .put("prune", e.prunerKeep)
        .put("seeds", e.seedPoints.size());
    for (const Point &p : e.seedPoints)
        k.put("pt", p.key());
    // The fault profile and retry policy shape the result only when an
    // injector is live; otherwise the policy layer is a no-op.
    const ResilienceOptions &r = e.resilience;
    if (r.injector && r.injector->profile().enabled()) {
        k.put("faults", r.injector->profile().fingerprint())
            .put("retries", r.maxRetries)
            .put("backoff", r.backoffBaseSeconds)
            .put("tdl", r.trialDeadlineSeconds)
            .put("rep", r.repeats);
    }
}

std::string
opRequestKey(const std::string &opKey, const TuneOptions &options)
{
    KeyWriter k;
    k.put("op", opKey);
    putSearchFields(k, options.method, options.templateRestricted,
                    options.certify, options.explore);
    return k.take();
}

std::string
graphRequestKey(const graph::ComputeDag &dag, const Target &target,
                const TuneOptions &options)
{
    KeyWriter k;
    k.put("dag", dag.spec()).put("device", target.deviceName());
    putSearchFields(k, options.method, options.templateRestricted,
                    options.certify, options.explore);
    return k.take();
}

std::string
familyRequestKey(const ShapeFamily &family, const Target &target,
                 const FamilyTuneOptions &options)
{
    KeyWriter k;
    k.put("family", family.name)
        .put("device", target.deviceName())
        .put("lo", family.var.lo)
        .put("hi", family.var.hi)
        .put("bucketing", static_cast<int>(family.var.bucketing))
        .put("width", family.var.bucketWidth)
        .put("axis", family.dynamicAxis)
        .put("samples", options.samplesPerBucket)
        .put("pow2", options.space.pow2Splits)
        .put("ru", options.space.exploreReorderUnroll)
        .put("ca", options.space.exploreCacheAt);
    putSearchFields(k, options.method, options.space.templateRestricted,
                    options.certify, options.explore);
    return k.take();
}

/** The (family, device) slot of a published dispatch table. */
std::string
dispatchSlot(const std::string &familyName, const std::string &device)
{
    return familyName + "@" + device;
}

/** Fill `out` from the bucket entry serving `shape`, its dynamic split
 *  re-fit to the shape. */
void
answerFromEntry(const DispatchEntry &entry, const ShapeFamily &family,
                int64_t shape, FamilyServeResult &out)
{
    out.config = entry.config;
    adaptSplitToExtent(out.config, family.dynamicAxis, shape);
    out.gflops = entry.gflops;
    out.bucket = {entry.lo, entry.hi};
}

/**
 * Completes an admission ticket exactly once, on every exit path; an
 * exception counts as a failure for the op's circuit breaker.
 */
struct TicketScope
{
    AdmissionController &admission;
    const std::string &opKey;
    uint64_t ticket;
    const std::function<double()> &clock;
    bool success = false;

    ~TicketScope() { admission.onComplete(opKey, ticket, clock(), success); }
};

constexpr const char *kRunFailed =
    "code=FT-ADM-RUN-FAILED why=\"tuning run produced no valid schedule\"";

} // namespace

TuningService::TuningService(const ServiceOptions &options)
    : options_(options),
      evalPool_(options.evalThreads),
      requestPool_(options.requestThreads),
      requests_(metrics_.counter("service.requests")),
      resultCacheHits_(metrics_.counter("service.result_cache_hits")),
      persistentCacheHits_(
          metrics_.counter("service.persistent_cache_hits")),
      coalescedJoins_(metrics_.counter("service.coalesced_joins")),
      tuningRuns_(metrics_.counter("service.tuning_runs")),
      evaluations_(metrics_.counter("service.evaluations")),
      failures_(metrics_.counter("service.failures")),
      retries_(metrics_.counter("service.retries")),
      timeouts_(metrics_.counter("service.timeouts")),
      quarantined_(metrics_.counter("service.quarantined")),
      degradedReports_(metrics_.counter("service.degraded_reports")),
      familyRequests_(metrics_.counter("service.family_requests")),
      dispatchHits_(metrics_.counter("service.dispatch_hits")),
      brownoutServed_(metrics_.counter("service.brownout_served")),
      graphRequests_(metrics_.counter("service.graph_requests")),
      graphCacheHits_(metrics_.counter("service.graph_cache_hits"))
{
    if (!options_.clock) {
        options_.clock = [] {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now()
                           .time_since_epoch())
                .count();
        };
    }
    AdmissionOptions admission = options_.admission;
    if (admission.workers <= 0)
        admission.workers = std::max(1, options_.requestThreads);
    if (!admission.metrics)
        admission.metrics = &metrics_;
    admission_ = std::make_unique<AdmissionController>(admission);
    if (options_.enableCostModel) {
        costModel_ = std::make_unique<CostModel>(options_.costModel);
        if (!options_.costModel.persistPath.empty())
            costModel_->load(); // a missing/fresh journal is fine
        if (!options_.costModel.syncRefit)
            costModel_->startBackgroundRefit();
    }
    if (!options_.dispatchDir.empty())
        reloadDispatchTables();
}

void
TuningService::attachServiceState(ExploreOptions &explore)
{
    explore.evalPool = &evalPool_;
    if (explore.measureParallelism == 0)
        explore.measureParallelism = evalPool_.numThreads();
    // A request without its own registry aggregates its exploration
    // metrics into the service-wide one. Traces stay per-request: a
    // shared timeline would interleave concurrent runs.
    if (!explore.obs.metrics)
        explore.obs.metrics = &metrics_;
    if (costModel_ && !explore.costModel)
        explore.costModel = costModel_.get();
}

const TuneReport *
TuningService::lruGet(const std::string &key)
{
    auto it = lruIndex_.find(key);
    if (it == lruIndex_.end())
        return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &lru_.front().second;
}

void
TuningService::lruPut(const std::string &key, const TuneReport &report)
{
    auto it = lruIndex_.find(key);
    if (it != lruIndex_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second);
        lru_.front().second = report;
        return;
    }
    lru_.emplace_front(key, report);
    lruIndex_.emplace(lru_.front().first, lru_.begin());
    while (lru_.size() > options_.resultCacheCapacity) {
        lruIndex_.erase(lru_.back().first);
        lru_.pop_back();
    }
}

AdmissionDecision
TuningService::admitOp(const std::string &opKey, TuneOptions &options,
                       const RequestOptions &request, ServedReport &out)
{
    // Service state first: the cost-model bit is part of the request
    // key, so a brownout lookup must see the same options a run would.
    attachServiceState(options.explore);
    const double now = options_.clock();
    const AdmissionDecision decision = admission_->admit(
        opKey, request.priority, now, now + request.deadlineSeconds);
    out.outcome = decision.outcome;
    out.reason = decision.reason;
    if (decision.admitted()) {
        propagateBudget(options.explore, decision.budgetSeconds);
    } else if (decision.outcome == AdmissionOutcome::Brownout) {
        // Degraded mode: only the LRU report cache may answer — never
        // start fresh tuning work while saturated.
        const std::string key = opRequestKey(opKey, options);
        MutexLock lock(mu_);
        if (const TuneReport *hit = lruGet(key)) {
            resultCacheHits_.add();
            brownoutServed_.add();
            static_cast<TuneReport &>(out) = *hit;
            out.fromCache = true;
            out.degradedAnswer = true;
            out.reason.clear();
        }
    }
    return decision;
}

ServedReport
TuningService::runWithTicket(const Operation &anchor, const Target &target,
                             const std::string &opKey, uint64_t ticket,
                             TuneOptions options)
{
    TicketScope done{*admission_, opKey, ticket, options_.clock};
    ServedReport out;
    static_cast<TuneReport &>(out) =
        runOp(anchor, target, opKey, std::move(options));
    done.success = out.gflops > 0.0;
    if (!done.success) {
        out.outcome = AdmissionOutcome::Shed;
        out.reason = kRunFailed;
    }
    return out;
}

TuneReport
TuningService::runOp(const Operation &anchor, const Target &target,
                     const std::string &opKey, TuneOptions options)
{
    const std::string key = opRequestKey(opKey, options);
    requests_.add();
    metrics_.counter("service.method." + methodName(options.method)).add();
    InflightRuns<TuneReport>::Claim claim;
    {
        MutexLock lock(mu_);
        if (const TuneReport *hit = lruGet(key)) {
            resultCacheHits_.add();
            TuneReport report = *hit;
            report.fromCache = true;
            return report;
        }
        claim = inflight_.claim(key);
    }
    (claim.owner ? tuningRuns_ : coalescedJoins_).add();
    if (!claim.owner)
        return claim.future.get();

    if (options_.persistentCache && !options.cache)
        options.cache = options_.persistentCache;
    TuneReport report = ft::tuneOp(anchor, target, options);
    evaluations_.add(static_cast<uint64_t>(report.trials));
    failures_.add(report.failures);
    retries_.add(report.retries);
    timeouts_.add(report.timeouts);
    quarantined_.add(report.quarantined);
    if (report.degraded)
        degradedReports_.add();
    if (report.fromCache)
        persistentCacheHits_.add();
    {
        MutexLock lock(mu_);
        lruPut(key, report);
        inflight_.release(key);
    }
    claim.promise.set_value(report);
    return report;
}

ServedReport
TuningService::tuneAnchor(const Operation &anchor, const Target &target,
                          TuneOptions options, RequestOptions request)
{
    const std::string opKey = tuningKeyFor(anchor, target.deviceName());
    ServedReport out;
    const AdmissionDecision decision =
        admitOp(opKey, options, request, out);
    if (!decision.admitted())
        return out;
    return runWithTicket(anchor, target, opKey, decision.ticket,
                         std::move(options));
}

ServedReport
TuningService::tune(const Tensor &output, const Target &target,
                    TuneOptions options, RequestOptions request)
{
    MiniGraph graph(output);
    return tuneAnchor(anchorOp(graph), target, std::move(options), request);
}

std::future<ServedReport>
TuningService::submit(const Tensor &output, const Target &target,
                      TuneOptions options, RequestOptions request)
{
    // The admission decision happens here, synchronously: a refused
    // request never occupies a request-pool slot.
    MiniGraph graph(output);
    const Operation anchor = anchorOp(graph);
    const std::string opKey = tuningKeyFor(anchor, target.deviceName());
    ServedReport out;
    const AdmissionDecision decision =
        admitOp(opKey, options, request, out);
    if (!decision.admitted()) {
        std::promise<ServedReport> ready;
        ready.set_value(std::move(out));
        return ready.get_future();
    }
    auto task = std::make_shared<std::packaged_task<ServedReport()>>(
        [this, anchor, target, opKey, ticket = decision.ticket,
         options = std::move(options)]() mutable {
            return runWithTicket(anchor, target, opKey, ticket,
                                 std::move(options));
        });
    std::future<ServedReport> future = task->get_future();
    requestPool_.submit([task] { (*task)(); });
    return future;
}

FamilyTuneReport
TuningService::runFamily(const ShapeFamily &family, const Target &target,
                         FamilyTuneOptions options)
{
    // One shared model across every bucket of the family: each bucket's
    // trials train it, later buckets warm-start from the earlier ones.
    attachServiceState(options.explore);
    const std::string key = familyRequestKey(family, target, options);
    InflightRuns<FamilyTuneReport>::Claim claim;
    {
        MutexLock lock(mu_);
        claim = familyInflight_.claim(key);
    }
    (claim.owner ? tuningRuns_ : coalescedJoins_).add();
    if (!claim.owner)
        return claim.future.get();

    FamilyTuneReport report = ft::tuneFamily(family, target, options);
    evaluations_.add(static_cast<uint64_t>(report.totalTrials));
    if (report.table.total())
        publishDispatchTable(family.name, report.table);
    {
        MutexLock lock(mu_);
        familyInflight_.release(key);
    }
    claim.promise.set_value(report);
    return report;
}

graph::DagTuneReport
TuningService::tuneDag(const graph::ComputeDag &dag, const Target &target,
                       TuneOptions options)
{
    graphRequests_.add();
    attachServiceState(options.explore);
    const std::string key = graphRequestKey(dag, target, options);
    InflightRuns<graph::DagTuneReport>::Claim claim;
    {
        MutexLock lock(mu_);
        auto cached = graphCache_.find(key);
        if (cached != graphCache_.end()) {
            graphCacheHits_.add();
            return cached->second;
        }
        claim = graphInflight_.claim(key);
    }
    (claim.owner ? tuningRuns_ : coalescedJoins_).add();
    if (!claim.owner)
        return claim.future.get();

    if (!options.cache)
        options.cache = options_.persistentCache;
    graph::DagTuneReport report = graph::tuneDag(dag, target, options);
    for (const auto &sub : report.groups) {
        if (!sub.tuned)
            continue;
        evaluations_.add(static_cast<uint64_t>(sub.report.trials));
        if (sub.report.fromCache)
            persistentCacheHits_.add();
    }
    {
        MutexLock lock(mu_);
        graphCache_[key] = report;
        graphInflight_.release(key);
    }
    claim.promise.set_value(report);
    return report;
}

namespace {

/** Filesystem-safe file name for a dispatch slot. */
std::string
dispatchFileName(std::string slot)
{
    for (char &c : slot) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '@' || c == '.';
        if (!ok)
            c = '_';
    }
    return slot + ".dispatch";
}

} // namespace

void
TuningService::publishDispatchTable(const std::string &familyName,
                                    const DispatchTable &table)
{
    const std::string slot = dispatchSlot(familyName, table.device());
    {
        MutexLock lock(mu_);
        dispatch_[slot] = table;
    }
    if (options_.dispatchDir.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(options_.dispatchDir, ec);
    const std::string path =
        (std::filesystem::path(options_.dispatchDir) / dispatchFileName(slot))
            .string();
    if (!table.saveToFile(path))
        warn("could not persist dispatch table to ", path);
}

void
TuningService::reloadDispatchTables()
{
    std::error_code ec;
    std::filesystem::directory_iterator dir(options_.dispatchDir, ec);
    if (ec)
        return; // no directory yet: nothing published before
    size_t loaded = 0;
    for (const auto &entry : dir) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".dispatch")
            continue;
        auto table = DispatchTable::loadFromFile(entry.path().string());
        if (!table) {
            warn("skipping unreadable dispatch table ",
                 entry.path().string());
            continue;
        }
        const std::string slot =
            dispatchSlot(table->familyName(), table->device());
        MutexLock lock(mu_);
        dispatch_[slot] = std::move(*table);
        ++loaded;
    }
    if (loaded)
        metrics_.counter("service.dispatch_reloaded")
            .add(static_cast<uint64_t>(loaded));
}

FamilyTuneReport
TuningService::tuneFamily(const ShapeFamily &family, const Target &target,
                          FamilyTuneOptions options)
{
    familyRequests_.add();
    return runFamily(family, target, std::move(options));
}

bool
TuningService::serveFromTable(const std::string &slot,
                              const ShapeFamily &family, int64_t shape,
                              FamilyServeResult &out)
{
    MutexLock lock(mu_);
    auto it = dispatch_.find(slot);
    if (it == dispatch_.end() || !it->second.var().contains(shape))
        return false;
    dispatchHits_.add();
    answerFromEntry(it->second.lookup(shape), family, shape, out);
    out.fromDispatch = true;
    return true;
}

FamilyServeResult
TuningService::serveShape(const ShapeFamily &family, int64_t shape,
                          const Target &target, FamilyTuneOptions options,
                          RequestOptions request)
{
    FamilyServeResult out;
    if (!family.var.contains(shape)) {
        out.outcome = AdmissionOutcome::Shed;
        out.reason = "code=FT-ADM-SHAPE-RANGE why=\"shape " +
                     std::to_string(shape) + " outside [" +
                     std::to_string(family.var.lo) + ", " +
                     std::to_string(family.var.hi) + "] of family " +
                     family.name + "\"";
        return out;
    }
    const std::string slot = dispatchSlot(family.name, target.deviceName());
    const double now = options_.clock();
    const AdmissionDecision decision = admission_->admit(
        slot, request.priority, now, now + request.deadlineSeconds);
    out.outcome = decision.outcome;
    out.reason = decision.reason;
    switch (decision.outcome) {
      case AdmissionOutcome::Shed:
      case AdmissionOutcome::BreakerOpen:
        return out;
      case AdmissionOutcome::Brownout:
        // A published dispatch table is the only permitted answer.
        familyRequests_.add();
        if (serveFromTable(slot, family, shape, out)) {
            brownoutServed_.add();
            out.degradedAnswer = true;
            out.reason.clear();
        }
        return out;
      case AdmissionOutcome::Admitted:
        break;
    }

    familyRequests_.add();
    TicketScope done{*admission_, slot, decision.ticket, options_.clock};
    if (!serveFromTable(slot, family, shape, out)) {
        // No table yet: tune the family (coalescing with concurrent
        // requests), then serve from the fresh table.
        propagateBudget(options.explore, decision.budgetSeconds);
        FamilyTuneReport report =
            runFamily(family, target, std::move(options));
        answerFromEntry(report.table.lookup(shape), family, shape, out);
    }
    done.success = true;
    return out;
}

void
TuningService::propagateBudget(ExploreOptions &explore,
                               double budgetSeconds) const
{
    if (options_.simBudgetPerSecond <= 0.0 ||
        !std::isfinite(budgetSeconds))
        return;
    const double simBudget =
        std::max(0.0, budgetSeconds) * options_.simBudgetPerSecond;
    // The run-level simulated deadline: never extend one the caller
    // already set, only tighten.
    if (explore.deadlineSimSeconds <= 0.0 ||
        explore.deadlineSimSeconds > simBudget)
        explore.deadlineSimSeconds = simBudget;
    // No single trial may consume the whole remaining budget either.
    if (explore.resilience.trialDeadlineSeconds > simBudget)
        explore.resilience.trialDeadlineSeconds = simBudget;
}

std::optional<DispatchTable>
TuningService::dispatchTableFor(const std::string &familyName,
                                const std::string &device) const
{
    const std::string slot = dispatchSlot(familyName, device);
    MutexLock lock(mu_);
    auto it = dispatch_.find(slot);
    if (it == dispatch_.end())
        return std::nullopt;
    return it->second;
}

ServiceStats
TuningService::stats() const
{
    ServiceStats out;
    out.evalQueueDepth = evalPool_.queueDepth();
    // One registry snapshot feeds every counter field: no torn reads,
    // no counter observed mid-update while runs complete concurrently.
    out.metrics = metrics_.snapshot();
    out.requests = out.metrics.counter("service.requests");
    out.resultCacheHits = out.metrics.counter("service.result_cache_hits");
    out.persistentCacheHits =
        out.metrics.counter("service.persistent_cache_hits");
    out.coalescedJoins = out.metrics.counter("service.coalesced_joins");
    out.tuningRuns = out.metrics.counter("service.tuning_runs");
    out.evaluations = out.metrics.counter("service.evaluations");
    out.failures = out.metrics.counter("service.failures");
    out.retries = out.metrics.counter("service.retries");
    out.timeouts = out.metrics.counter("service.timeouts");
    out.quarantined = out.metrics.counter("service.quarantined");
    out.degradedReports = out.metrics.counter("service.degraded_reports");
    out.familyRequests = out.metrics.counter("service.family_requests");
    out.dispatchHits = out.metrics.counter("service.dispatch_hits");
    out.brownoutServed = out.metrics.counter("service.brownout_served");
    out.graphRequests = out.metrics.counter("service.graph_requests");
    out.graphCacheHits = out.metrics.counter("service.graph_cache_hits");
    out.admission = admission_->stats();
    if (costModel_) {
        out.costModelTrials = costModel_->numTrials();
        out.costModelRefits = costModel_->refits();
        out.costModelReady = costModel_->ready();
    }
    MutexLock lock(mu_);
    out.inflight = inflight_.size() + familyInflight_.size() +
                   graphInflight_.size();
    out.resultCacheSize = lru_.size();
    out.dispatchTables = dispatch_.size();
    return out;
}

} // namespace ft
