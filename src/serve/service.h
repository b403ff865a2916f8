/**
 * @file
 * TuningService: the concurrent serving front-end over the tuner.
 *
 * A service owns two worker pools — one running whole tuning requests
 * (submit()), one scoring measurement batches inside each request — and
 * layers three levels of result reuse over the tuner:
 *
 *   1. An in-memory LRU cache of complete TuneReports keyed by the
 *      request key: the operator/shape/device tuning key plus every
 *      option that can change the returned report. One field list in
 *      service.cc builds the keys of all request kinds, and the key
 *      string itself indexes every cache and in-flight map.
 *   2. Request coalescing: concurrent identical requests share a single
 *      in-flight tuning run; joiners block on a shared future and all
 *      receive the same report.
 *   3. The persistent TuningCache (best schedule per operator/device),
 *      consulted and updated by the underlying tuner.
 *
 * Shape families get the same treatment one level up: tuneFamily()
 * requests coalesce, and finished runs publish their DispatchTable so
 * serveShape() can answer any in-range shape from the table without
 * tuning again.
 *
 * Every tune(), tuneAnchor(), submit() and serveShape() request passes
 * the AdmissionController first (see serve/admission.h): it is run,
 * answered from caches only (brownout), or refused with a structured
 * reason, and the outcome rides on the answer (ServeStatus). The
 * default AdmissionOptions never refuse; bounded policies are opt-in.
 *
 * Per-service counters expose the request mix for monitoring.
 */
#ifndef FLEXTENSOR_SERVE_SERVICE_H
#define FLEXTENSOR_SERVE_SERVICE_H

#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "explore/tuner.h"
#include "family/tune_family.h"
#include "graph/schedule_dag.h"
#include "ml/costmodel.h"
#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/thread_pool.h"
#include "support/thread_annotations.h"

namespace ft {

/** Construction-time service configuration. */
struct ServiceOptions
{
    /** Workers scoring measurement batches (Section 5.2 parallelism). */
    int evalThreads = 4;
    /** Tuning requests running concurrently via submit(). */
    int requestThreads = 2;
    /** Complete TuneReports kept in the in-memory LRU cache. */
    size_t resultCacheCapacity = 128;
    /** Optional persistent best-schedule store (not owned). */
    TuningCache *persistentCache = nullptr;
    /** Admission-control policy of every gated request. The worker
     *  count defaults to requestThreads when left at <= 0. */
    AdmissionOptions admission;
    /**
     * Simulated exploration seconds one wall second of request budget
     * buys: the exchange rate for end-to-end deadline propagation
     * (request deadline → explore.deadlineSimSeconds → per-trial
     * deadline). 0 disables propagation into the explorer.
     */
    double simBudgetPerSecond = 0.0;
    /** Clock behind admission decisions, seconds. Defaults to the
     *  steady clock; tests and benches inject a manual one. */
    std::function<double()> clock;
    /**
     * Directory for published DispatchTable files. When set, family
     * runs persist their table here (journal format, atomic rename)
     * and the constructor reloads every table found, so published
     * tables survive a process restart.
     */
    std::string dispatchDir;
    /**
     * Enable the service-wide persistent learned cost model: every
     * completed trial from every request trains one ranking GBT
     * (batched refit on a background thread; inference reads an
     * immutable snapshot), and requests opt into model-guided pruning
     * per-request via TuneOptions.explore.prunerKeep. The model is
     * reloaded from costModel.persistPath at startup when set.
     */
    bool enableCostModel = false;
    /** Cost-model knobs (journal path, refit period, GBT options). */
    CostModelOptions costModel;
};

/**
 * Snapshot of the per-service counters. All counter fields are read from
 * one MetricsRegistry::snapshot(), so a stats() reader never observes a
 * torn or partially-updated set while runs complete concurrently; the
 * full registry (including the per-method request mix and the metrics
 * the exploration layers emit into the service registry) rides along in
 * `metrics`.
 */
struct ServiceStats
{
    uint64_t requests = 0;           ///< tune()/submit() calls accepted
    uint64_t resultCacheHits = 0;    ///< served from the LRU report cache
    uint64_t persistentCacheHits = 0;///< tuner short-circuited by TuningCache
    uint64_t coalescedJoins = 0;     ///< requests that joined an in-flight run
    uint64_t tuningRuns = 0;         ///< actual exploration runs started
    uint64_t evaluations = 0;        ///< schedule measurements performed
    uint64_t failures = 0;           ///< failed measurement attempts
    uint64_t retries = 0;            ///< measurement attempts retried
    uint64_t timeouts = 0;           ///< measurements killed at the deadline
    uint64_t quarantined = 0;        ///< points quarantined as unmeasurable
    uint64_t degradedReports = 0;    ///< runs cut short by their deadline
    uint64_t familyRequests = 0;     ///< tuneFamily()/serveShape() calls
    uint64_t dispatchHits = 0;       ///< shapes served from a dispatch table
    uint64_t graphRequests = 0;      ///< tuneDag() calls
    uint64_t graphCacheHits = 0;     ///< DAGs served from the graph cache
    uint64_t brownoutServed = 0;     ///< degraded answers from caches
    size_t inflight = 0;             ///< runs currently executing
    size_t resultCacheSize = 0;      ///< reports currently in the LRU
    size_t dispatchTables = 0;       ///< dispatch tables published
    size_t evalQueueDepth = 0;       ///< jobs queued on the evaluation pool
    /** Learned cost model state (zero/false when disabled). */
    size_t costModelTrials = 0;   ///< trials in the training window
    uint64_t costModelRefits = 0; ///< refits performed since startup
    bool costModelReady = false;  ///< a trained snapshot is serving
    /** Admission-control state. */
    AdmissionStats admission;
    /** Full registry snapshot the fields above were read from. */
    MetricsSnapshot metrics;
};

/** Per-request admission parameters. */
struct RequestOptions
{
    /** Interactive lookups outrank batch tunes under pressure. */
    RequestPriority priority = RequestPriority::Batch;
    /** Wall seconds from submission until the answer is worthless;
     *  infinity means no deadline. */
    double deadlineSeconds = std::numeric_limits<double>::infinity();
};

/** How admission control answered one request. */
struct ServeStatus
{
    AdmissionOutcome outcome = AdmissionOutcome::Admitted;
    /** Structured refusal reason ("code=FT-ADM-... why=\"...\""); empty
     *  when the request was served. */
    std::string reason;
    /** True when a brownout was answered from a cache or a published
     *  dispatch table. */
    bool degradedAnswer = false;

    /** Whether the answer carries a result. */
    bool served() const
    {
        return outcome == AdmissionOutcome::Admitted || degradedAnswer;
    }
};

/**
 * A tuning answer. The TuneReport part is empty when the request was
 * refused; a run that found no valid schedule keeps its report but is
 * not served (reason code FT-ADM-RUN-FAILED).
 */
struct ServedReport : TuneReport, ServeStatus
{};

/** Outcome of serving one concrete shape of a family. */
struct FamilyServeResult : ServeStatus
{
    /** Bucket's best schedule, dynamic split re-fit to the shape. */
    OpConfig config;
    double gflops = 0.0; ///< recorded family score of the bucket entry
    ShapeBucket bucket;  ///< bucket that served the shape
    /** True when an already-published dispatch table answered. */
    bool fromDispatch = false;
};

/**
 * The runs in flight under each request key: concurrent identical
 * requests share one run. claim() makes the caller the owner of a new
 * run or joins the one in flight; the owner stores its report,
 * release()s the key and then fulfils its promise. Unsynchronized: the
 * service guards every instance with its mutex.
 */
template <typename Report>
class InflightRuns
{
  public:
    /** A caller's part in one run. */
    struct Claim
    {
        bool owner = false;
        std::promise<Report> promise;      ///< fulfilled by the owner
        std::shared_future<Report> future; ///< what a joiner waits on
    };

    Claim claim(const std::string &key)
    {
        Claim c;
        auto [it, fresh] = runs_.try_emplace(key);
        if (fresh)
            it->second = c.promise.get_future().share();
        c.owner = fresh;
        c.future = it->second;
        return c;
    }

    void release(const std::string &key) { runs_.erase(key); }

    size_t size() const { return runs_.size(); }

  private:
    std::unordered_map<std::string, std::shared_future<Report>> runs_;
};

class TuningService
{
  public:
    explicit TuningService(const ServiceOptions &options = {});

    TuningService(const TuningService &) = delete;
    TuningService &operator=(const TuningService &) = delete;

    /**
     * Tune the mini-graph rooted at `output`. Thread-safe; identical
     * concurrent requests coalesce into one run. Admission decides
     * first: a shed or breaker-rejected request returns at once with
     * its reason, a brownout is answered from the LRU report cache or
     * refused, and an admitted request runs with its remaining wall
     * budget propagated into the explorer's simulated deadline and the
     * per-trial deadline (see ServiceOptions::simBudgetPerSecond).
     * Blocks until a report is available (possibly produced by another
     * caller's run).
     */
    ServedReport tune(const Tensor &output, const Target &target,
                      TuneOptions options = {}, RequestOptions request = {});

    /** Tune one specific compute node (same admission and reuse path). */
    ServedReport tuneAnchor(const Operation &anchor, const Target &target,
                            TuneOptions options = {},
                            RequestOptions request = {});

    /**
     * Enqueue a request on the service's request pool. The admission
     * decision happens now, on the caller's thread (a shed request
     * never occupies a queue slot); only admitted work is enqueued. The
     * returned future is always valid and yields what tune() would.
     */
    std::future<ServedReport> submit(const Tensor &output,
                                     const Target &target,
                                     TuneOptions options = {},
                                     RequestOptions request = {});

    /**
     * Tune a whole shape family. Thread-safe; identical concurrent
     * family requests coalesce into one run. On success the family's
     * DispatchTable is published for serveShape().
     */
    FamilyTuneReport tuneFamily(const ShapeFamily &family,
                                const Target &target,
                                FamilyTuneOptions options = {});

    /**
     * Graph-level scheduling of a whole compute DAG. Requests are keyed
     * by the DAG's spec plus device and tuning options: a repeat
     * request is served from the graph report cache without
     * re-partitioning or re-tuning, and concurrent identical requests
     * coalesce into one run (the anchor tunes inside still hit the
     * operator-level reuse layers).
     */
    graph::DagTuneReport tuneDag(const graph::ComputeDag &dag,
                                 const Target &target,
                                 TuneOptions options = {});

    /**
     * Serve one concrete shape of a family: a published dispatch table
     * answers immediately (a dispatch hit); otherwise the family is
     * tuned first (coalescing with concurrent requests) and the fresh
     * table answers. A shape outside the declared range is refused
     * (FT-ADM-SHAPE-RANGE) before admission. Defaults to Interactive
     * priority: table lookups are the traffic the queue headroom
     * protects. In brownout only a published table may answer.
     */
    FamilyServeResult
    serveShape(const ShapeFamily &family, int64_t shape, const Target &target,
               FamilyTuneOptions options = {},
               RequestOptions request = {RequestPriority::Interactive});

    /** Copy of the published table for a family/device, if any. */
    std::optional<DispatchTable>
    dispatchTableFor(const std::string &familyName,
                     const std::string &device) const;

    /** Counter snapshot (one consistent MetricsRegistry snapshot). */
    ServiceStats stats() const;

    /**
     * The service-wide metrics registry. Requests without their own
     * registry aggregate their exploration metrics here; external
     * instruments may be registered too.
     */
    MetricsRegistry &metrics() { return metrics_; }

    /** The measurement pool (shared by all requests). */
    ThreadPool &evalPool() { return evalPool_; }

    /** The admission controller every gated request passes. */
    AdmissionController &admission() { return *admission_; }

    /** The persistent cost model (null unless enableCostModel). */
    CostModel *costModel() { return costModel_.get(); }

    const ServiceOptions &options() const { return options_; }

  private:
    /** One LRU slot: request key and report. */
    using CachedReport = std::pair<std::string, TuneReport>;

    /**
     * Admission for one op request. A refusal or brownout is answered
     * into `out` (a brownout from the LRU report cache only); an
     * admitted request gets its wall budget propagated into `options`.
     */
    AdmissionDecision admitOp(const std::string &opKey, TuneOptions &options,
                              const RequestOptions &request,
                              ServedReport &out);

    /** Run an admitted op request and complete its admission ticket. */
    ServedReport runWithTicket(const Operation &anchor, const Target &target,
                               const std::string &opKey, uint64_t ticket,
                               TuneOptions options);

    /** The coalescing, LRU-cached tuning run behind every op request. */
    TuneReport runOp(const Operation &anchor, const Target &target,
                     const std::string &opKey, TuneOptions options);

    /** LRU lookup; promotes the entry on hit. Caller holds mu_. */
    const TuneReport *lruGet(const std::string &key) FT_REQUIRES(mu_);

    /** LRU insert with eviction. Caller holds mu_. */
    void lruPut(const std::string &key, const TuneReport &report)
        FT_REQUIRES(mu_);

    /** The coalescing family run behind tuneFamily()/serveShape(). */
    FamilyTuneReport runFamily(const ShapeFamily &family,
                               const Target &target,
                               FamilyTuneOptions options);

    /**
     * Answer `shape` from the published table of `slot` into `out`.
     * Returns false when no published table covers the shape.
     */
    bool serveFromTable(const std::string &slot, const ShapeFamily &family,
                        int64_t shape, FamilyServeResult &out);

    /**
     * Clamp the explorer's simulated budget (run deadline + per-trial
     * deadline) to what `budgetSeconds` of wall time buys at the
     * configured exchange rate. No-op when propagation is disabled or
     * the request has no deadline.
     */
    void propagateBudget(ExploreOptions &explore,
                         double budgetSeconds) const;

    /** Point the explore options at the service's pool, metrics
     *  registry and cost model, unless the request set its own. */
    void attachServiceState(ExploreOptions &explore);

    /** Publish one table under mu_ and persist it when dispatchDir is
     *  set. Caller must NOT hold mu_. */
    void publishDispatchTable(const std::string &familyName,
                              const DispatchTable &table);

    /** Load every persisted table from options_.dispatchDir. */
    void reloadDispatchTables();

    ServiceOptions options_;
    ThreadPool evalPool_;
    ThreadPool requestPool_;
    std::unique_ptr<AdmissionController> admission_;
    std::unique_ptr<CostModel> costModel_;

    /** All service counters live here (atomic; snapshot-consistent). */
    MetricsRegistry metrics_;
    Counter &requests_;
    Counter &resultCacheHits_;
    Counter &persistentCacheHits_;
    Counter &coalescedJoins_;
    Counter &tuningRuns_;
    Counter &evaluations_;
    Counter &failures_;
    Counter &retries_;
    Counter &timeouts_;
    Counter &quarantined_;
    Counter &degradedReports_;
    Counter &familyRequests_;
    Counter &dispatchHits_;
    Counter &brownoutServed_;
    Counter &graphRequests_;
    Counter &graphCacheHits_;

    mutable Mutex mu_;
    InflightRuns<TuneReport> inflight_ FT_GUARDED_BY(mu_);
    /** front = newest; the index views the keys stored in the list. */
    std::list<CachedReport> lru_ FT_GUARDED_BY(mu_);
    std::unordered_map<std::string_view, std::list<CachedReport>::iterator>
        lruIndex_ FT_GUARDED_BY(mu_);
    InflightRuns<FamilyTuneReport> familyInflight_ FT_GUARDED_BY(mu_);
    /** Published tables by "family@device" slot. */
    std::unordered_map<std::string, DispatchTable> dispatch_
        FT_GUARDED_BY(mu_);
    InflightRuns<graph::DagTuneReport> graphInflight_ FT_GUARDED_BY(mu_);
    std::unordered_map<std::string, graph::DagTuneReport> graphCache_
        FT_GUARDED_BY(mu_);
};

} // namespace ft

#endif // FLEXTENSOR_SERVE_SERVICE_H
