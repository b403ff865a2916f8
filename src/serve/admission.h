/**
 * @file
 * Admission control and graceful degradation for the tuning service.
 *
 * A service facing more demand than capacity has exactly three honest
 * answers: do the work by the deadline, answer degraded from what it
 * already knows, or refuse immediately. The AdmissionController makes
 * that decision up front — at submit time, not after queueing — from
 * three inputs:
 *
 *  - A virtual worker timeline: each admitted request reserves the
 *    earliest-free worker for its predicted cost (an EWMA of observed
 *    request durations times a safety factor). A request whose
 *    predicted finish lands past its deadline is shed *now*, with a
 *    structured reason, instead of timing out after burning a slot.
 *  - A bounded queue with priority classes: Interactive requests
 *    (serve-time lookups) may fill the whole queue; Batch requests
 *    (exploratory tunes) only the part below a reserved headroom, so
 *    a batch flood can never starve interactive traffic.
 *  - Brownout: past a saturation depth the controller stops admitting
 *    fresh work and tells the caller to answer from caches (the LRU
 *    report cache, published dispatch tables) only — a degraded answer
 *    from known-good state beats an overloaded tuner.
 *
 * A per-op-key circuit breaker quarantines specs that repeatedly fail:
 * after `breakerFailureThreshold` consecutive failures the key is
 * rejected outright for a cooldown, then one probe request is let
 * through (half-open); its outcome closes or re-opens the breaker.
 *
 * Every decision is observable: `admission.*` counters, a queue-depth
 * histogram, and `admission.*` trace points when a TraceRecorder is
 * attached. All time is seconds on the caller's clock — the controller
 * never reads a clock itself, so tests and benches drive it
 * deterministically.
 */
#ifndef FLEXTENSOR_SERVE_ADMISSION_H
#define FLEXTENSOR_SERVE_ADMISSION_H

#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/thread_annotations.h"

namespace ft {

/** Request class for admission ordering. */
enum class RequestPriority {
    Interactive, ///< serve-time lookups; may use the whole queue
    Batch        ///< exploratory tunes; shed first under pressure
};

const char *priorityName(RequestPriority priority);

/** What the controller decided for one request. */
enum class AdmissionOutcome {
    Admitted,    ///< run it; a worker slot is reserved
    Shed,        ///< refused: queue full or deadline unmeetable
    Brownout,    ///< saturated: answer from caches only, never tune
    BreakerOpen, ///< this op key is quarantined as repeatedly failing
};

const char *admissionOutcomeName(AdmissionOutcome outcome);

/** Admission verdict plus everything the caller needs to act on it. */
struct AdmissionDecision
{
    AdmissionOutcome outcome = AdmissionOutcome::Shed;
    /** Structured one-line reason ("code=FT-ADM-... why=\"...\"") for
     *  every non-admitted outcome; empty on admission. */
    std::string reason;
    uint64_t ticket = 0;          ///< completion handle when admitted
    double predictedStart = 0.0;  ///< seconds, caller's clock
    double predictedFinish = 0.0; ///< seconds, caller's clock
    /** Wall seconds between now and the deadline (infinity when the
     *  request has none): the budget to propagate down the stack. */
    double budgetSeconds = std::numeric_limits<double>::infinity();

    bool admitted() const { return outcome == AdmissionOutcome::Admitted; }
};

/**
 * Controller configuration. The defaults never refuse a request that
 * has no deadline: the queue, brownout and breaker bounds sit at their
 * maximum values, so bounded policies are always set explicitly.
 */
struct AdmissionOptions
{
    /** Admitted-but-incomplete requests allowed at once. */
    size_t maxQueueDepth = std::numeric_limits<size_t>::max();
    /** Depth at or past which brownout mode begins (serve from caches
     *  only). Must be <= maxQueueDepth to ever trigger. */
    size_t brownoutDepth = std::numeric_limits<size_t>::max();
    /** Queue slots reserved for Interactive requests: Batch requests
     *  are shed once depth reaches maxQueueDepth - interactiveReserve. */
    size_t interactiveReserve = 4;
    /** Workers the admitted queue drains into (the virtual timeline). */
    int workers = 2;
    /** Predicted per-request cost before any completion is observed. */
    double defaultCostSeconds = 1.0;
    /** EWMA weight of the newest observed request duration. */
    double costEwmaAlpha = 0.3;
    /** Pessimism multiplier on predicted cost for deadline checks. */
    double safetyFactor = 1.25;
    /** Consecutive failures of one op key that open its breaker. */
    int breakerFailureThreshold = std::numeric_limits<int>::max();
    /** Seconds an open breaker rejects before allowing one probe. */
    double breakerCooldownSeconds = 30.0;
    /** Observability sinks (both optional, not owned). */
    MetricsRegistry *metrics = nullptr;
    TraceRecorder *trace = nullptr;
};

/** Point-in-time controller state (for stats/monitoring). */
struct AdmissionStats
{
    uint64_t admitted = 0;
    uint64_t shedQueueFull = 0;
    uint64_t shedDeadline = 0;
    uint64_t brownouts = 0;
    uint64_t breakerRejects = 0;
    uint64_t breakersOpened = 0;
    size_t queueDepth = 0;    ///< admitted-but-incomplete right now
    size_t openBreakers = 0;  ///< op keys currently quarantined
    /** Op keys with breaker state: failed since their last success. */
    size_t trackedBreakers = 0;
    double costEstimate = 0.0;///< current EWMA request cost (seconds)
};

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionOptions &options = {});

    AdmissionController(const AdmissionController &) = delete;
    AdmissionController &operator=(const AdmissionController &) = delete;

    /**
     * Decide the fate of a request on op `opKey` arriving at `now` with
     * absolute deadline `deadline` (both seconds on the caller's clock;
     * an infinite deadline means none). Admission reserves a virtual
     * worker slot; the caller MUST pair it with exactly one
     * onComplete() carrying the returned ticket.
     */
    AdmissionDecision admit(const std::string &opKey,
                            RequestPriority priority, double now,
                            double deadline);

    /**
     * Report completion of an admitted request at `now`. `success`
     * feeds the op's circuit breaker: consecutive failures open it,
     * any success closes it. The observed duration (now - admission
     * time) updates the cost EWMA.
     */
    void onComplete(const std::string &opKey, uint64_t ticket, double now,
                    bool success);

    /** Whether the op's breaker currently rejects requests at `now`. */
    bool breakerOpen(const std::string &opKey, double now) const;

    AdmissionStats stats() const;

    const AdmissionOptions &options() const { return options_; }

  private:
    struct Breaker
    {
        int consecutiveFailures = 0;
        double openUntil = 0.0; ///< rejects until this time once open
        bool open = false;
        bool probing = false; ///< half-open: one probe in flight
    };

    struct Ticket
    {
        double admittedAt = 0.0;
        int worker = 0;
        double reservedFinish = 0.0;
    };

    /** Caller holds mu_. */
    double predictedCostLocked() const FT_REQUIRES(mu_);

    AdmissionOptions options_;
    Counter *admitted_ = nullptr;
    Counter *shedQueueFull_ = nullptr;
    Counter *shedDeadline_ = nullptr;
    Counter *brownouts_ = nullptr;
    Counter *breakerRejects_ = nullptr;
    Counter *breakersOpened_ = nullptr;
    Histogram *queueDepthHist_ = nullptr;

    mutable Mutex mu_;
    std::vector<double> workerFreeAt_ FT_GUARDED_BY(mu_);
    std::unordered_map<uint64_t, Ticket> inflight_ FT_GUARDED_BY(mu_);
    std::unordered_map<std::string, Breaker> breakers_ FT_GUARDED_BY(mu_);
    uint64_t nextTicket_ FT_GUARDED_BY(mu_) = 1;
    double costEwma_ FT_GUARDED_BY(mu_) = 0.0;
    bool costObserved_ FT_GUARDED_BY(mu_) = false;
    uint64_t statAdmitted_ FT_GUARDED_BY(mu_) = 0;
    uint64_t statShedQueueFull_ FT_GUARDED_BY(mu_) = 0;
    uint64_t statShedDeadline_ FT_GUARDED_BY(mu_) = 0;
    uint64_t statBrownouts_ FT_GUARDED_BY(mu_) = 0;
    uint64_t statBreakerRejects_ FT_GUARDED_BY(mu_) = 0;
    uint64_t statBreakersOpened_ FT_GUARDED_BY(mu_) = 0;
};

} // namespace ft

#endif // FLEXTENSOR_SERVE_ADMISSION_H
