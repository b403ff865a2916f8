/**
 * @file
 * Fault-tolerant measurement policy over the batch evaluator.
 *
 * Real measurement backends fail; this layer makes every exploration
 * method degrade gracefully when they do:
 *
 *  - Bounded retries with exponential backoff. Failed attempts are
 *    retried up to `maxRetries` times; each backoff wait is charged to
 *    the simulated clock, so flaky backends slow a run down exactly the
 *    way they would on real hardware.
 *  - Per-trial deadline. A hung measurement is killed after
 *    `trialDeadlineSeconds` of simulated time and reports kInvalidGflops
 *    instead of blocking the run forever.
 *  - Outlier rejection. With `repeats > 1` every fresh point is measured
 *    that many times and the (lower) median value is committed, so a
 *    single corrupted reading cannot become the best schedule.
 *  - Quarantine. A point whose every repeat exhausts its retries is
 *    committed as kInvalidGflops and its key recorded in the quarantine
 *    set; the evaluator cache guarantees it is never measured again.
 *
 * With no (or a disabled) injector the layer delegates directly to
 * BatchEvaluator / Evaluator, so fault-free runs are bit-identical to
 * runs without this layer — values and simulated clock included.
 *
 * Under faults, the simulated batch clock models `parallelism` machines
 * taking points round-robin, each machine running its points' full
 * attempt sequences back to back; the batch is charged the busiest
 * machine's span, spread evenly over the per-point curve entries. With
 * equal per-point costs this reduces to BatchEvaluator's
 * ceil(n/parallelism) rounds.
 */
#ifndef FLEXTENSOR_EXPLORE_RESILIENT_H
#define FLEXTENSOR_EXPLORE_RESILIENT_H

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "serve/batch_eval.h"
#include "support/fault_injector.h"

namespace ft {

/** Retry/deadline/repeat policy for one exploration run. */
struct ResilienceOptions
{
    /** Fault source (not owned); null or disabled = transparent layer. */
    const FaultInjector *injector = nullptr;
    /** Extra attempts after a failed measurement. */
    int maxRetries = 2;
    /** Simulated backoff before retry k: base * 2^k seconds. */
    double backoffBaseSeconds = 0.25;
    /** Kill a hung measurement after this much simulated time (0 = let
     *  it run the injector's full hang duration). */
    double trialDeadlineSeconds = 2.0;
    /** Measurements per fresh point; the lower median is committed. */
    int repeats = 1;
};

/** Counters accumulated by one ResilientEvaluator. */
struct ResilienceStats
{
    uint64_t measurements = 0; ///< fresh points committed
    uint64_t failures = 0;     ///< failed attempts (errors and hangs)
    uint64_t retries = 0;      ///< re-attempts after a failure
    uint64_t timeouts = 0;     ///< attempts that hung until killed
    uint64_t quarantined = 0;  ///< points that failed persistently
};

class ResilientEvaluator
{
  public:
    /**
     * @param eval the evaluator owning H and the simulated clock
     * @param pool optional worker pool for parallel scoring
     * @param parallelism simulated measurement width (0 = pool size,
     *        or 1 without a pool)
     * @param options retry/deadline policy and fault source
     */
    explicit ResilientEvaluator(Evaluator &eval, ThreadPool *pool = nullptr,
                                int parallelism = 0,
                                ResilienceOptions options = {});

    /**
     * Evaluate a batch with the retry/deadline policy applied per fresh
     * point; returns one value per input point. Identical to
     * BatchEvaluator::evaluate when faults are off.
     */
    std::vector<double> evaluate(const std::vector<Point> &points);

    /** Single-point convenience (full per-point charge, no batching). */
    double evaluate(const Point &p) { return evaluate(p, p.key64()); }

    /** Single-point evaluate with the key64() already in hand. */
    double evaluate(const Point &p, PointKey key);

    /** Whether an enabled fault injector is attached. */
    bool faultsActive() const;

    const ResilienceStats &stats() const { return stats_; }

    /** Persistently failing points, in quarantine order. */
    const std::vector<Point> &quarantine() const { return quarantine_; }

    bool quarantined(const Point &p) const;

    /** Reload counters and quarantine from a checkpoint. */
    void restore(const ResilienceStats &stats,
                 const std::vector<Point> &quarantine);

  private:
    /** One point's full measurement: repeats x retry loop. */
    struct Measured
    {
        double value = 0.0;     ///< median committed to H
        double simCharge = 0.0; ///< attempts + backoffs, seconds
    };
    Measured measureWithFaults(const Point &p, PointKey key,
                               double trueScore);

    Evaluator &eval_;
    BatchEvaluator batch_;
    ThreadPool *pool_;
    ResilienceOptions options_;
    ResilienceStats stats_;
    std::vector<Point> quarantine_;
    std::unordered_set<PointKey> quarantineSet_;
    /** One scoring scratch per pool worker on the fault batch path. */
    std::vector<EvalScratch> scratch_;
};

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_RESILIENT_H
