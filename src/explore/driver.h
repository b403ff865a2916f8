/**
 * @file
 * The one search loop every exploration method runs through.
 *
 * The methods of Section 5.1 and Section 6.5 differ only in how one
 * outer step picks points. runSearch() owns the rest: RNG, observability
 * and resilience set-up; checkpoint load, validation, snapshots and
 * resume; the fresh-start stage (seed points, plus the warm-up batch for
 * the SA-based methods); the budget, target and deadline stops; the
 * `step` trace span, the `explore.steps` counter and the per-step
 * overhead charge; and the ExploreResult. A method is a SearchPolicy: it
 * runs one step and saves/restores its own state.
 */
#ifndef FLEXTENSOR_EXPLORE_DRIVER_H
#define FLEXTENSOR_EXPLORE_DRIVER_H

#include <functional>
#include <vector>

#include "explore/checkpoint.h"
#include "explore/explorer.h"

namespace ft {

/** What a policy sees of the run while it takes a step. */
struct SearchContext
{
    Evaluator &eval;
    ResilientEvaluator &reval;
    Rng &rng;
    const ExploreOptions &options;
    bool deadlineExceeded = false;

    /** Whether best() reached targetGflops or the simulated clock reached
     *  the deadline (recorded). Asked before every step; a policy may
     *  also ask between the parts of a step. */
    bool stop();

    /** Record that pruning kept `kept` of `considered` candidates. */
    void notePrune(size_t considered, size_t kept) const;
};

/** One exploration method, driven one outer step at a time. */
class SearchPolicy
{
  public:
    virtual ~SearchPolicy() = default;

    /** The method; its methodName() tags and validates checkpoints. */
    virtual Method method() const = 0;

    /** Whether a fresh run measures the warm-up batch (random points and
     *  the initial point) together with the seed points. */
    virtual bool warmsUp() const { return false; }

    /** Budget spent after `steps` steps, in ExploreOptions::trials units;
     *  each step's trace span carries it under budgetUnit(). */
    virtual int spent(int steps) const { return steps; }
    virtual const char *budgetUnit() const { return "trial"; }

    /** Run one step; false ends the run uncounted (nothing to measure). */
    virtual bool step(SearchContext &ctx, int step) = 0;

    /**
     * Take the method's own state from a snapshot of this run. Called
     * before any RNG draw and before H is restored, so it must neither
     * draw nor evaluate. On false the policy is unchanged and the run
     * starts fresh, exactly as if there were no checkpoint.
     */
    virtual bool restore(const CheckpointState &) { return true; }

    /** Add the method's own state to a snapshot. */
    virtual void save(CheckpointState &) const {}
};

/** Run `policy` over `eval` under the shared loop described above. */
ExploreResult runSearch(Evaluator &eval, const ExploreOptions &options,
                        SearchPolicy &policy);

/** Whether the options ask for model-guided pruning and a trained
 *  cost model is available to score with. */
bool pruningActive(const ExploreOptions &options);

/** Stable-sort `points` by descending score (each scored once, in
 *  order) and keep the first `keep`. */
void rankPoints(std::vector<Point> &points, size_t keep,
                const std::function<double(const Point &)> &score);

} // namespace ft

#endif // FLEXTENSOR_EXPLORE_DRIVER_H
