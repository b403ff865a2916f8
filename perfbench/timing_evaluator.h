/**
 * @file
 * The traced run's Evaluator: the base class's scoring steps, in the
 * same order, each timed from outside the library.
 */
#ifndef PERFBENCH_TIMING_EVALUATOR_H
#define PERFBENCH_TIMING_EVALUATOR_H

#include <cstdint>

#include "explore/evaluator.h"
#include "trace.h"

namespace perfbench {

/** Per-trial layer counters of one or more explorer runs. */
struct TrialCounters
{
    int64_t trials = 0;
    int64_t decodeNs = 0;   ///< space: ScheduleSpace::decodeInto
    int64_t lowerNs = 0;    ///< schedule: generateInto
    int64_t verifyNs = 0;   ///< analysis: verifier gate
    int64_t modelNs = 0;    ///< sim: modelPerf
    int64_t rejected = 0;   ///< verifier Error verdicts
    int64_t modeled = 0;    ///< modelPerf calls
    int64_t invalid = 0;    ///< modelPerf said invalid
    int64_t nestLoops = 0;  ///< loops in the lowered nests

    int64_t scoringNs() const
    {
        return decodeNs + lowerNs + verifyNs + modelNs;
    }
    void add(const TrialCounters &o)
    {
        trials += o.trials;
        decodeNs += o.decodeNs;
        lowerNs += o.lowerNs;
        verifyNs += o.verifyNs;
        modelNs += o.modelNs;
        rejected += o.rejected;
        modeled += o.modeled;
        invalid += o.invalid;
        nestLoops += o.nestLoops;
    }
};

class TimingEvaluator : public ft::Evaluator
{
  public:
    using ft::Evaluator::Evaluator;

    double scoreOnly(const ft::Point &p,
                     ft::EvalScratch &scratch) const override
    {
        const int64_t t0 = nowNs();
        const ft::OpConfig &config = space().decodeInto(p, scratch.decode);
        const int64_t t1 = nowNs();
        ft::generateInto(anchor(), config, target(), scratch.sched);
        const int64_t t2 = nowNs();
        const bool rejected = verifyRejects(config, scratch);
        const int64_t t3 = nowNs();
        counters_.trials += 1;
        counters_.decodeNs += t1 - t0;
        counters_.lowerNs += t2 - t1;
        counters_.verifyNs += t3 - t2;
        counters_.nestLoops +=
            static_cast<int64_t>(scratch.sched.nest.loops.size());
        if (rejected) {
            counters_.rejected += 1;
            return ft::kInvalidGflops;
        }
        ft::PerfResult perf =
            ft::modelPerf(scratch.sched.features, target());
        counters_.modelNs += nowNs() - t3;
        counters_.modeled += 1;
        if (!perf.valid)
            counters_.invalid += 1;
        return perf.valid ? perf.gflops : ft::kInvalidGflops;
    }

    /** The base class's score of `p`, for the self-check. */
    double baseScore(const ft::Point &p) const
    {
        ft::EvalScratch scratch;
        return ft::Evaluator::scoreOnly(p, scratch);
    }

    const TrialCounters &counters() const { return counters_; }

  private:
    mutable TrialCounters counters_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_EVALUATOR_H
