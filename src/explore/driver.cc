#include "explore/driver.h"

#include <algorithm>

#include "ml/costmodel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/logging.h"

namespace ft {

namespace {

/**
 * The fresh-start stage, measured as one parallel batch: the seed
 * points, then (for warm-up methods) random points and the initial
 * point, committed in that order.
 */
void
freshStart(SearchContext &ctx, bool warm_up)
{
    const ExploreOptions &options = ctx.options;
    Evaluator &eval = ctx.eval;
    const ScheduleSpace &space = eval.space();
    std::vector<Point> points = options.seedPoints;
    CostModel *model = options.costModel;
    if (warm_up && model != nullptr && model->ready() &&
        options.warmupPoints > 0) {
        // Model warm-start: oversample random candidates, rank them with
        // the persistent model, and seed from the top-ranked subset. The
        // extra RNG draws only happen with a model attached, so model-off
        // runs keep their pinned digests.
        std::vector<Point> cands;
        for (int i = 0; i < 4 * options.warmupPoints; ++i)
            cands.push_back(space.randomPoint(ctx.rng));
        if (options.obs.trace) {
            options.obs.trace->point(
                "costmodel.warm_start", eval.simulatedSeconds(),
                {tint("candidates", static_cast<int64_t>(cands.size())),
                 tint("kept", options.warmupPoints)});
        }
        std::vector<double> feat;
        rankPoints(cands, options.warmupPoints, [&](const Point &p) {
            eval.costFeaturesFor(p, feat);
            return model->predict(feat);
        });
        points.insert(points.end(), cands.begin(), cands.end());
        if (options.obs.metrics)
            options.obs.metrics->counter("costmodel.warmstarts").add();
    } else if (warm_up) {
        for (int i = 0; i < options.warmupPoints; ++i)
            points.push_back(space.randomPoint(ctx.rng));
    }
    if (warm_up)
        points.push_back(space.initialPoint());
    if (points.empty())
        return;
    if (options.obs.trace) {
        options.obs.trace->begin(
            "warmup", eval.simulatedSeconds(),
            {tint("points", static_cast<int64_t>(points.size()))});
    }
    ctx.reval.evaluate(points);
    if (options.obs.trace)
        options.obs.trace->end("warmup", eval.simulatedSeconds());
    if (options.obs.metrics)
        options.obs.metrics->counter("explore.warmup_points")
            .add(points.size());
}

/** Snapshot the shared state (H with its per-commit clock, RNG,
 *  resilience) and the policy's own after step `step`. */
void
snapshot(const SearchContext &ctx, const SearchPolicy &policy,
         const std::string &method, int step)
{
    const ExploreOptions &options = ctx.options;
    CheckpointState state;
    state.method = method;
    state.seed = options.seed;
    state.spaceSig = spaceSignature(ctx.eval.space());
    state.trial = step + 1;
    state.simSeconds = ctx.eval.simulatedSeconds();
    state.rng = ctx.rng.state();
    state.history = ctx.eval.history();
    for (const auto &entry : ctx.eval.curve())
        state.commitSim.push_back(entry.first);
    state.stats = ctx.reval.stats();
    state.quarantine = ctx.reval.quarantine();
    policy.save(state);
    TraceRecorder *trace = options.obs.trace;
    if (trace) {
        trace->begin("checkpoint_save", ctx.eval.simulatedSeconds(),
                     {tint("trial", step + 1)});
    }
    const bool saved = saveCheckpoint(options.checkpointPath, state);
    if (trace) {
        trace->end("checkpoint_save", ctx.eval.simulatedSeconds(),
                   {tbool("ok", saved)});
    }
    if (options.obs.metrics)
        options.obs.metrics->counter("checkpoint.saves").add();
    if (!saved)
        warn("could not write checkpoint to ", options.checkpointPath);
}

} // namespace

bool
SearchContext::stop()
{
    if (options.targetGflops > 0.0 && eval.best() >= options.targetGflops)
        return true;
    if (options.deadlineSimSeconds > 0.0 &&
        eval.simulatedSeconds() >= options.deadlineSimSeconds) {
        deadlineExceeded = true;
        return true;
    }
    return false;
}

void
SearchContext::notePrune(size_t considered, size_t kept) const
{
    if (options.obs.trace) {
        options.obs.trace->point(
            "costmodel.prune", eval.simulatedSeconds(),
            {tint("considered", static_cast<int64_t>(considered)),
             tint("kept", static_cast<int64_t>(kept))});
    }
    if (options.obs.metrics) {
        options.obs.metrics->counter("costmodel.prune.kept").add(kept);
        options.obs.metrics->counter("costmodel.prune.dropped")
            .add(considered - kept);
    }
}

bool
pruningActive(const ExploreOptions &options)
{
    return options.costModel != nullptr && options.prunerKeep > 0.0 &&
           options.costModel->ready();
}

void
rankPoints(std::vector<Point> &points, size_t keep,
           const std::function<double(const Point &)> &score)
{
    std::vector<double> scores(points.size());
    std::vector<size_t> order(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        scores[i] = score(points[i]);
        order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return scores[a] > scores[b];
    });
    order.resize(std::min(keep, order.size()));
    std::vector<Point> ranked;
    ranked.reserve(order.size());
    for (size_t i : order)
        ranked.push_back(std::move(points[i]));
    points.swap(ranked);
}

ExploreResult
runSearch(Evaluator &eval, const ExploreOptions &options,
          SearchPolicy &policy)
{
    Rng rng(options.seed);
    eval.setObs(options.obs);
    eval.setCostModel(options.costModel);
    ResilientEvaluator reval(eval, options.evalPool,
                             options.measureParallelism, options.resilience);
    SearchContext ctx{eval, reval, rng, options};
    const std::string method = methodName(policy.method());

    // The checkpoint is read, and the policy decides whether it can
    // restore its part, before any RNG draw: a run that cannot resume
    // draws exactly what a run without a checkpoint draws.
    std::optional<CheckpointState> ckpt;
    if (!options.checkpointPath.empty())
        ckpt = loadCheckpoint(options.checkpointPath);
    if (ckpt && (!checkpointCompatible(*ckpt, method, options.seed,
                                       eval.space()) ||
                 ckpt->trial > options.trials)) {
        warn("checkpoint ", options.checkpointPath,
             " belongs to a different run; starting fresh");
        ckpt.reset();
    }
    if (ckpt && !policy.restore(*ckpt)) {
        warn("checkpoint ", options.checkpointPath, " holds ", method,
             " state this run cannot restore; starting fresh");
        ckpt.reset();
    }
    if (ckpt) {
        eval.restore(ckpt->history, ckpt->commitSim, ckpt->simSeconds);
        rng.setState(ckpt->rng);
        reval.restore(ckpt->stats, ckpt->quarantine);
        inform("resumed ", method, " run at trial ", ckpt->trial, " from ",
               options.checkpointPath);
    } else {
        freshStart(ctx, policy.warmsUp());
    }

    TraceRecorder *trace = options.obs.trace;
    Counter *step_counter = maybeCounter(options.obs.metrics,
                                         "explore.steps");
    for (int step = ckpt ? ckpt->trial : 0;
         policy.spent(step) < options.trials && !ctx.stop(); ++step) {
        if (trace) {
            trace->begin("step", eval.simulatedSeconds(),
                         {tint(policy.budgetUnit(), policy.spent(step))});
        }
        const bool counted = policy.step(ctx, step);
        if (counted)
            eval.chargeOverhead(options.stepOverheadSeconds);
        if (trace)
            trace->end("step", eval.simulatedSeconds());
        if (!counted)
            break;
        if (step_counter)
            step_counter->add();
        if (!options.checkpointPath.empty() &&
            options.checkpointEveryTrials > 0 &&
            (step + 1) % options.checkpointEveryTrials == 0) {
            snapshot(ctx, policy, method, step);
        }
    }

    ExploreResult out;
    out.bestPoint = eval.bestPoint();
    out.bestGflops = eval.best();
    out.trialsUsed = eval.numTrials();
    out.simSeconds = eval.simulatedSeconds();
    out.curve = eval.curve();
    out.deadlineExceeded = ctx.deadlineExceeded;
    out.resumed = ckpt.has_value();
    out.failures = reval.stats().failures;
    out.retries = reval.stats().retries;
    out.timeouts = reval.stats().timeouts;
    out.quarantined = reval.stats().quarantined;
    return out;
}

std::string
methodName(Method method)
{
    switch (method) {
      case Method::QMethod: return "Q-method";
      case Method::PMethod: return "P-method";
      case Method::Random: return "random";
      case Method::AutoTvm: return "AutoTVM";
    }
    return "?";
}

ExploreResult
exploreWith(Method method, Evaluator &eval, const ExploreOptions &options)
{
    switch (method) {
      case Method::QMethod: return exploreQMethod(eval, options);
      case Method::PMethod: return explorePMethod(eval, options);
      case Method::Random: return exploreRandom(eval, options);
      case Method::AutoTvm: return exploreAutoTvm(eval, options);
    }
    FT_ASSERT(false, "unknown exploration method");
    return {};
}

} // namespace ft
