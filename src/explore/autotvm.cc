#include "explore/explorer.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <unordered_set>

#include "explore/driver.h"
#include "ml/costmodel.h"
#include "ml/gbt.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft {

namespace {

/**
 * AutoTVM-style search (Section 6.5): each round ranks a pool of random
 * candidates with a per-run GBT model and measures an epsilon-greedy
 * batch of them. The budget counts measurements, not rounds.
 */
class AutoTvmPolicy : public SearchPolicy
{
  public:
    AutoTvmPolicy(const ScheduleSpace &space, const ExploreOptions &options)
        : space_(space),
          options_(options),
          fitCounter_(maybeCounter(options.obs.metrics, "autotvm.model_fits"))
    {}

    Method method() const override { return Method::AutoTvm; }
    int spent(int) const override { return measured_; }
    const char *budgetUnit() const override { return "measured"; }

    bool step(SearchContext &ctx, int) override;
    bool restore(const CheckpointState &state) override;
    void save(CheckpointState &state) const override;

  private:
    static constexpr int kBatch = 8;   ///< measured configs per round
    static constexpr int kPool = 96;   ///< ranked candidates per round
    /** Simulated seconds per round for the model fit and ranking. */
    static constexpr double kModelOverhead = 2.0;

    const ScheduleSpace &space_;
    const ExploreOptions &options_;
    GbtModel model_;
    GbtOptions gbtOptions_;
    int measured_ = 0;
    /** The GBT's training set: every entry of H, in commit order. */
    std::vector<std::vector<double>> trainX_;
    std::vector<double> trainY_;
    DecodeScratch decodeScratch_;
    std::vector<double> feat_;
    Counter *fitCounter_;
};

bool
AutoTvmPolicy::step(SearchContext &ctx, int)
{
    Evaluator &eval = ctx.eval;
    TraceRecorder *trace = options_.obs.trace;
    // Candidate pool: random points ranked by the cost model (pure
    // random before the model has data).
    std::vector<Point> candidates;
    for (int i = 0; i < kPool; ++i) {
        Point p = space_.randomPoint(ctx.rng);
        if (!eval.known(p))
            candidates.push_back(std::move(p));
    }
    if (candidates.empty())
        return false;
    // Cold rounds: the per-run GBT has no data yet, so the persistent
    // model ranks the pool instead of leaving it in random order.
    const bool persistent_rank = !model_.trained() &&
                                 options_.costModel != nullptr &&
                                 options_.costModel->ready();
    // With pruning on, epsilon-greedy only draws from the ranked top
    // fraction of the pool (never fewer than one batch).
    const size_t pool = candidates.size();
    size_t keep = pool;
    if (pruningActive(options_) && (model_.trained() || persistent_rank)) {
        keep = std::max<size_t>(
            kBatch, static_cast<size_t>(std::ceil(
                        options_.prunerKeep * static_cast<double>(pool))));
    }
    if (persistent_rank || model_.trained()) {
        rankPoints(candidates, keep, [&](const Point &p) {
            if (persistent_rank) {
                eval.costFeaturesFor(p, feat_);
                return options_.costModel->predict(feat_);
            }
            space_.featuresInto(p, decodeScratch_, feat_);
            return model_.predict(feat_);
        });
    }
    if (keep < pool)
        ctx.notePrune(pool, keep);

    // Epsilon-greedy batch: mostly top-ranked, some random. Picks are
    // selected first, then measured as one parallel batch; the
    // selection's RNG stream and the resulting H match the
    // point-at-a-time equivalent exactly.
    const int take =
        std::min<int>(kBatch, static_cast<int>(candidates.size()));
    std::vector<Point> picks;
    std::unordered_set<PointKey> picked_keys;
    for (int i = 0;
         i < take &&
         measured_ + static_cast<int>(picks.size()) < options_.trials;
         ++i) {
        size_t pick = i;
        if (ctx.rng.chance(options_.epsilon))
            pick = ctx.rng.index(candidates.size());
        const Point &p = candidates[pick];
        const PointKey key = p.key64();
        if (eval.known(key) || !picked_keys.insert(key).second)
            continue;
        picks.push_back(p);
    }
    ctx.reval.evaluate(picks);
    measured_ += static_cast<int>(picks.size());

    // Refit the model on everything measured so far: the seed points
    // and every pick, which H holds in commit order.
    const std::vector<Evaluated> &history = eval.history();
    for (size_t i = trainY_.size(); i < history.size(); ++i) {
        trainX_.push_back(space_.features(history[i].point));
        trainY_.push_back(history[i].gflops);
    }
    if (trace) {
        trace->begin("model_fit", eval.simulatedSeconds(),
                     {tint("samples", static_cast<int64_t>(trainX_.size()))});
    }
    model_.fit(trainX_, trainY_, gbtOptions_, ctx.rng);
    eval.chargeOverhead(kModelOverhead);
    if (trace)
        trace->end("model_fit", eval.simulatedSeconds());
    if (fitCounter_)
        fitCounter_->add();
    return true;
}

bool
AutoTvmPolicy::restore(const CheckpointState &state)
{
    // "<measured> <GbtModel::serialize() tokens>"; the training set is
    // rebuilt from the restored H on the next step.
    std::istringstream in(state.methodState);
    int measured = 0;
    if (!(in >> measured) || measured < 0)
        return false;
    const std::string rest{std::istreambuf_iterator<char>(in), {}};
    GbtModel model;
    if (!model.deserialize(rest, space_.featureDim()))
        return false;
    measured_ = measured;
    model_ = std::move(model);
    return true;
}

void
AutoTvmPolicy::save(CheckpointState &state) const
{
    // One checkpoint line: deserialize() tokenizes on any whitespace.
    std::string model = model_.serialize();
    std::replace(model.begin(), model.end(), '\n', ' ');
    state.methodState = std::to_string(measured_) + " " + model;
}

} // namespace

ExploreResult
exploreAutoTvm(Evaluator &eval, const ExploreOptions &options)
{
    AutoTvmPolicy policy(eval.space(), options);
    return runSearch(eval, options, policy);
}

} // namespace ft
