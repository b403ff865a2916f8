#include "explore/explorer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "explore/driver.h"
#include "explore/sa.h"
#include "ml/costmodel.h"
#include "nn/mlp.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ft {

namespace {

/** One replay-buffer record: (state, action, next-state, reward). The
 *  points are kept alongside the features so the buffer can be
 *  checkpointed as coordinates and rebuilt exactly on resume. */
struct Transition
{
    Point start;
    Point next;
    std::vector<float> stateFeatures;
    int direction;
    std::vector<float> nextFeatures;
    float reward;
};

std::vector<float>
toFloat(const std::vector<double> &v)
{
    return std::vector<float>(v.begin(), v.end());
}

int64_t
wallNsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Candidates simulated given the keep fraction: at least one. */
size_t
keepCount(double keep, size_t n)
{
    return std::max<size_t>(
        1, static_cast<size_t>(
               std::ceil(keep * static_cast<double>(n))));
}

/**
 * Keep only the top prunerKeep fraction of `points` by predicted rank
 * score (stable order among survivors).
 */
void
pruneCandidates(SearchContext &ctx, std::vector<Point> &points)
{
    const size_t n = points.size();
    const size_t keep = keepCount(ctx.options.prunerKeep, n);
    if (keep >= n)
        return;
    std::vector<double> feat;
    rankPoints(points, keep, [&](const Point &p) {
        ctx.eval.costFeaturesFor(p, feat);
        return ctx.options.costModel->predict(feat);
    });
    ctx.notePrune(n, keep);
}

/**
 * The paper's method (Section 5.1): SA picks starting points from H and
 * a Q-network ranks each start's directions; the best unvisited one is
 * measured.
 */
class QPolicy : public SearchPolicy
{
  public:
    QPolicy(const ScheduleSpace &space, const ExploreOptions &options)
        : space_(space),
          options_(options),
          featureDim_(space.featureDim()),
          numDirs_(space.numDirections()),
          chooser_(options.saGamma),
          order_(numDirs_),
          forwardCounter_(maybeCounter(options.obs.metrics,
                                       "q.forward_passes")),
          trainCounter_(maybeCounter(options.obs.metrics, "q.train_rounds")),
          forwardNsCounter_(options.obs.wallProfile
                                ? maybeCounter(options.obs.metrics,
                                               "q.forward_batch.ns")
                                : nullptr)
    {}

    Method method() const override { return Method::QMethod; }
    bool warmsUp() const override { return true; }
    bool step(SearchContext &ctx, int trial) override;
    bool restore(const CheckpointState &state) override;
    void save(CheckpointState &state) const override;

  private:
    /** Section 5.1: four fully-connected layers with ReLU. */
    std::vector<int> netDims() const
    {
        return {featureDim_, options_.hidden, options_.hidden,
                options_.hidden, numDirs_};
    }

    void train(SearchContext &ctx);

    const ScheduleSpace &space_;
    const ExploreOptions &options_;
    const int featureDim_;
    const int numDirs_;
    SaChooser chooser_;
    /** Online network X and target network Y (online training with
     *  AdaDelta, Y stabilizing the updates). Drawn on the first step,
     *  after warm-up, unless restored from a checkpoint. */
    std::optional<Mlp> netX_, netY_;
    std::vector<Transition> replay_;
    AdaDeltaOptions adadelta_;

    // Reused hot-loop buffers: the per-step feature batch (row-major
    // starts x feature_dim), the decode scratch feeding it, the network
    // scratch, the direction ranking, and the training gather buffers.
    DecodeScratch decodeScratch_;
    std::vector<double> featD_;
    std::vector<float> batchFeat_;
    MlpScratch netScratch_;
    std::vector<int> order_;
    std::vector<size_t> replayIdx_;
    std::vector<float> trainFeat_;
    std::vector<float> trainState_;
    std::vector<int> trainAction_;
    std::vector<float> targets_;
    // Pruned-path buffers (untouched unless a trained model is attached).
    std::vector<int> candDirs_;
    std::vector<Point> candPoints_;
    std::vector<double> pruneFeat_;

    Counter *forwardCounter_;
    Counter *trainCounter_;
    Counter *forwardNsCounter_;
};

bool
QPolicy::step(SearchContext &ctx, int trial)
{
    Evaluator &eval = ctx.eval;
    TraceRecorder *trace = options_.obs.trace;
    if (!netX_) {
        // Fresh runs draw the weights here, after warm-up.
        netX_.emplace(netDims(), ctx.rng);
        netY_ = *netX_; // same initial parameters
    }
    auto starts = chooser_.chooseMany(eval, ctx.rng, options_.startingPoints);
    const int m = static_cast<int>(starts.size());

    // Batched direction inference: every start's feature row is decoded
    // into one matrix and the Q-network runs a single blocked pass over
    // it. Features and the network are fixed within a trial, so the
    // per-row results are bit-identical to per-start forward() calls.
    if (trace) {
        trace->begin("q_forward_batch", eval.simulatedSeconds(),
                     {tint("starts", m)});
    }
    const auto qf_t0 = std::chrono::steady_clock::now();
    batchFeat_.resize(static_cast<size_t>(m) * featureDim_);
    for (int s = 0; s < m; ++s) {
        space_.featuresInto(starts[s], decodeScratch_, featD_);
        float *row = batchFeat_.data() + static_cast<size_t>(s) * featureDim_;
        for (int i = 0; i < featureDim_; ++i)
            row[i] = static_cast<float>(featD_[i]);
    }
    const float *batch_q =
        m > 0 ? netX_->forwardBatch(batchFeat_.data(), m, netScratch_)
              : nullptr;
    if (forwardNsCounter_)
        forwardNsCounter_->add(static_cast<uint64_t>(wallNsSince(qf_t0)));
    if (trace) {
        if (options_.obs.wallProfile) {
            trace->end("q_forward_batch", eval.simulatedSeconds(),
                       {tint("ns", wallNsSince(qf_t0))});
        } else {
            trace->end("q_forward_batch", eval.simulatedSeconds());
        }
    }
    if (forwardCounter_)
        forwardCounter_->add(static_cast<uint64_t>(m));

    for (int s = 0; s < m; ++s) {
        const Point &start = starts[s];
        const float *q = batch_q + static_cast<size_t>(s) * numDirs_;

        // Rank directions by predicted Q-value; epsilon-greedy.
        for (int d = 0; d < numDirs_; ++d)
            order_[d] = d;
        const bool greedy = !ctx.rng.chance(options_.epsilon);
        if (!greedy) {
            ctx.rng.shuffle(order_);
        } else {
            std::sort(order_.begin(), order_.end(),
                      [&](int a, int b) { return q[a] > q[b]; });
        }

        // Take the best direction that leads to an unvisited point. With
        // pruning on, the persistent model re-ranks the top prunerKeep
        // fraction of the Q-ordered candidates and the model-argmax is
        // measured instead of the first.
        int chosen_dir = -1;
        std::optional<Point> chosen;
        if (!pruningActive(options_)) {
            for (int d : order_) {
                auto next = space_.move(start, d);
                if (!next || eval.known(next->key64()))
                    continue;
                chosen_dir = d;
                chosen = std::move(next);
                break;
            }
        } else {
            candDirs_.clear();
            candPoints_.clear();
            for (int d : order_) {
                auto next = space_.move(start, d);
                if (!next || eval.known(next->key64()))
                    continue;
                candDirs_.push_back(d);
                candPoints_.push_back(std::move(*next));
            }
            if (!candPoints_.empty()) {
                const size_t consider =
                    keepCount(options_.prunerKeep, candPoints_.size());
                size_t best_i = 0;
                double best_score = 0.0;
                for (size_t i = 0; i < consider; ++i) {
                    eval.costFeaturesFor(candPoints_[i], pruneFeat_);
                    double score = options_.costModel->predict(pruneFeat_);
                    if (i == 0 || score > best_score) {
                        best_score = score;
                        best_i = i;
                    }
                }
                chosen_dir = candDirs_[best_i];
                chosen = std::move(candPoints_[best_i]);
                ctx.notePrune(consider, 1);
            }
        }
        if (chosen) {
            const int d = chosen_dir;
            const Point &next = *chosen;
            const PointKey next_key = next.key64();
            double e_start = eval.evaluate(start);
            double e_next = ctx.reval.evaluate(next, next_key);
            float reward = static_cast<float>((e_next - e_start) /
                                              std::max(e_start, 1e-9));
            const float *feat_row =
                batchFeat_.data() + static_cast<size_t>(s) * featureDim_;
            space_.featuresInto(next, decodeScratch_, featD_);
            replay_.push_back(
                {start, next,
                 std::vector<float>(feat_row, feat_row + featureDim_), d,
                 toFloat(featD_), reward});
            if (trace) {
                trace->point("q_step", eval.simulatedSeconds(),
                             {tstr("key", next.key()), tint("dir", d),
                              treal("reward", reward),
                              tbool("greedy", greedy)});
            }
        }
    }

    // Periodic online training of X against the target network Y.
    if ((trial + 1) % options_.trainEvery == 0 && !replay_.empty())
        train(ctx);
    return true;
}

void
QPolicy::train(SearchContext &ctx)
{
    TraceRecorder *trace = options_.obs.trace;
    if (trace)
        trace->begin("q_train", ctx.eval.simulatedSeconds());
    netX_->zeroGrad();
    int batch = std::min<int>(options_.replayBatch,
                              static_cast<int>(replay_.size()));
    // Pre-draw the replay sample (same RNG draw order as a per-sample
    // loop: nothing between the draws consumes randomness), then run the
    // target network over the whole sample in one blocked pass.
    replayIdx_.resize(batch);
    for (int b = 0; b < batch; ++b)
        replayIdx_[b] = ctx.rng.index(replay_.size());
    trainFeat_.resize(static_cast<size_t>(batch) * featureDim_);
    for (int b = 0; b < batch; ++b) {
        const Transition &t = replay_[replayIdx_[b]];
        std::copy(t.nextFeatures.begin(), t.nextFeatures.end(),
                  trainFeat_.begin() + static_cast<size_t>(b) * featureDim_);
    }
    const float *next_q_all =
        netY_->forwardBatch(trainFeat_.data(), batch, netScratch_);
    targets_.resize(batch);
    for (int b = 0; b < batch; ++b) {
        const float *row = next_q_all + static_cast<size_t>(b) * numDirs_;
        // First-largest scan: same element as std::max_element.
        float max_next = row[0];
        for (int d = 1; d < numDirs_; ++d) {
            if (row[d] > max_next)
                max_next = row[d];
        }
        targets_[b] = static_cast<float>(options_.qAlpha) * max_next +
                      replay_[replayIdx_[b]].reward;
    }
    // One batched gradient pass: forward runs once over the sample
    // lanes, gradients accumulate in index order — the same values a
    // per-sample accumulateGrad loop produces.
    trainState_.resize(static_cast<size_t>(batch) * featureDim_);
    trainAction_.resize(batch);
    for (int b = 0; b < batch; ++b) {
        const Transition &t = replay_[replayIdx_[b]];
        std::copy(t.stateFeatures.begin(), t.stateFeatures.end(),
                  trainState_.begin() + static_cast<size_t>(b) * featureDim_);
        trainAction_[b] = t.direction;
    }
    netX_->accumulateGradBatch(trainState_.data(), batch,
                               trainAction_.data(), targets_.data(),
                               netScratch_);
    netX_->step(adadelta_);
    netY_->copyValuesFrom(*netX_);
    if (trace) {
        trace->end("q_train", ctx.eval.simulatedSeconds(),
                   {tint("batch", batch)});
    }
    if (trainCounter_)
        trainCounter_->add();
}

bool
QPolicy::restore(const CheckpointState &state)
{
    // The construction draws come from a throwaway stream; the snapshot
    // overwrites every weight and accumulator.
    Rng unused(0);
    Mlp net(netDims(), unused);
    if (!net.restoreCheckpointState(state.netState))
        return false;
    // Rebuild the replay buffer from its coordinates: features come from
    // the space, rewards from the values recorded in the snapshot's H.
    std::unordered_map<PointKey, double> measured;
    for (const Evaluated &e : state.history)
        measured.emplace(e.point.key64(), e.gflops);
    std::vector<Transition> replay;
    replay.reserve(state.replay.size());
    for (const ReplayTransition &r : state.replay) {
        Transition t;
        t.start = Point{r.start};
        t.next = Point{r.next};
        t.direction = r.direction;
        auto e_start = measured.find(t.start.key64());
        auto e_next = measured.find(t.next.key64());
        if (e_start == measured.end() || e_next == measured.end() ||
            t.direction < 0 || t.direction >= numDirs_) {
            return false;
        }
        t.stateFeatures = toFloat(space_.features(t.start));
        t.nextFeatures = toFloat(space_.features(t.next));
        t.reward = static_cast<float>(
            (e_next->second - e_start->second) /
            std::max(e_start->second, 1e-9));
        replay.push_back(std::move(t));
    }
    netY_ = net;
    netX_ = std::move(net);
    replay_ = std::move(replay);
    return true;
}

void
QPolicy::save(CheckpointState &state) const
{
    state.netState = netX_->checkpointState();
    state.replay.reserve(replay_.size());
    for (const Transition &t : replay_)
        state.replay.push_back({t.start.idx, t.direction, t.next.idx});
}

/**
 * The exhaustive-neighbourhood baseline (Section 6.5): SA picks starting
 * points and every direction of each start is measured.
 */
class PPolicy : public SearchPolicy
{
  public:
    PPolicy(const ScheduleSpace &space, const ExploreOptions &options)
        : space_(space), options_(options), chooser_(options.saGamma)
    {}

    Method method() const override { return Method::PMethod; }
    bool warmsUp() const override { return true; }

    bool step(SearchContext &ctx, int) override
    {
        auto starts =
            chooser_.chooseMany(ctx.eval, ctx.rng, options_.startingPoints);
        for (const Point &start : starts) {
            if (ctx.stop())
                break;
            // Measure the full neighbourhood of the starting point as one
            // parallel batch (early-stop granularity is a whole
            // neighbourhood, matching batched measurement).
            neighborhood_.clear();
            for (int d = 0; d < space_.numDirections(); ++d) {
                auto next = space_.move(start, d);
                if (next && !ctx.eval.known(*next))
                    neighborhood_.push_back(std::move(*next));
            }
            // Pruned mode simulates only the model's top fraction of the
            // neighbourhood instead of every direction.
            if (pruningActive(options_))
                pruneCandidates(ctx, neighborhood_);
            ctx.reval.evaluate(neighborhood_);
        }
        return true;
    }

  private:
    const ScheduleSpace &space_;
    const ExploreOptions &options_;
    SaChooser chooser_;
    std::vector<Point> neighborhood_;
};

/** Uniform random search (ablation baseline): one point per step. */
class RandomPolicy : public SearchPolicy
{
  public:
    RandomPolicy(const ScheduleSpace &space, const ExploreOptions &options)
        : space_(space), options_(options)
    {}

    Method method() const override { return Method::Random; }

    bool step(SearchContext &ctx, int) override
    {
        if (!pruningActive(options_)) {
            ctx.reval.evaluate(space_.randomPoint(ctx.rng));
            return true;
        }
        // Pruned random search draws a batch sized so that keeping the
        // prunerKeep fraction measures ~one model-chosen point per trial
        // — same measurement budget, model-guided picks.
        const int n = std::max(
            1, static_cast<int>(std::ceil(1.0 / options_.prunerKeep)));
        draws_.clear();
        for (int i = 0; i < n; ++i)
            draws_.push_back(space_.randomPoint(ctx.rng));
        pruneCandidates(ctx, draws_);
        ctx.reval.evaluate(draws_);
        return true;
    }

  private:
    const ScheduleSpace &space_;
    const ExploreOptions &options_;
    std::vector<Point> draws_;
};

} // namespace

ExploreResult
exploreQMethod(Evaluator &eval, const ExploreOptions &options)
{
    QPolicy policy(eval.space(), options);
    return runSearch(eval, options, policy);
}

ExploreResult
explorePMethod(Evaluator &eval, const ExploreOptions &options)
{
    PPolicy policy(eval.space(), options);
    return runSearch(eval, options, policy);
}

ExploreResult
exploreRandom(Evaluator &eval, const ExploreOptions &options)
{
    RandomPolicy policy(eval.space(), options);
    return runSearch(eval, options, policy);
}

} // namespace ft
