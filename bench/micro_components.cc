/**
 * @file
 * google-benchmark micro-benchmarks for the library's hot components:
 * expression interpretation, schedule lowering, model evaluation, space
 * construction, neighbor moves, Q-network inference/training, and GBT
 * fitting. These bound the overhead side of the exploration loop (the
 * paper's search must stay cheap relative to on-device measurement).
 */
#include <benchmark/benchmark.h>

#include "core/flextensor.h"
#include "ml/gbt.h"
#include "nn/mlp.h"
#include "support/rng.h"

using namespace ft;

namespace {

Tensor
benchConv()
{
    Tensor input = placeholder("I", {1, 32, 28, 28});
    Tensor weight = placeholder("W", {64, 32, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    return ops::conv2d(input, weight, p);
}

void
BM_ReferenceExecuteConv(benchmark::State &state)
{
    Tensor input = placeholder("I", {1, 4, 12, 12});
    Tensor weight = placeholder("W", {8, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2d(input, weight, p);
    MiniGraph g(out);
    Rng rng(1);
    BufferMap inputs = makeRandomInputs(g, rng);
    for (auto _ : state) {
        BufferMap buffers = inputs;
        runGraphReference(g, buffers);
        benchmark::DoNotOptimize(buffers);
    }
}
BENCHMARK(BM_ReferenceExecuteConv);

void
BM_ScheduledInterpretConv(benchmark::State &state)
{
    Tensor input = placeholder("I", {1, 4, 12, 12});
    Tensor weight = placeholder("W", {8, 4, 3, 3});
    ops::ConvParams p;
    p.padding = 1;
    Tensor out = ops::conv2d(input, weight, p);
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Rng rng(2);
    BufferMap inputs = makeRandomInputs(g, rng);
    runGraphReference(g, inputs);
    inputs.erase(anchor.get());
    Target target = Target::forGpu(v100());
    Scheduled s = generate(anchor, expertConfig(anchor, target), target);
    for (auto _ : state) {
        BufferMap buffers = inputs;
        runScheduled(s.nest, buffers);
        benchmark::DoNotOptimize(buffers);
    }
}
BENCHMARK(BM_ScheduledInterpretConv);

void
BM_LowerAndModelGpu(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forGpu(v100());
    OpConfig cfg = expertConfig(anchor, target);
    for (auto _ : state) {
        Scheduled s = generate(anchor, cfg, target);
        PerfResult perf = modelPerf(s.features, target);
        benchmark::DoNotOptimize(perf);
    }
}
BENCHMARK(BM_LowerAndModelGpu);

void
BM_BuildSpace(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forGpu(v100());
    for (auto _ : state) {
        ScheduleSpace space = buildSpace(anchor, target);
        benchmark::DoNotOptimize(space.size());
    }
}
BENCHMARK(BM_BuildSpace);

void
BM_SpaceMove(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    ScheduleSpace space = buildSpace(anchor, Target::forGpu(v100()));
    Rng rng(3);
    Point p = space.randomPoint(rng);
    int dir = 0;
    for (auto _ : state) {
        auto next = space.move(p, dir);
        if (next)
            p = *next;
        dir = (dir + 1) % space.numDirections();
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_SpaceMove);

void
BM_EvaluatorThroughput(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    Operation anchor = anchorOp(g);
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(anchor, target);
    Evaluator eval(anchor, space, target);
    Rng rng(4);
    for (auto _ : state) {
        benchmark::DoNotOptimize(eval.evaluate(space.randomPoint(rng)));
    }
}
BENCHMARK(BM_EvaluatorThroughput);

void
BM_QNetworkForward(benchmark::State &state)
{
    Rng rng(5);
    Mlp net({48, 64, 64, 64, 40}, rng);
    std::vector<float> x(48, 0.3f);
    for (auto _ : state)
        benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_QNetworkForward);

void
BM_QNetworkTrainStep(benchmark::State &state)
{
    Rng rng(6);
    Mlp net({48, 64, 64, 64, 40}, rng);
    std::vector<float> x(48, 0.3f);
    AdaDeltaOptions opt;
    for (auto _ : state) {
        net.zeroGrad();
        net.accumulateGrad(x, 7, 1.0f);
        net.step(opt);
    }
}
BENCHMARK(BM_QNetworkTrainStep);

/** 128 rows x 24 features; `discrete` draws tile-index-like levels. */
void
gbtFitBench(benchmark::State &state, bool discrete)
{
    Rng data(7);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    for (int i = 0; i < 128; ++i) {
        std::vector<double> f(24);
        for (auto &v : f)
            v = discrete ? static_cast<double>(data.below(6)) : data.uniform();
        y.push_back(f[0] * 2 - f[1]);
        x.push_back(std::move(f));
    }
    Rng rng(8);
    GbtOptions opt;
    opt.trees = 20;
    for (auto _ : state) {
        GbtModel model;
        model.fit(x, y, opt, rng);
        benchmark::DoNotOptimize(model.predict(x[0]));
    }
}

/** Uniform features: every pivot is a distinct threshold. */
void
BM_GbtFit(benchmark::State &state)
{
    gbtFitBench(state, false);
}
BENCHMARK(BM_GbtFit);

/** Discrete features, as ScheduleSpace emits: pivots repeat. */
void
BM_GbtFitDiscrete(benchmark::State &state)
{
    gbtFitBench(state, true);
}
BENCHMARK(BM_GbtFitDiscrete);

/** The persistent CostModel's refit: a full 512-trial window over ~10
 *  workload groups, 32 features, 16 rank-objective trees. */
void
BM_GbtFitRank(benchmark::State &state)
{
    Rng data(9);
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    std::vector<uint64_t> group;
    for (int i = 0; i < 512; ++i) {
        std::vector<double> f(32);
        for (auto &v : f)
            v = static_cast<double>(data.below(8));
        y.push_back(f[0] * f[1] + 0.5 * f[2] + data.uniform());
        group.push_back(data.below(10));
        x.push_back(std::move(f));
    }
    Rng rng(10);
    GbtOptions opt;
    opt.trees = 16;
    for (auto _ : state) {
        GbtModel model;
        model.fitRank(x, y, group, opt, rng);
        benchmark::DoNotOptimize(model.predict(x[0]));
    }
}
BENCHMARK(BM_GbtFitRank);

void
BM_StaticAnalysis(benchmark::State &state)
{
    Tensor out = benchConv();
    MiniGraph g(out);
    for (auto _ : state) {
        GraphAnalysis a = analyzeGraph(g);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_StaticAnalysis);

} // namespace

BENCHMARK_MAIN();
