/**
 * @file
 * Tests for the DNN layer: network definitions, shape propagation,
 * partition/fusion, and end-to-end scheduling.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "dnn/e2e.h"
#include "graph/dag.h"
#include "graph/lower.h"
#include "graph/partition.h"

namespace ft {
namespace {

TEST(Models, YoloV1Structure)
{
    Network net = yoloV1();
    // Section 6.6: 24 conv layers, ~30 layers total.
    EXPECT_EQ(net.numConvLayers(), 24);
    EXPECT_EQ(net.inputShape, (std::vector<int64_t>{1, 3, 448, 448}));
    EXPECT_EQ(static_cast<int>(net.layers.size()), 30);
}

TEST(Models, OverFeatStructure)
{
    Network net = overFeat();
    // Section 6.6: 5 conv layers, 8 weight layers total.
    EXPECT_EQ(net.numConvLayers(), 5);
    int weight_layers = 0;
    for (const auto &l : net.layers)
        weight_layers += l.kind != LayerSpec::Kind::MaxPool;
    EXPECT_EQ(weight_layers, 8);
}

TEST(Models, YoloShapesPropagate)
{
    Network net = yoloV1();
    auto shapes = layerShapes(net);
    ASSERT_EQ(shapes.size(), net.layers.size());
    // conv1 (7x7, s2, pad 3): 448 -> 224.
    EXPECT_EQ(shapes[0], (std::vector<int64_t>{1, 64, 224, 224}));
    // pool1: 224 -> 112.
    EXPECT_EQ(shapes[1], (std::vector<int64_t>{1, 64, 112, 112}));
    // Final dense layer: 7x7x1024 -> 4096 -> 1470.
    EXPECT_EQ(shapes.back(), (std::vector<int64_t>{1, 1470}));
    // The layer before the head is 7x7 spatial.
    EXPECT_EQ(shapes[shapes.size() - 3],
              (std::vector<int64_t>{1, 1024, 7, 7}));
}

TEST(Models, OverFeatShapesPropagate)
{
    Network net = overFeat();
    auto shapes = layerShapes(net);
    // conv1: (231 - 11)/4 + 1 = 56.
    EXPECT_EQ(shapes[0], (std::vector<int64_t>{1, 96, 56, 56}));
    EXPECT_EQ(shapes.back(), (std::vector<int64_t>{1, 1000}));
}

TEST(Fusion, EpiloguesAreFolded)
{
    Network net = overFeat();
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    const graph::Partition epi =
        graph::epiloguePartition(dag, Target::forGpu(v100()));
    ASSERT_EQ(epi.groups.size(), net.layers.size());
    // Conv layers absorb bias + relu: the anchor plus two members.
    EXPECT_EQ(epi.groups[0].members.size(), 3u);
    EXPECT_GE(epi.groups[0].anchor(dag), 0);
    // Pool layers are pure data movement.
    EXPECT_EQ(epi.groups[1].members.size(), 1u);
    EXPECT_EQ(epi.groups[1].anchor(dag), -1);
    // Final dense has bias but no relu.
    EXPECT_EQ(epi.groups.back().members.size(), 2u);
}

TEST(Fusion, DagAnchorShapesChainCorrectly)
{
    // Every layer's anchor (conv/dense) or pool node carries the layer's
    // name and output shape, in layer order.
    Network net = yoloV1();
    const graph::ComputeDag dag = graph::dagFromNetwork(net);
    auto shapes = layerShapes(net);
    size_t layer = 0;
    for (const graph::DagNode &node : dag.nodes) {
        if (!node.isHeavy() && node.kind != graph::NodeKind::Pool)
            continue;
        ASSERT_LT(layer, net.layers.size()) << node.name;
        EXPECT_EQ(node.name, net.layers[layer].name);
        EXPECT_EQ(node.shape, shapes[layer]) << node.name;
        ++layer;
    }
    EXPECT_EQ(layer, net.layers.size());
}

TEST(E2e, SchedulesOverFeatOnGpu)
{
    Network net = overFeat();
    E2eOptions options;
    options.explore.trials = 12;
    options.explore.warmupPoints = 4;
    NetworkReport report =
        scheduleNetwork(net, Target::forGpu(v100()), options);
    EXPECT_EQ(report.layers.size(), net.layers.size());
    EXPECT_GT(report.totalSeconds, 0.0);
    // Every conv/dense layer is tuned, pools are not.
    int tuned = 0;
    for (const auto &l : report.layers)
        tuned += l.tuned;
    EXPECT_EQ(tuned, 8);
}

TEST(E2e, FusionSavesTime)
{
    Network net = overFeat();
    E2eOptions fused_options;
    fused_options.explore.trials = 8;
    fused_options.explore.warmupPoints = 4;
    E2eOptions unfused_options = fused_options;
    unfused_options.fuse = FuseMode::None;
    Target target = Target::forGpu(v100());
    NetworkReport fused = scheduleNetwork(net, target, fused_options);
    NetworkReport unfused = scheduleNetwork(net, target, unfused_options);
    EXPECT_LT(fused.totalSeconds, unfused.totalSeconds);
}

TEST(E2e, TunedRowsMatchAcrossModesAndDirectTuning)
{
    // Fusing epilogues only regroups bias/ReLU: every tuned anchor's row
    // is bit-identical in None and Epilogue mode and to tuning the
    // lowered anchor directly, and Epilogue mode keeps one row per
    // network layer, named after it.
    for (const Target &target :
         {Target::forGpu(v100()), Target::forCpu(xeonE5()),
          Target::forFpga(vu9p())}) {
        for (const Network &net : {overFeat(), yoloV1()}) {
            const graph::ComputeDag dag = graph::dagFromNetwork(net);
            for (Method method : {Method::QMethod, Method::AutoTvm}) {
                SCOPED_TRACE(target.deviceName() + " " + net.name + " " +
                             methodName(method));
                E2eOptions options;
                options.method = method;
                options.explore.trials = 8;
                options.explore.warmupPoints = 4;
                options.fuse = FuseMode::Epilogue;
                const NetworkReport epi =
                    scheduleNetwork(net, target, options);
                options.fuse = FuseMode::None;
                const NetworkReport none =
                    scheduleNetwork(net, target, options);

                ASSERT_EQ(epi.layers.size(), net.layers.size());
                for (size_t i = 0; i < net.layers.size(); ++i)
                    EXPECT_EQ(epi.layers[i].name, net.layers[i].name);
                EXPECT_GT(none.layers.size(), epi.layers.size());

                TuneOptions direct;
                direct.method = method;
                direct.explore = options.explore;
                auto unfused = none.layers.begin();
                for (const LayerReport &row : epi.layers) {
                    if (!row.tuned)
                        continue;
                    unfused = std::find_if(
                        unfused, none.layers.end(),
                        [&](const LayerReport &r) { return r.tuned; });
                    ASSERT_NE(unfused, none.layers.end()) << row.name;
                    EXPECT_EQ(unfused->name, row.name);

                    int anchor = -1;
                    for (size_t v = 0; v < dag.nodes.size(); ++v)
                        if (dag.nodes[v].isHeavy() &&
                            dag.nodes[v].name == row.name)
                            anchor = static_cast<int>(v);
                    ASSERT_GE(anchor, 0) << row.name;
                    const TuneReport tuned =
                        tune(graph::lowerAnchor(dag, anchor).output,
                             target, direct);
                    EXPECT_EQ(row.gflops, tuned.gflops) << row.name;
                    EXPECT_EQ(unfused->gflops, row.gflops) << row.name;
                    if (tuned.kernelSeconds > 0.0) {
                        EXPECT_EQ(row.seconds, tuned.kernelSeconds)
                            << row.name;
                        EXPECT_EQ(unfused->seconds, row.seconds)
                            << row.name;
                    } else {
                        // No valid schedule within the budget (AutoTVM
                        // on V100 OverFeat fc1 at 8 trials): the group
                        // is charged its roofline memory time, which
                        // depends on the grouping.
                        EXPECT_GT(row.seconds, 0.0) << row.name;
                        EXPECT_GT(unfused->seconds, 0.0) << row.name;
                    }
                    ++unfused;
                }
                EXPECT_EQ(std::count_if(unfused, none.layers.end(),
                                        [](const LayerReport &r) {
                                            return r.tuned;
                                        }),
                          0);
            }
        }
    }
}

TEST(E2e, SchedulesOnCpuAndFpgaTargets)
{
    Network net = overFeat();
    E2eOptions options;
    options.explore.trials = 8;
    options.explore.warmupPoints = 4;
    for (const Target &t :
         {Target::forCpu(xeonE5()), Target::forFpga(vu9p())}) {
        NetworkReport report = scheduleNetwork(net, t, options);
        EXPECT_EQ(report.layers.size(), net.layers.size());
        EXPECT_GT(report.totalSeconds, 0.0) << t.deviceName();
        EXPECT_EQ(report.device, t.deviceName());
    }
}

TEST(E2e, TuningCacheDeduplicatesRepeatedLayers)
{
    // YOLO-v1 repeats conv shapes (four identical 1x1/3x3 pairs in block
    // 4); with a shared cache those layers are served without exploring.
    Network net = yoloV1();
    E2eOptions options;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;

    NetworkReport uncached =
        scheduleNetwork(net, Target::forGpu(v100()), options);

    TuningCache cache;
    options.cache = &cache;
    NetworkReport cached =
        scheduleNetwork(net, Target::forGpu(v100()), options);

    // 24 conv layers but far fewer distinct shapes.
    EXPECT_LT(cache.size(), 24u);
    EXPECT_GT(cache.size(), 5u);
    // Cache hits skip exploration entirely.
    EXPECT_LT(cached.simExploreSeconds,
              0.8 * uncached.simExploreSeconds);
}

TEST(E2e, SecondPassWithWarmCacheExploresNothing)
{
    Network net = overFeat();
    TuningCache cache;
    E2eOptions options;
    options.explore.trials = 6;
    options.explore.warmupPoints = 4;
    options.cache = &cache;
    Target target = Target::forGpu(v100());
    scheduleNetwork(net, target, options);
    NetworkReport second = scheduleNetwork(net, target, options);
    EXPECT_DOUBLE_EQ(second.simExploreSeconds, 0.0);
}

} // namespace
} // namespace ft
