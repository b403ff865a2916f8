/**
 * @file
 * Graph-level scheduling tests.
 *
 * The load-bearing suites are differential: a fused subgraph's outputs
 * must equal the layer-by-layer unfused reference BIT-FOR-BIT (compared
 * with exact float equality, not a tolerance). Both executors share the
 * per-element kernels, so what these tests pin down is the fused path's
 * streaming machinery — ring indexing, retention windows, and the
 * producer/consumer interleave — including on anchors computed by
 * sampled schedule points (reusing the test_fuzz_schedule.cc sampling
 * machinery), on multi-consumer tensors, and on ephemeral
 * intermediates that must never materialize.
 *
 * The partitioner is property-fuzzed over seeded random DAGs: every
 * compute op in exactly one group, quotient acyclic, ephemeral tensors
 * never escape, and the working-set constraint holds; a violation
 * prints the offending DAG spec for replay.
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "dnn/models.h"
#include "exec/interpreter.h"
#include "exec/reference.h"
#include "graph/fused_exec.h"
#include "graph/lower.h"
#include "graph/partition.h"
#include "graph/schedule_dag.h"
#include "obs/trace.h"
#include "schedule/generator.h"
#include "space/builder.h"
#include "support/rng.h"

namespace ft {
namespace graph {
namespace {

int
fuzzSamples()
{
    if (const char *env = std::getenv("FLEXTENSOR_FUZZ_SAMPLES")) {
        int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    return 200;
}

int
pushInput(ComputeDag &dag, const std::string &name,
          std::vector<int64_t> shape)
{
    DagNode n;
    n.kind = NodeKind::Input;
    n.name = name;
    n.shape = std::move(shape);
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushConv(ComputeDag &dag, const std::string &name, int data, int64_t k,
         int64_t kernel, int64_t stride, int64_t padding)
{
    // Copy: pushInput below may reallocate dag.nodes.
    const auto in = dag.nodes[data].shape;
    int w = pushInput(dag, name + ".w", {k, in[1], kernel, kernel});
    DagNode n;
    n.kind = NodeKind::Conv;
    n.name = name;
    n.inputs = {data, w};
    n.outChannels = k;
    n.kernel = kernel;
    n.stride = stride;
    n.padding = padding;
    n.shape = {in[0], k, (in[2] + 2 * padding - kernel) / stride + 1,
               (in[3] + 2 * padding - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushEltwise(ComputeDag &dag, NodeKind kind, const std::string &name,
            std::vector<int> inputs)
{
    DagNode n;
    n.kind = kind;
    n.name = name;
    n.inputs = std::move(inputs);
    n.shape = dag.nodes[n.inputs[0]].shape;
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

int
pushPool(ComputeDag &dag, const std::string &name, int data, int64_t kernel,
         int64_t stride)
{
    const auto &in = dag.nodes[data].shape;
    DagNode n;
    n.kind = NodeKind::Pool;
    n.name = name;
    n.inputs = {data};
    n.kernel = kernel;
    n.stride = stride;
    n.shape = {in[0], in[1], (in[2] - kernel) / stride + 1,
               (in[3] - kernel) / stride + 1};
    dag.nodes.push_back(std::move(n));
    return static_cast<int>(dag.nodes.size()) - 1;
}

/** conv(3x3, pad 1) -> bias -> relu -> pool(2x2) chain. */
ComputeDag
chainDag()
{
    ComputeDag dag;
    dag.name = "chain";
    int data = pushInput(dag, "data", {1, 4, 10, 10});
    int conv = pushConv(dag, "conv", data, 6, 3, 1, 1);
    int bvec = pushInput(dag, "conv.b", {6});
    int bias = pushEltwise(dag, NodeKind::Bias, "conv.bias", {conv, bvec});
    int relu = pushEltwise(dag, NodeKind::Relu, "conv.relu", {bias});
    pushPool(dag, "pool", relu, 2, 2);
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/**
 * Multi-consumer DAG: relu feeds both a pool and a residual add, and
 * the add also re-reads the raw conv output —
 *
 *             conv -> bias -> relu -> pool
 *               \______________add___/
 * (add = conv + relu; pool and add are the two graph outputs).
 */
ComputeDag
multiConsumerDag()
{
    ComputeDag dag;
    dag.name = "multi";
    int data = pushInput(dag, "data", {1, 3, 8, 8});
    int conv = pushConv(dag, "conv", data, 5, 3, 1, 1);
    int bvec = pushInput(dag, "conv.b", {5});
    int bias = pushEltwise(dag, NodeKind::Bias, "conv.bias", {conv, bvec});
    int relu = pushEltwise(dag, NodeKind::Relu, "conv.relu", {bias});
    pushPool(dag, "pool", relu, 2, 2);
    pushEltwise(dag, NodeKind::Add, "residual", {conv, relu});
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/** Assign every compute node of `dag` to one fusion group. */
Partition
wholeDagGroup(const ComputeDag &dag, const Target &target)
{
    std::vector<int> assignment(dag.nodes.size(), -1);
    for (size_t i = 0; i < dag.nodes.size(); ++i)
        if (dag.nodes[i].kind != NodeKind::Input)
            assignment[i] = 0;
    return finalizePartition(dag, assignment, target);
}

/** Exact comparison of every non-ephemeral output, fused vs unfused. */
void
expectBitIdentical(const ComputeDag &dag, const Partition &partition,
                   const DagBuffers &fused, const DagBuffers &unfused)
{
    for (const FusionGroup &group : partition.groups)
        for (size_t m = 0; m < group.members.size(); ++m) {
            const int id = group.members[m];
            if (group.ephemeral[m]) {
                EXPECT_EQ(fused.count(id), 0u)
                    << "ephemeral " << dag.nodes[id].name
                    << " materialized a full buffer";
                continue;
            }
            ASSERT_EQ(fused.count(id), 1u) << dag.nodes[id].name;
            const DagTensor &a = fused.at(id);
            const DagTensor &b = unfused.at(id);
            ASSERT_EQ(a.numel(), b.numel());
            for (int64_t i = 0; i < a.numel(); ++i)
                ASSERT_EQ(a.data[i], b.data[i])
                    << dag.nodes[id].name << " element " << i
                    << " diverged (fused streaming bug)";
        }
}

TEST(GraphDagTest, NetworkDagsValidateAndFingerprintsAreStable)
{
    for (const Network &net : {yoloV1(), overFeat()}) {
        ComputeDag dag = dagFromNetwork(net);
        std::string why;
        EXPECT_TRUE(dag.validate(&why)) << why;
        EXPECT_EQ(dag.fingerprint(), dagFromNetwork(net).fingerprint());
        // Every layer maps to at least one compute node.
        EXPECT_GE(dag.numComputeNodes(),
                  static_cast<int>(net.layers.size()));
    }
    EXPECT_NE(dagFromNetwork(yoloV1()).fingerprint(),
              dagFromNetwork(overFeat()).fingerprint());
}

TEST(GraphDagTest, EpiloguePartitionMatchesLegacyGrouping)
{
    const Network net = yoloV1();
    const ComputeDag dag = dagFromNetwork(net);
    const Target target = Target::forGpu(v100());
    Partition epi = epiloguePartition(dag, target);
    // One group per network layer (conv+epilogue, pool, dense+epilogue).
    EXPECT_EQ(epi.groups.size(), net.layers.size());
    std::string why;
    EXPECT_TRUE(checkPartition(dag, epi, target, &why)) << why;
}

TEST(GraphDifferentialTest, FusedChainMatchesUnfusedBitForBit)
{
    const ComputeDag dag = chainDag();
    const Target target = Target::forGpu(v100());
    const Partition partition = wholeDagGroup(dag, target);
    std::string why;
    ASSERT_TRUE(checkPartition(dag, partition, target, &why)) << why;
    // conv, bias, relu die inside the group; only the pool output is real.
    EXPECT_EQ(partition.ephemeralBytes,
              dag.nodes[2].bytes() * 3); // three (1,6,10,10) tensors

    Rng rng(0x9a001);
    DagBuffers inputs = makeDagInputs(dag, rng);
    DagBuffers fused = inputs, unfused = inputs;
    FusedRunStats stats;
    runFusedPartition(dag, partition, target, fused, &stats);
    runDagReference(dag, unfused);
    expectBitIdentical(dag, partition, fused, unfused);

    // The executor's rings stay within the roofline's working-set
    // charge: the model bound is enforced by construction.
    EXPECT_LE(stats.scratchPeakBytes,
              partition.groups[0].cost.workingSetBytes);
    EXPECT_EQ(stats.ephemeralBytes, partition.ephemeralBytes);
}

TEST(GraphDifferentialTest, MultiConsumerEphemeralMatchesBitForBit)
{
    const ComputeDag dag = multiConsumerDag();
    const Target target = Target::forCpu(xeonE5());
    const Partition partition = wholeDagGroup(dag, target);
    std::string why;
    ASSERT_TRUE(checkPartition(dag, partition, target, &why)) << why;

    Rng rng(0x9a002);
    DagBuffers inputs = makeDagInputs(dag, rng);
    DagBuffers fused = inputs, unfused = inputs;
    runFusedPartition(dag, partition, target, fused, nullptr);
    runDagReference(dag, unfused);
    expectBitIdentical(dag, partition, fused, unfused);

    // The beam search must also produce a legal partition here, and
    // fusing can only reduce modeled traffic vs the epilogue grouping.
    Partition beam = partitionDag(dag, target);
    ASSERT_TRUE(checkPartition(dag, beam, target, &why)) << why;
    EXPECT_LE(beam.totalTrafficBytes,
              epiloguePartition(dag, target).totalTrafficBytes);
}

/**
 * The core acceptance property: on anchors computed by SAMPLED SCHEDULE
 * POINTS (different tilings, orders, and vector widths), the fused
 * streaming epilogue must match the unfused layer-by-layer reference
 * bit-for-bit. Both sides adopt the same scheduled anchor output, so
 * any divergence is the fused path's fault, not reduction reordering.
 */
TEST(GraphDifferentialTest, SampledSchedulePointsMatchBitForBit)
{
    const ComputeDag dag = chainDag();
    const int conv = 2; // node id of the conv anchor in chainDag()
    ASSERT_TRUE(dag.nodes[conv].isHeavy());

    for (int t = 0; t < 2; ++t) {
        const Target target = t == 0 ? Target::forGpu(v100())
                                     : Target::forCpu(xeonE5());
        const Partition partition = wholeDagGroup(dag, target);
        const int64_t cap = tierSpecFor(target).tier2Bytes;

        LoweredAnchor lowered = lowerAnchor(dag, conv);
        MiniGraph g(lowered.output);
        Operation anchor = anchorOp(g);
        ScheduleSpace space = buildSpace(anchor, target);

        Rng rng(0x9a003u + static_cast<uint64_t>(t));
        DagBuffers inputs = makeDagInputs(dag, rng);
        BufferMap ir = bindOperands(lowered, inputs);
        runGraphReference(g, ir); // materializes the pad helper node

        const int samples = std::max(4, fuzzSamples() / 25);
        for (int trial = 0; trial < samples; ++trial) {
            Point p = space.randomPoint(rng);
            OpConfig cfg = space.decode(p);
            Scheduled s = generate(anchor, cfg, target);

            BufferMap run = ir;
            run.erase(anchor.get());
            runScheduled(s.nest, run, 1 + trial % 3);

            DagBuffers fused = inputs, unfused = inputs;
            adoptAnchorOutput(lowered, run, conv, dag, fused);
            adoptAnchorOutput(lowered, run, conv, dag, unfused);
            for (const FusionGroup &group : partition.groups)
                runFusedGroup(dag, group, fused, cap, nullptr);
            runDagReference(dag, unfused);

            // The anchor is shared, so only downstream members differ.
            for (const FusionGroup &group : partition.groups)
                for (size_t m = 0; m < group.members.size(); ++m) {
                    const int id = group.members[m];
                    if (id == conv || group.ephemeral[m])
                        continue;
                    const DagTensor &a = fused.at(id);
                    const DagTensor &b = unfused.at(id);
                    ASSERT_EQ(a.numel(), b.numel());
                    for (int64_t i = 0; i < a.numel(); ++i)
                        ASSERT_EQ(a.data[i], b.data[i])
                            << "point " << p.key() << " node "
                            << dag.nodes[id].name << " element " << i;
                }
        }
    }
}

/** Seeded random DAG: chains with branches, pools, and residual adds. */
ComputeDag
randomDag(Rng &rng)
{
    ComputeDag dag;
    dag.name = "fuzzdag";
    const int64_t C = 1 + static_cast<int64_t>(rng.below(3));
    const int64_t H = 6 + 2 * static_cast<int64_t>(rng.below(3));
    int cur = pushInput(dag, "data", {1, C, H, H});
    std::vector<int> sameShape; // candidates for residual adds
    const int layers = 2 + static_cast<int>(rng.below(5));
    for (int l = 0; l < layers; ++l) {
        const std::string tag = "n" + std::to_string(l);
        const auto &shape = dag.nodes[cur].shape;
        switch (rng.below(5)) {
          case 0: { // conv (3x3, pad 1: shape-preserving spatially)
            cur = pushConv(dag, tag + ".conv", cur,
                           1 + static_cast<int64_t>(rng.below(4)), 3, 1, 1);
            sameShape.clear();
            break;
          }
          case 1: { // pool, when the spatial extent allows it
            if (shape[2] >= 4) {
                cur = pushPool(dag, tag + ".pool", cur, 2, 2);
                sameShape.clear();
            }
            break;
          }
          case 2: { // bias
            int b = pushInput(dag, tag + ".b", {shape[1]});
            cur = pushEltwise(dag, NodeKind::Bias, tag + ".bias",
                              {cur, b});
            break;
          }
          case 3: // relu
            cur = pushEltwise(dag, NodeKind::Relu, tag + ".relu", {cur});
            break;
          case 4: { // residual add against an earlier same-shape node
            if (!sameShape.empty()) {
                int other = sameShape[rng.index(sameShape.size())];
                cur = pushEltwise(dag, NodeKind::Add, tag + ".add",
                                  {other, cur});
            } else {
                cur = pushEltwise(dag, NodeKind::Relu, tag + ".relu",
                                  {cur});
            }
            break;
          }
        }
        sameShape.push_back(cur);
    }
    std::string why;
    EXPECT_TRUE(dag.validate(&why)) << why;
    return dag;
}

/**
 * Partitioner property fuzz: for every seeded random DAG, the beam
 * search must produce a partition satisfying ALL invariants (exactly-one
 * group, acyclic quotient, no ephemeral escape, working set within
 * capacity). checkPartition appends the DAG spec to its message, so a
 * failure here prints everything needed to replay the offending DAG.
 */
TEST(FuzzGraphPartitionTest, RandomDagsSatisfyAllPartitionInvariants)
{
    const int rounds = std::max(8, fuzzSamples() / 4);
    for (int round = 0; round < rounds; ++round) {
        Rng rng(0xda60000u + static_cast<uint64_t>(round));
        ComputeDag dag = randomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        std::string why;
        Partition beam = partitionDag(dag, target);
        ASSERT_TRUE(checkPartition(dag, beam, target, &why))
            << "seed " << round << ": " << why;
        // The baselines must be legal partitions of the same DAG too.
        ASSERT_TRUE(
            checkPartition(dag, epiloguePartition(dag, target), target,
                           &why))
            << "seed " << round << ": " << why;
        ASSERT_TRUE(checkPartition(dag, nonePartition(dag, target), target,
                                   &why))
            << "seed " << round << ": " << why;
        // Fusion never increases modeled DRAM traffic over unfused.
        EXPECT_LE(beam.totalTrafficBytes,
                  nonePartition(dag, target).totalTrafficBytes)
            << "seed " << round;
    }
}

/**
 * Executor fuzz: on the same seeded random DAGs, the fused streaming
 * run of the searched partition must match the unfused reference
 * bit-for-bit, with ring scratch within the modeled working set.
 */
TEST(FuzzGraphPartitionTest, RandomDagsFusedMatchesUnfusedBitForBit)
{
    const int rounds = std::max(6, fuzzSamples() / 10);
    for (int round = 0; round < rounds; ++round) {
        Rng rng(0xdb70000u + static_cast<uint64_t>(round));
        ComputeDag dag = randomDag(rng);
        const Target target = round % 2 == 0 ? Target::forGpu(v100())
                                             : Target::forCpu(xeonE5());
        Partition partition = partitionDag(dag, target);

        DagBuffers inputs = makeDagInputs(dag, rng);
        DagBuffers fused = inputs, unfused = inputs;
        FusedRunStats stats;
        runFusedPartition(dag, partition, target, fused, &stats);
        runDagReference(dag, unfused);
        expectBitIdentical(dag, partition, fused, unfused);

        int64_t maxWorkingSet = 0;
        for (const FusionGroup &g : partition.groups)
            maxWorkingSet =
                std::max(maxWorkingSet, g.cost.workingSetBytes);
        EXPECT_LE(stats.scratchPeakBytes, maxWorkingSet)
            << "seed " << round << " rings exceed the modeled working set\n"
            << dag.spec();
    }
}

TEST(GraphScheduleTest, TuneDagStitchesGroupsAndAccountsTraffic)
{
    const ComputeDag dag = chainDag();
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    options.explore.warmupPoints = 2;
    options.explore.seed = 0x6eed;

    TraceRecorder trace;
    options.explore.obs.trace = &trace;
    DagTuneReport rep = tuneDag(dag, target, options);

    EXPECT_EQ(rep.fingerprint, dag.fingerprint());
    EXPECT_EQ(rep.groups.size(), rep.partition.groups.size());
    EXPECT_GT(rep.totalSeconds, 0.0);
    EXPECT_GT(rep.ephemeralBytes, 0); // fusion found something to sink
    std::string why;
    EXPECT_TRUE(checkPartition(dag, rep.partition, target, &why)) << why;

    // Exactly one tuned anchor (the conv); its group absorbed the rest.
    int tuned = 0;
    for (const SubgraphReport &sub : rep.groups)
        tuned += sub.tuned;
    EXPECT_EQ(tuned, 1);

    // The new spans are on the timeline.
    int partitionSpans = 0, subgraphSpans = 0, graphRuns = 0;
    for (const std::string &line : trace.lines()) {
        auto ev = parseTraceLine(line);
        ASSERT_TRUE(ev.has_value()) << line;
        if (ev->name == "graph.partition" && ev->type == 'B')
            ++partitionSpans;
        if (ev->name == "graph.subgraph" && ev->type == 'B')
            ++subgraphSpans;
        if (ev->name == "graph_run" && ev->type == 'M')
            ++graphRuns;
    }
    EXPECT_EQ(graphRuns, 1);
    EXPECT_EQ(partitionSpans, 1);
    EXPECT_EQ(subgraphSpans,
              static_cast<int>(rep.partition.groups.size()));
}

TEST(GraphScheduleTest, GivenPartitionTunesLikeTheSearchedOne)
{
    // Handing tuneDag the partition its own search picks yields the same
    // report and the same sequence of trace events: the search is the
    // only difference between the two overloads.
    const ComputeDag dag = chainDag();
    const Target target = Target::forGpu(v100());
    TuneOptions options;
    options.method = Method::Random;
    options.explore.trials = 4;
    options.explore.warmupPoints = 2;
    options.explore.seed = 0x6eed;

    TraceRecorder searchedTrace, givenTrace;
    options.explore.obs.trace = &searchedTrace;
    const DagTuneReport searched = tuneDag(dag, target, options);
    options.explore.obs.trace = &givenTrace;
    const DagTuneReport given =
        tuneDag(dag, partitionDag(dag, target), target, options);

    EXPECT_EQ(given.totalSeconds, searched.totalSeconds);
    EXPECT_EQ(given.simExploreSeconds, searched.simExploreSeconds);
    EXPECT_EQ(given.trafficBytes, searched.trafficBytes);
    EXPECT_EQ(given.ephemeralBytes, searched.ephemeralBytes);
    ASSERT_EQ(given.groups.size(), searched.groups.size());
    for (size_t g = 0; g < given.groups.size(); ++g) {
        EXPECT_EQ(given.groups[g].members, searched.groups[g].members);
        EXPECT_EQ(given.groups[g].seconds, searched.groups[g].seconds);
    }

    const std::vector<std::string> searchedLines = searchedTrace.lines();
    const std::vector<std::string> givenLines = givenTrace.lines();
    ASSERT_EQ(givenLines.size(), searchedLines.size());
    for (size_t i = 0; i < givenLines.size(); ++i) {
        auto a = parseTraceLine(givenLines[i]);
        auto b = parseTraceLine(searchedLines[i]);
        ASSERT_TRUE(a.has_value() && b.has_value()) << givenLines[i];
        EXPECT_EQ(a->type, b->type) << givenLines[i];
        EXPECT_EQ(a->name, b->name) << givenLines[i];
    }
}

} // namespace
} // namespace graph
} // namespace ft
