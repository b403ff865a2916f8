/**
 * @file
 * Tests for schedule serialization, the tuning cache, point recovery
 * (ScheduleSpace::pointOf), and cache/seed integration with the tuner.
 */
#include <gtest/gtest.h>

#include <cstdio>

#include "explore/tuner.h"
#include "ops/ops.h"
#include "schedule/serialize.h"
#include "sim/library_model.h"
#include "support/journal.h"
#include "support/rng.h"

namespace ft {
namespace {

OpConfig
sampleConfig()
{
    OpConfig config;
    config.spatialSplits = {{4, 2, 8, 1}, {16, 1, 4, 2}};
    config.reduceSplits = {{32, 2, 4}};
    config.reorderChoice = 2;
    config.fuseCount = 2;
    config.unrollDepth = 3;
    config.vectorizeLen = 16;
    config.fpgaBufferRows = 4;
    config.fpgaPartition = 8;
    return config;
}

TEST(Serialize, ConfigRoundTrips)
{
    OpConfig config = sampleConfig();
    auto parsed = parseConfig(serializeConfig(config));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->spatialSplits, config.spatialSplits);
    EXPECT_EQ(parsed->reduceSplits, config.reduceSplits);
    EXPECT_EQ(parsed->reorderChoice, config.reorderChoice);
    EXPECT_EQ(parsed->fuseCount, config.fuseCount);
    EXPECT_EQ(parsed->unrollDepth, config.unrollDepth);
    EXPECT_EQ(parsed->vectorizeLen, config.vectorizeLen);
    EXPECT_EQ(parsed->fpgaBufferRows, config.fpgaBufferRows);
    EXPECT_EQ(parsed->fpgaPartition, config.fpgaPartition);
}

TEST(Serialize, EmptySplitsRoundTrip)
{
    OpConfig config; // no splits at all
    auto parsed = parseConfig(serializeConfig(config));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->spatialSplits.empty());
    EXPECT_TRUE(parsed->reduceSplits.empty());
}

TEST(Serialize, RejectsGarbage)
{
    EXPECT_FALSE(parseConfig("not a config").has_value());
    EXPECT_FALSE(parseConfig("v2|s=1|r=1").has_value());
    EXPECT_FALSE(parseConfig("v1|s=a,b|r=").has_value());
}

TEST(Serialize, TuningKeyDependsOnShapeAndDevice)
{
    Tensor a1 = placeholder("A", {64, 32});
    Tensor b1 = placeholder("B", {32, 16});
    Tensor a2 = placeholder("A", {64, 64});
    Tensor b2 = placeholder("B", {64, 16});
    std::string k1 = tuningKey(ops::gemm(a1, b1), "V100");
    std::string k2 = tuningKey(ops::gemm(a2, b2), "V100");
    std::string k3 = tuningKey(ops::gemm(a1, b1), "XeonE5");
    EXPECT_NE(k1, k2);
    EXPECT_NE(k1, k3);
    // Structurally identical graphs share a key.
    Tensor a4 = placeholder("A", {64, 32});
    Tensor b4 = placeholder("B", {32, 16});
    EXPECT_EQ(k1, tuningKey(ops::gemm(a4, b4), "V100"));
}

TEST(TuningCache, KeepsBestPerKey)
{
    TuningCache cache;
    cache.put({"k", sampleConfig(), 10.0});
    OpConfig better = sampleConfig();
    better.unrollDepth = 1;
    cache.put({"k", better, 20.0});
    OpConfig worse = sampleConfig();
    worse.unrollDepth = 0;
    cache.put({"k", worse, 5.0});

    auto hit = cache.lookup("k");
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->gflops, 20.0);
    EXPECT_EQ(hit->config.unrollDepth, 1);
    EXPECT_FALSE(cache.lookup("other").has_value());
}

TEST(TuningCache, FileRoundTrip)
{
    const std::string path = "/tmp/flextensor_cache_test.txt";
    TuningCache cache;
    cache.put({"alpha", sampleConfig(), 12.5});
    OpConfig other = sampleConfig();
    other.reorderChoice = 0;
    cache.put({"beta", other, 7.25});
    ASSERT_TRUE(cache.save(path));

    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    auto hit = loaded.lookup("alpha");
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->gflops, 12.5);
    EXPECT_EQ(hit->config.spatialSplits, sampleConfig().spatialSplits);
    std::remove(path.c_str());
}

TEST(TuningCache, LoadMissingFileFails)
{
    TuningCache cache;
    EXPECT_FALSE(cache.load("/tmp/definitely_not_here_12345.txt"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(TuningCache, SkipsMalformedLines)
{
    // Intact frames whose payloads do not parse are skipped one by one;
    // the good record beside them is kept.
    const std::string path = "/tmp/flextensor_cache_bad.j";
    const std::string good =
        "good\t3.5\tv1|s=2,2|r=4|reorder=1|fuse=1|unroll=0|vec=8|rows=1|"
        "part=1";
    JournalWriter writer("tcache");
    writer.append("garbage line without tabs");
    writer.append("key\tnot_a_number\tv1|s=|r=");
    writer.append(good);
    ASSERT_TRUE(writer.commit(path));
    TuningCache cache;
    ASSERT_TRUE(cache.load(path));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_TRUE(cache.lookup("good").has_value());

    // A bare-text file (no journal header) loads as an empty cache.
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs((good + "\n").c_str(), f);
        std::fclose(f);
    }
    TuningCache bare;
    ASSERT_TRUE(bare.load(path));
    EXPECT_EQ(bare.size(), 0u);
    std::remove(path.c_str());
}

Tensor
cachedGemm()
{
    Tensor a = placeholder("A", {128, 64});
    Tensor b = placeholder("B", {64, 96});
    return ops::gemm(a, b);
}

TEST(SpacePointOf, RecoversDecodedConfig)
{
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(cachedGemm().op(), target);
    Rng rng(3);
    for (int trial = 0; trial < 50; ++trial) {
        Point p = space.randomPoint(rng);
        OpConfig config = space.decode(p);
        auto recovered = space.pointOf(config);
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(recovered->idx, p.idx);
    }
}

TEST(SpacePointOf, RejectsForeignConfig)
{
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(cachedGemm().op(), target);
    OpConfig bad = sampleConfig(); // wrong split shapes for this op
    EXPECT_FALSE(space.pointOf(bad).has_value());
}

TEST(TunerCache, SecondCallIsServedFromCache)
{
    TuningCache cache;
    TuneOptions options;
    options.explore.trials = 25;
    options.cache = &cache;

    Target target = Target::forGpu(v100());
    TuneReport first = tune(cachedGemm(), target, options);
    EXPECT_FALSE(first.fromCache);
    EXPECT_EQ(cache.size(), 1u);

    TuneReport second = tune(cachedGemm(), target, options);
    EXPECT_TRUE(second.fromCache);
    EXPECT_DOUBLE_EQ(second.gflops, first.gflops);
    EXPECT_EQ(serializeConfig(second.config),
              serializeConfig(first.config));
}

TEST(TunerCache, DifferentDeviceMisses)
{
    TuningCache cache;
    TuneOptions options;
    options.explore.trials = 20;
    options.cache = &cache;
    tune(cachedGemm(), Target::forGpu(v100()), options);
    TuneReport cpu = tune(cachedGemm(), Target::forCpu(xeonE5()), options);
    EXPECT_FALSE(cpu.fromCache);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(Explore, SeedPointsEnterHistory)
{
    Tensor out = cachedGemm();
    Target target = Target::forGpu(v100());
    ScheduleSpace space = buildSpace(out.op(), target);
    // Seed with the expert config's point.
    OpConfig expert = expertConfig(out.op(), target);
    auto seed_point = space.pointOf(expert);
    ASSERT_TRUE(seed_point.has_value());

    Evaluator eval(out.op(), space, target);
    ExploreOptions options;
    options.trials = 10;
    options.seedPoints = {*seed_point};
    ExploreResult result = exploreQMethod(eval, options);
    // The seed was evaluated, so the best is at least its value.
    double expert_gflops = eval.evaluate(*seed_point);
    EXPECT_GE(result.bestGflops, expert_gflops);
    EXPECT_TRUE(eval.known(*seed_point));
}

} // namespace
} // namespace ft
