/**
 * @file
 * Crash-safety tests for the durable stores: the CRC32-framed record
 * journal itself, plus the three adopters (explore checkpoints, the
 * persistent TuningCache, and DispatchTable files) against a corruption
 * corpus — torn tails at seeded crash offsets, bit flips, and blunt
 * truncation. The marquee test kills a tuning run of every method,
 * tears its checkpoint journal mid-frame as a crashing writer would, and
 * proves the resumed run is still bit-identical to one that was never
 * interrupted.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "explore/checkpoint.h"
#include "explore/tuner.h"
#include "family/dispatch.h"
#include "ml/costmodel.h"
#include "ops/ops.h"
#include "schedule/serialize.h"
#include "support/fault_injector.h"
#include "support/journal.h"

namespace ft {
namespace {

std::string
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// The journal layer itself.

TEST(Journal, FramesRoundTripThroughWriterAndParser)
{
    JournalWriter writer("test");
    writer.append("alpha");
    writer.append(""); // empty payloads are legal frames
    writer.append("gamma\twith\ttabs\nand a newline");

    JournalContents parsed = parseJournal(writer.bytes());
    EXPECT_TRUE(parsed.valid);
    EXPECT_FALSE(parsed.torn);
    EXPECT_EQ(parsed.kind, "test");
    ASSERT_EQ(parsed.records.size(), 3u);
    EXPECT_EQ(parsed.records[0], "alpha");
    EXPECT_EQ(parsed.records[1], "");
    EXPECT_EQ(parsed.records[2], "gamma\twith\ttabs\nand a newline");
}

TEST(Journal, TornTailKeepsEveryIntactFrameAndRepairs)
{
    const std::string path = ::testing::TempDir() + "ft_journal_torn.j";
    JournalWriter writer("test");
    writer.append("one");
    writer.append("two");
    const size_t intact_bytes = writer.bytes().size();
    writer.append("three");

    // A crash mid-append leaves the last frame torn on disk.
    ASSERT_TRUE(FaultInjector::writeTorn(path, writer.bytes(),
                                         intact_bytes + 7));
    JournalContents torn = readJournal(path);
    EXPECT_TRUE(torn.valid);
    EXPECT_TRUE(torn.torn);
    ASSERT_EQ(torn.records.size(), 2u);
    EXPECT_EQ(torn.records[1], "two");
    EXPECT_EQ(torn.validBytes, intact_bytes);
    EXPECT_NE(torn.diag.find("code=FT-JRNL-"), std::string::npos);
    EXPECT_NE(torn.diag.find("offset="), std::string::npos);

    // truncateToValid repairs the file in place (atomically).
    ASSERT_TRUE(truncateToValid(path, torn));
    JournalContents repaired = readJournal(path);
    EXPECT_FALSE(repaired.torn);
    EXPECT_EQ(repaired.records.size(), 2u);
    EXPECT_EQ(readBytes(path).size(), intact_bytes);
    std::remove(path.c_str());
}

TEST(Journal, BitFlipIsCaughtByTheFrameChecksum)
{
    const std::string path = ::testing::TempDir() + "ft_journal_flip.j";
    JournalWriter writer("test");
    writer.append("aaaaaaaaaa");
    const size_t first_end = writer.bytes().size();
    writer.append("bbbbbbbbbb");
    writeBytes(path, writer.bytes());

    // Flip one payload bit of the second frame: its CRC must reject it
    // while the first frame survives.
    const uint64_t bit = (first_end + 20) * 8 + 2;
    ASSERT_TRUE(FaultInjector::flipBit(path, bit));
    JournalContents parsed = readJournal(path);
    EXPECT_TRUE(parsed.valid);
    EXPECT_TRUE(parsed.torn);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0], "aaaaaaaaaa");
    EXPECT_NE(parsed.diag.find("FT-JRNL-"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, EverySeededCrashOffsetRecoversCommittedFrames)
{
    const std::string path = ::testing::TempDir() + "ft_journal_crash.j";
    JournalWriter committed("test");
    committed.append("committed-record");
    const std::string base = committed.bytes();
    JournalWriter full("test");
    full.append("committed-record");
    full.append("in-flight-record");
    const std::string bytes = full.bytes();

    // Crash at every seeded offset *during the append* of frame two:
    // frame one was durably committed and must never be lost.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        FaultProfile profile;
        profile.seed = seed;
        FaultInjector injector(profile);
        for (uint64_t schedule = 0; schedule < 8; ++schedule) {
            const size_t tail = bytes.size() - base.size();
            const size_t crash_at =
                base.size() +
                injector.crashOffsetFor(path, tail, schedule) % tail;
            ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));
            JournalContents parsed = readJournal(path);
            ASSERT_TRUE(parsed.valid)
                << "seed " << seed << " schedule " << schedule;
            ASSERT_GE(parsed.records.size(), 1u)
                << "seed " << seed << " schedule " << schedule
                << " crash_at " << crash_at;
            EXPECT_EQ(parsed.records[0], "committed-record");
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// The validate-once appender.

/** Crash-schedule seed for the sweeps: FT_CRASH_SEED when set. */
uint64_t
crashSeed(uint64_t fallback)
{
    if (const char *env = std::getenv("FT_CRASH_SEED"))
        return std::strtoull(env, nullptr, 0);
    return fallback;
}

TEST(JournalAppender, MatchesOneShotAppendByteForByte)
{
    // The oracle: one long-lived appender must leave exactly the bytes
    // that re-validating journalAppend calls leave, from every starting
    // state the validation handles.
    JournalWriter same("test");
    same.append("old-one");
    same.append("old-two");
    JournalWriter foreign("other");
    foreign.append("foreign-record");
    const std::string torn =
        same.bytes() + journalFrame("in-flight").substr(0, 9);
    struct Start
    {
        const char *name;
        bool exists;
        std::string bytes;
    };
    const std::vector<Start> starts = {
        {"missing", false, ""},
        {"empty", true, ""},
        {"not-a-journal", true, "legacy text\n"},
        {"foreign-kind", true, foreign.bytes()},
        {"clean", true, same.bytes()},
        {"torn-tail", true, torn},
        {"torn-header", true, same.bytes().substr(0, 5)},
    };
    const std::vector<std::string> payloads = {
        "alpha", "", "gamma\nwith a newline", std::string(3000, 'x'),
        "omega"};

    const std::string a = ::testing::TempDir() + "ft_appender_a.j";
    const std::string b = ::testing::TempDir() + "ft_appender_b.j";
    for (const Start &start : starts) {
        std::remove(a.c_str());
        std::remove(b.c_str());
        if (start.exists) {
            writeBytes(a, start.bytes);
            writeBytes(b, start.bytes);
        }
        JournalAppender appender(a, "test");
        for (size_t i = 0; i < payloads.size(); ++i) {
            ASSERT_TRUE(appender.append(payloads[i])) << start.name;
            ASSERT_TRUE(journalAppend(b, "test", payloads[i]))
                << start.name;
            ASSERT_EQ(readBytes(a), readBytes(b))
                << start.name << " after append " << i;
        }
        JournalContents parsed = readJournal(a);
        EXPECT_TRUE(parsed.valid) << start.name;
        EXPECT_FALSE(parsed.torn) << start.name;
        ASSERT_GE(parsed.records.size(), payloads.size()) << start.name;
        EXPECT_EQ(parsed.records.back(), payloads.back()) << start.name;
    }
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(JournalAppender, EverySeededCrashOffsetResumesOnAFrameBoundary)
{
    // A writer appends three frames and crashes mid-file; a new
    // appender must keep every intact frame, drop the torn bytes and
    // land its frame on a clean boundary — at every seeded offset,
    // including ones inside the header.
    const std::string path = ::testing::TempDir() + "ft_appender_crash.j";
    std::remove(path.c_str());
    {
        JournalAppender writer(path, "test");
        ASSERT_TRUE(writer.append("first"));
        ASSERT_TRUE(writer.append("second\nrecord"));
        ASSERT_TRUE(writer.append("third"));
    }
    const std::string bytes = readBytes(path);
    ASSERT_EQ(parseJournal(bytes).records.size(), 3u);

    const uint64_t profile_seed = crashSeed(0xa99e);
    FaultProfile profile;
    profile.seed = profile_seed;
    FaultInjector injector(profile);
    for (uint64_t schedule = 0; schedule < 16; ++schedule) {
        const size_t crash_at =
            injector.crashOffsetFor(path, bytes.size(), schedule) %
            bytes.size();
        ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));
        const JournalContents before = readJournal(path);

        JournalAppender resumed(path, "test");
        ASSERT_TRUE(resumed.append("after-crash"));
        ASSERT_TRUE(resumed.append("after-crash-2"));

        JournalWriter expected("test");
        if (before.valid) {
            for (const std::string &rec : before.records)
                expected.append(rec);
        }
        expected.append("after-crash");
        expected.append("after-crash-2");
        EXPECT_EQ(readBytes(path), expected.bytes())
            << "crash seed " << profile_seed << " schedule " << schedule
            << " offset " << crash_at;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint journal adopters.

Tensor
durabilityGemm(int64_t n = 256)
{
    Tensor a = placeholder("A", {n, n});
    Tensor b = placeholder("B", {n, n});
    return ops::gemm(a, b);
}

class CheckpointDurability : public ::testing::Test
{
  protected:
    CheckpointDurability()
        : out_(durabilityGemm()),
          target_(Target::forGpu(v100())),
          space_(buildSpace(out_.op(), target_))
    {}

    Tensor out_;
    Target target_;
    ScheduleSpace space_;
};

/** One method's kill-then-resume scenario. */
struct ResumeCase
{
    const char *name;
    Method method;
    bool faults;
    int trials;       ///< budget of the uninterrupted run
    int killedTrials; ///< budget of the run that gets killed
    int every;        ///< snapshot period in outer steps
};

/** Names the case in test listings (instead of its bytes). */
void
PrintTo(const ResumeCase &rc, std::ostream *os)
{
    *os << rc.name;
}

class CheckpointResume : public CheckpointDurability,
                         public ::testing::WithParamInterface<ResumeCase>
{};

/** Kill the run, tear its checkpoint journal as a crashing writer
 *  would, and the resumed run must STILL be bit-identical: the torn
 *  frame is dropped, the previous snapshot replays the missing steps
 *  deterministically — with and without injected measurement faults. */
TEST_P(CheckpointResume, KillThenTornResumeIsBitIdentical)
{
    const ResumeCase &rc = GetParam();
    const std::string path = ::testing::TempDir() + "ft_ckpt_resume_" +
                             rc.name + ".ftc";
    std::remove(path.c_str());

    // AutoTVM searches its template-restricted space, as tuneOp does.
    SpaceOptions space_options;
    space_options.templateRestricted = rc.method == Method::AutoTvm;
    const ScheduleSpace space = buildSpace(out_.op(), target_, space_options);

    FaultProfile profile;
    profile.transient = 0.3;
    profile.timeout = 0.1;
    profile.seed = 99;
    FaultInjector injector(profile);

    ExploreOptions options;
    options.trials = rc.trials;
    options.warmupPoints = 8;
    options.startingPoints = 2;
    options.seed = 0xd00dfeed;
    if (rc.faults)
        options.resilience.injector = &injector;

    Evaluator ref(out_.op(), space, target_);
    ExploreResult uninterrupted = exploreWith(rc.method, ref, options);
    EXPECT_FALSE(uninterrupted.resumed);

    // "Crashed" run: a smaller budget, snapshotting every `every` steps,
    // so the journal holds several snapshots.
    ExploreOptions partial = options;
    partial.trials = rc.killedTrials;
    partial.checkpointPath = path;
    partial.checkpointEveryTrials = rc.every;
    Evaluator killed(out_.op(), space, target_);
    EXPECT_FALSE(exploreWith(rc.method, killed, partial).resumed);

    // Tear the newest frame, as a crash during the final snapshot
    // append would, at a seeded byte inside it: FT_CRASH_SEED moves the
    // tear, so the CI seed sweep covers different ones.
    const std::string bytes = readBytes(path);
    auto full = loadCheckpoint(path);
    ASSERT_TRUE(full.has_value());
    const int newest_trial = full->trial;
    // Without its last byte the image parses intact up to the start of
    // the newest frame.
    const size_t newest_frame =
        parseJournal(std::string_view(bytes).substr(0, bytes.size() - 1))
            .validBytes;
    ASSERT_GT(newest_frame, 0u);
    FaultProfile tear;
    tear.seed = crashSeed(0x7ea4);
    const size_t tear_at =
        newest_frame + FaultInjector(tear).crashOffsetFor(
                           rc.name, bytes.size() - newest_frame);
    SCOPED_TRACE("crash seed " + std::to_string(tear.seed) + ", torn at " +
                 std::to_string(tear_at) + " of " +
                 std::to_string(bytes.size()) + " bytes");
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, tear_at));
    auto recovered = loadCheckpoint(path);
    ASSERT_TRUE(recovered.has_value());
    EXPECT_LT(recovered->trial, newest_trial);

    // Resume over the torn journal: the older snapshot replays the
    // lost steps and the full run stays bit-identical.
    ExploreOptions resume = partial;
    resume.trials = options.trials;
    Evaluator second(out_.op(), space, target_);
    ExploreResult resumed = exploreWith(rc.method, second, resume);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.bestPoint.key(), uninterrupted.bestPoint.key());
    EXPECT_DOUBLE_EQ(resumed.bestGflops, uninterrupted.bestGflops);
    EXPECT_DOUBLE_EQ(resumed.simSeconds, uninterrupted.simSeconds);
    EXPECT_EQ(resumed.trialsUsed, uninterrupted.trialsUsed);
    EXPECT_EQ(resumed.failures, uninterrupted.failures);
    EXPECT_EQ(resumed.retries, uninterrupted.retries);
    EXPECT_EQ(resumed.timeouts, uninterrupted.timeouts);
    EXPECT_EQ(resumed.quarantined, uninterrupted.quarantined);
    if (rc.faults) {
        EXPECT_GT(uninterrupted.failures, 0u);
    }
    ASSERT_EQ(second.history().size(), ref.history().size());
    for (size_t i = 0; i < ref.history().size(); ++i) {
        EXPECT_EQ(second.history()[i].point.key(),
                  ref.history()[i].point.key());
        EXPECT_DOUBLE_EQ(second.history()[i].gflops,
                         ref.history()[i].gflops);
    }
    ASSERT_EQ(second.curve().size(), ref.curve().size());
    for (size_t i = 0; i < ref.curve().size(); ++i) {
        EXPECT_DOUBLE_EQ(second.curve()[i].first, ref.curve()[i].first);
        EXPECT_DOUBLE_EQ(second.curve()[i].second, ref.curve()[i].second);
    }
    std::remove(path.c_str());
}

// AutoTVM's budget counts measurements (8 per round) and it snapshots
// every round, so the killed run leaves several snapshots too.
constexpr ResumeCase kResumeCases[] = {
    {"q", Method::QMethod, false, 12, 6, 3},
    {"q_faults", Method::QMethod, true, 12, 6, 3},
    {"p", Method::PMethod, false, 12, 6, 3},
    {"p_faults", Method::PMethod, true, 12, 6, 3},
    {"random", Method::Random, false, 12, 6, 3},
    {"random_faults", Method::Random, true, 12, 6, 3},
    {"autotvm", Method::AutoTvm, false, 48, 32, 1},
    {"autotvm_faults", Method::AutoTvm, true, 48, 32, 1},
};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CheckpointResume, ::testing::ValuesIn(kResumeCases),
    [](const ::testing::TestParamInfo<ResumeCase> &info) {
        return std::string(info.param.name);
    });

TEST_F(CheckpointDurability, SeededCrashScheduleNeverLosesOlderSnapshot)
{
    const std::string path =
        ::testing::TempDir() + "ft_ckpt_crash_sched.ftc";
    std::remove(path.c_str());

    ExploreOptions options;
    options.trials = 8;
    options.seed = 0xcafe;
    options.checkpointPath = path;
    options.checkpointEveryTrials = 4;
    Evaluator eval(out_.op(), space_, target_);
    exploreRandom(eval, options);

    const std::string bytes = readBytes(path);
    JournalContents journal = parseJournal(bytes);
    ASSERT_TRUE(journal.valid);
    ASSERT_GE(journal.records.size(), 2u);
    // Byte size of the journal up to (and including) the first frame.
    JournalWriter first_only("ckpt");
    first_only.append(journal.records[0]);
    const size_t base = first_only.bytes().size();
    ASSERT_LT(base, bytes.size());

    // The environment-seeded crash schedule: tear during the append of
    // the newest frame, at injector-chosen offsets.
    const uint64_t profile_seed = crashSeed(0x5eed);
    FaultProfile profile;
    profile.seed = profile_seed;
    FaultInjector injector(profile);
    for (uint64_t schedule = 0; schedule < 12; ++schedule) {
        const size_t tail = bytes.size() - base;
        const size_t crash_at =
            base + injector.crashOffsetFor(path, tail, schedule) % tail;
        ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));
        auto state = loadCheckpoint(path);
        ASSERT_TRUE(state.has_value())
            << "crash seed " << profile_seed << " schedule " << schedule
            << " offset " << crash_at;
        // Whatever snapshot survives must be internally consistent.
        EXPECT_EQ(state->seed, options.seed);
        EXPECT_TRUE(checkpointCompatible(*state, "random", options.seed,
                                         space_));
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// TuningCache corruption corpus.

void
fillThreeRecords(TuningCache &cache)
{
    for (int i = 1; i <= 3; ++i) {
        TuningRecord record;
        record.key = "op" + std::to_string(i);
        record.gflops = 100.0 * i;
        cache.put(record);
    }
}

TEST(TuningCacheDurability, TornTailRecoversEveryIntactRecord)
{
    const std::string path = ::testing::TempDir() + "ft_cache_torn.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Tear inside the last frame: the first two records are intact data
    // and must survive (the v2 format would have discarded everything).
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, bytes.size() - 6));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.lookup("op1").has_value());
    EXPECT_TRUE(loaded.lookup("op2").has_value());
    EXPECT_FALSE(loaded.lookup("op3").has_value());

    // load() repaired the file: a second reader sees a clean journal.
    JournalContents repaired = readJournal(path);
    EXPECT_TRUE(repaired.valid);
    EXPECT_FALSE(repaired.torn);
    EXPECT_EQ(repaired.records.size(), 2u);
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, BitFlipDropsFromTheCorruptFrameOn)
{
    const std::string path = ::testing::TempDir() + "ft_cache_flip.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Flip a payload bit of the second record's frame.
    const size_t pos = bytes.find("op2");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_TRUE(FaultInjector::flipBit(path, pos * 8 + 1));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    // The valid prefix survives; the corrupt frame and everything after
    // it (unreliable framing) are dropped.
    EXPECT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(loaded.lookup("op1").has_value());
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, TruncationToHeaderStartsEmpty)
{
    const std::string path = ::testing::TempDir() + "ft_cache_trunc.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    const std::string bytes = readBytes(path);

    // Truncate just past the header: zero records, but not an error.
    const size_t header_end = bytes.find('\n') + 1;
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, header_end));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 0u);
    std::remove(path.c_str());
}

TEST(TuningCacheDurability, SaveLoadRoundTripStaysLossless)
{
    const std::string path = ::testing::TempDir() + "ft_cache_rt.j";
    TuningCache cache;
    fillThreeRecords(cache);
    ASSERT_TRUE(cache.save(path));
    // The file is a kind-tagged journal now (format v3).
    EXPECT_TRUE(looksLikeJournal(readBytes(path)));
    TuningCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.size(), 3u);
    for (int i = 1; i <= 3; ++i) {
        auto hit = loaded.lookup("op" + std::to_string(i));
        ASSERT_TRUE(hit.has_value());
        EXPECT_DOUBLE_EQ(hit->gflops, 100.0 * i);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// DispatchTable corruption corpus.

DispatchTable
smallTable()
{
    ShapeVar var;
    var.name = "m";
    var.lo = 1;
    var.hi = 8;
    DispatchTable table("gemm_m", "V100", var);
    DispatchEntry a;
    a.lo = 1;
    a.hi = 4;
    a.gflops = 123.5;
    a.trials = 9;
    table.addEntry(a);
    DispatchEntry b;
    b.lo = 5;
    b.hi = 8;
    b.gflops = 456.25;
    b.trials = 9;
    table.addEntry(b);
    return table;
}

TEST(DispatchDurability, SaveLoadRoundTripIsByteExact)
{
    const std::string path = ::testing::TempDir() + "ft_dispatch_rt.j";
    DispatchTable table = smallTable();
    ASSERT_TRUE(table.saveToFile(path));
    EXPECT_TRUE(looksLikeJournal(readBytes(path)));
    auto loaded = DispatchTable::loadFromFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->serialize(), table.serialize());
    std::remove(path.c_str());
}

TEST(DispatchDurability, LegacyBareTextFileIsStillRead)
{
    const std::string path = ::testing::TempDir() + "ft_dispatch_legacy.j";
    DispatchTable table = smallTable();
    writeBytes(path, table.serialize());
    auto loaded = DispatchTable::loadFromFile(path);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->serialize(), table.serialize());
    std::remove(path.c_str());
}

TEST(DispatchDurability, TornAndBitFlippedFilesFailCleanly)
{
    const std::string path = ::testing::TempDir() + "ft_dispatch_bad.j";
    DispatchTable table = smallTable();
    ASSERT_TRUE(table.saveToFile(path));
    const std::string bytes = readBytes(path);

    // The single frame torn mid-payload: no intact snapshot remains.
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, bytes.size() / 2));
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());

    // A flipped payload bit fails the CRC, not the parser.
    writeBytes(path, bytes);
    const size_t pos = bytes.find("entry");
    ASSERT_NE(pos, std::string::npos);
    ASSERT_TRUE(FaultInjector::flipBit(path, pos * 8 + 4));
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());

    // Missing file: quiet nullopt.
    std::remove(path.c_str());
    EXPECT_FALSE(DispatchTable::loadFromFile(path).has_value());
}

// ---------------------------------------------------------------------
// Cost-model journal adopter.

/** Build a persisted cost model: N trials plus one model snapshot. */
void
writeCostModelJournal(const std::string &path, int trials)
{
    CostModelOptions options;
    options.syncRefit = true;
    options.refitEvery = trials; // exactly one refit, at the end
    options.persistPath = path;
    CostModel model(options);
    for (int i = 0; i < trials; ++i) {
        double a = static_cast<double>(i) / trials;
        model.recordTrial({a, 1.0 - a}, a * 100.0, 11);
    }
}

TEST(CostModelDurability, SurvivesEverySeededCrashOffset)
{
    const std::string path = ::testing::TempDir() + "ft_costmodel_crash.j";
    std::remove(path.c_str());
    const int trials = 24;
    writeCostModelJournal(path, trials);
    const std::string bytes = readBytes(path);
    JournalContents intact = readJournal(path);
    ASSERT_TRUE(intact.valid);
    ASSERT_EQ(intact.kind, kCostModelJournalKind);
    // trials + the model snapshot frame
    ASSERT_EQ(intact.records.size(), static_cast<size_t>(trials) + 1);

    // Tear the file at seeded crash offsets across its whole length: a
    // reload must never fail, never see a phantom trial, and repair the
    // tail so a subsequent recordTrial lands on a clean boundary.
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        FaultProfile profile;
        profile.seed = seed;
        FaultInjector injector(profile);
        for (uint64_t schedule = 0; schedule < 8; ++schedule) {
            const size_t crash_at =
                injector.crashOffsetFor(path, bytes.size(), schedule) %
                bytes.size();
            ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, crash_at));

            CostModelOptions options;
            options.persistPath = path;
            CostModel reloaded(options);
            reloaded.load(); // false is fine (header torn); no crash
            EXPECT_LE(reloaded.numTrials(),
                      static_cast<size_t>(trials))
                << "seed " << seed << " schedule " << schedule
                << " crash_at " << crash_at;
            if (reloaded.ready())
                EXPECT_TRUE(std::isfinite(reloaded.predict({0.5, 0.5})));

            // The append-after-recovery contract: the repaired file
            // accepts a new trial and stays a valid journal.
            reloaded.recordTrial({0.5, 0.5}, 1.0, 11);
            JournalContents after = readJournal(path);
            if (crash_at > 0) {
                EXPECT_TRUE(after.valid)
                    << "seed " << seed << " schedule " << schedule;
                EXPECT_FALSE(after.torn)
                    << "seed " << seed << " schedule " << schedule;
            }
        }
    }
    std::remove(path.c_str());
}

TEST(CostModelDurability, LoadAfterRecordAppendsToLiveFile)
{
    // load() on a model that already holds its journal open repairs a
    // torn tail by renaming a new file into place; frames recorded
    // afterwards must go to that file, not the replaced one.
    const std::string path = ::testing::TempDir() + "ft_costmodel_live.j";
    std::remove(path.c_str());
    CostModelOptions options;
    options.persistPath = path;
    CostModel model(options);
    for (int i = 0; i < 6; ++i)
        model.recordTrial({i / 6.0, 1.0 - i / 6.0}, i + 1.0, 11);

    const std::string bytes = readBytes(path);
    ASSERT_TRUE(FaultInjector::writeTorn(path, bytes, bytes.size() - 10));
    ASSERT_TRUE(model.load());
    EXPECT_EQ(model.numTrials(), 5u);

    model.recordTrial({0.5, 0.5}, 42.0, 11);
    JournalContents after = readJournal(path);
    ASSERT_TRUE(after.valid);
    EXPECT_FALSE(after.torn);
    ASSERT_EQ(after.records.size(), 6u);
    EXPECT_EQ(after.records.back().rfind("t b 0x1.5p+5 2 ", 0), 0u)
        << after.records.back();

    // And a reload sees exactly what the live model recorded.
    CostModel reloaded(options);
    ASSERT_TRUE(reloaded.load());
    EXPECT_EQ(reloaded.numTrials(), 6u);
    std::remove(path.c_str());
}

TEST(CostModelDurability, ModelSnapshotSurvivesTornTrialTail)
{
    // Tear INSIDE the last trial frame appended after the model
    // snapshot: the reloaded model must still be ready with the exact
    // snapshot predictions.
    const std::string path = ::testing::TempDir() + "ft_costmodel_tail.j";
    std::remove(path.c_str());
    writeCostModelJournal(path, 16);

    std::vector<double> before;
    {
        CostModelOptions options;
        options.persistPath = path;
        CostModel model(options);
        ASSERT_TRUE(model.load());
        ASSERT_TRUE(model.ready());
        for (int i = 0; i < 8; ++i)
            before.push_back(
                model.predict({i / 8.0, 1.0 - i / 8.0}));
        model.recordTrial({0.25, 0.75}, 5.0, 11); // post-snapshot trial
    }
    const std::string bytes = readBytes(path);
    ASSERT_TRUE(
        FaultInjector::writeTorn(path, bytes, bytes.size() - 10));

    CostModelOptions options;
    options.persistPath = path;
    CostModel reloaded(options);
    ASSERT_TRUE(reloaded.load());
    ASSERT_TRUE(reloaded.ready());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(reloaded.predict({i / 8.0, 1.0 - i / 8.0}),
                  before[i]);
    std::remove(path.c_str());
}

} // namespace
} // namespace ft
