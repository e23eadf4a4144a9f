/**
 * @file
 * Tests of the streaming campaign pipeline: CampaignAggregator's
 * merge/shard determinism contract (merged shard state byte-identical
 * to the unsharded run), the versioned JSON checkpoint round-trip, the
 * resume watermark, and DevicePopulation's lazy pure-function session
 * stream.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "harness/aggregator.h"
#include "harness/experiment_runner.h"
#include "sim/logging.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

/** Deterministic synthetic report: non-trivial but cheap. */
RunReport
synthetic_report(std::uint64_t i)
{
    RunReport r;
    r.label = (i % 3 == 0) ? "cohort-a" : (i % 3 == 1) ? "cohort-b"
                                                       : "cohort-c";
    r.fdps = 0.25 * double(i % 40);
    r.latency_p95_ms = 1.5 * double(i % 50);
    r.energy_mj = 100.0 + double(i % 7);
    r.drops = i % 11;
    r.frames_due = 120 + i % 13;
    r.presents = r.frames_due - r.drops;
    r.stutters = i % 5;
    r.deadline_misses = i % 2;
    r.faults_injected = i % 3;
    r.degradations = i % 2;
    r.repromotions = i % 2;
    r.drop_causes[std::size_t(DropCause::kSlowRender)] = r.drops;
    if (i % 17 == 0)
        r.error = "synthetic failure";
    return r;
}

/** Consume [0, n) sliced to indices congruent to k mod s. */
CampaignAggregator
shard_fold(std::uint64_t n, std::uint64_t k, std::uint64_t s)
{
    CampaignAggregator agg;
    for (std::uint64_t i = k; i < n; i += s)
        agg.add(synthetic_report(i));
    return agg;
}

std::string
temp_path(const char *tag)
{
    return testing::TempDir() + "aggregator_" + tag + ".json";
}

/** The small real campaign used by the end-to-end shard test. */
void
run_fleet_slice(std::uint64_t sessions, std::uint64_t k, std::uint64_t s,
                CampaignAggregator &agg)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(7);
    const std::uint64_t count = k >= sessions ? 0 : (sessions - k - 1) / s + 1;
    ExperimentRunner(2).run_stream(
        count,
        [&](std::size_t p) {
            SessionSpec spec = fleet.session(k + std::uint64_t(p) * s);
            Experiment point;
            point.config = spec.config;
            point.scenario = std::move(spec.scenario);
            point.label = std::move(spec.label);
            return point;
        },
        agg);
}

} // namespace

TEST(CampaignAggregator, ShardMergeIsByteIdenticalToUnsharded)
{
    const std::uint64_t n = 400;
    const CampaignAggregator unsharded = shard_fold(n, 0, 1);

    for (std::uint64_t shards : {2u, 3u, 7u}) {
        CampaignAggregator merged = shard_fold(n, 0, shards);
        for (std::uint64_t k = 1; k < shards; ++k)
            merged.merge(shard_fold(n, k, shards));
        EXPECT_EQ(merged.to_json(), unsharded.to_json())
            << shards << " shards";
        EXPECT_EQ(merged.summary(), unsharded.summary())
            << shards << " shards";
    }
}

TEST(CampaignAggregator, MergeIsCommutative)
{
    const CampaignAggregator even = shard_fold(300, 0, 2);
    const CampaignAggregator odd = shard_fold(300, 1, 2);

    CampaignAggregator ab = shard_fold(300, 0, 2);
    ab.merge(odd);
    CampaignAggregator ba = shard_fold(300, 1, 2);
    ba.merge(even);
    EXPECT_EQ(ab.to_json(), ba.to_json());
}

TEST(CampaignAggregator, CountsSessionsErrorsAndCauses)
{
    CampaignAggregator agg;
    for (std::uint64_t i = 0; i < 100; ++i)
        agg.add(synthetic_report(i));
    EXPECT_EQ(agg.sessions(), 100u);
    // i in {0, 17, 34, 51, 68, 85} carry the synthetic error.
    EXPECT_EQ(agg.errors(), 6u);
    EXPECT_EQ(agg.cohorts().size(), 3u);
    // Every drop is attributed kSlowRender by construction.
    EXPECT_EQ(agg.unattributed_drops(), 0u);

    std::uint64_t sessions = 0;
    for (const auto &[key, cohort] : agg.cohorts()) {
        sessions += cohort.sessions;
        EXPECT_EQ(cohort.completed(), cohort.sessions - cohort.errors)
            << key;
    }
    EXPECT_EQ(sessions, 100u);
}

TEST(CampaignAggregator, ErrorRunsStayOutOfTheDistributions)
{
    RunReport failed;
    failed.label = "c";
    failed.error = "died";
    failed.fdps = 999.0;
    RunReport good;
    good.label = "c";
    good.fdps = 2.0;
    good.frames_due = 100;

    CampaignAggregator agg;
    agg.add(failed);
    agg.add(good);
    const CohortStats &c = agg.cohorts().at("c");
    EXPECT_EQ(c.sessions, 2u);
    EXPECT_EQ(c.errors, 1u);
    // The failed run's bogus FDPS never reached the fixed-point sum.
    EXPECT_DOUBLE_EQ(c.mean_fdps(), 2.0);
}

TEST(CampaignAggregator, CheckpointRoundTripsExactly)
{
    const CampaignAggregator agg = shard_fold(250, 0, 1);
    const std::string path = temp_path("roundtrip");
    ASSERT_TRUE(agg.save(path));

    CampaignAggregator loaded;
    std::string error;
    ASSERT_TRUE(loaded.load(path, &error)) << error;
    EXPECT_EQ(loaded.to_json(), agg.to_json());
    EXPECT_EQ(loaded.summary(), agg.summary());
    std::remove(path.c_str());
}

TEST(CampaignAggregator, CheckpointEscapesCohortKeys)
{
    // A cohort key holding JSON's special characters must be escaped in
    // the checkpoint and round-trip through load() byte-identically.
    const std::string odd = "say \"hi\" \\ back\nslash\x01";
    CampaignAggregator agg;
    for (std::uint64_t i = 0; i < 30; ++i) {
        RunReport r = synthetic_report(i);
        if (i % 2 == 0)
            r.label = odd;
        agg.add(r);
    }
    const std::string json = agg.to_json();
    EXPECT_NE(json.find("say \\\"hi\\\" \\\\ back\\nslash\\u0001"),
              std::string::npos)
        << json;

    const std::string path = temp_path("escape");
    ASSERT_TRUE(agg.save(path));
    CampaignAggregator loaded;
    std::string error;
    ASSERT_TRUE(loaded.load(path, &error)) << error;
    EXPECT_EQ(loaded.to_json(), json);
    EXPECT_EQ(loaded.cohorts().count(odd), 1u);
    std::remove(path.c_str());
}

TEST(CampaignAggregator, LoadRejectsSchemaMismatchAndGarbage)
{
    const std::string path = temp_path("badschema");
    FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\": 999, \"sessions\": 0, \"errors\": 0, "
               "\"resume_pos\": 0, \"cohorts\": []}",
               f);
    std::fclose(f);

    CampaignAggregator agg;
    std::string error;
    EXPECT_FALSE(agg.load(path, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    EXPECT_FALSE(agg.load("/nonexistent/checkpoint.json", &error));
    std::remove(path.c_str());
}

TEST(CampaignAggregator, ResumeWatermarkTracksSinkDeliveries)
{
    CampaignAggregator agg;
    EXPECT_EQ(agg.resume_pos(), 0u);
    for (std::size_t i = 0; i < 40; ++i)
        agg.consume(i, synthetic_report(i));
    EXPECT_EQ(agg.resume_pos(), 40u);
    // add() folds without advancing the watermark (merge-side path).
    agg.add(synthetic_report(40));
    EXPECT_EQ(agg.resume_pos(), 40u);

    const std::string path = temp_path("watermark");
    ASSERT_TRUE(agg.save(path));
    CampaignAggregator loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.resume_pos(), 40u);
    std::remove(path.c_str());
}

TEST(CampaignAggregator, ResumedHalvesComposeToTheFullRun)
{
    // Consume the first half, checkpoint, reload, consume the second
    // half: state must equal one uninterrupted pass.
    CampaignAggregator full;
    for (std::size_t i = 0; i < 120; ++i)
        full.consume(i, synthetic_report(i));

    CampaignAggregator first;
    for (std::size_t i = 0; i < 60; ++i)
        first.consume(i, synthetic_report(i));
    const std::string path = temp_path("resume");
    ASSERT_TRUE(first.save(path));

    CampaignAggregator resumed;
    ASSERT_TRUE(resumed.load(path));
    for (std::size_t i = resumed.resume_pos(); i < 120; ++i)
        resumed.consume(i, synthetic_report(i));
    EXPECT_EQ(resumed.to_json(), full.to_json());
    std::remove(path.c_str());
}

TEST(CampaignAggregator, EndToEndShardedFleetMatchesUnsharded)
{
    // The real thing in miniature: simulate 24 fleet sessions unsharded
    // and as two shards through the parallel streaming runner, then
    // compare the aggregator state byte for byte.
    CampaignAggregator unsharded;
    run_fleet_slice(24, 0, 1, unsharded);
    EXPECT_EQ(unsharded.sessions(), 24u);
    EXPECT_EQ(unsharded.errors(), 0u);
    EXPECT_EQ(unsharded.invariant_violations(), 0u);
    EXPECT_EQ(unsharded.unattributed_drops(), 0u);

    CampaignAggregator shard0;
    run_fleet_slice(24, 0, 2, shard0);
    CampaignAggregator shard1;
    run_fleet_slice(24, 1, 2, shard1);
    // resume_pos sums with the shard sizes, so the merged checkpoint is
    // exactly the unsharded one.
    shard0.merge(shard1);
    EXPECT_EQ(shard0.to_json(), unsharded.to_json());
    EXPECT_EQ(shard0.summary(), unsharded.summary());
}

TEST(DevicePopulation, SessionsArePureFunctionsOfIndexAndSeed)
{
    const DevicePopulation a = DevicePopulation::paper_fleet(11);
    const DevicePopulation b = DevicePopulation::paper_fleet(11);
    for (std::uint64_t i : {0ull, 1ull, 999ull, 123456789ull}) {
        const SessionSpec sa = a.session(i);
        const SessionSpec sb = b.session(i);
        EXPECT_EQ(sa.cohort, sb.cohort) << i;
        EXPECT_EQ(sa.config.seed, sb.config.seed) << i;
        EXPECT_EQ(sa.config.mode, sb.config.mode) << i;
        EXPECT_EQ(sa.config.device.name, sb.config.device.name) << i;
        EXPECT_EQ(sa.scenario.name(), sb.scenario.name()) << i;
        EXPECT_EQ(a.cohort_of(i), sa.cohort) << i;
        EXPECT_EQ(sa.label, sa.cohort) << i;
    }
    // A different population seed draws a different stream.
    const DevicePopulation c = DevicePopulation::paper_fleet(12);
    int diffs = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        diffs += c.session(i).config.seed != a.session(i).config.seed;
    EXPECT_GT(diffs, 32);
}

TEST(DevicePopulation, CoversEveryCohortRoughlyByWeight)
{
    const DevicePopulation fleet = DevicePopulation::paper_fleet(1);
    std::map<std::string, int> counts;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        ++counts[fleet.cohort_of(std::uint64_t(i))];
    // 3 tiers x 2 modes, all present.
    EXPECT_EQ(counts.size(), 6u);
    // The 50/30/20 tier mix splits ~25/15/10 percent per mode; allow a
    // wide deterministic-hash tolerance.
    EXPECT_NEAR(double(counts["entry-60/VSync"]) / n, 0.25, 0.05);
    EXPECT_NEAR(double(counts["mid-90/D-VSync"]) / n, 0.15, 0.05);
    EXPECT_NEAR(double(counts["flagship-120/VSync"]) / n, 0.10, 0.05);
}

TEST(DevicePopulationDeathTest, RejectsEmptyAndNonPositiveWeights)
{
    EXPECT_EXIT(DevicePopulation({}, {}, 1),
                testing::ExitedWithCode(1), "at least one");
    std::vector<DeviceTier> tiers = {{"t", pixel5(), 0.0}};
    std::vector<AppUsageClass> apps = {
        {"a", ProfileSpec{}, 1.0, 2, 500'000'000, 0.7}};
    EXPECT_EXIT(DevicePopulation(tiers, apps, 1),
                testing::ExitedWithCode(1), "non-positive weight");
}

TEST(CampaignAggregator, EmptyCohortIsVisiblyDistinctFromAllZero)
{
    // An all-error cohort has no metric surface; a healthy cohort whose
    // every sample happens to be zero has one (of zeros). The two must
    // never render the same: the empty cohort says "n/a" in the summary
    // table and nulls in the JSON percentile block.
    RunReport failed;
    failed.label = "empty";
    failed.error = "boom";
    RunReport zero;
    zero.label = "zero";
    zero.frames_due = 100;
    zero.presents = 100; // fdps/latency/drops all exactly 0

    CampaignAggregator agg;
    agg.add(failed);
    agg.add(failed);
    agg.add(zero);

    const CohortStats &empty = agg.cohorts().at("empty");
    EXPECT_EQ(empty.completed(), 0u);
    EXPECT_TRUE(std::isnan(empty.fdps_hist.percentile(50)));

    const std::string table = agg.summary();
    // Row-level check: the empty cohort's row says n/a, the zero
    // cohort's row does not.
    std::string empty_row, zero_row;
    std::istringstream lines(table);
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("empty", 0) == 0)
            empty_row = line;
        if (line.rfind("zero", 0) == 0)
            zero_row = line;
    }
    ASSERT_FALSE(empty_row.empty()) << table;
    ASSERT_FALSE(zero_row.empty()) << table;
    EXPECT_NE(empty_row.find("n/a"), std::string::npos) << empty_row;
    EXPECT_EQ(zero_row.find("n/a"), std::string::npos) << zero_row;
    EXPECT_NE(zero_row.find("0.00"), std::string::npos) << zero_row;

    const std::string json = agg.to_json();
    EXPECT_NE(json.find("\"fdps_p50\": null"), std::string::npos) << json;
    EXPECT_NE(json.find("\"fdps_p50\": 0"), std::string::npos) << json;

    // The derived block is advisory: a checkpoint round-trip through
    // load() reproduces it bit-for-bit from the histograms.
    const std::string path = temp_path("empty_cohort");
    ASSERT_TRUE(agg.save(path));
    CampaignAggregator loaded;
    std::string error;
    ASSERT_TRUE(loaded.load(path, &error)) << error;
    EXPECT_EQ(loaded.to_json(), json);
    EXPECT_EQ(loaded.summary(), table);
    std::remove(path.c_str());
}
