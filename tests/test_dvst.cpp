/**
 * @file
 * Trace record/replay tests: .dvst byte-level io, capture round trips,
 * the bit-exact replay contract (both pacing modes, single- and
 * multi-surface), trace transforms, and strict-loader behavior on
 * corrupt, truncated, and version-skewed files (including a per-byte
 * mutation fuzz loop).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "fault/fault_plan.h"
#include "input/gesture.h"
#include "sim/logging.h"
#include "test_support.h"
#include "trace/dvst_io.h"
#include "trace/session_recorder.h"
#include "trace/trace_replay.h"
#include "trace/transforms.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
mixed_scenario(Time animation = 400_ms)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    GestureTiming timing;
    timing.duration = 200_ms;
    Scenario sc("mixed");
    sc.animate(animation, cost)
        .idle(50_ms)
        .interact(std::make_shared<const TouchStream>(
                      make_swipe(timing, 1800.0, 900.0)),
                  cost)
        .realtime(100_ms, cost);
    return sc;
}

SystemConfig
faulted_config(RenderMode mode, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.mode = mode;
    cfg.seed = seed;
    cfg.faults = std::make_shared<const FaultPlan>(FaultPlan::generate(
        seed, mixed_scenario().total_duration(), FaultMix::everything()));
    return cfg;
}

SessionCapture
record_single(RenderMode mode, std::uint64_t seed, RunReport *report = nullptr)
{
    RenderSystem sys(faulted_config(mode, seed), mixed_scenario());
    const RunReport r = sys.run();
    if (report)
        *report = r;
    return SessionRecorder::capture(sys, "test-single");
}

std::vector<SurfaceDesc>
two_surfaces()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    auto spiky = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 3_ms, 2_ms}, FrameCost{2_ms, 9_ms, 6_ms}, 7);
    Scenario app("app");
    app.animate(400_ms, spiky);
    Scenario status("status");
    status.animate(300_ms, cost);
    return {
        SurfaceDesc()
            .with_name("app")
            .with_scenario(std::move(app))
            .with_buffer_mb(12.0)
            .with_weight(3.0),
        SurfaceDesc()
            .with_name("status")
            .with_scenario(std::move(status))
            .with_buffer_mb(10.0)
            .with_start_at(50_ms),
    };
}

SessionCapture
record_multi(RunReport *report = nullptr)
{
    MultiSurfaceSystem sys(
        two_surfaces(),
        MultiSurfaceConfig().with_budget_mb(24.0).with_seed(7));
    const RunReport r = sys.run();
    if (report)
        *report = r;
    return SessionRecorder::capture(sys, "test-multi");
}

/** A deliberately tiny capture to keep the fuzz loop fast. */
SessionCapture
tiny_capture()
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("tiny");
    sc.animate(60_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    RenderSystem sys(cfg, sc);
    sys.run();
    return SessionRecorder::capture(sys, "tiny");
}

} // namespace

// ----- byte-level io ------------------------------------------------------

TEST(DvstIo, VarintsRoundTripEdgeValues)
{
    ByteWriter w;
    const std::uint64_t u_vals[] = {0, 1, 127, 128, 300, 1ull << 32,
                                    ~0ull};
    const std::int64_t s_vals[] = {0, 1, -1, 63, -64, 1ll << 40,
                                   INT64_MIN, INT64_MAX};
    const double d_vals[] = {0.0, -0.0, 1.5, 120.0, -3.25e300};
    for (std::uint64_t v : u_vals)
        w.varint(v);
    for (std::int64_t v : s_vals)
        w.svarint(v);
    for (double v : d_vals)
        w.f64(v);
    w.str("hello .dvst");

    ByteReader r(w.bytes());
    for (std::uint64_t v : u_vals)
        EXPECT_EQ(r.varint(), v);
    for (std::int64_t v : s_vals)
        EXPECT_EQ(r.svarint(), v);
    for (double v : d_vals) {
        const double got = r.f64();
        EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0);
    }
    EXPECT_EQ(r.str(), "hello .dvst");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.at_end());
}

TEST(DvstIo, ReaderLatchesFailurePastEnd)
{
    ByteWriter w;
    w.varint(7);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), 7u);
    EXPECT_EQ(r.varint(), 0u); // past end
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.error().empty());
}

TEST(DvstIo, CountIsBoundedByRemainingPayload)
{
    ByteWriter w;
    w.varint(1u << 30); // claims a billion elements...
    ByteReader r(w.bytes());
    r.count(8); // ...of >= 8 bytes each, in a 5-byte payload
    EXPECT_FALSE(r.ok());
}

TEST(DvstIo, Crc32MatchesStandardCheckValue)
{
    // CRC-32/ISO-HDLC check value; pins the table the file format uses.
    EXPECT_EQ(dvst_crc32("123456789", 9), 0xCBF43926u);
    EXPECT_EQ(dvst_crc32("", 0), 0u);
}

// ----- capture round trips ------------------------------------------------

TEST(Capture, SingleSessionRoundTripsThroughBytes)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    ASSERT_TRUE(cap.verbatim);
    ASSERT_NE(cap.source_dispatch_hash, 0u);
    ASSERT_FALSE(cap.frames.empty());
    ASSERT_EQ(cap.scenario.segments.size(), 4u);
    EXPECT_TRUE(cap.scenario.segments[1].costs.frames.empty()); // idle
    EXPECT_FALSE(cap.scenario.segments[2].touch.empty());

    const std::string bytes = cap.encode();
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(bytes, back, error)) << error;

    EXPECT_EQ(back.label, cap.label);
    EXPECT_EQ(back.verbatim, cap.verbatim);
    EXPECT_EQ(back.source_dispatch_hash, cap.source_dispatch_hash);
    EXPECT_EQ(back.source_report_fnv, cap.source_report_fnv);
    EXPECT_EQ(back.config.mode, cap.config.mode);
    EXPECT_EQ(back.config.seed, cap.config.seed);
    ASSERT_TRUE(back.config.faults);
    EXPECT_EQ(*back.config.faults, *cap.config.faults);
    ASSERT_EQ(back.scenario.segments.size(), cap.scenario.segments.size());
    for (std::size_t i = 0; i < cap.scenario.segments.size(); ++i) {
        const SegmentCapture &a = cap.scenario.segments[i];
        const SegmentCapture &b = back.scenario.segments[i];
        EXPECT_EQ(b.kind, a.kind);
        EXPECT_EQ(b.duration, a.duration);
        ASSERT_EQ(b.costs.frames.size(), a.costs.frames.size());
        for (std::size_t f = 0; f < a.costs.frames.size(); ++f)
            EXPECT_EQ(b.costs.frames[f].total(), a.costs.frames[f].total());
        ASSERT_EQ(b.touch.size(), a.touch.size());
    }
    ASSERT_EQ(back.frames.size(), cap.frames.size());
    for (std::size_t i = 0; i < cap.frames.size(); ++i)
        EXPECT_EQ(back.frames[i], cap.frames[i]) << "frame " << i;

    // Re-encoding the decoded capture reproduces the bytes exactly.
    EXPECT_EQ(back.encode(), bytes);
}

TEST(Capture, MultiSessionRoundTripsThroughBytes)
{
    const SessionCapture cap = record_multi();
    ASSERT_EQ(cap.kind, SessionCapture::Kind::kMulti);
    ASSERT_EQ(cap.surfaces.size(), 2u);
    ASSERT_FALSE(cap.surfaces[0].frames.empty());

    const std::string bytes = cap.encode();
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(bytes, back, error)) << error;
    ASSERT_EQ(back.surfaces.size(), 2u);
    EXPECT_EQ(back.surfaces[0].name, "app");
    EXPECT_EQ(back.surfaces[1].start_at, 50_ms);
    EXPECT_EQ(back.surfaces[0].weight, 3.0);
    EXPECT_EQ(back.multi_config.budget_mb, 24.0);
    EXPECT_EQ(back.multi_config.seed, 7u);
    ASSERT_EQ(back.surfaces[0].frames.size(), cap.surfaces[0].frames.size());
    EXPECT_EQ(back.encode(), bytes);
}

TEST(Capture, EncodeIsDeterministic)
{
    const SessionCapture a = record_single(RenderMode::kVsync, 3);
    const SessionCapture b = record_single(RenderMode::kVsync, 3);
    EXPECT_EQ(a.encode(), b.encode());
}

TEST(Capture, GovernorThermalSessionRoundTripsAndReplays)
{
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{1_ms, 4_ms, 3_ms}, FrameCost{2_ms, 8_ms, 14_ms}, 5);
    Scenario sc("soak");
    sc.animate(1_s, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kDvsync;
    cfg.watchdog = true;
    cfg.with_thermal_envelope(0.4);
    GovernorConfig gov;
    gov.enabled = true;
    cfg.with_governor(gov);

    RenderSystem sys(cfg, sc);
    const RunReport recorded = sys.run();
    const SessionCapture cap = SessionRecorder::capture(sys, "governed");

    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(cap.encode(), back, error)) << error;
    EXPECT_TRUE(back.config.thermal.enabled);
    EXPECT_EQ(back.config.thermal.envelope_scale, 0.4);
    EXPECT_TRUE(back.config.governor.enabled);
    EXPECT_EQ(back.timeline, recorded.timeline);

    const ReplayResult replay = replay_session(back);
    EXPECT_EQ(replay.verify_against(back), "");
    EXPECT_EQ(replay.report, recorded);
}

// ----- the bit-exact replay contract --------------------------------------

TEST(Replay, SingleSessionBitExactBothModesAndWorkerCounts)
{
    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        RunReport recorded;
        const SessionCapture cap = record_single(mode, 11, &recorded);

        // Round trip through bytes first: replay what a file would hold.
        SessionCapture loaded;
        std::string error;
        ASSERT_TRUE(SessionCapture::decode(cap.encode(), loaded, error))
            << error;

        SCOPED_TRACE(to_string(mode));
        const ReplayResult replay = replay_session(loaded);
        EXPECT_TRUE(replay.verbatim);
        EXPECT_EQ(replay.verify_against(loaded), "");
        EXPECT_EQ(replay.dispatch_hash, cap.source_dispatch_hash);
        EXPECT_EQ(replay.report, recorded); // field-by-field
    }
}

TEST(Replay, MultiSurfaceSessionBitExact)
{
    RunReport recorded;
    const SessionCapture cap = record_multi(&recorded);
    SessionCapture loaded;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(cap.encode(), loaded, error))
        << error;
    const ReplayResult replay = replay_session(loaded);
    EXPECT_EQ(replay.verify_against(loaded), "");
    EXPECT_EQ(replay.report, recorded);
}

TEST(Replay, ModeOverrideIsDeterministicButNotVerbatim)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 5);
    ReplayOptions opts;
    opts.mode = RenderMode::kVsync;
    const ReplayResult a = replay_session(cap, opts);
    const ReplayResult b = replay_session(cap, opts);
    EXPECT_FALSE(a.verbatim);
    EXPECT_EQ(a.report, b.report); // what-if runs are still deterministic
    EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
    EXPECT_FALSE(a.verify_against(cap).empty());
}

TEST(Replay, MultiModeOverrideFlipsEverySurface)
{
    const SessionCapture cap = record_multi();
    ReplayOptions opts;
    opts.mode = RenderMode::kVsync;
    const ReplayResult forced = replay_session(cap, opts);
    for (const SurfaceReport &s : forced.report.surfaces)
        EXPECT_EQ(s.mode, "VSync") << s.name;
    const ReplayResult again = replay_session(cap, opts);
    EXPECT_EQ(forced.report, again.report);
}

// ----- transforms ---------------------------------------------------------

TEST(Transforms, TimeWarpScalesScriptAndClearsContract)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SessionCapture warped = time_warp(cap, 0.5);

    EXPECT_FALSE(warped.verbatim);
    EXPECT_EQ(warped.source_dispatch_hash, 0u);
    EXPECT_TRUE(warped.frames.empty());
    ASSERT_EQ(warped.lineage.size(), 1u);
    EXPECT_NE(warped.lineage[0].find("time-warp"), std::string::npos);
    for (std::size_t i = 0; i < cap.scenario.segments.size(); ++i) {
        const SegmentCapture &a = cap.scenario.segments[i];
        const SegmentCapture &b = warped.scenario.segments[i];
        EXPECT_EQ(b.duration, a.duration / 2);
        // Costs untouched: compression raises effective load.
        ASSERT_EQ(b.costs.frames.size(), a.costs.frames.size());
    }
    ASSERT_TRUE(warped.config.faults);
    for (std::size_t i = 0; i < cap.config.faults->windows().size(); ++i)
        EXPECT_EQ(warped.config.faults->windows()[i].start,
                  Time(std::llround(
                      double(cap.config.faults->windows()[i].start) * 0.5)));
}

TEST(Transforms, TruncateKeepsPrefixAndDropsLaterFaults)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    // Cut inside the first segment (400 ms animation).
    const SessionCapture cut = truncate_capture(cap, 150_ms);
    ASSERT_EQ(cut.scenario.segments.size(), 1u);
    EXPECT_EQ(cut.scenario.segments[0].duration, 150_ms);
    ASSERT_TRUE(cut.config.faults);
    for (const FaultWindow &w : cut.config.faults->windows()) {
        EXPECT_LT(w.start, 150_ms);
        EXPECT_LE(w.end, 150_ms);
    }
}

TEST(Transforms, LoopRepeatsSegments)
{
    const SessionCapture cap = record_single(RenderMode::kVsync, 2);
    const SessionCapture looped = loop_capture(cap, 3);
    EXPECT_EQ(looped.scenario.segments.size(),
              cap.scenario.segments.size() * 3);
}

TEST(Transforms, AmplifyOnlyTouchesFramesOverThreshold)
{
    SessionCapture cap = tiny_capture(); // constant 1+3 ms frames
    const Time total = cap.scenario.segments[0].costs.frames[0].total();
    const SessionCapture under = amplify_heavy_frames(cap, total, 2.0);
    EXPECT_EQ(under.scenario.segments[0].costs.frames[0].total(), total);
    const SessionCapture over = amplify_heavy_frames(cap, total - 1, 2.0);
    EXPECT_EQ(over.scenario.segments[0].costs.frames[0].total(), 2 * total);
}

TEST(Transforms, SpliceDensifiesInteractionWithinRecordedSpan)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SegmentCapture &orig = cap.scenario.segments[2];
    ASSERT_EQ(orig.kind, SegmentKind::kInteraction);
    const SessionCapture spliced =
        splice_input_burst(cap, 20_ms, 100_ms, 1_ms);
    const SegmentCapture &seg = spliced.scenario.segments[2];
    EXPECT_GT(seg.touch.size(), orig.touch.size());
    // The recorded span (and so the derived segment duration) holds.
    EXPECT_EQ(seg.touch.front().timestamp, orig.touch.front().timestamp);
    EXPECT_EQ(seg.touch.back().timestamp, orig.touch.back().timestamp);
    Time prev = seg.touch.front().timestamp;
    for (const TouchEvent &ev : seg.touch) {
        EXPECT_GE(ev.timestamp, prev);
        prev = ev.timestamp;
    }
}

TEST(Transforms, TransformedCaptureReplaysDeterministically)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const SessionCapture mutated =
        amplify_heavy_frames(time_warp(cap, 0.75), 4_ms, 1.5);
    ASSERT_EQ(mutated.lineage.size(), 2u);

    // Transforms survive the file format...
    SessionCapture loaded;
    std::string error;
    ASSERT_TRUE(SessionCapture::decode(mutated.encode(), loaded, error))
        << error;
    EXPECT_EQ(loaded.lineage, mutated.lineage);

    // ...and replay as a deterministic new scenario, not a recording.
    const ReplayResult a = replay_session(loaded);
    const ReplayResult b = replay_session(loaded);
    EXPECT_EQ(a.report, b.report);
    EXPECT_EQ(a.dispatch_hash, b.dispatch_hash);
    EXPECT_FALSE(a.verify_against(loaded).empty());
}

// ----- strict loader ------------------------------------------------------

TEST(Loader, RejectsBadMagicAndLeavesOutputUntouched)
{
    std::string bytes = tiny_capture().encode();
    bytes[0] = 'X';
    SessionCapture out;
    out.label = "sentinel";
    std::string error;
    EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(out.label, "sentinel");
}

TEST(Loader, RejectsVersionSkewNamingBothVersions)
{
    std::string bytes = tiny_capture().encode();
    bytes[4] = 2; // u16 LE version low byte
    SessionCapture out;
    std::string error;
    EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
    EXPECT_NE(error.find('2'), std::string::npos) << error;
    EXPECT_NE(error.find('1'), std::string::npos) << error;
}

TEST(Loader, RejectsEveryTruncation)
{
    const std::string bytes = tiny_capture().encode();
    SessionCapture out;
    for (std::size_t n = 0; n < bytes.size(); ++n) {
        std::string error;
        EXPECT_FALSE(SessionCapture::decode(bytes.substr(0, n), out, error))
            << "prefix of " << n << " bytes parsed";
        EXPECT_FALSE(error.empty());
    }
}

TEST(Loader, RejectsTrailingGarbage)
{
    std::string bytes = tiny_capture().encode();
    bytes += '\0';
    SessionCapture out;
    std::string error;
    EXPECT_FALSE(SessionCapture::decode(bytes, out, error));
    EXPECT_FALSE(error.empty());
}

TEST(Loader, EverySingleByteMutationFailsCleanly)
{
    const std::string pristine = tiny_capture().encode();
    SessionCapture out;
    // Two deterministic mutants per byte position: bit-inverted and +1.
    for (std::size_t i = 0; i < pristine.size(); ++i) {
        for (int mutant = 0; mutant < 2; ++mutant) {
            std::string bytes = pristine;
            bytes[i] = mutant == 0
                           ? char(~bytes[i])
                           : char(static_cast<unsigned char>(bytes[i]) + 1);
            std::string error;
            EXPECT_FALSE(SessionCapture::decode(bytes, out, error))
                << "byte " << i << " mutant " << mutant
                << " parsed as valid";
            EXPECT_FALSE(error.empty()) << "byte " << i;
        }
    }
}

TEST(Loader, SaveLoadRoundTripsThroughDisk)
{
    const SessionCapture cap = record_single(RenderMode::kDvsync, 11);
    const std::string path =
        testing::TempDir() + "/dvst_roundtrip_test.dvst";
    ASSERT_TRUE(cap.save(path));
    SessionCapture back;
    std::string error;
    ASSERT_TRUE(SessionCapture::load(path, back, error)) << error;
    EXPECT_EQ(back.encode(), cap.encode());
    std::remove(path.c_str());
}

TEST(Loader, MissingFileReportsPath)
{
    SessionCapture out;
    std::string error;
    EXPECT_FALSE(
        SessionCapture::load("/nonexistent/nope.dvst", out, error));
    EXPECT_NE(error.find("/nonexistent/nope.dvst"), std::string::npos)
        << error;
}
