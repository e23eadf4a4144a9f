/**
 * @file
 * Tests of the rendering pipeline under the conventional VSync pacer:
 * the §2 behaviours — the 2-period pipeline, frame drops on heavy
 * frames, buffer stuffing after a drop, and absorption of the next long
 * frame by the standing stuffed buffer.
 */

#include <gtest/gtest.h>

#include "core/render_system.h"
#include "pipeline/exec_resource.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

/** A VSync run over one animation segment with the given cost model. */
RenderSystem
make_vsync_run(std::shared_ptr<const FrameCostModel> cost, Time duration,
               int buffers = 0)
{
    Scenario sc("t");
    sc.animate(duration, std::move(cost));
    SystemConfig cfg;
    cfg.device = pixel5();
    cfg.mode = RenderMode::kVsync;
    cfg.buffers = buffers;
    return RenderSystem(cfg, sc);
}

constexpr Time kPeriod = 16'666'666; // 60 Hz

} // namespace

// ----- ExecResource ----------------------------------------------------------

TEST(ExecResource, SerializesWork)
{
    Simulator sim;
    ExecResource r(sim, "t");
    std::vector<Time> done;
    EXPECT_TRUE(r.idle());
    Time s1 = r.run(10_ms, [&] { done.push_back(sim.now()); });
    EXPECT_EQ(s1, 0);
    EXPECT_FALSE(r.idle());
    Time s2 = r.run(5_ms, [&] { done.push_back(sim.now()); });
    EXPECT_EQ(s2, 10_ms); // queued behind
    sim.run();
    EXPECT_EQ(done, (std::vector<Time>{10_ms, 15_ms}));
    EXPECT_EQ(r.total_busy(), 15_ms);
    EXPECT_EQ(r.jobs(), 2u);
    EXPECT_TRUE(r.idle());
}

TEST(ExecResource, ZeroDurationWorkCompletesSameTick)
{
    Simulator sim;
    ExecResource r(sim, "t");
    bool ran = false;
    r.run(0, [&] { ran = true; });
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), 0);
}

TEST(ExecResource, CompletionsRunInSubmissionOrder)
{
    // Zero-duration jobs, jobs queued while busy, and jobs submitted
    // from inside a completion all finish in submission order, each
    // followed by the done listeners.
    Simulator sim;
    ExecResource r(sim, "t");
    std::vector<std::pair<int, Time>> log;
    auto job = [&](int tag) {
        return [&log, &sim, tag] { log.emplace_back(tag, sim.now()); };
    };
    r.add_done_listener([&] { log.emplace_back(-1, sim.now()); });
    sim.events().schedule(1_ms, [&] {
        r.run(0, job(0));
        r.run(2_ms, job(1)); // queued behind a zero-length job
        r.run(0, job(2));    // ends at the same tick as job 1
        r.run(0, [&, job] {
            log.emplace_back(3, sim.now());
            r.run(0, job(4)); // submitted by a completion
            r.run(1_ms, job(5));
        });
    });
    sim.run();
    const std::vector<std::pair<int, Time>> want = {
        {0, 1_ms}, {-1, 1_ms}, {1, 3_ms}, {-1, 3_ms}, {2, 3_ms},
        {-1, 3_ms}, {3, 3_ms}, {-1, 3_ms}, {4, 3_ms}, {-1, 3_ms},
        {5, 4_ms}, {-1, 4_ms}};
    EXPECT_EQ(log, want);
    EXPECT_EQ(r.jobs(), 6u);
    EXPECT_TRUE(r.idle());
}

// ----- steady-state pipeline ----------------------------------------------------

TEST(VsyncPipeline, SteadyStateLatencyIsTwoPeriods)
{
    auto cost = std::make_shared<ConstantCostModel>(2_ms, 5_ms);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();

    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    EXPECT_EQ(sys.stats().buffer_stuffing(), 0u);
    EXPECT_GT(sys.stats().presents(), 25u);
    // Latency == 2 periods for every frame.
    EXPECT_NEAR(sys.stats().latency().mean(), double(2 * kPeriod),
                double(1_us));
    EXPECT_NEAR(sys.stats().latency().max(), double(2 * kPeriod),
                double(1_us));
}

TEST(VsyncPipeline, EveryDueFramePresentsWhenLoadIsLight)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    RenderSystem sys = make_vsync_run(cost, 1_s);
    sys.run();
    EXPECT_EQ(std::int64_t(sys.stats().presents()),
              sys.stats().frames_due());
}

TEST(VsyncPipeline, PipelineStagesOverlap)
{
    // UI of frame n+1 runs while frame n renders (§2's pipeline).
    auto cost = std::make_shared<ConstantCostModel>(4_ms, 9_ms);
    RenderSystem sys = make_vsync_run(cost, 200_ms);
    sys.run();
    const auto &recs = sys.producer().records();
    ASSERT_GE(recs.size(), 4u);
    // Frame 2's UI starts before frame 1's render ends.
    EXPECT_LT(recs[2].ui_start, recs[1].render_end);
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
}

// ----- the Figure 2 story ---------------------------------------------------------

TEST(VsyncPipeline, HeavyFrameDropsAndStuffsSuccessors)
{
    // Every 20th frame takes ~2 periods of render time.
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{2_ms, 30_ms}, 20, -10);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();

    EXPECT_GE(sys.stats().frame_drops(), 1u);
    EXPECT_GT(sys.stats().buffer_stuffing(), 0u);

    // After the drop, later frames carry 3-period latency.
    EXPECT_NEAR(sys.stats().latency().max(), double(3 * kPeriod),
                double(1_us));
}

TEST(VsyncPipeline, StandingBufferAbsorbsNextHeavyFrame)
{
    // Two heavy frames: the first drops; the second is absorbed by the
    // standing stuffed buffer (§2: "until another long frame emerges").
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{2_ms, 30_ms}, 10, -5);
    RenderSystem sys = make_vsync_run(cost, 300_ms);
    sys.run();
    // Slots 5 and 15 are heavy; only the first causes a drop.
    EXPECT_EQ(sys.stats().frame_drops(), 1u);
}

TEST(VsyncPipeline, TripleBufferingBlocksProducerWhenQueueFull)
{
    // Render faster than the screen consumes is impossible under VSync
    // pacing, but a long UI stall followed by catch-up exercises the
    // dequeue-blocking path: with only 2 slots nothing deadlocks.
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 2_ms);
    RenderSystem sys = make_vsync_run(cost, 300_ms, /*buffers=*/2);
    sys.run();
    EXPECT_GT(sys.stats().presents(), 10u);
}

TEST(VsyncPipeline, UiOverrunSkipsSlots)
{
    // A UI stage longer than one period forces trigger slots to skip.
    auto cost = std::make_shared<PeriodicSpikeCostModel>(
        FrameCost{2_ms, 5_ms}, FrameCost{40_ms, 5_ms}, 15, -7);
    RenderSystem sys = make_vsync_run(cost, 500_ms);
    sys.run();
    EXPECT_GT(sys.stats().frame_drops(), 0u);
    // Fewer frames produced than slots owed (some slots skipped).
    EXPECT_LT(std::int64_t(sys.stats().presents()),
              sys.stats().frames_due());
}

// ----- segment bookkeeping -------------------------------------------------------

TEST(VsyncPipeline, SegmentAnchoredOnFirstTrigger)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("t");
    sc.idle(25_ms).animate(200_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    const SegmentState &st = sys.producer().segment_state(1);
    // Segment starts at 25 ms; first edge after is 33.33 ms.
    EXPECT_EQ(st.anchor, 2 * kPeriod);
    EXPECT_GT(st.total_slots, 10);
    EXPECT_EQ(st.produced, st.total_slots);
    EXPECT_EQ(st.started, st.total_slots);
}

TEST(VsyncPipeline, IdleSegmentsProduceNothing)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc("t");
    sc.animate(100_ms, cost).idle(200_ms).animate(100_ms, cost);
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    RenderSystem sys(cfg, sc);
    sys.run();

    // No drops during the idle gap: repeats there are not "due".
    EXPECT_EQ(sys.stats().frame_drops(), 0u);
    for (const auto &rec : sys.producer().records())
        EXPECT_NE(rec.segment_index, 1);
}

TEST(VsyncPipeline, RecordsHaveCompleteLifecycles)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    RenderSystem sys = make_vsync_run(cost, 300_ms);
    sys.run();
    for (const auto &r : sys.producer().records()) {
        EXPECT_NE(r.ui_start, kTimeNone);
        EXPECT_LE(r.ui_start, r.ui_end);
        EXPECT_LE(r.ui_end, r.render_start);
        EXPECT_LT(r.render_start, r.render_end);
        EXPECT_EQ(r.render_end, r.queue_time);
        EXPECT_NE(r.present_time, kTimeNone);
        EXPECT_GT(r.present_time, r.queue_time);
        EXPECT_FALSE(r.pre_rendered);
        EXPECT_EQ(r.kind, SegmentKind::kAnimation);
    }
}

TEST(VsyncPipeline, ContentTimestampEqualsTriggerEdge)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 4_ms);
    RenderSystem sys = make_vsync_run(cost, 200_ms);
    sys.run();
    for (const auto &r : sys.producer().records()) {
        EXPECT_EQ(r.content_timestamp, r.trigger_time);
        EXPECT_EQ(r.timeline_timestamp, r.content_timestamp);
    }
}

// ----- compositor latch deadline ----------------------------------------------------

TEST(Compositor, LatchLeadDelaysTightFrames)
{
    // Renders finish ~7 ms after the edge; with a 12 ms latch lead they
    // miss the next edge (16.7 - 7 = 9.7 < 12) and wait one more period.
    auto cost = std::make_shared<ConstantCostModel>(2_ms, 5_ms);

    RenderSystem direct = make_vsync_run(cost, 300_ms);
    direct.run();
    SystemConfig cfg;
    cfg.mode = RenderMode::kVsync;
    cfg.latch_lead = 12_ms;
    Scenario sc("t");
    sc.animate(300_ms, cost);
    RenderSystem sf(cfg, sc);
    sf.run();

    EXPECT_GT(sf.compositor().missed_deadline(), 0u);
    EXPECT_GT(sf.stats().latency().mean(), direct.stats().latency().mean());
}
