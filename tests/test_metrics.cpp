/**
 * @file
 * Unit tests for the metrics layer: latency breakdown, stutter model,
 * power model, histogram, reporters, and FrameStats' due rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/render_system.h"
#include "metrics/histogram.h"
#include "metrics/latency.h"
#include "metrics/power_model.h"
#include "metrics/reporter.h"
#include "metrics/stutter_model.h"
#include "sim/random.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- StutterDetector --------------------------------------------------------

TEST(Stutter, HoldOfTwoRefreshesIsOneStutter)
{
    StutterDetector d;
    Time t = 0;
    d.on_refresh(t += 10_ms, false);
    d.on_refresh(t += 10_ms, true);
    d.on_refresh(t += 10_ms, true);
    d.on_refresh(t += 10_ms, false);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, LongHoldStillOneStutter)
{
    StutterDetector d;
    Time t = 0;
    for (int i = 0; i < 6; ++i)
        d.on_refresh(t += 10_ms, true);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, SingleIsolatedDropIsInvisible)
{
    StutterDetector d;
    Time t = 0;
    d.on_refresh(t += 10_ms, false);
    d.on_refresh(t += 10_ms, true);
    for (int i = 0; i < 20; ++i)
        d.on_refresh(t += 10_ms, false);
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, ClusteredSinglesBecomeVisible)
{
    StutterDetector d;
    Time t = 0;
    // Three isolated drops within 500 ms at an *irregular* rhythm.
    const int gaps[] = {10, 4, 14};
    for (int k = 0; k < 3; ++k) {
        d.on_refresh(t += 10_ms, true);
        for (int i = 0; i < gaps[k]; ++i)
            d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

TEST(Stutter, SteadyCadenceIsNotStutter)
{
    // An app paced at half rate misses every other refresh with a
    // perfectly steady spacing: uniform slower motion, not stutter.
    StutterDetector d;
    Time t = 0;
    for (int k = 0; k < 30; ++k) {
        d.on_refresh(t += 10_ms, true);
        d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, SpreadOutSinglesStayInvisible)
{
    StutterDetector d;
    Time t = 0;
    for (int k = 0; k < 3; ++k) {
        d.on_refresh(t += 10_ms, true);
        for (int i = 0; i < 100; ++i) // 1 s apart
            d.on_refresh(t += 10_ms, false);
    }
    d.finish();
    EXPECT_EQ(d.stutters(), 0u);
}

TEST(Stutter, TrailingRunFlushedByFinish)
{
    StutterDetector d;
    d.on_refresh(10_ms, true);
    d.on_refresh(20_ms, true);
    EXPECT_EQ(d.stutters(), 0u);
    d.finish();
    EXPECT_EQ(d.stutters(), 1u);
}

// ----- PowerModel --------------------------------------------------------------

TEST(Power, EnergyScalesWithBusyTime)
{
    PowerModel pm;
    RunActivity idle{10_s, 0, 0, false, 0, 151'600};
    RunActivity busy{10_s, 2_s, 600, false, 0, 151'600};
    EXPECT_GT(pm.energy_mj(busy), pm.energy_mj(idle));
    EXPECT_NEAR(pm.energy_mj(idle), pm.params().base_mw * 10.0, 1e-6);
}

TEST(Power, DvsyncOverheadIsFractionOfAPercent)
{
    // §6.7: decoupled pre-rendering costs 0.13%-0.37% end to end.
    PowerModel pm;
    RunActivity vsync;
    vsync.wall_time = 30 * 60_s;
    vsync.pipeline_busy = 10 * 60_s;
    vsync.frames_produced = 100000;

    RunActivity dvsync = vsync;
    dvsync.dvsync_on = true;
    const double inc = pm.percent_increase(vsync, dvsync);
    EXPECT_GT(inc, 0.0);
    EXPECT_LT(inc, 1.0);

    RunActivity with_zdp = dvsync;
    with_zdp.predicted_frames = 10000; // 10% of frames invoke ZDP
    const double inc2 = pm.percent_increase(vsync, with_zdp);
    EXPECT_GT(inc2, inc);
    EXPECT_LT(inc2, 1.0);
}

#include <cmath>

TEST(Power, PercentIncreaseIsNanOnAnEmptyBaseline)
{
    // A zero-energy baseline is a config bug: the comparison must read
    // as "no answer" (NaN, rendered "n/a" by the campaign roll-ups),
    // never as 0% which would mask it.
    PowerModel pm;
    RunActivity empty;
    RunActivity busy{10_s, 2_s, 600, false, 0, 151'600};
    EXPECT_TRUE(std::isnan(pm.percent_increase(empty, busy)));
    EXPECT_TRUE(std::isnan(pm.percent_increase(empty, empty)));
    // A valid baseline still answers, even against an empty subject.
    EXPECT_NEAR(pm.percent_increase(busy, busy), 0.0, 1e-12);
    EXPECT_NEAR(pm.percent_increase(busy, empty), -100.0, 1e-9);
}

TEST(Power, InstructionOverheadMatchesPaper)
{
    // §6.7: 10.793M vs 10.849M instructions per frame => +0.52%.
    PowerModel pm;
    RunActivity a{1_s, 0, 1000, false, 0, 151'600};
    RunActivity b{1_s, 0, 1000, true, 0, 151'600};
    const double increase =
        100.0 * (pm.instructions(b) - pm.instructions(a)) /
        pm.instructions(a);
    EXPECT_NEAR(increase, 0.52, 0.02);
}

// ----- latency breakdown ----------------------------------------------------------

TEST(Latency, EmptyStatsYieldZeros)
{
    // A breakdown over an empty run must not crash or divide by zero.
    // (Construct a minimal run with no frames via direct struct use.)
    LatencyBreakdown b;
    EXPECT_EQ(b.mean_ms, 0.0);
}

// ----- histogram -------------------------------------------------------------------

TEST(Histogram, BinsAndCdf)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.count(), 10u);
    EXPECT_EQ(h.bin_count(3), 1u);
    EXPECT_NEAR(h.cdf(5.0), 0.5, 1e-9);
    EXPECT_NEAR(h.cdf(-1.0), 0.0, 1e-9);
    EXPECT_NEAR(h.cdf(99.0), 1.0, 1e-9);
    EXPECT_NEAR(h.cdf_at(9), 1.0, 1e-9);
}

TEST(Histogram, OutOfRangeCountedSeparatelyNotClamped)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-100.0);
    h.add(100.0);
    h.add(5.0);
    // Edge bins hold only in-range mass; the tails are tracked apart.
    EXPECT_EQ(h.bin_count(0), 0u);
    EXPECT_EQ(h.bin_count(4), 0u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, CdfTailReflectsOverflow)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 9; ++i)
        h.add(double(i) + 0.5); // 9 in-range samples
    h.add(50.0);                // 1 overflow
    // Before the fix the overflow clamped into the last bin and the CDF
    // reported 1.0 at the right edge; now the tail is honest.
    EXPECT_NEAR(h.cdf_at(4), 0.9, 1e-9);
    // Underflow counts toward every edge, keeping interior values exact.
    Histogram u(0.0, 10.0, 5);
    u.add(-1.0);
    u.add(1.0);
    EXPECT_NEAR(u.cdf_at(0), 1.0, 1e-9);
}

TEST(Histogram, CsvHasHeaderRowsAndTailCounts)
{
    Histogram h(0.0, 2.0, 2);
    h.add(0.5);
    h.add(1.5);
    h.add(9.0);
    const std::string csv = h.to_csv();
    EXPECT_NE(csv.find("bin_right_edge,pdf,cdf"), std::string::npos);
    EXPECT_NE(csv.find("# samples,3"), std::string::npos);
    EXPECT_NE(csv.find("# underflow,0"), std::string::npos);
    EXPECT_NE(csv.find("# overflow,1"), std::string::npos);
}

// ----- reporter ---------------------------------------------------------------------

TEST(Reporter, TableAlignsColumns)
{
    TableReporter t({"name", "fdps"});
    t.add_row({"Walmart", "4.80"});
    t.add_row({"X", "3.60"});
    const std::string out = t.to_string();
    EXPECT_NE(out.find("Walmart"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Every line has the same position for the second column.
    const auto first_line_end = out.find('\n');
    EXPECT_NE(first_line_end, std::string::npos);
}

TEST(Reporter, NumFormatsPrecision)
{
    EXPECT_EQ(TableReporter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TableReporter::num(2.0, 0), "2");
}

TEST(Reporter, AsciiBarProportional)
{
    EXPECT_EQ(ascii_bar(5.0, 10.0, 10).size(), 5u);
    EXPECT_EQ(ascii_bar(10.0, 10.0, 10).size(), 10u);
    EXPECT_EQ(ascii_bar(0.0, 10.0, 10).size(), 0u);
    EXPECT_EQ(ascii_bar(20.0, 10.0, 10).size(), 10u); // clamped
}

// ----- FrameStats due rule ------------------------------------------------------

namespace {

/** Seeded per-frame costs with occasional heavy frames. */
class SeededCostModel : public FrameCostModel
{
  public:
    explicit SeededCostModel(std::uint64_t seed) : seed_(seed) {}

    FrameCost cost_for(std::int64_t index) const override
    {
        Rng rng(seed_ * 1'000'003 + std::uint64_t(index));
        FrameCost c;
        c.ui_time = Time(rng.uniform_int(500'000, 3'000'000));
        c.render_time = Time(rng.uniform_int(2'000'000, 7'000'000));
        if (rng.chance(0.15))
            c.render_time += Time(rng.uniform_int(8'000'000, 40'000'000));
        return c;
    }

  private:
    std::uint64_t seed_;
};

/**
 * FrameStats' due rule evaluated over every segment of the scenario,
 * from the producer's state and the per-segment present counts.
 */
bool
full_scan_due(const Producer &p, const std::vector<std::int64_t> &presented,
              Time t)
{
    const Time depth = 2; // FrameStats' default pipeline depth
    for (std::size_t i = 0; i < p.scenario().size(); ++i) {
        const SegmentState &st = p.segment_state(int(i));
        if (st.anchor == kTimeNone)
            continue;
        const Time first = st.anchor + depth * st.period;
        if (t < first)
            continue;
        const std::int64_t expected = std::min<std::int64_t>(
            (t - first) / st.period + 1, st.total_slots);
        if (presented[i] >= expected)
            continue;
        const Time window_end = first + (st.total_slots - 1) * st.period;
        if (t <= window_end || presented[i] < st.started)
            return true;
    }
    return false;
}

} // namespace

TEST(FrameStats, DueCursorMatchesFullScan)
{
    // Seeded D-VSync (FPE) and VSync sessions over many short segments.
    // Back-to-back animations put a segment's display window (anchor +
    // pipeline lag + its slots) past the next segment's start, so
    // several segments are live at once; heavy frames keep frames of a
    // closed window in flight.
    std::uint64_t repeats = 0, due = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        Rng rng(seed);
        Scenario sc("due");
        for (int s = 0; s < 24; ++s) {
            const Time len = Time(rng.uniform_int(20, 160)) * 1'000'000;
            auto cost = std::make_shared<SeededCostModel>(seed * 97 + s);
            if (rng.chance(0.15))
                sc.realtime(len, cost);
            else
                sc.animate(len, cost);
            if (rng.chance(0.3))
                sc.idle(Time(rng.uniform_int(1, 60)) * 1'000'000);
        }
        for (RenderMode mode : {RenderMode::kDvsync, RenderMode::kVsync}) {
            SystemConfig cfg;
            cfg.device = seed % 2 ? pixel5() : mate60_pro();
            cfg.mode = mode;
            cfg.seed = seed;
            RenderSystem sys(cfg, sc);
            Producer &p = sys.producer();
            std::vector<std::int64_t> presented(sc.size(), 0);
            // Registered after FrameStats, so its RefreshLog for this
            // refresh is already appended when this listener runs.
            sys.panel().add_present_listener([&](const PresentEvent &ev) {
                if (!ev.repeat) {
                    const FrameRecord &rec = p.records()[ev.meta.frame_id];
                    ++presented[std::size_t(rec.segment_index)];
                    return;
                }
                const bool want = full_scan_due(p, presented, ev.present_time);
                ASSERT_EQ(sys.stats().refreshes().back().due, want)
                    << "seed " << seed << " at t=" << ev.present_time;
                ++repeats;
                due += want;
            });
            sys.run();
        }
    }
    // The sessions exercise both outcomes of the rule.
    EXPECT_GT(due, 100u);
    EXPECT_GT(repeats - due, 100u);
}
