/**
 * @file
 * Unit tests for the software vsync layer: timeline model, distributor,
 * and choreographer.
 */

#include <gtest/gtest.h>

#include <deque>
#include <numeric>

#include "display/hw_vsync.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "vsyncsrc/choreographer.h"
#include "vsyncsrc/vsync_distributor.h"
#include "vsyncsrc/vsync_model.h"

using namespace dvs;
using namespace dvs::time_literals;

// ----- VsyncModel -----------------------------------------------------------

TEST(VsyncModel, LearnsPeriodFromSamples)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 10; ++i)
        m.add_sample(Time(i) * 11_ms); // actual period 11 ms
    EXPECT_EQ(m.period(), 11_ms);
    EXPECT_EQ(m.last_edge(), 99_ms);
}

TEST(VsyncModel, PredictNextFollowsGrid)
{
    VsyncModel m(10_ms);
    for (int i = 0; i <= 5; ++i)
        m.add_sample(Time(i) * 10_ms);
    EXPECT_EQ(m.predict_next(50_ms), 60_ms); // strictly after
    EXPECT_EQ(m.predict_next(54_ms), 60_ms);
    EXPECT_EQ(m.predict_next(75_ms), 80_ms);
}

TEST(VsyncModel, PredictWithoutSamplesUsesNominalGrid)
{
    VsyncModel m(10_ms);
    EXPECT_EQ(m.predict_next(0), 10_ms);
    EXPECT_EQ(m.predict_next(25_ms), 30_ms);
}

TEST(VsyncModel, JitteredSamplesAverageOut)
{
    VsyncModel m(10_ms, 8);
    const Time jitter[] = {100_us, 0, 0 - 100_us, 50_us, 0 - 50_us,
                           80_us,  0, 0 - 80_us};
    for (int i = 0; i < 8; ++i)
        m.add_sample(Time(i) * 10_ms + jitter[i % 8]);
    EXPECT_NEAR(double(m.period()), double(10_ms), double(60_us));
}

TEST(VsyncModel, RateChangeResetsWindow)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 5; ++i)
        m.add_sample(Time(i) * 10_ms);
    // Jump to a 20 ms cadence: the first big delta clears the window.
    m.add_sample(60_ms);
    m.add_sample(80_ms);
    m.add_sample(100_ms);
    EXPECT_EQ(m.period(), 20_ms);
}

TEST(VsyncModel, PredictionErrorMeasuredAgainstGrid)
{
    VsyncModel m(10_ms);
    m.add_sample(0);
    m.add_sample(10_ms);
    EXPECT_EQ(m.prediction_error(20_ms), 0);
    EXPECT_EQ(m.prediction_error(20_ms + 200_us), 200_us);
    EXPECT_EQ(m.prediction_error(20_ms - 200_us), -Time(200_us));
}

TEST(VsyncModel, ResetRestoresNominal)
{
    VsyncModel m(10_ms);
    for (int i = 0; i < 6; ++i)
        m.add_sample(Time(i) * 12_ms);
    m.reset();
    EXPECT_EQ(m.period(), 10_ms);
    EXPECT_EQ(m.last_edge(), kTimeNone);
    EXPECT_EQ(m.samples(), 0u);
}

namespace {

/**
 * The estimator re-summed from scratch on every sample: a deque of the
 * last `window` deltas, reset on a deviation above a quarter of their
 * mean, period = sum / count. VsyncModel keeps a running sum instead and
 * must agree with this at every step.
 */
class ResummingModel
{
  public:
    ResummingModel(Time nominal, int window)
        : nominal_(nominal), period_(nominal), window_(window)
    {
    }

    void add_sample(Time edge, int grid_steps)
    {
        if (last_ != kTimeNone && edge > last_) {
            const Time delta = (edge - last_) / grid_steps;
            if (!recent_.empty()) {
                const Time ref = std::accumulate(recent_.begin(),
                                                 recent_.end(), Time(0)) /
                                 Time(recent_.size());
                const Time dev = delta > ref ? delta - ref : ref - delta;
                if (dev > ref / 4)
                    recent_.clear();
            }
            recent_.push_back(delta);
            while (int(recent_.size()) > window_)
                recent_.pop_front();
        }
        last_ = edge;
        if (recent_.size() >= 2) {
            period_ = std::accumulate(recent_.begin(), recent_.end(),
                                      Time(0)) /
                      Time(recent_.size());
        }
    }

    void set_nominal_period(Time p)
    {
        nominal_ = p;
        period_ = p;
        recent_.clear();
    }

    void reset()
    {
        period_ = nominal_;
        last_ = kTimeNone;
        recent_.clear();
    }

    Time period() const { return period_; }

  private:
    Time nominal_;
    Time period_;
    Time last_ = kTimeNone;
    int window_;
    std::deque<Time> recent_;
};

} // namespace

TEST(VsyncModel, RunningSumMatchesResummingEstimatorEveryStep)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed);
        const int window = int(rng.uniform_int(2, 20));
        const Time nominal = 8'333'333;
        VsyncModel model(nominal, window);
        ResummingModel ref(nominal, window);
        Time period = nominal;
        Time edge = rng.uniform_int(0, 5_ms);
        for (int step = 0; step < 2000; ++step) {
            if (rng.chance(0.01)) {
                // LTPO rate switch: 60/90/120/144 Hz.
                const Time rates[] = {16'666'666, 11'111'111, 8'333'333,
                                      6'944'444};
                period = rates[rng.uniform_int(0, 3)];
                if (rng.chance(0.5)) {
                    model.set_nominal_period(period);
                    ref.set_nominal_period(period);
                }
            }
            if (rng.chance(0.002)) {
                model.reset();
                ref.reset();
            }
            // Sparse calibration (grid_steps > 1), jitter of a few
            // hundred microseconds, and occasional missed edges.
            const int steps = rng.chance(0.3) ? int(rng.uniform_int(2, 4))
                                              : 1;
            const int skipped = rng.chance(0.02) ? 1 : 0;
            edge += Time(steps + skipped) * period +
                    rng.uniform_int(-300'000, 300'000);
            model.add_sample(edge, steps);
            ref.add_sample(edge, steps);
            ASSERT_EQ(model.period(), ref.period())
                << "seed " << seed << " step " << step;
            ASSERT_EQ(model.last_edge(), edge);
            if (rng.chance(0.01)) {
                // A repeated timestamp adds no delta.
                model.add_sample(edge, 1);
                ref.add_sample(edge, 1);
                ASSERT_EQ(model.period(), ref.period());
            }
        }
    }
}

// ----- VsyncDistributor ------------------------------------------------------

class DistributorTest : public ::testing::Test
{
  protected:
    DistributorTest() : hw(sim, 100.0), dist(sim, hw) {}

    Simulator sim;
    HwVsyncGenerator hw;
    VsyncDistributor dist;
};

TEST_F(DistributorTest, CallbacksAreOneShot)
{
    int calls = 0;
    dist.request_callback(VsyncChannel::kApp,
                          [&](const SwVsync &) { ++calls; });
    hw.start();
    sim.run_until(50_ms);
    EXPECT_EQ(calls, 1);
}

TEST_F(DistributorTest, CallbackCarriesEdgeTimestamp)
{
    SwVsync seen{};
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kApp,
                              [&](const SwVsync &sw) { seen = sw; });
    });
    hw.start();
    sim.run_until(30_ms);
    EXPECT_EQ(seen.timestamp, 10_ms);
    EXPECT_EQ(seen.delivery_time, 10_ms);
    EXPECT_DOUBLE_EQ(seen.rate_hz, 100.0);
}

TEST_F(DistributorTest, OffsetsDelayDelivery)
{
    dist.set_offset(VsyncChannel::kRs, 2_ms);
    Time delivered = kTimeNone;
    Time stamp = kTimeNone;
    sim.events().schedule(5_ms, [&] {
        dist.request_callback(VsyncChannel::kRs, [&](const SwVsync &sw) {
            delivered = sim.now();
            stamp = sw.timestamp;
        });
    });
    hw.start();
    sim.run_until(30_ms);
    EXPECT_EQ(delivered, 12_ms);
    EXPECT_EQ(stamp, 10_ms); // timestamp is the edge, not the delivery
}

TEST_F(DistributorTest, RequestDuringDeliveryWaitsForNextEdge)
{
    std::vector<Time> deliveries;
    std::function<void(const SwVsync &)> cb = [&](const SwVsync &sw) {
        deliveries.push_back(sw.timestamp);
        if (deliveries.size() < 3)
            dist.request_callback(VsyncChannel::kApp, cb);
    };
    dist.request_callback(VsyncChannel::kApp, cb);
    hw.start();
    sim.run_until(50_ms);
    EXPECT_EQ(deliveries, (std::vector<Time>{0, 10_ms, 20_ms}));
}

TEST_F(DistributorTest, ChannelsAreIndependent)
{
    int app = 0, rs = 0, sf = 0;
    dist.request_callback(VsyncChannel::kApp, [&](const SwVsync &) { ++app; });
    dist.request_callback(VsyncChannel::kRs, [&](const SwVsync &) { ++rs; });
    dist.request_callback(VsyncChannel::kSf, [&](const SwVsync &) { ++sf; });
    EXPECT_EQ(dist.pending(VsyncChannel::kApp), 1u);
    hw.start();
    sim.run_until(15_ms);
    EXPECT_EQ(app, 1);
    EXPECT_EQ(rs, 1);
    EXPECT_EQ(sf, 1);
    EXPECT_EQ(dist.pending(VsyncChannel::kApp), 0u);
}

TEST_F(DistributorTest, ModelTracksHardware)
{
    hw.start();
    sim.run_until(100_ms);
    EXPECT_EQ(dist.model().period(), 10_ms);
    EXPECT_EQ(dist.model().last_edge(), 100_ms);
}

// ----- Choreographer ----------------------------------------------------------

TEST_F(DistributorTest, ChoreographerCoalescesPosts)
{
    Choreographer ch(dist, VsyncChannel::kApp);
    int calls = 0;
    ch.set_callback([&](const SwVsync &) { ++calls; });
    ch.post_frame_callback();
    ch.post_frame_callback();
    ch.post_frame_callback();
    EXPECT_TRUE(ch.armed());
    hw.start();
    sim.run_until(25_ms);
    EXPECT_EQ(calls, 1);
    EXPECT_FALSE(ch.armed());
    EXPECT_EQ(ch.callbacks_delivered(), 1u);
}

TEST_F(DistributorTest, ChoreographerRepostInsideCallback)
{
    Choreographer ch(dist, VsyncChannel::kApp);
    std::vector<Time> frames;
    ch.set_callback([&](const SwVsync &sw) {
        frames.push_back(sw.timestamp);
        if (frames.size() < 3)
            ch.post_frame_callback();
    });
    ch.post_frame_callback();
    hw.start();
    sim.run_until(60_ms);
    EXPECT_EQ(frames, (std::vector<Time>{0, 10_ms, 20_ms}));
}
