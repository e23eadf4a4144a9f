/**
 * @file
 * Allocation budget of the event hot path.
 *
 * Runs sessions of each benchmark workload shape — paper-fleet sessions,
 * a Fig. 11 D-VSync-5 app session and a 4-surface shared-GPU
 * multi-surface session — and counts the heap allocations, and the
 * bytes they request, made while `run()` executes. Both are
 * deterministic for a fixed session, so the bounds are regression gates
 * rather than timings: an event callable that outgrows its inline
 * buffer, a per-edge container that loses its capacity, or a new
 * per-frame node allocation shows up as a step in allocations per
 * dispatched event; a per-refresh log that is regrown instead of sized
 * once shows up in bytes per session.
 *
 * This file replaces the global operator new/delete to count; it is its
 * own test executable so the counting allocator reaches no other test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/render_system.h"
#include "surface/multi_surface.h"
#include "workload/app_profiles.h"
#include "workload/device_population.h"
#include "workload/distributions.h"
#include "workload/frame_cost.h"
#include "workload/scenario.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
counted_alloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(n, std::memory_order_relaxed);
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return counted_alloc(n); }
void *operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace dvs;
using namespace dvs::time_literals;

namespace {

/**
 * Bounds on allocations per dispatched event during run(), about twice
 * the values measured when they were set (fleet 0.067 over these
 * sessions, app 0.025, multi-surface 0.048). The event path before
 * inline callables and recycled containers made 1.29-2.10 per event;
 * before the per-surface logs were sized once, 0.12, 0.03 and 0.10.
 */
constexpr double kFleetMaxPerEvent = 0.14;
constexpr double kAppMaxPerEvent = 0.05;
constexpr double kMultiSurfaceMaxPerEvent = 0.1;

/**
 * Bounds on bytes requested per session during run(), about twice the
 * values measured when they were set (fleet 1,267 on average over these
 * sessions, app 33,936, multi-surface 20,220).
 */
constexpr std::uint64_t kFleetMaxBytes = 2'600;
constexpr std::uint64_t kAppMaxBytes = 68'000;
constexpr std::uint64_t kMultiSurfaceMaxBytes = 40'000;

struct RunCount {
    std::uint64_t allocs = 0;
    std::uint64_t bytes = 0;
    std::uint64_t events = 0;

    double per_event() const { return double(allocs) / double(events); }
};

template <class System>
RunCount
count_run(System &sys)
{
    g_allocs = 0;
    g_bytes = 0;
    g_counting = true;
    sys.run();
    g_counting = false;
    RunCount c;
    c.allocs = g_allocs;
    c.bytes = g_bytes;
    c.events = sys.sim().events().dispatched();
    std::printf("run: %llu allocations (%llu B) over %llu events = "
                "%.4f/event\n",
                (unsigned long long)c.allocs, (unsigned long long)c.bytes,
                (unsigned long long)c.events, c.per_event());
    return c;
}

Scenario
power_law(const char *name, std::uint64_t seed, Time duration)
{
    PowerLawParams p;
    p.short_mean_ms = 8.0;
    p.heavy_prob = 0.22;
    p.heavy_min_ms = 14.0;
    p.heavy_max_ms = 32.0;
    Scenario sc(name);
    sc.animate(duration, std::make_shared<PowerLawCostModel>(p, seed));
    return sc;
}

Scenario
constant(const char *name, Time duration)
{
    Scenario sc(name);
    sc.animate(duration, std::make_shared<ConstantCostModel>(1_ms, 3_ms));
    return sc;
}

} // namespace

TEST(AllocBudget, PaperFleetSession)
{
    // Fleet sessions are short (~100-500 events), so the report built at
    // the end of run() is a visible share; the bound covers several.
    const DevicePopulation pop = DevicePopulation::paper_fleet(1);
    RunCount total;
    constexpr std::uint64_t kSessions = 8;
    for (std::uint64_t i = 0; i < kSessions; ++i) {
        Experiment e = pop.experiment(i);
        RenderSystem sys(e.config, std::move(e.scenario));
        const RunCount c = count_run(sys);
        total.allocs += c.allocs;
        total.bytes += c.bytes;
        total.events += c.events;
    }
    ASSERT_GT(total.events, 1000u);
    EXPECT_LE(total.per_event(), kFleetMaxPerEvent);
    EXPECT_LE(total.bytes / kSessions, kFleetMaxBytes);
}

TEST(AllocBudget, Fig11DvsyncAppSession)
{
    const ProfileSpec &app = pixel5_app_profiles().front();
    const DeviceConfig device = pixel5();
    const std::uint64_t seed = 7;
    auto cost = make_cost_model(app, device.refresh_hz, seed);
    Scenario sc = make_swipe_scenario(
        app.name, 48, 500_ms, cost,
        app.window_fraction > 0 ? app.window_fraction : 0.7);
    const SystemConfig cfg = SystemConfig()
                                 .with_device(device)
                                 .with_mode(RenderMode::kDvsync)
                                 .with_buffers(5)
                                 .with_seed(seed);
    RenderSystem sys(cfg, std::move(sc));
    const RunCount c = count_run(sys);
    ASSERT_GT(c.events, 1000u);
    EXPECT_LE(c.per_event(), kAppMaxPerEvent);
    EXPECT_LE(c.bytes, kAppMaxBytes);
}

TEST(AllocBudget, SharedGpuMultiSurfaceSession)
{
    std::vector<SurfaceDesc> d;
    d.push_back(SurfaceDesc()
                    .with_name("app")
                    .with_scenario(power_law("app", 17, 3000_ms))
                    .with_buffer_mb(12.0)
                    .with_max_extra_buffers(2)
                    .with_weight(3.0));
    d.push_back(SurfaceDesc()
                    .with_name("status_bar")
                    .with_scenario(constant("status_bar", 2800_ms))
                    .with_buffer_mb(10.0));
    d.push_back(SurfaceDesc()
                    .with_name("overlay")
                    .with_scenario(constant("overlay", 2600_ms))
                    .with_dvsync_aware(false)
                    .with_buffer_mb(8.0));
    d.push_back(SurfaceDesc()
                    .with_name("game")
                    .with_scenario(power_law("game", 20, 3000_ms))
                    .with_buffer_mb(12.0)
                    .with_max_extra_buffers(2)
                    .with_weight(4.0));
    const MultiSurfaceConfig cfg = MultiSurfaceConfig()
                                       .with_seed(1)
                                       .with_budget_mb(48.0)
                                       .with_policy(ArbiterPolicy::kWeighted);
    ASSERT_TRUE(cfg.shared_gpu);
    MultiSurfaceSystem sys(std::move(d), cfg);
    const RunCount c = count_run(sys);
    ASSERT_GT(c.events, 1000u);
    EXPECT_LE(c.per_event(), kMultiSurfaceMaxPerEvent);
    EXPECT_LE(c.bytes, kMultiSurfaceMaxBytes);
}
