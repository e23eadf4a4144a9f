/**
 * @file
 * Multi-surface composition tests: the assembled MultiSurfaceSystem,
 * cross-surface invariants, online re-arbitration (exit, chaos-driven
 * degradation), per-surface reporting, deterministic replay, and the
 * trace export.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/experiment_runner.h"
#include "sim/tracing.h"
#include "surface/multi_surface.h"
#include "workload/distributions.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::time_literals;

namespace {

Scenario
light_scenario(const std::string &name, Time duration = 600_ms)
{
    auto cost = std::make_shared<ConstantCostModel>(1_ms, 3_ms);
    Scenario sc(name);
    sc.animate(duration, cost);
    return sc;
}

Scenario
heavy_scenario(const std::string &name, std::uint64_t seed,
               Time duration = 600_ms)
{
    // Power-law costs with frequent key frames that overrun the 60 Hz
    // period: pre-render depth (banked idle time) is what absorbs them,
    // so drops respond to the arbiter's buffer grants.
    PowerLawParams p;
    p.short_mean_ms = 7.0;
    p.heavy_prob = 0.15;
    p.heavy_min_ms = 12.0;
    p.heavy_max_ms = 28.0;
    auto cost = std::make_shared<PowerLawCostModel>(p, seed);
    Scenario sc(name);
    sc.animate(duration, cost);
    return sc;
}

std::vector<SurfaceDesc>
two_aware_surfaces()
{
    return {
        SurfaceDesc()
            .with_name("app")
            .with_scenario(heavy_scenario("app", 11))
            .with_buffer_mb(12.0)
            .with_weight(3.0),
        SurfaceDesc()
            .with_name("status")
            .with_scenario(light_scenario("status"))
            .with_buffer_mb(10.0)
            .with_weight(1.0),
    };
}

/**
 * Four surfaces with unequal loads, one of them vsync-paced, staggered
 * starts: the private-GPU dispatch pin below runs this roster.
 */
std::vector<SurfaceDesc>
four_mixed_surfaces()
{
    std::vector<SurfaceDesc> descs;
    for (int i = 0; i < 4; ++i) {
        SurfaceDesc d;
        d.name = "s" + std::to_string(i);
        d.scenario = i % 2 == 0
                         ? heavy_scenario(d.name, 11 + std::uint64_t(i))
                         : light_scenario(d.name);
        d.dvsync_aware = i != 1;
        d.buffer_mb = 10.0 + double(i);
        d.weight = 1.0 + double(i % 3);
        d.start_at = Time(i) * 20_ms;
        descs.push_back(std::move(d));
    }
    return descs;
}

} // namespace

// ----- assembly + clean run ----------------------------------------------

TEST(MultiSurface, CleanRunPresentsEverySurfaceWithoutViolations)
{
    MultiSurfaceSystem sys(two_aware_surfaces(),
                           MultiSurfaceConfig().with_budget_mb(24.0));
    const RunReport r = sys.run();

    ASSERT_EQ(r.surfaces.size(), 2u);
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(sys.stats(i).presents(), 0u) << "surface " << i;
        ASSERT_NE(sys.monitor(i), nullptr);
        EXPECT_EQ(sys.monitor(i)->violations(), 0u) << "surface " << i;
    }
    ASSERT_NE(sys.display_monitor(), nullptr);
    for (const InvariantViolation &v : sys.display_monitor()->log()) {
        ADD_FAILURE() << "t=" << v.time << " [" << v.invariant << "] "
                      << v.detail;
    }
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(r.error, "");
    EXPECT_GE(r.rearbitrations, 1u);
    EXPECT_DOUBLE_EQ(r.budget_mb, 24.0);
    EXPECT_GT(r.budget_used_mb, 0.0);
    EXPECT_LE(r.budget_used_mb, r.budget_mb + 1e-9);
}

TEST(MultiSurface, AggregatesAreSumsOfSurfaceSlices)
{
    MultiSurfaceSystem sys(two_aware_surfaces(),
                           MultiSurfaceConfig().with_budget_mb(24.0));
    const RunReport r = sys.run();

    std::uint64_t drops = 0, presents = 0;
    std::int64_t due = 0;
    for (const SurfaceReport &sr : r.surfaces) {
        drops += sr.drops;
        presents += sr.presents;
        due += sr.frames_due;
    }
    EXPECT_EQ(r.drops, drops);
    EXPECT_EQ(r.presents, presents);
    EXPECT_EQ(r.frames_due, due);
    EXPECT_GT(r.frames_due, 0);
    EXPECT_EQ(r.scenario, "multi[app+status]");
    EXPECT_EQ(r.config.mode, "Multi/Arbiter");
}

TEST(MultiSurface, SharedGpuSerializesAcrossSurfaces)
{
    MultiSurfaceSystem sys(two_aware_surfaces(), MultiSurfaceConfig());
    sys.run();
    // Both producers routed their GPU stage to the shared device GPU;
    // composition charged it too.
    EXPECT_EQ(&sys.producer(0).gpu(), &sys.gpu());
    EXPECT_EQ(&sys.producer(1).gpu(), &sys.gpu());
    EXPECT_GT(sys.compositor().compositions(), 0u);
    EXPECT_GT(sys.compositor().layers_latched(),
              sys.compositor().compositions());
    EXPECT_LE(sys.compositor().peak_layers(), 2);
}

TEST(MultiSurface, DeterministicReplay)
{
    auto session = [] {
        MultiSurfaceSystem sys(
            two_aware_surfaces(),
            MultiSurfaceConfig().with_budget_mb(24.0).with_seed(7));
        return sys.run();
    };
    const RunReport a = session();
    const RunReport b = session();
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.debug_string(), b.debug_string());
}

TEST(MultiSurface, PrivateGpuDispatchIsPinned)
{
    // With private GPUs every vsync edge is delivered as one event per
    // surface, each carrying its surface's tag; no golden, corpus entry
    // or benchmark workload runs this topology, so its event count and
    // dispatch hash are pinned here.
    MultiSurfaceSystem sys(four_mixed_surfaces(),
                           MultiSurfaceConfig()
                               .with_budget_mb(30.0)
                               .with_shared_gpu(false));
    const RunReport r = sys.run();
    EXPECT_EQ(r.error, "");
    EXPECT_EQ(r.invariant_violations, 0u);
    EXPECT_EQ(sys.sim().events().dispatched(), 464u);
    EXPECT_EQ(sys.sim().events().dispatch_hash(), 0x4e1f36ef91439dfaULL);
}

// ----- arbitration under contention ---------------------------------------

TEST(MultiSurface, ArbiterNeverWorseThanEqualSplitUnderTightBudget)
{
    auto run_policy = [](ArbiterPolicy policy) {
        std::vector<SurfaceDesc> descs = {
            SurfaceDesc()
                .with_name("game")
                .with_scenario(heavy_scenario("game", 23))
                .with_buffer_mb(12.0)
                .with_weight(4.0),
            SurfaceDesc()
                .with_name("overlay")
                .with_scenario(light_scenario("overlay"))
                .with_dvsync_aware(false)
                .with_buffer_mb(12.0),
        };
        return run_multi_surface(
            std::move(descs),
            MultiSurfaceConfig().with_budget_mb(12.0).with_policy(policy));
    };
    const RunReport weighted = run_policy(ArbiterPolicy::kWeighted);
    const RunReport equal = run_policy(ArbiterPolicy::kEqualSplit);

    // 12 MB buys exactly one extra buffer. Weighted gives it to the
    // struggling aware surface; equal-split (6 MB per share) strands the
    // budget for as long as both surfaces contend (the game only loses
    // its share when the simultaneous end-of-run exits leave a lone
    // survivor to re-arbitrate around). The arbiter can only help.
    EXPECT_DOUBLE_EQ(weighted.budget_used_mb, 12.0);
    ASSERT_EQ(weighted.surfaces.size(), 2u);
    ASSERT_EQ(equal.surfaces.size(), 2u);
    EXPECT_EQ(weighted.surfaces[0].extra_buffers, 1);
    EXPECT_EQ(weighted.surfaces[1].extra_buffers, 0);
    EXPECT_EQ(equal.surfaces[0].extra_buffers, 0);
    EXPECT_LE(weighted.drops, equal.drops);
    EXPECT_EQ(weighted.invariant_violations, 0u);
    EXPECT_EQ(equal.invariant_violations, 0u);
}

TEST(MultiSurface, ObliviousOnlySessionUsesNoBudget)
{
    std::vector<SurfaceDesc> descs = {
        SurfaceDesc()
            .with_name("legacy_a")
            .with_scenario(light_scenario("legacy_a"))
            .with_dvsync_aware(false),
        SurfaceDesc()
            .with_name("legacy_b")
            .with_scenario(light_scenario("legacy_b"))
            .with_dvsync_aware(false),
    };
    MultiSurfaceSystem sys(std::move(descs),
                           MultiSurfaceConfig().with_budget_mb(48.0));
    const RunReport r = sys.run();

    EXPECT_DOUBLE_EQ(r.budget_used_mb, 0.0);
    for (const SurfaceReport &sr : r.surfaces) {
        EXPECT_EQ(sr.mode, "VSync");
        EXPECT_EQ(sr.extra_buffers, 0);
        EXPECT_GT(sr.presents, 0u);
    }
    EXPECT_EQ(r.invariant_violations, 0u);
}

TEST(MultiSurface, SurfaceExitReturnsBudgetMidRun)
{
    // "app" outweighs "bg" and owns the single affordable extra buffer;
    // its scenario ends at 300 ms while "bg" keeps rendering to 800 ms,
    // so the exit must hand the buffer over mid-run.
    std::vector<SurfaceDesc> descs = {
        SurfaceDesc()
            .with_name("app")
            .with_scenario(heavy_scenario("app", 31, 300_ms))
            .with_buffer_mb(12.0)
            .with_weight(5.0),
        SurfaceDesc()
            .with_name("bg")
            .with_scenario(heavy_scenario("bg", 32, 800_ms))
            .with_buffer_mb(12.0)
            .with_weight(1.0),
    };
    MultiSurfaceSystem sys(std::move(descs),
                           MultiSurfaceConfig().with_budget_mb(12.0));
    const RunReport r = sys.run();

    // Final state: the survivor holds the grant, the exited surface
    // returned it, and at least three passes ran (initial, exit of app,
    // exit of bg).
    EXPECT_EQ(sys.arbiter().extra_of(0), 0);
    EXPECT_FALSE(sys.arbiter().active(0));
    EXPECT_GE(r.rearbitrations, 3u);
    ASSERT_NE(sys.fpe(1), nullptr);
    // bg inherited the extra buffer: its FPE limit reflects capacity 4.
    EXPECT_EQ(sys.fpe(1)->prerender_limit(),
              prerender_limit_for_buffers(sys.base_buffers() + 1));
    EXPECT_EQ(r.invariant_violations, 0u);
}

// ----- chaos: kill/revive via the watchdog --------------------------------

TEST(MultiSurface, ChaosOnOneSurfaceDegradesAndRearbitrates)
{
    auto plan = std::make_shared<const FaultPlan>(
        FaultPlan::generate(41, 900_ms, FaultMix::everything()));
    std::vector<SurfaceDesc> descs = {
        SurfaceDesc()
            .with_name("victim")
            .with_scenario(heavy_scenario("victim", 51, 900_ms))
            .with_weight(3.0),
        SurfaceDesc()
            .with_name("bystander")
            .with_scenario(heavy_scenario("bystander", 52, 900_ms))
            .with_weight(1.0),
    };
    MultiSurfaceSystem sys(std::move(descs),
                           MultiSurfaceConfig()
                               .with_budget_mb(24.0)
                               .with_faults(plan, /*surface=*/0));
    const RunReport r = sys.run();

    // The session survives the chaos and still reports coherently.
    EXPECT_GT(r.faults_injected, 0u);
    EXPECT_GT(r.presents, 0u);
    ASSERT_EQ(r.surfaces.size(), 2u);
    EXPECT_EQ(r.surfaces[0].degradations,
              sys.runtime(0)->degradations());
    EXPECT_EQ(r.degradations,
              sys.runtime(0)->degradations() +
                  sys.runtime(1)->degradations());
    // Every watchdog kill/revive re-arbitrated the budget: initial pass
    // + two exits + one pass per degradation and re-promotion.
    EXPECT_GE(r.rearbitrations,
              3u + r.degradations + r.repromotions);
    // The timeline carries the per-surface prefix.
    for (const std::string &line : r.timeline)
        EXPECT_EQ(line.rfind("[", 0), 0u) << line;
}

// ----- reporting + harness integration ------------------------------------

TEST(MultiSurface, DebugStringCarriesSurfaceLines)
{
    MultiSurfaceSystem sys(two_aware_surfaces(),
                           MultiSurfaceConfig().with_budget_mb(24.0));
    const RunReport r = sys.run();
    const std::string s = r.debug_string();
    EXPECT_NE(s.find("surface=app"), std::string::npos);
    EXPECT_NE(s.find("surface=status"), std::string::npos);
    EXPECT_NE(s.find("budget_mb="), std::string::npos);

    // Single-surface reports must stay byte-identical to the pre-surface
    // format: the multi-surface block only prints when slices exist.
    RunReport single;
    EXPECT_EQ(single.debug_string().find("budget_mb="),
              std::string::npos);
    EXPECT_EQ(single.debug_string().find("surface="), std::string::npos);
}

TEST(MultiSurface, HarnessRunsSessionsAsTasks)
{
    std::vector<ExperimentRunner::Task> tasks;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        tasks.push_back([seed] {
            RunReport r = run_multi_surface(
                two_aware_surfaces(),
                MultiSurfaceConfig().with_budget_mb(24.0).with_seed(seed));
            r.label = "seed" + std::to_string(seed);
            return r;
        });
    }
    const std::vector<RunReport> parallel =
        ExperimentRunner(4).run_tasks(tasks);
    const std::vector<RunReport> serial =
        ExperimentRunner(1).run_tasks(tasks);

    ASSERT_EQ(parallel.size(), 4u);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(parallel[i].label, "seed" + std::to_string(i + 1));
        EXPECT_EQ(parallel[i], serial[i]) << "task " << i;
        EXPECT_EQ(parallel[i].error, "");
    }
}

// ----- trace export --------------------------------------------------------

TEST(MultiSurface, TraceExportHasPerSurfaceTracksAndCounters)
{
    MultiSurfaceSystem sys(two_aware_surfaces(),
                           MultiSurfaceConfig().with_budget_mb(24.0));
    sys.run();

    TraceLog log;
    sys.export_trace(log);
    ASSERT_FALSE(log.empty());
    const std::string json = log.to_json();

    // Per-surface pipeline tracks.
    EXPECT_NE(json.find("app/ui thread"), std::string::npos);
    EXPECT_NE(json.find("status/ui thread"), std::string::npos);
    EXPECT_NE(json.find("app/display"), std::string::npos);
    // Queue-depth counter per surface.
    EXPECT_NE(json.find("queue depth app"), std::string::npos);
    EXPECT_NE(json.find("queue depth status"), std::string::npos);
    // Arbiter allocation history.
    EXPECT_NE(json.find("extra buffers app"), std::string::npos);
    EXPECT_NE(json.find("arbiter used MB"), std::string::npos);
    EXPECT_NE(json.find("arbiter budget MB"), std::string::npos);
}
