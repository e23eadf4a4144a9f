/**
 * @file
 * Governor campaign (`BENCH_governor.json`): closed-loop thermal governor
 * vs static configurations across the fleet's thermal envelopes.
 *
 * Every (tier, envelope) group runs a GPU-heavy soak (animation bursts
 * alternating with game-like realtime segments, costs scaled to the
 * panel period so all tiers see the same duty cycle) under four
 * policies:
 *
 *   vsync           baseline pacing, no pre-rendering
 *   dvsync-deep     D-VSync at full pre-render depth
 *   dvsync-shallow  D-VSync with the pre-render queue capped at 1
 *   governor        D-VSync + the closed-loop ladder (trim -> ltpo ->
 *                   dvfs -> watchdog handoff)
 *
 * All runs carry the tier's RC thermal plant; the `constrained` envelope
 * scales the chassis dissipation down (thin phone, hot day) so sustained
 * load trips the DVFS throttle. The frontier metric is
 * energy-per-stutter-avoided vs the VSync baseline of the same group:
 *
 *   eps = (E_policy - E_vsync) / (stutters_vsync - stutters_policy)
 *
 * printed as "n/a" when the policy avoided nothing (the NaN convention).
 * Acceptance bar: in at least one constrained group the governor must
 * beat every static D-VSync config on eps, every drop must carry a
 * cause, and a chaos-mix leg (everything-mix fault plans with the
 * governor engaged) must finish with zero invariant violations.
 *
 * Usage: governor_campaign [--seeds=N] [--jobs=N] [--out=PATH] [--golden]
 *                          [--record=PATH]
 *   --seeds=N    seeds per (tier, envelope, policy) cell (default 5)
 *   --out=PATH   where to write the JSON record (default
 *                BENCH_governor.json; "-" suppresses the file)
 *   --golden     deterministic single-seed replay dump for the golden
 *                check (per-run reports + the frontier table, no JSON)
 *   --record=PATH  record one canonical governed soak (first fleet tier,
 *                constrained envelope, governor policy, seed 1) as a
 *                replayable .dvst capture at PATH and exit
 *
 * Exits nonzero on any invariant violation, failed run, unattributed
 * drop, or if the governor loses a whole constrained envelope sweep.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fault/fault_plan.h"
#include "metrics/power_model.h"
#include "sim/logging.h"
#include "trace/session_recorder.h"
#include "workload/device_population.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

struct Envelope {
    const char *name;
    double scale;
};

// `constrained` halves the sustained dissipation budget: the same soak
// that idles comfortably below the throttle point at nominal settles
// past it, so the plant trips and the ladder has something to govern.
constexpr Envelope kEnvelopes[] = {{"nominal", 1.0}, {"constrained", 0.5}};

enum PolicyKind { kVsyncBase = 0, kDeep, kShallow, kGoverned, kPolicies };

const char *const kPolicyNames[kPolicies] = {"vsync", "dvsync-deep",
                                             "dvsync-shallow", "governor"};

/**
 * The soak: two animation bursts (coherent frames, cheap re-renders)
 * split by game-like realtime segments at ~78% GPU duty. Costs are
 * fractions of the panel period so a 120 Hz flagship and a 60 Hz entry
 * phone run the same duty cycle and differ only in their envelopes.
 */
Scenario
soak_scenario(const DeviceConfig &dev)
{
    const Time p = dev.period();
    const auto cost = [&](double ui, double render, double gpu) {
        return std::make_shared<ConstantCostModel>(
            FrameCost{Time(ui * p), Time(render * p), Time(gpu * p)});
    };
    const auto anim = cost(0.06, 0.12, 0.50);
    const auto game = cost(0.06, 0.12, 0.78);
    Scenario sc("thermal-soak");
    sc.animate(900_ms, anim)
        .realtime(1200_ms, game)
        .animate(600_ms, anim)
        .realtime(900_ms, game);
    return sc;
}

/** Ladder thresholds pegged to the tier's throttle point. */
GovernorConfig
governor_for(const DeviceTier &tier)
{
    GovernorConfig g;
    g.enabled = true;
    const double throttle_c = 25.0 + tier.device.thermal_headroom_c;
    g.temp_demote_c = throttle_c - 2.0; // engage before the plant trips
    g.temp_promote_c = throttle_c - 6.0;
    return g;
}

SystemConfig
policy_config(const DeviceTier &tier, const Envelope &env, int policy,
              std::uint64_t seed)
{
    SystemConfig cfg = SystemConfig()
                           .with_device(tier.device)
                           .with_seed(seed)
                           .with_thermal_envelope(env.scale);
    switch (policy) {
    case kVsyncBase:
        cfg.with_mode(RenderMode::kVsync);
        break;
    case kDeep:
        cfg.with_mode(RenderMode::kDvsync);
        break;
    case kShallow:
        cfg.with_mode(RenderMode::kDvsync).with_prerender_limit(1);
        break;
    case kGoverned:
        cfg.with_mode(RenderMode::kDvsync).with_governor(governor_for(tier));
        break;
    }
    return cfg;
}

struct Cell {
    std::string tier;
    std::string envelope;
    std::string policy;
    int runs = 0;
    double energy_mj = 0.0;
    std::uint64_t stutters = 0;
    std::uint64_t drops = 0;
    std::int64_t frames_due = 0;
    std::uint64_t presents = 0;
    std::uint64_t violations = 0;
    std::uint64_t trips = 0;
    double peak_c = 0.0; // max over runs
    int dvfs_end = 0;    // max over runs
    std::uint64_t demotions = 0;
    std::uint64_t promotions = 0;
    int rung_end = 0; // max over runs
    int errors = 0;
    RunActivity act; // summed, for PowerModel::percent_increase
};

void
accumulate(Cell &cell, const RunReport &r)
{
    ++cell.runs;
    cell.energy_mj += r.energy_mj;
    cell.stutters += r.stutters;
    cell.drops += r.drops;
    cell.frames_due += r.frames_due;
    cell.presents += r.presents;
    cell.violations += r.invariant_violations;
    cell.trips += r.thermal_trips;
    cell.peak_c = std::max(cell.peak_c, r.peak_temp_c);
    cell.dvfs_end = std::max(cell.dvfs_end, r.dvfs_level_end);
    cell.demotions += r.governor_demotions;
    cell.promotions += r.governor_promotions;
    cell.rung_end = std::max(cell.rung_end, r.governor_rung_end);
    cell.act.wall_time += r.activity.wall_time;
    cell.act.pipeline_busy += r.activity.pipeline_busy;
    cell.act.frames_produced += r.activity.frames_produced;
    cell.act.predicted_frames += r.activity.predicted_frames;
    cell.act.gpu_mj += r.activity.gpu_mj;
    cell.act.dvsync_on = cell.act.dvsync_on || r.activity.dvsync_on;
}

/** Energy-per-stutter-avoided vs the group baseline; NaN = avoided none. */
double
eps_mj(const Cell &base, const Cell &cell)
{
    const std::int64_t avoided =
        std::int64_t(base.stutters) - std::int64_t(cell.stutters);
    if (avoided <= 0)
        return std::nan("");
    return (cell.energy_mj - base.energy_mj) / double(avoided);
}

/** NaN-aware cell formatter: the "n/a" convention for empty baselines. */
std::string
fmt_or_na(double v, const char *fmt)
{
    if (std::isnan(v))
        return "n/a";
    char buf[48];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    int seeds = args.int_flag("seeds", 5);
    bool golden = args.bool_flag("golden");
    std::string out_path = args.string_flag("out", "BENCH_governor.json");
    const int jobs = args.jobs();
    const std::string record_path = args.string_flag("record");
    args.finish();
    if (seeds < 1)
        fatal("--seeds must be >= 1");
    if (golden) {
        seeds = 1;
        out_path = "-";
    }

    const DevicePopulation fleet = DevicePopulation::paper_fleet();
    const std::vector<DeviceTier> &tiers = fleet.tiers();

    if (!record_path.empty()) {
        // Record a governed soak whose closed loop actually engages:
        // first tier, constrained envelope, ladder enabled.
        const DeviceTier &tier = tiers.front();
        RenderSystem sys(
            policy_config(tier, kEnvelopes[1], kGoverned, 1),
            soak_scenario(tier.device));
        sys.run();
        const SessionCapture cap = SessionRecorder::capture(
            sys, tier.name + "/constrained/governor/seed1");
        if (!cap.save(record_path))
            fatal("cannot write capture %s", record_path.c_str());
        std::fprintf(stderr, "capture written to %s\n",
                     record_path.c_str());
        return 0;
    }

    // Grid, tier-major: every (tier, envelope, policy) cell holds
    // `seeds` runs; the chaos leg (everything-mix fault plans with the
    // governor engaged, one run per tier at the constrained envelope)
    // rides on the same stream.
    std::vector<Experiment> points;
    std::vector<Cell> cells;
    for (const DeviceTier &tier : tiers) {
        const Scenario scenario = soak_scenario(tier.device);
        for (const Envelope &env : kEnvelopes) {
            for (int policy = 0; policy < kPolicies; ++policy) {
                Cell cell;
                cell.tier = tier.name;
                cell.envelope = env.name;
                cell.policy = kPolicyNames[policy];
                cells.push_back(cell);
                for (int s = 0; s < seeds; ++s) {
                    const std::uint64_t seed = std::uint64_t(s) + 1;
                    Experiment point;
                    point.scenario = scenario;
                    point.config = policy_config(tier, env, policy, seed);
                    point.label = tier.name + "/" + env.name + "/" +
                                  kPolicyNames[policy] + "/seed" +
                                  std::to_string(seed);
                    points.push_back(std::move(point));
                }
            }
        }
    }
    const std::size_t grid_points = points.size();

    // Chaos leg: the governor must hold the chaos bar (zero invariant
    // violations, every drop attributed) while actively reshaping the
    // pipeline it is injected into.
    const std::vector<FaultMix> mixes = FaultMix::campaign_mixes();
    const FaultMix *everything = &mixes.back();
    for (const FaultMix &mix : mixes) {
        if (mix.name == "everything")
            everything = &mix;
    }
    const Envelope chaos_env = kEnvelopes[1]; // constrained
    const std::size_t chaos_cell0 = cells.size();
    for (const DeviceTier &tier : tiers) {
        const Scenario scenario = soak_scenario(tier.device);
        const Time horizon = scenario.total_duration();
        Cell cell;
        cell.tier = tier.name;
        cell.envelope = chaos_env.name;
        cell.policy = "governor+chaos";
        cells.push_back(cell);
        for (int s = 0; s < seeds; ++s) {
            const std::uint64_t seed = std::uint64_t(s) + 1;
            Experiment point;
            point.scenario = scenario;
            point.config =
                policy_config(tier, chaos_env, kGoverned, seed)
                    .with_faults(std::make_shared<const FaultPlan>(
                        FaultPlan::generate(seed, horizon, *everything)));
            point.label = tier.name + "/chaos/governor/seed" +
                          std::to_string(seed);
            points.push_back(std::move(point));
        }
    }

    std::uint64_t cause_totals[kDropCauseCount] = {};
    std::uint64_t injected_drops = 0;
    std::uint64_t total_drops = 0;
    CallbackSink sink([&](std::size_t idx, RunReport &&r) {
        const std::size_t cell_idx =
            idx < grid_points
                ? idx / std::size_t(seeds)
                : chaos_cell0 + (idx - grid_points) / std::size_t(seeds);
        Cell &cell = cells[cell_idx];
        accumulate(cell, r);
        for (int c = 0; c < kDropCauseCount; ++c)
            cause_totals[c] += r.drop_causes[c];
        injected_drops += r.drops_injected;
        total_drops += r.drops;
        if (!r.error.empty()) {
            ++cell.errors;
            std::printf("ERROR %s: %s\n", r.label.c_str(), r.error.c_str());
        }
        if (r.invariant_violations > 0) {
            std::printf("VIOLATIONS %s: %llu\n", r.label.c_str(),
                        (unsigned long long)r.invariant_violations);
        }
        if (golden)
            std::printf("%s\n", r.debug_string().c_str());
    });
    const ExperimentRunner runner(jobs);
    runner.run_stream(points, sink);

    std::uint64_t total_violations = 0;
    std::uint64_t chaos_violations = 0;
    int total_errors = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        total_violations += cells[i].violations;
        if (i >= chaos_cell0)
            chaos_violations += cells[i].violations;
        total_errors += cells[i].errors;
    }

    std::printf("governor campaign: %d seeds x %zu tiers x %zu envelopes "
                "x %d policies + chaos leg (%zu runs)\n\n",
                seeds, tiers.size(), std::size(kEnvelopes), int(kPolicies),
                points.size());

    // The frontier table. eps is energy-per-stutter-avoided vs the
    // group's vsync baseline; pwr% is PowerModel::percent_increase over
    // the same baseline ("n/a" renders its NaN convention).
    const PowerModel pm;
    std::printf("%-12s %-11s %-15s %9s %8s %6s %6s %7s %5s %9s %9s %8s\n",
                "tier", "envelope", "policy", "energy_mJ", "stutters",
                "drops", "trips", "peak_C", "d/p", "eps_mJ", "pwr_%",
                "errs");
    bool governor_wins_constrained = false;
    std::vector<std::string> winning_groups;
    for (std::size_t g = 0; g + kPolicies <= chaos_cell0;
         g += kPolicies) {
        const Cell &base = cells[g + kVsyncBase];
        bool governor_wins = true;
        for (int policy = 0; policy < kPolicies; ++policy) {
            const Cell &c = cells[g + policy];
            const double eps = eps_mj(base, c);
            const double pct = pm.percent_increase(base.act, c.act);
            char dp[24];
            std::snprintf(dp, sizeof(dp), "%llu/%llu",
                          (unsigned long long)c.demotions,
                          (unsigned long long)c.promotions);
            std::printf("%-12s %-11s %-15s %9.1f %8llu %6llu %6llu %7.1f "
                        "%5s %9s %9s %8d\n",
                        c.tier.c_str(), c.envelope.c_str(),
                        c.policy.c_str(), c.energy_mj,
                        (unsigned long long)c.stutters,
                        (unsigned long long)c.drops,
                        (unsigned long long)c.trips, c.peak_c, dp,
                        fmt_or_na(eps, "%.2f").c_str(),
                        fmt_or_na(pct, "%.1f").c_str(), c.errors);
            // Frontier verdict: the governor must avoid stutters at a
            // strictly better energy price than every static D-VSync
            // config (a static that avoided nothing concedes the point).
            if (policy == kDeep || policy == kShallow) {
                const double gov = eps_mj(base, cells[g + kGoverned]);
                if (std::isnan(gov) ||
                    (!std::isnan(eps) && gov >= eps))
                    governor_wins = false;
            }
        }
        if (governor_wins &&
            cells[g].envelope == std::string("constrained")) {
            governor_wins_constrained = true;
            winning_groups.push_back(cells[g].tier + "/" +
                                     cells[g].envelope);
        }
    }
    for (std::size_t i = chaos_cell0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        std::printf("%-12s %-11s %-15s %9.1f %8llu %6llu %6llu %7.1f "
                    "%llu/%llu %9s %9s %8d\n",
                    c.tier.c_str(), c.envelope.c_str(), c.policy.c_str(),
                    c.energy_mj, (unsigned long long)c.stutters,
                    (unsigned long long)c.drops,
                    (unsigned long long)c.trips, c.peak_c,
                    (unsigned long long)c.demotions,
                    (unsigned long long)c.promotions, "-", "-", c.errors);
    }

    std::printf("\ndrop causes (all runs):");
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (cause_totals[c] > 0)
            std::printf(" %s=%llu", to_string(DropCause(c)),
                        (unsigned long long)cause_totals[c]);
    }
    std::printf(" | injected %llu of %llu drops\n",
                (unsigned long long)injected_drops,
                (unsigned long long)total_drops);

    if (governor_wins_constrained) {
        std::printf("\nfrontier: governor beats every static config in");
        for (const std::string &w : winning_groups)
            std::printf(" %s", w.c_str());
        std::printf("\n");
    } else {
        std::printf("\nfrontier: governor does NOT beat the static "
                    "configs in any constrained group\n");
    }
    std::printf("total: %llu violations (%llu in chaos leg), %d failed "
                "runs\n",
                (unsigned long long)total_violations,
                (unsigned long long)chaos_violations, total_errors);

    if (out_path != "-") {
        bench::BenchJson record("governor_campaign");
        record.i64("seeds", seeds);
        record.u64("runs", points.size());
        record.u64("total_violations", total_violations);
        record.u64("chaos_violations", chaos_violations);
        record.i64("failed_runs", total_errors);
        record.boolean("governor_wins_constrained",
                       governor_wins_constrained);
        std::string cell_json = "[\n";
        char jbuf[512];
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &c = cells[i];
            const double eps =
                i < chaos_cell0
                    ? eps_mj(cells[(i / kPolicies) * kPolicies], c)
                    : std::nan("");
            std::snprintf(
                jbuf, sizeof(jbuf),
                "    {\"tier\": \"%s\", \"envelope\": \"%s\", "
                "\"policy\": \"%s\", \"runs\": %d, "
                "\"energy_mj\": %.3f, \"stutters\": %llu, "
                "\"drops\": %llu, \"frames_due\": %lld, "
                "\"presents\": %llu, \"violations\": %llu, "
                "\"trips\": %llu, \"peak_c\": %.2f, \"dvfs_end\": %d, "
                "\"demotions\": %llu, \"promotions\": %llu, "
                "\"rung_end\": %d, \"eps_mj\": %s, \"errors\": %d}%s\n",
                c.tier.c_str(), c.envelope.c_str(), c.policy.c_str(),
                c.runs, c.energy_mj, (unsigned long long)c.stutters,
                (unsigned long long)c.drops, (long long)c.frames_due,
                (unsigned long long)c.presents,
                (unsigned long long)c.violations,
                (unsigned long long)c.trips, c.peak_c, c.dvfs_end,
                (unsigned long long)c.demotions,
                (unsigned long long)c.promotions, c.rung_end,
                std::isnan(eps) ? "null"
                                : fmt_or_na(eps, "%.3f").c_str(),
                c.errors, i + 1 < cells.size() ? "," : "");
            cell_json += jbuf;
        }
        cell_json += "  ]";
        record.raw("cells", cell_json);
        record.write(out_path);
        std::printf("governor record written to %s\n", out_path.c_str());
    }

    bool failed = total_violations > 0 || total_errors > 0;
    if (cause_totals[int(DropCause::kUnknown)] > 0) {
        std::printf("UNATTRIBUTED DROPS: %llu frames carry no cause\n",
                    (unsigned long long)
                        cause_totals[int(DropCause::kUnknown)]);
        failed = true;
    }
    if (!governor_wins_constrained) {
        std::printf("GOVERNOR LOSES THE CONSTRAINED FRONTIER\n");
        failed = true;
    }
    if (failed) {
        std::printf("GOVERNOR CAMPAIGN FAILED\n");
        return 1;
    }
    return 0;
}
