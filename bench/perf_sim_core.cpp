/**
 * @file
 * Simulator-core performance record (`BENCH_simcore.json`).
 *
 * Every figure and table of the reproduction is driven by the
 * discrete-event core, so its per-event cost bounds the wall-clock of
 * every sweep. This bench pins that cost from five angles:
 *
 *  1. A cancel-heavy schedule/cancel/fire mix (the watchdog/timeout
 *     pattern: a ring of outstanding timers that are mostly re-armed
 *     before they fire).
 *  2. A pure schedule/fire chain mix (the simulator's steady-state
 *     pattern).
 *  3. A timeline mix shaped like a 48-swipe sweep session: a timeline
 *     of ascending far-future boundaries scheduled up front, then a
 *     near self-rescheduling chain running through it.
 *  4. A multi-surface mix shaped like a multisurface session: ~20
 *     monotone per-surface stage chains woken by a shared vsync tick,
 *     ~11 events pending at each dispatch.
 *  5. A full fig11-style app sweep timed end-to-end through the
 *     ExperimentRunner (independent sessions on --jobs workers) — the
 *     macro number that the micro numbers exist to explain.
 *
 * Each micro workload folds its dispatch order into a checksum. The
 * checksums are deterministic for a given --events value, so CI can
 * golden-check them while the timings float.
 *
 * Usage: perf_sim_core [--events=N] [--jobs=N] [--out=PATH]
 *   --events=N   events per micro workload (default 1,000,000)
 *   --out=PATH   where to write the JSON record (default
 *                BENCH_simcore.json; "-" suppresses the file)
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "metrics/reporter.h"
#include "sim/event_queue.h"
#include "sim/logging.h"

using namespace dvs;
using namespace dvs::bench;

namespace {

/** Deterministic splitmix-style stream so runs are comparable. */
struct Lcg {
    std::uint64_t s;
    std::uint64_t next()
    {
        s += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = s;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
};

double
ms_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Cancel-heavy mix: a ring of `window` outstanding timers; each step
 * re-arms a pseudo-random ring slot (cancelling whatever was pending
 * there) and periodically drains a short horizon. Checksum folds the
 * dispatch order.
 */
std::uint64_t
cancel_heavy_mix(EventQueue &q, int events, int window,
                 std::uint64_t &fired)
{
    std::vector<EventId> ring(std::size_t(window), 0);
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    std::uint64_t step = 0;
    Lcg rng{42};
    for (int i = 0; i < events; ++i) {
        const std::size_t slot = std::size_t(rng.next() % ring.size());
        if (ring[slot])
            q.cancel(ring[slot]);
        const Time when = q.now() + 1 + Time(rng.next() % 4096);
        const std::uint64_t tag = step++;
        ring[slot] = q.schedule(when, [&checksum, &fired, tag, &q] {
            checksum = (checksum ^ tag) * 0x100000001b3ULL;
            checksum = (checksum ^ std::uint64_t(q.now())) *
                       0x100000001b3ULL;
            ++fired;
        });
        if ((i & 255) == 0)
            q.run_until(q.now() + 64);
    }
    q.run();
    return checksum;
}

/**
 * Steady-state chain mix: `width` self-rescheduling chains (each fired
 * event schedules its successor), the simulator's dominant pattern.
 */
std::uint64_t
chain_mix(EventQueue &q, int events, int width, std::uint64_t &fired)
{
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    std::uint64_t budget = std::uint64_t(events);
    std::function<void(std::uint64_t)> arm = [&](std::uint64_t chain) {
        checksum = (checksum ^ chain) * 0x100000001b3ULL;
        checksum = (checksum ^ std::uint64_t(q.now())) * 0x100000001b3ULL;
        ++fired;
        if (budget == 0)
            return;
        --budget;
        Lcg rng{chain * 7919 + fired};
        q.schedule(q.now() + 1 + Time(rng.next() % 997),
                   [&arm, chain] { arm(chain); });
    };
    for (int c = 0; c < width; ++c) {
        if (budget == 0)
            break;
        --budget;
        q.schedule(Time(c + 1), [&arm, c] { arm(std::uint64_t(c)); });
    }
    q.run();
    return checksum;
}

/**
 * Timeline mix, the shape of a sweep session: each round schedules
 * `segments` ascending boundaries up front, as Producer::start schedules
 * a scenario's segment timeline, then a vsync-like chain (each tick
 * schedules the next, one jittered period later) runs until the round's
 * last boundary. About 33 events per boundary.
 */
std::uint64_t
timeline_mix(EventQueue &q, int events, int segments, std::uint64_t &fired)
{
    constexpr Time kPeriod = 16'667;
    constexpr Time kBoundaryGap = 32 * kPeriod;
    const int rounds = std::max(1, events / (33 * segments));
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    const auto fold = [&](std::uint64_t tag) {
        checksum = (checksum ^ tag) * 0x100000001b3ULL;
        checksum = (checksum ^ std::uint64_t(q.now())) * 0x100000001b3ULL;
        ++fired;
    };
    Lcg rng{7};
    Time round_end = 0;
    std::function<void()> tick = [&] {
        fold(~std::uint64_t(0));
        const Time next = q.now() + kPeriod - 32 + Time(rng.next() % 64);
        if (next < round_end)
            q.schedule(next, [&tick] { tick(); }, EventPriority::kVsyncDist);
    };
    for (int r = 0; r < rounds; ++r) {
        const Time base = q.now();
        round_end = base + Time(segments) * kBoundaryGap;
        for (int s = 1; s <= segments; ++s) {
            q.schedule(base + Time(s) * kBoundaryGap,
                       [&fold, s] { fold(std::uint64_t(s)); },
                       EventPriority::kSegment);
        }
        q.schedule(base + 1, [&tick] { tick(); }, EventPriority::kVsyncDist);
        q.run();
    }
    return checksum;
}

/**
 * Multi-surface mix, the shape of a multisurface session: a vsync tick
 * every period wakes each idle one of `streams` surfaces, which then
 * runs a frame of one or two jittered pipeline stages (each stage
 * schedules the next; the last leaves the surface idle until a later
 * tick). Each surface's events are monotone in time and at most one is
 * pending, so the queue holds about half the surfaces plus the tick.
 * @p pending_sum accumulates pending() at every dispatch.
 */
std::uint64_t
multisurface_mix(EventQueue &q, int events, int streams,
                 std::uint64_t &fired, std::uint64_t &pending_sum)
{
    constexpr Time kPeriod = 16'667;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    std::uint64_t budget = std::uint64_t(events);
    const auto fold = [&](std::uint64_t tag) {
        checksum = (checksum ^ tag) * 0x100000001b3ULL;
        checksum = (checksum ^ std::uint64_t(q.now())) * 0x100000001b3ULL;
        pending_sum += q.pending();
        ++fired;
    };
    std::vector<int> stages_left(std::size_t(streams), 0);
    Lcg rng{11};
    std::function<void(int)> stage;
    const auto next_stage = [&](int s) {
        --budget;
        q.schedule(q.now() + 1000 + Time(rng.next() % 5000),
                   [&stage, s] { stage(s); }, EventPriority::kPipeline,
                   EventTag(s + 1));
    };
    stage = [&](int s) {
        fold(std::uint64_t(s + 1));
        if (--stages_left[std::size_t(s)] > 0 && budget > 0)
            next_stage(s);
        else
            stages_left[std::size_t(s)] = 0;
    };
    std::function<void()> tick = [&] {
        fold(0);
        for (int s = 0; s < streams && budget > 0; ++s) {
            if (stages_left[std::size_t(s)] != 0)
                continue;
            stages_left[std::size_t(s)] = 1 + int(rng.next() % 2);
            next_stage(s);
        }
        if (budget > 0) {
            --budget;
            q.schedule(q.now() + kPeriod, [&tick] { tick(); },
                       EventPriority::kVsyncDist);
        }
    };
    --budget;
    q.schedule(0, [&tick] { tick(); }, EventPriority::kVsyncDist);
    q.run();
    return checksum;
}

/** The fig11 app sweep (uncalibrated), as one ExperimentRunner batch. */
std::vector<Experiment>
fig11_sweep_points()
{
    const DeviceConfig device = pixel5();
    SwipeSetup setup;
    setup.swipes = 48;
    struct Cell {
        RenderMode mode;
        int buffers;
    };
    const Cell cells[] = {{RenderMode::kVsync, 3},
                          {RenderMode::kDvsync, 4},
                          {RenderMode::kDvsync, 5},
                          {RenderMode::kDvsync, 7}};
    std::vector<Experiment> points;
    for (const ProfileSpec &app : pixel5_app_profiles()) {
        const std::uint64_t seed = std::hash<std::string>{}(app.name);
        for (const Cell &cell : cells) {
            auto cell_points = profile_experiments(
                app, device, cell.mode, cell.buffers, setup, seed);
            points.insert(points.end(), cell_points.begin(),
                          cell_points.end());
        }
    }
    return points;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const int events = args.int_flag("events", 1'000'000);
    const std::string out_path = args.string_flag("out", "BENCH_simcore.json");
    const int jobs = args.jobs();
    args.finish();
    if (events <= 0)
        fatal("--events must be positive");
    const int window = 1024;

    print_section("Simulator-core performance record");
    std::printf("events per micro workload: %d\n\n", events);

    // ---- cancel-heavy mix ----------------------------------------------
    std::uint64_t fired = 0;
    auto t0 = std::chrono::steady_clock::now();
    EventQueue q_cancel;
    const std::uint64_t cancel_sum =
        cancel_heavy_mix(q_cancel, events, window, fired);
    const double cancel_ms = ms_since(t0);

    // ---- steady-state chain mix ----------------------------------------
    std::uint64_t chain_fired = 0;
    t0 = std::chrono::steady_clock::now();
    EventQueue q_chain;
    const std::uint64_t chain_sum =
        chain_mix(q_chain, events, 256, chain_fired);
    const double chain_ms = ms_since(t0);

    // ---- sweep-shaped timeline mix -------------------------------------
    std::uint64_t timeline_fired = 0;
    t0 = std::chrono::steady_clock::now();
    EventQueue q_timeline;
    const std::uint64_t timeline_sum =
        timeline_mix(q_timeline, events, 100, timeline_fired);
    const double timeline_ms = ms_since(t0);

    // ---- multi-surface mix ---------------------------------------------
    std::uint64_t multi_fired = 0, multi_pending = 0;
    t0 = std::chrono::steady_clock::now();
    EventQueue q_multi;
    const std::uint64_t multi_sum =
        multisurface_mix(q_multi, events, 20, multi_fired, multi_pending);
    const double multi_ms = ms_since(t0);
    const double multi_mean_pending =
        double(multi_pending) / double(multi_fired);

    // ---- macro: fig11 sweep through the ExperimentRunner ---------------
    const std::vector<Experiment> points = fig11_sweep_points();
    const ExperimentRunner runner(jobs);
    t0 = std::chrono::steady_clock::now();
    const std::vector<RunReport> reports = runner.run(points);
    const double sweep_ms = ms_since(t0);
    double sweep_fdps = 0.0;
    for (const RunReport &r : reports)
        sweep_fdps += r.fdps;

    // ---- forensics overhead guard --------------------------------------
    //
    // The same sweep with frame forensics on (metrics sampler installed
    // at the default cadence). The sampler only reads component state,
    // so results must be bit-identical. The enforced overhead metric is
    // deterministic — extra simulator events dispatched — because wall
    // clock on a shared CI box is too noisy to bound a few-percent
    // effect; wall time is still measured (best-of-2 each way,
    // interleaved) and reported for the record.
    std::vector<Experiment> fpoints = fig11_sweep_points();
    for (Experiment &p : fpoints)
        p.config.forensics = true;

    std::uint64_t base_events = 0, forensics_events = 0;
    double base_fdps = 0.0, forensics_fdps = 0.0;
    for (const Experiment &p : points) {
        RenderSystem sys(p.config, p.scenario);
        base_fdps += sys.run().fdps;
        base_events += sys.sim().events().dispatched();
    }
    for (const Experiment &p : fpoints) {
        RenderSystem sys(p.config, p.scenario);
        forensics_fdps += sys.run().fdps;
        forensics_events += sys.sim().events().dispatched();
    }
    if (forensics_fdps != base_fdps) {
        fatal("forensics changed results: fdps total %.6f with vs %.6f "
              "without",
              forensics_fdps, base_fdps);
    }
    const double overhead_pct =
        base_events > 0
            ? 100.0 * double(forensics_events - base_events) /
                  double(base_events)
            : 0.0;

    double base_best_ms = sweep_ms;
    double forensics_best_ms = 0.0;
    for (int rep = 0; rep < 2; ++rep) {
        t0 = std::chrono::steady_clock::now();
        runner.run(fpoints);
        const double wall = ms_since(t0);
        forensics_best_ms =
            rep == 0 ? wall : std::min(forensics_best_ms, wall);
        t0 = std::chrono::steady_clock::now();
        runner.run(points);
        base_best_ms = std::min(base_best_ms, ms_since(t0));
    }

    TableReporter table({"workload", "wall (ms)", "ns/schedule"});
    table.add_row({"cancel-heavy mix", TableReporter::num(cancel_ms, 1),
                   TableReporter::num(1e6 * cancel_ms / double(events), 1)});
    table.add_row({"chain mix", TableReporter::num(chain_ms, 1),
                   TableReporter::num(1e6 * chain_ms / double(events), 1)});
    table.add_row({"timeline mix", TableReporter::num(timeline_ms, 1),
                   TableReporter::num(
                       1e6 * timeline_ms / double(timeline_fired), 1)});
    table.add_row({"multi-surface mix", TableReporter::num(multi_ms, 1),
                   TableReporter::num(1e6 * multi_ms / double(multi_fired),
                                      1)});
    table.print();
    std::printf("multi-surface mix: %.1f events pending per dispatch\n",
                multi_mean_pending);

    std::printf("\nfig11 sweep: %zu runs in %.1f ms (%d jobs)\n",
                points.size(), sweep_ms, runner.jobs());
    std::printf("forensics-on sweep: %.1f ms vs %.1f ms wall "
                "(informational); event overhead %+.2f%% "
                "(%llu -> %llu dispatched, results bit-identical)\n",
                forensics_best_ms, base_best_ms, overhead_pct,
                (unsigned long long)base_events,
                (unsigned long long)forensics_events);
    // Deterministic lines (checksums + fired counts) for the golden
    // check; everything time-valued above floats run to run.
    std::printf("dispatch checksum (cancel-heavy): %016llx after %llu "
                "events\n",
                (unsigned long long)cancel_sum,
                (unsigned long long)fired);
    std::printf("dispatch checksum (chain):        %016llx after %llu "
                "events\n",
                (unsigned long long)chain_sum,
                (unsigned long long)chain_fired);
    std::printf("fig11 sweep fdps sum:             %.6f over %zu runs\n",
                sweep_fdps, reports.size());
    std::printf("dispatch checksum (timeline):     %016llx after %llu "
                "events\n",
                (unsigned long long)timeline_sum,
                (unsigned long long)timeline_fired);
    std::printf("dispatch checksum (multisurface): %016llx after %llu "
                "events\n",
                (unsigned long long)multi_sum,
                (unsigned long long)multi_fired);

    if (out_path != "-") {
        bench::BenchJson record("perf_sim_core");
        record.i64("events", events);
        record.i64("cancel_window", window);
        char jbuf[512];
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"dispatched\": %llu,\n"
                      "    \"checksum\": \"%016llx\"\n"
                      "  }",
                      cancel_ms, (unsigned long long)fired,
                      (unsigned long long)cancel_sum);
        record.raw("cancel_heavy", jbuf);
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"dispatched\": %llu,\n"
                      "    \"checksum\": \"%016llx\"\n"
                      "  }",
                      chain_ms, (unsigned long long)chain_fired,
                      (unsigned long long)chain_sum);
        record.raw("chain", jbuf);
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"dispatched\": %llu,\n"
                      "    \"checksum\": \"%016llx\"\n"
                      "  }",
                      timeline_ms, (unsigned long long)timeline_fired,
                      (unsigned long long)timeline_sum);
        record.raw("timeline", jbuf);
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"dispatched\": %llu,\n"
                      "    \"mean_pending\": %.2f,\n"
                      "    \"checksum\": \"%016llx\"\n"
                      "  }",
                      multi_ms, (unsigned long long)multi_fired,
                      multi_mean_pending, (unsigned long long)multi_sum);
        record.raw("multisurface", jbuf);
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"runs\": %zu,\n"
                      "    \"jobs\": %d,\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"fdps_sum\": %.6f\n"
                      "  }",
                      points.size(), runner.jobs(), sweep_ms, sweep_fdps);
        record.raw("fig11_sweep", jbuf);
        std::snprintf(jbuf, sizeof(jbuf),
                      "{\n"
                      "    \"wall_ms\": %.3f,\n"
                      "    \"overhead_percent\": %.2f\n"
                      "  }",
                      forensics_best_ms, overhead_pct);
        record.raw("forensics_sweep", jbuf);
        record.write(out_path);
        std::printf("\nperf record written to %s\n", out_path.c_str());
    }

    // The 5% budget, enforced on the deterministic event-count metric.
    if (overhead_pct > 5.0) {
        fatal("forensics overhead %.2f%% exceeds the 5%% budget "
              "(%llu -> %llu events dispatched)",
              overhead_pct, (unsigned long long)base_events,
              (unsigned long long)forensics_events);
    }
    return 0;
}
