/**
 * @file
 * perfbench: the driver behind the repository benchmark (see README.md).
 *
 * One process runs one named workload as a closed loop on one thread:
 * the next session starts when the previous one has finished, as on the
 * ExperimentRunner jobs=1 path. The driver makes the calls itself so each
 * call into a layer can be timed, in this order:
 *
 *   materialize -> construct -> run() -> report() -> teardown
 *     -> aggregate (CampaignAggregator) -> observe (Observatory)
 *
 * A run has two parts.
 *
 *  1. Set-up, five times from scratch: build the workload's fixed input
 *     set from --seed (per-app calibration on sweep), then run one
 *     verification pass over it. That pass digests every
 *     RunReport::debug_string() and dispatch hash in session order and
 *     checks every session. All set-ups must give the same digest;
 *     set-up time is their median. The first runs before measurement,
 *     the others between timed passes, spread over the measurement.
 *  2. Measurement: timed passes over the same inputs until --seconds of
 *     passes have elapsed, and at least two. Every session's dispatch
 *     hash and event count must match the verification pass. Every
 *     timing is built from each input's fastest time over the passes.
 *
 * Built as perfbench_traced (PERFBENCH_TRACED), the driver also records
 * one span per call, grouped by session, and counts allocations, on
 * every other pass; the bare passes between give the cost of recording.
 * Spans stay in memory and are written through TraceLog when the run
 * ends.
 *
 * The output is one JSON object of raw measurements (bench::BenchJson);
 * run.py turns it into the benchmark result.
 */

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "sim/tracing.h"
#include "surface/multi_surface.h"
#include "trace/dvst_io.h"
#include "workload/device_population.h"
#include "workload/distributions.h"
#include "workload/frame_cost.h"

#ifdef PERFBENCH_TRACED
#include "alloc_counter.h"
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

using namespace dvs;
using namespace dvs::time_literals;

namespace {

// ----- clocks and statistics ----------------------------------------------

std::int64_t
wall_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the calling thread; the driver runs sessions on one. */
std::int64_t
cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return std::int64_t(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile of a sorted sample (q in [0, 1]). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * double(sorted.size() - 1);
    const auto lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

// ----- spans ----------------------------------------------------------------

enum Phase : int {
    kMaterialize,
    kConstruct,
    kRun,
    kReport,
    kTeardown,
    kAggregate,
    kObserve,
    kSession, ///< the whole session, parent of the spans above
    kPhaseCount,
};

constexpr const char *kPhaseName[kPhaseCount] = {
    "materialize", "construct", "run",     "report",
    "teardown",    "aggregate", "observe", "session"};

/** Sessions whose spans are kept for the trace file. */
constexpr std::uint64_t kSpanSessions = 256;

/**
 * Per-call spans of the traced driver. In the untraced build every
 * call() is the bare call: no clock reads, no allocation counts.
 */
class Recorder
{
  public:
    struct Totals {
        std::int64_t ns = 0;
        std::uint64_t calls = 0;
        std::uint64_t allocs = 0;
        std::uint64_t alloc_bytes = 0;

        Totals &operator+=(const Totals &o)
        {
            ns += o.ns;
            calls += o.calls;
            allocs += o.allocs;
            alloc_bytes += o.alloc_bytes;
            return *this;
        }
    };
    using Phases = std::array<Totals, kPhaseCount>;

    /** Spans in the trace file are timed from @p origin_ns. */
    void set_origin(std::int64_t origin_ns) { origin_ = origin_ns; }

    /**
     * Record spans and count allocations, or not. The traced driver
     * switches this per pass, so that recorded and bare passes of one
     * process give the cost of recording.
     */
    void record(bool on)
    {
        on_ = kTraced && on;
#ifdef PERFBENCH_TRACED
        perfbench::count_allocs(on_);
#endif
    }
    void set_session(std::uint64_t id) { session_ = id; }

    template <class F>
    decltype(auto) call(Phase phase, F &&f)
    {
        if constexpr (!kTraced) {
            return f();
        } else {
            const Mark start = mark();
            if constexpr (std::is_void_v<decltype(f())>) {
                f();
                close(phase, start);
            } else {
                auto result = f();
                close(phase, start);
                return result;
            }
        }
    }

    /** Record an externally timed span (the session span). */
    void span(Phase phase, std::int64_t start_ns, std::int64_t end_ns)
    {
        if (!on_)
            return;
        totals_[phase].ns += end_ns - start_ns;
        ++totals_[phase].calls;
        keep(phase, start_ns, end_ns);
    }

    /** Per-phase totals since the last take() (one session), and restart. */
    Phases take()
    {
        const Phases t = totals_;
        totals_ = {};
        return t;
    }

    /** Write the kept spans, one track per session. */
    bool save(const std::string &path) const
    {
        TraceLog log;
        for (const Span &s : spans_)
            log.duration("session " + std::to_string(s.session),
                         kPhaseName[s.phase], s.start - origin_,
                         s.end - origin_);
        return log.save(path);
    }

  private:
    struct Mark {
        std::int64_t ns = 0;
        std::uint64_t allocs = 0;
        std::uint64_t bytes = 0;
    };
    struct Span {
        std::uint64_t session;
        Phase phase;
        std::int64_t start;
        std::int64_t end;
    };

    Mark mark() const
    {
        if (!on_)
            return {};
        Mark m = allocs_now();
        m.ns = wall_ns();
        return m;
    }

    void close(Phase phase, const Mark &start)
    {
        if (!on_)
            return;
        const std::int64_t end = wall_ns();
        const Mark after = allocs_now();
        Totals &t = totals_[phase];
        t.ns += end - start.ns;
        ++t.calls;
        t.allocs += after.allocs - start.allocs;
        t.alloc_bytes += after.bytes - start.bytes;
        keep(phase, start.ns, end);
    }

    Mark allocs_now() const
    {
        Mark m;
#ifdef PERFBENCH_TRACED
        const perfbench::AllocCount a = perfbench::alloc_count();
        m.allocs = a.calls;
        m.bytes = a.bytes;
#endif
        return m;
    }

    void keep(Phase phase, std::int64_t start, std::int64_t end)
    {
        if (session_ < kSpanSessions)
            spans_.push_back({session_, phase, start, end});
    }

    bool on_ = false;
    std::int64_t origin_ = 0;
    std::uint64_t session_ = 0;
    Phases totals_{};
    std::vector<Span> spans_;
};

// ----- workloads --------------------------------------------------------------

/** What the driver keeps of a session after teardown. */
struct SessionOut {
    RunReport report;
    std::uint64_t dispatch_hash = 0;
    std::uint64_t events = 0;
    Time sim_end = 0;
};

/**
 * Twin role of a session for fdps_reduction_pct: a baseline or a
 * D-VSync session of twin group `group`, or neither.
 */
struct Twin {
    enum Side { kNone, kBaseline, kDvsync };
    std::string group;
    Side side = kNone;
};

/**
 * construct -> run() -> report() -> teardown, for either system stack.
 * @p build constructs the system; it is timed as the construct phase.
 */
template <class Build>
SessionOut
drive(Recorder &rec, std::string label, Build &&build)
{
    auto sys = rec.call(kConstruct, build);
    rec.call(kRun, [&] { sys->run(); });
    SessionOut out;
    out.report = rec.call(kReport, [&] { return sys->report(); });
    out.report.label = std::move(label);
    out.dispatch_hash = sys->sim().events().dispatch_hash();
    out.events = sys->sim().events().dispatched();
    out.sim_end = sys->sim().now();
    rec.call(kTeardown, [&] { sys.reset(); });
    return out;
}

SessionOut
drive_render(Recorder &rec, Experiment e)
{
    return drive(rec, std::move(e.label), [&] {
        return std::make_unique<RenderSystem>(e.config,
                                              std::move(e.scenario));
    });
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the fixed input set of @p seed (set-up work). */
    virtual void prepare(std::uint64_t seed) = 0;

    /** Sessions in one pass over the input set. */
    virtual std::size_t sessions() const = 0;

    /** Run session @p i of the pass, materialize through teardown. */
    virtual SessionOut session(std::size_t i, Recorder &rec) = 0;

    virtual Twin twin(std::size_t i) const = 0;
};

/**
 * fleet: DevicePopulation::paper_fleet sessions (~1.1 simulated s each).
 * Per-session fixed costs (materialize, construct, report, teardown,
 * aggregate, observe) are a visible share only here.
 */
class FleetWorkload final : public Workload
{
  public:
    static constexpr std::size_t kSessions = 4000;

    void prepare(std::uint64_t seed) override
    {
        pop_ = std::make_unique<DevicePopulation>(
            DevicePopulation::paper_fleet(seed));
    }
    std::size_t sessions() const override { return kSessions; }

    SessionOut session(std::size_t i, Recorder &rec) override
    {
        Experiment e =
            rec.call(kMaterialize, [&] { return pop_->experiment(i); });
        return drive_render(rec, std::move(e));
    }

    Twin twin(std::size_t i) const override
    {
        const std::string cohort = pop_->cohort_of(i); // "<tier>/<mode>"
        const std::size_t slash = cohort.find('/');
        Twin t;
        t.group = cohort.substr(0, slash);
        t.side = cohort.substr(slash + 1) == to_string(RenderMode::kVsync)
                     ? Twin::kBaseline
                     : Twin::kDvsync;
        return t;
    }

  private:
    std::unique_ptr<DevicePopulation> pop_;
};

/**
 * sweep: the Fig. 11 app sweep, 25 Pixel 5 profiles x {VSync-3,
 * D-VSync-4/5/7} of 48 swipes (~24 simulated s each). Event dispatch is
 * nearly all of a session here. Each cell runs the figure's 3 seeds, 300
 * sessions a pass; the small input set lets every session run in many
 * passes, which steadies its fastest time. Calibration keeps the
 * figure's set-up.
 */
class SweepWorkload final : public Workload
{
  public:
    /** The paper's average Fig. 11 FDPS reduction at 5 buffers. */
    static constexpr double kPaperReductionPct = 87.7;
    static constexpr int kRepeats = 3;

    SweepWorkload()
    {
        setup_.swipes = 48; // ~1000 frames at 60 Hz, as fig11_fdps_apps
    }

    void prepare(std::uint64_t seed) override
    {
        apps_.clear();
        seeds_.clear();
        const std::vector<ProfileSpec> &raw = pixel5_app_profiles();
        for (std::size_t a = 0; a < raw.size(); ++a) {
            seeds_.push_back(hash_index(seed, std::int64_t(a)));
            apps_.push_back(bench::calibrate_baseline(
                raw[a], device_, 3, setup_, seeds_.back()));
        }
    }
    std::size_t sessions() const override
    {
        return apps_.size() * kCells * std::size_t(kRepeats);
    }

    SessionOut session(std::size_t i, Recorder &rec) override
    {
        const Where w = where(i);
        Experiment e = rec.call(kMaterialize, [&] {
            // profile_experiments seeds repeat r as seed + r * 7919; one
            // repeat at that seed is the same point.
            bench::SwipeSetup one = setup_;
            one.repeats = 1;
            std::vector<Experiment> points = bench::profile_experiments(
                apps_[w.app], device_, kCellTable[w.cell].mode,
                kCellTable[w.cell].buffers, one,
                seeds_[w.app] + std::uint64_t(w.repeat) * 7919);
            points[0].label += std::string("/") + kCellTable[w.cell].name;
            return std::move(points[0]);
        });
        return drive_render(rec, std::move(e));
    }

    Twin twin(std::size_t i) const override
    {
        const Where w = where(i);
        Twin t;
        t.group = apps_[w.app].name;
        t.side = w.cell == kBaselineCell   ? Twin::kBaseline
                 : w.cell == kDvsync5Cell ? Twin::kDvsync
                                          : Twin::kNone;
        return t;
    }

  private:
    struct Cell {
        RenderMode mode;
        int buffers;
        const char *name;
    };
    static constexpr std::size_t kCells = 4;
    static constexpr std::size_t kBaselineCell = 0;
    static constexpr std::size_t kDvsync5Cell = 2;
    static constexpr Cell kCellTable[kCells] = {
        {RenderMode::kVsync, 3, "VSync-3"},
        {RenderMode::kDvsync, 4, "D-VSync-4"},
        {RenderMode::kDvsync, 5, "D-VSync-5"},
        {RenderMode::kDvsync, 7, "D-VSync-7"}};

    struct Where {
        std::size_t app;
        std::size_t cell;
        int repeat;
    };
    Where where(std::size_t i) const
    {
        const auto reps = std::size_t(kRepeats);
        return {i / (kCells * reps), (i / reps) % kCells, int(i % reps)};
    }

    DeviceConfig device_ = pixel5();
    bench::SwipeSetup setup_;
    std::vector<ProfileSpec> apps_;
    std::vector<std::uint64_t> seeds_;
};

Scenario
constant_scenario(const std::string &name, Time ui, Time render,
                  Time duration)
{
    Scenario sc(name);
    sc.animate(duration, std::make_shared<ConstantCostModel>(ui, render));
    return sc;
}

Scenario
power_law_scenario(const std::string &name, std::uint64_t seed,
                   double short_mean_ms, double heavy_prob, Time duration)
{
    PowerLawParams p;
    p.short_mean_ms = short_mean_ms;
    p.heavy_prob = heavy_prob;
    p.heavy_min_ms = 14.0;
    p.heavy_max_ms = 32.0;
    Scenario sc(name);
    sc.animate(duration, std::make_shared<PowerLawCostModel>(p, seed));
    return sc;
}

/**
 * multisurface: MultiSurfaceSystem sessions of 4 and 8 surfaces (~3
 * simulated s), D-VSync-aware and oblivious surfaces sharing one GPU and
 * one distributor under a constrained budget with the weighted arbiter.
 * Each session is twinned with the same surfaces all oblivious.
 */
class MultiSurfaceWorkload final : public Workload
{
  public:
    static constexpr std::size_t kPairs = 100;

    void prepare(std::uint64_t seed) override { seed_ = seed; }
    std::size_t sessions() const override { return 2 * kPairs; }

    SessionOut session(std::size_t i, Recorder &rec) override
    {
        const std::size_t pair = i / 2;
        const bool oblivious = i % 2 == 1;
        const int count = pair % 2 == 0 ? 4 : 8;
        const std::uint64_t seed = hash_index(seed_, std::int64_t(pair));
        std::vector<SurfaceDesc> descs = rec.call(
            kMaterialize, [&] { return roster(count, seed, oblivious); });
        const MultiSurfaceConfig config =
            MultiSurfaceConfig()
                .with_seed(seed)
                .with_budget_mb(count == 4 ? 48.0 : 64.0)
                .with_policy(ArbiterPolicy::kWeighted);
        std::string label = std::to_string(count) + "surf/" +
                            (oblivious ? "oblivious" : "mixed");
        return drive(rec, std::move(label), [&] {
            return std::make_unique<MultiSurfaceSystem>(std::move(descs),
                                                        config);
        });
    }

    Twin twin(std::size_t i) const override
    {
        Twin t;
        t.group = std::to_string(i / 2);
        t.side = i % 2 == 1 ? Twin::kBaseline : Twin::kDvsync;
        return t;
    }

  private:
    /**
     * The first @p count surfaces of an 8-surface roster in launch
     * order. Staggered durations make surfaces exit mid-session, which
     * re-arbitrates the budget online.
     */
    static std::vector<SurfaceDesc> roster(int count, std::uint64_t seed,
                                           bool all_oblivious)
    {
        std::vector<SurfaceDesc> d;
        d.push_back(SurfaceDesc()
                        .with_name("app")
                        .with_scenario(power_law_scenario(
                            "app", seed * 16 + 1, 8.0, 0.22, 3000_ms))
                        .with_buffer_mb(12.0)
                        .with_max_extra_buffers(2)
                        .with_weight(3.0));
        d.push_back(SurfaceDesc()
                        .with_name("status_bar")
                        .with_scenario(constant_scenario(
                            "status_bar", 1_ms, 3_ms, 2800_ms))
                        .with_buffer_mb(10.0));
        d.push_back(SurfaceDesc()
                        .with_name("overlay")
                        .with_scenario(constant_scenario(
                            "overlay", 1_ms, 3_ms, 2600_ms))
                        .with_dvsync_aware(false)
                        .with_buffer_mb(8.0));
        d.push_back(SurfaceDesc()
                        .with_name("game")
                        .with_scenario(power_law_scenario(
                            "game", seed * 16 + 4, 8.0, 0.22, 3000_ms))
                        .with_buffer_mb(12.0)
                        .with_max_extra_buffers(2)
                        .with_weight(4.0));
        d.push_back(SurfaceDesc()
                        .with_name("video")
                        .with_scenario(power_law_scenario(
                            "video", seed * 16 + 5, 4.0, 0.05, 3000_ms))
                        .with_dvsync_aware(false)
                        .with_buffer_mb(12.0));
        d.push_back(SurfaceDesc()
                        .with_name("keyboard")
                        .with_scenario(constant_scenario(
                            "keyboard", 1_ms, 2_ms, 2400_ms))
                        .with_buffer_mb(8.0));
        d.push_back(SurfaceDesc()
                        .with_name("map")
                        .with_scenario(power_law_scenario(
                            "map", seed * 16 + 7, 6.0, 0.12, 2800_ms))
                        .with_dvsync_aware(false)
                        .with_buffer_mb(12.0)
                        .with_weight(2.0));
        d.push_back(SurfaceDesc()
                        .with_name("widget")
                        .with_scenario(power_law_scenario(
                            "widget", seed * 16 + 8, 3.0, 0.05, 2600_ms))
                        .with_buffer_mb(10.0)
                        .with_weight(2.0));
        d.resize(std::size_t(count));
        if (all_oblivious)
            for (SurfaceDesc &s : d)
                s.dvsync_aware = false;
        return d;
    }

    std::uint64_t seed_ = 0;
};

std::unique_ptr<Workload>
make_workload(const std::string &name)
{
    if (name == "fleet")
        return std::make_unique<FleetWorkload>();
    if (name == "sweep")
        return std::make_unique<SweepWorkload>();
    if (name == "multisurface")
        return std::make_unique<MultiSurfaceWorkload>();
    return nullptr;
}

// ----- checks and counts ------------------------------------------------------

bool
drops_attributed(std::uint64_t drops,
                 const std::array<std::uint64_t, kDropCauseCount> &causes)
{
    std::uint64_t sum = 0;
    for (std::uint64_t c : causes)
        sum += c;
    return sum == drops && causes[std::size_t(DropCause::kUnknown)] == 0;
}

/**
 * A session fails when it threw or was rejected, reported an invariant
 * violation, or has a drop without a cause, on any surface.
 */
bool
session_ok(const RunReport &r)
{
    if (!r.error.empty() || r.invariant_violations != 0 ||
        !drops_attributed(r.drops, r.drop_causes))
        return false;
    for (const SurfaceReport &s : r.surfaces)
        if (s.invariant_violations != 0 ||
            !drops_attributed(s.drops, s.drop_causes))
            return false;
    return true;
}

/** Work counts of one pass; they must repeat exactly for one seed. */
struct PassCounts {
    std::uint64_t sessions = 0;
    std::uint64_t events = 0;
    std::uint64_t sim_ns = 0;
    std::uint64_t presents = 0;
    std::uint64_t frames_produced = 0;
    std::uint64_t stuffed = 0;
    double budget_used_mb = 0.0; ///< summed per-session peak
    std::uint64_t construct_allocs = 0;
    std::uint64_t run_allocs = 0;
    std::uint64_t run_alloc_bytes = 0;

    void add(const SessionOut &s)
    {
        ++sessions;
        events += s.events;
        sim_ns += std::uint64_t(s.sim_end);
        presents += s.report.presents;
        frames_produced += s.report.frames_produced;
        stuffed += s.report.stuffed;
        budget_used_mb += s.report.budget_used_mb;
    }

    friend bool operator==(const PassCounts &,
                           const PassCounts &) = default;
};

/** The two sinks every session streams into, as a TeeSink would. */
struct Sinks {
    CampaignAggregator aggregator;
    Observatory observatory;
    std::uint64_t next = 0;

    void consume(Recorder &rec, RunReport &&report)
    {
        const std::uint64_t index = next++;
        rec.call(kAggregate,
                 [&] { aggregator.consume(index, RunReport(report)); });
        rec.call(kObserve,
                 [&] { observatory.consume(index, std::move(report)); });
    }
};

/** The per-session results of the verification pass. */
struct Verified {
    std::uint64_t digest = 0;
    std::vector<std::uint64_t> dispatch_hash;
    std::vector<std::uint64_t> events;
    std::uint64_t failed = 0;
    PassCounts counts;
    double fdps_reduction_pct = 0.0;
};

/** The work counts of one timed pass. */
struct Pass {
    bool recorded = false; ///< spans and allocations recorded (traced)
    PassCounts counts;
};

/**
 * Each input's fastest times over the passes, in microseconds. Other
 * tenants of a shared host only ever add time, in bursts from
 * milliseconds to minutes; an input's minimum over many passes is its
 * cost with the least of that added.
 */
struct Fastest {
    std::vector<double> wall_us, cpu_us;
    std::vector<std::array<double, kPhaseCount>> phase_us; ///< traced

    explicit Fastest(std::size_t n)
        : wall_us(n, HUGE_VAL), cpu_us(n, HUGE_VAL), phase_us(n)
    {
        for (auto &p : phase_us)
            p.fill(HUGE_VAL);
    }

    void add(std::size_t i, double wall, double cpu,
             const Recorder::Phases &phases)
    {
        wall_us[i] = std::min(wall_us[i], wall);
        cpu_us[i] = std::min(cpu_us[i], cpu);
        for (int p = 0; p < kPhaseCount; ++p)
            phase_us[i][p] =
                std::min(phase_us[i][p], double(phases[p].ns) * 1e-3);
    }

    double cpu_sum() const
    {
        return std::accumulate(cpu_us.begin(), cpu_us.end(), 0.0);
    }

    /** Mean over the inputs of their fastest time in @p phase. */
    double phase_mean(Phase phase) const
    {
        double sum = 0.0;
        for (const auto &p : phase_us)
            sum += p[phase];
        return sum / double(phase_us.size());
    }
};

SessionOut
guarded_session(Workload &w, std::size_t i, Recorder &rec)
{
    try {
        return w.session(i, rec);
    } catch (const std::exception &e) {
        SessionOut out;
        out.report.error = e.what();
        return out;
    }
}

Verified
verification_pass(Workload &w)
{
    Recorder off;
    Sinks sinks;
    Verified v;
    ByteWriter session_hashes;
    struct TwinSums {
        std::uint64_t sessions = 0;
        double base_sum = 0, dvs_sum = 0;
        std::uint64_t base_n = 0, dvs_n = 0;
    };
    std::map<std::string, TwinSums> twins;
    const std::size_t n = w.sessions();
    for (std::size_t i = 0; i < n; ++i) {
        SessionOut out = guarded_session(w, i, off);
        if (!session_ok(out.report))
            ++v.failed;
        ByteWriter one;
        const std::string text = out.report.debug_string();
        one.raw(text.data(), text.size());
        one.u64(out.dispatch_hash);
        session_hashes.u64(fnv1a(one.bytes()));
        v.dispatch_hash.push_back(out.dispatch_hash);
        v.events.push_back(out.events);
        v.counts.add(out);

        const Twin t = w.twin(i);
        TwinSums &g = twins[t.group];
        ++g.sessions;
        if (t.side == Twin::kBaseline) {
            g.base_sum += out.report.fdps;
            ++g.base_n;
        } else if (t.side == Twin::kDvsync) {
            g.dvs_sum += out.report.fdps;
            ++g.dvs_n;
        }
        sinks.consume(off, std::move(out.report));
    }
    // Twin-weighted FDPS: each group contributes its session count times
    // its mean baseline / D-VSync FDPS.
    double base = 0, dvs = 0;
    for (const auto &[_, g] : twins) {
        if (g.base_n == 0 || g.dvs_n == 0)
            continue;
        base += double(g.sessions) * g.base_sum / double(g.base_n);
        dvs += double(g.sessions) * g.dvs_sum / double(g.dvs_n);
    }
    v.fdps_reduction_pct = base > 0 ? 100.0 * (1.0 - dvs / base) : 0.0;
    v.digest = fnv1a(session_hashes.bytes());
    if (sinks.aggregator.sessions() != n ||
        sinks.observatory.sessions() != n)
        ++v.failed;
    return v;
}

// ----- output -------------------------------------------------------------------

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * Host and build stamp. @return whether the build may be timed: it must
 * be optimised and carry no sanitizer.
 */
bool
stamp_build(bench::BenchJson &out)
{
    bool optimized = false;
#ifdef __OPTIMIZE__
    optimized = true;
#endif
    std::string sanitizers;
#ifdef __SANITIZE_ADDRESS__
    sanitizers += "address ";
#endif
#ifdef __SANITIZE_THREAD__
    sanitizers += "thread ";
#endif
    if (!sanitizers.empty())
        sanitizers.pop_back();
    out.u64("nproc", std::uint64_t(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN))));
#if defined(__clang__)
    out.str("compiler", "clang " __clang_version__);
#else
    out.str("compiler", "gcc " __VERSION__);
#endif
    out.boolean("optimized", optimized);
    out.str("sanitizers", sanitizers.empty() ? "none" : sanitizers);
    out.boolean("traced", kTraced);
    return optimized && sanitizers.empty();
}

/**
 * Peak resident memory of this process image, in MiB. VmHWM, not
 * getrusage: ru_maxrss survives exec, so it would report the peak of
 * the process that started the driver when that one was larger.
 */
double
peak_rss_mb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        fatal("cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof(line), f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1)
            break;
    std::fclose(f);
    if (kib <= 0)
        fatal("no VmHWM in /proc/self/status");
    return double(kib) / 1024.0;
}

/** Set-ups per run, each from scratch; setup_s is their median. */
constexpr std::size_t kSetupRepeats = 5;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_out;
};

Options
parse(int argc, char **argv)
{
    bench::ArgParser args(argc, argv);
    Options o;
    o.workload = args.string_flag("workload");
    o.seed = args.u64_flag("seed", 1);
    o.seconds = args.double_flag("seconds", 10.0);
    o.trace_out = args.string_flag("trace-out");
    args.finish();
    if (o.seconds <= 0)
        fatal("--seconds must be > 0");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    // One worker everywhere, including bench_runner() inside calibration.
    setenv("DVS_JOBS", "1", 1);
    const Options opt = parse(argc, argv);
    std::unique_ptr<Workload> w = make_workload(opt.workload);
    if (!w)
        fatal("unknown --workload=%s (fleet, sweep, multisurface)",
              opt.workload.c_str());
    // BenchJson opens with schema_version, bench name and git describe.
    bench::BenchJson out("perfbench");
    if (!stamp_build(out)) {
        std::fprintf(stderr, "perfbench: refusing to time a non-optimised "
                             "or sanitizer build:\n%s",
                     out.to_string().c_str());
        return 3;
    }
    FatalThrowsScope recoverable(true);

    // ----- set-up, from scratch ------------------------------------------
    std::vector<double> setup_s, prepare_s;
    Verified verified;
    bool repeats_agree = true;
    std::uint64_t attempted = 0, failed = 0;
    const auto set_up = [&] {
        const std::int64_t t0 = wall_ns();
        w->prepare(opt.seed);
        const std::int64_t t1 = wall_ns();
        Verified v = verification_pass(*w);
        const std::int64_t t2 = wall_ns();
        prepare_s.push_back(double(t1 - t0) * 1e-9);
        setup_s.push_back(double(t2 - t0) * 1e-9);
        attempted += w->sessions();
        failed += v.failed;
        if (setup_s.size() == 1)
            verified = std::move(v);
        else if (v.digest != verified.digest ||
                 !(v.counts == verified.counts))
            repeats_agree = false;
    };
    set_up();

    // ----- timed passes ----------------------------------------------------
    // Each pass streams into sinks of its own, as a campaign over the
    // input set would. The program then repeats every cost at the same
    // input in every pass, periodic ones such as a rehash in a sink too,
    // so an input's fastest time keeps them. The traced driver records
    // every other pass; the bare passes between time the same process
    // without recording.
    Recorder rec;
    const std::size_t n = w->sessions();
    const std::size_t min_passes = kTraced ? 4 : 2;
    const auto measure_ns = std::int64_t(opt.seconds * 1e9);
    std::int64_t measured_ns = 0;
    std::vector<Pass> passes;
    Fastest bare(n), recorded(kTraced ? n : 0);
    std::uint64_t mismatched = 0, id = 0;
    rec.set_origin(wall_ns());
    while (passes.size() < min_passes || measured_ns < measure_ns) {
        // The other set-ups are spread over the measurement, so that they
        // do not all fall into one burst of load from other tenants.
        if (setup_s.size() < kSetupRepeats &&
            measured_ns * std::int64_t(kSetupRepeats) >=
                measure_ns * std::int64_t(setup_s.size()))
            set_up();
        Pass pass;
        pass.recorded = kTraced && passes.size() % 2 == 0;
        Fastest &fastest = pass.recorded ? recorded : bare;
        Sinks sinks;
        rec.record(pass.recorded);
        // One clock read per session boundary: the end of one session is
        // the start of the next.
        const std::int64_t pass_start = wall_ns();
        std::int64_t wall0 = pass_start, cpu0 = cpu_ns();
        for (std::size_t i = 0; i < n; ++i, ++id) {
            rec.set_session(id);
            SessionOut out = guarded_session(*w, i, rec);
            const bool same =
                out.dispatch_hash == verified.dispatch_hash[i] &&
                out.events == verified.events[i];
            if (!same)
                ++mismatched;
            if (!session_ok(out.report) || !same)
                ++failed;
            pass.counts.add(out);
            sinks.consume(rec, std::move(out.report));
            const std::int64_t wall1 = wall_ns(), cpu1 = cpu_ns();
            rec.span(kSession, wall0, wall1);
            const Recorder::Phases phases = rec.take();
            pass.counts.construct_allocs += phases[kConstruct].allocs;
            pass.counts.run_allocs += phases[kRun].allocs;
            pass.counts.run_alloc_bytes += phases[kRun].alloc_bytes;
            fastest.add(i, double(wall1 - wall0) * 1e-3,
                        double(cpu1 - cpu0) * 1e-3, phases);
            wall0 = wall1;
            cpu0 = cpu1;
        }
        rec.record(false);
        measured_ns += wall0 - pass_start;
        if (sinks.aggregator.sessions() != n ||
            sinks.observatory.sessions() != n)
            ++failed;
        passes.push_back(pass);
        attempted += n;
    }
    while (setup_s.size() < kSetupRepeats)
        set_up();

    // Exact counts repeat from pass to pass: the first two recorded
    // passes agree, and so do the first two bare ones and the
    // verification pass, which counts no allocations either.
    const auto first_two = [&](bool was_recorded) {
        std::vector<const PassCounts *> c;
        for (const Pass &p : passes)
            if (p.recorded == was_recorded && c.size() < 2)
                c.push_back(&p.counts);
        return c;
    };
    const std::vector<const PassCounts *> bare_counts = first_two(false);
    bool counts_repeat = *bare_counts[0] == *bare_counts[1] &&
                         *bare_counts[0] == verified.counts;
    if (kTraced) {
        const std::vector<const PassCounts *> c = first_two(true);
        counts_repeat = counts_repeat && *c[0] == *c[1];
    }

    // End-to-end times come from the bare passes.
    std::vector<double> wall_us = bare.wall_us;
    const double wall_sum_us =
        std::accumulate(wall_us.begin(), wall_us.end(), 0.0);
    std::sort(wall_us.begin(), wall_us.end());
    out.str("workload", opt.workload);
    out.u64("seed", opt.seed);
    out.u64("sessions_per_pass", n);
    out.u64("passes", passes.size());
    out.num("sessions_per_s", double(n) / (wall_sum_us * 1e-6), 9);
    out.num("cpu_us_per_session", bare.cpu_sum() / double(n), 9);
    out.num("session_us_p50", percentile(wall_us, 0.50), 9);
    out.num("session_us_p99", percentile(wall_us, 0.99), 9);
    out.num("setup_s", median(setup_s), 9);
    out.num("peak_rss_mb", peak_rss_mb(), 9);
    out.num("fdps_reduction_pct", verified.fdps_reduction_pct, 9);
    if (opt.workload == "sweep")
        out.num("paper_err_pp",
                std::fabs(verified.fdps_reduction_pct -
                          SweepWorkload::kPaperReductionPct),
                9);

    if (kTraced) {
        // Per-layer times come from the recorded passes. Exact counts
        // come from the first one; the second must repeat them
        // (counts_repeat).
        const PassCounts &c = *first_two(true)[0];
        const double sessions = double(c.sessions);
        const std::pair<const char *, double> layers[] = {
            {"workload.materialize_us", recorded.phase_mean(kMaterialize)},
            {"workload.prepare_s", median(prepare_s)},
            {"system.construct_us", recorded.phase_mean(kConstruct)},
            {"system.run_us", recorded.phase_mean(kRun)},
            {"system.report_us", recorded.phase_mean(kReport)},
            {"system.teardown_us", recorded.phase_mean(kTeardown)},
            {"harness.aggregate_us", recorded.phase_mean(kAggregate)},
            {"obs.observe_us", recorded.phase_mean(kObserve)},
            {"sim.events_per_session", double(c.events) / sessions},
            {"sim.events_per_sim_s",
             double(c.events) / (double(c.sim_ns) * 1e-9)},
            {"sim.ns_per_event",
             recorded.phase_mean(kRun) * 1e3 * sessions / double(c.events)},
            {"alloc.construct_per_session",
             double(c.construct_allocs) / sessions},
            {"alloc.run_per_session", double(c.run_allocs) / sessions},
            {"alloc.run_bytes_per_session",
             double(c.run_alloc_bytes) / sessions},
            {"alloc.per_event", double(c.run_allocs) / double(c.events)},
            {"pipeline.presents_per_frame",
             double(c.presents) / double(c.frames_produced)},
            {"buffer.stuffed_per_present",
             double(c.stuffed) / double(c.presents)},
            {"surface.budget_used_mb", c.budget_used_mb / sessions},
            // Recorded against bare passes of this process.
            {"bench.trace_overhead_pct",
             100.0 * (recorded.cpu_sum() / bare.cpu_sum() - 1.0)},
        };
        for (const auto &[name, value] : layers)
            out.num(name, value, 9);
        if (!opt.trace_out.empty() && !rec.save(opt.trace_out))
            return 1; // TraceLog::save has reported why
    }

    out.boolean("correct", failed == 0 && mismatched == 0 &&
                               repeats_agree && counts_repeat);
    out.u64("attempted", attempted);
    out.u64("failed", failed);
    out.str("digest", hex64(verified.digest));
    out.boolean("setup_repeats_agree", repeats_agree);
    out.boolean("counts_repeat", counts_repeat);
    out.u64("mismatched_sessions", mismatched);
    std::fputs(out.to_string().c_str(), stdout);
    return 0;
}
