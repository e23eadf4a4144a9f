/**
 * @file
 * Trace corpus regression (`BENCH_trace.json`): replay every .dvst
 * capture in the versioned corpus and hold the determinism contract.
 *
 * Every corpus entry is loaded through the strict .dvst loader, then:
 *
 *  - replayed as recorded: a verbatim capture must reproduce its
 *    recorded dispatch hash and RunReport fingerprint bit-exactly
 *    (DESIGN.md §5i); a transformed capture replays as a deterministic
 *    scenario with nothing recorded to verify against;
 *  - replayed under both forced pacing modes (VSync and D-VSync), the
 *    paper's A/B comparison on real recorded sessions;
 *  - held to the campaign bar: no failed runs, zero invariant
 *    violations, and every dropped frame attributed to a cause.
 *
 * Output is byte-identical whatever --jobs says — the CI determinism
 * check replays the corpus at two job counts and compares stdout.
 *
 * Usage: trace_campaign [--corpus=DIR] [--jobs=N] [--out=PATH] [--golden]
 *                       [--write-extra=DIR] [--record-synthetics=DIR]
 *   --corpus=DIR   directory scanned (non-recursively) for *.dvst
 *                  entries, replayed in name order (default traces)
 *   --out=PATH     where to write the JSON record (default
 *                  BENCH_trace.json; "-" suppresses the file)
 *   --golden       deterministic full-report dump for the golden check
 *                  (per-entry replay reports, no JSON)
 *   --write-extra=DIR  derive the corpus's transformed entries from the
 *                  raw captures in --corpus (chaos-amplified.dvst from
 *                  chaos-everything.dvsync.dvst) into DIR, then exit
 *   --record-synthetics=DIR  record the two scripted corpus seeds
 *                  (anim-steady.dvst, interactive-swipe.dvst) into DIR,
 *                  then exit
 *
 * Exits nonzero on any load failure, contract divergence, failed run,
 * invariant violation, or unattributed drop.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "input/gesture.h"
#include "sim/logging.h"
#include "trace/session_recorder.h"
#include "trace/trace_replay.h"
#include "trace/transforms.h"
#include "workload/frame_cost.h"

using namespace dvs;
using namespace dvs::bench;
using namespace dvs::time_literals;

namespace {

struct ModeStats {
    double fdps = 0.0;
    std::uint64_t drops = 0;
    std::uint64_t presents = 0;
};

struct EntryResult {
    std::string name;
    std::string error; ///< load / replay failure, empty = fine

    std::string label;
    bool verbatim = false;
    std::vector<std::string> lineage;
    std::string kind;

    std::string verify; ///< verbatim contract check, empty = held
    ModeStats recorded; ///< as-recorded replay
    ModeStats vsync;    ///< forced-VSync replay
    ModeStats dvsync;   ///< forced-D-VSync replay
    std::uint64_t violations = 0;
    std::uint64_t unattributed = 0;

    /** --golden payload: full reports of the three replays. */
    std::string golden_dump;
};

ModeStats
stats_of(const RunReport &r)
{
    return {r.fdps, r.drops, r.presents};
}

EntryResult
replay_entry(const std::filesystem::path &path, bool golden)
{
    EntryResult res;
    res.name = path.filename().string();

    SessionCapture cap;
    std::string error;
    if (!SessionCapture::load(path.string(), cap, error)) {
        res.error = error;
        return res;
    }
    res.label = cap.label;
    res.verbatim = cap.verbatim;
    res.lineage = cap.lineage;
    res.kind = cap.kind == SessionCapture::Kind::kSingle ? "single"
                                                         : "multi";

    const auto check = [&](const ReplayResult &r, const char *leg) {
        res.violations += r.report.invariant_violations;
        res.unattributed +=
            r.report.drop_causes[std::size_t(DropCause::kUnknown)];
        if (!r.report.error.empty() && res.error.empty())
            res.error = std::string(leg) + " replay failed: " +
                        r.report.error;
        if (golden)
            res.golden_dump += std::string("--- ") + leg + "\n" +
                               r.report.debug_string() + "\n";
    };

    const ReplayResult as_recorded = replay_session(cap);
    res.recorded = stats_of(as_recorded.report);
    check(as_recorded, "as-recorded");
    if (cap.verbatim)
        res.verify = as_recorded.verify_against(cap);

    for (RenderMode mode : {RenderMode::kVsync, RenderMode::kDvsync}) {
        ReplayOptions forced;
        forced.mode = mode;
        const ReplayResult r = replay_session(cap, forced);
        (mode == RenderMode::kVsync ? res.vsync : res.dvsync) =
            stats_of(r.report);
        check(r, to_string(mode));
    }
    return res;
}

void
write_extra(const std::string &corpus, const std::string &out_dir)
{
    const std::string source = corpus + "/chaos-everything.dvsync.dvst";
    SessionCapture cap;
    std::string error;
    if (!SessionCapture::load(source, cap, error))
        fatal("--write-extra needs %s: %s", source.c_str(), error.c_str());
    // Compress time 25% and worsen the heavy frames: the same recorded
    // chaos session pushed past its original load.
    const SessionCapture mutated =
        amplify_heavy_frames(time_warp(std::move(cap), 0.75), 4_ms, 1.5);
    const std::string dest = out_dir + "/chaos-amplified.dvst";
    if (!mutated.save(dest))
        fatal("cannot write %s", dest.c_str());
    std::fprintf(stderr, "derived capture written to %s\n", dest.c_str());
}

void
record_synthetics(const std::string &out_dir)
{
    const auto record = [&](RenderSystem &sys, const std::string &label,
                            const std::string &file) {
        sys.run();
        const SessionCapture cap = SessionRecorder::capture(sys, label);
        const std::string path = out_dir + "/" + file;
        if (!cap.save(path))
            fatal("cannot write %s", path.c_str());
        std::fprintf(stderr, "capture written to %s\n", path.c_str());
    };

    {
        // Steady animation with periodic key frames under D-VSync.
        auto cost = std::make_shared<PeriodicSpikeCostModel>(
            FrameCost{1_ms, 4_ms, 2_ms}, FrameCost{2_ms, 9_ms, 5_ms}, 9);
        Scenario sc("anim-steady");
        sc.animate(800_ms, cost).idle(100_ms).animate(400_ms, cost);
        SystemConfig cfg;
        cfg.mode = RenderMode::kDvsync;
        RenderSystem sys(cfg, sc);
        record(sys, "synthetic/anim-steady", "anim-steady.dvst");
    }
    {
        // A fast upward swipe (the Fig. 7 gesture) under D-VSync.
        GestureTiming timing;
        timing.duration = 300_ms;
        auto touch = std::make_shared<const TouchStream>(
            make_swipe(timing, 2000.0, 1500.0));
        auto cost = std::make_shared<ConstantCostModel>(2_ms, 6_ms);
        Scenario sc("swipe");
        sc.interact(touch, cost, "swipe").idle(50_ms);
        SystemConfig cfg;
        cfg.mode = RenderMode::kDvsync;
        RenderSystem sys(cfg, sc);
        record(sys, "synthetic/interactive-swipe",
               "interactive-swipe.dvst");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const std::string corpus = args.string_flag("corpus", "traces");
    const bool golden = args.bool_flag("golden");
    std::string out_path = args.string_flag("out", "BENCH_trace.json");
    const std::string extra_dir = args.string_flag("write-extra");
    const std::string synth_dir = args.string_flag("record-synthetics");
    const int jobs = args.jobs();
    args.finish();
    if (golden)
        out_path = "-";

    if (!synth_dir.empty()) {
        record_synthetics(synth_dir);
        return 0;
    }
    if (!extra_dir.empty()) {
        write_extra(corpus, extra_dir);
        return 0;
    }

    std::vector<std::filesystem::path> entries;
    {
        std::error_code ec;
        for (const auto &de :
             std::filesystem::directory_iterator(corpus, ec)) {
            if (de.path().extension() == ".dvst")
                entries.push_back(de.path());
        }
        if (ec)
            fatal("cannot scan corpus directory %s: %s", corpus.c_str(),
                  ec.message().c_str());
    }
    std::sort(entries.begin(), entries.end());
    if (entries.empty())
        fatal("corpus directory %s holds no .dvst entries",
              corpus.c_str());

    // Entries replay in parallel, each task filling its own slot;
    // results print in name order, so the output is byte-stable whatever
    // --jobs says. A task the runner reports as failed (a fatal() inside
    // the replay) keeps that error in its slot.
    std::vector<EntryResult> results(entries.size());
    std::vector<ExperimentRunner::Task> tasks;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        tasks.push_back([&results, &entries, i, golden] {
            results[i] = replay_entry(entries[i], golden);
            return RunReport{};
        });
    }
    const std::vector<RunReport> done = ExperimentRunner(jobs).run_tasks(tasks);
    for (std::size_t i = 0; i < done.size(); ++i) {
        if (!done[i].error.empty()) {
            results[i].name = entries[i].filename().string();
            results[i].error = done[i].error;
        }
    }

    std::printf("trace corpus: %zu entries from %s\n\n", entries.size(),
                corpus.c_str());
    std::printf("%-32s %-6s %-8s %9s %7s %9s %7s %6s\n", "entry", "kind",
                "replay", "presents", "drops", "fdps[V]", "fdps[D]",
                "viols");
    int failures = 0;
    for (const EntryResult &r : results) {
        const char *status = !r.error.empty()        ? "ERROR"
                             : !r.verify.empty()     ? "DIVERGED"
                             : r.verbatim            ? "bitexact"
                             : "derived";
        std::printf("%-32s %-6s %-8s %9llu %7llu %9.4f %7.4f %6llu\n",
                    r.name.c_str(), r.kind.c_str(), status,
                    (unsigned long long)r.recorded.presents,
                    (unsigned long long)r.recorded.drops, r.vsync.fdps,
                    r.dvsync.fdps,
                    (unsigned long long)r.violations);
        if (!r.lineage.empty()) {
            std::printf("%-32s   lineage:", "");
            for (const std::string &s : r.lineage)
                std::printf(" [%s]", s.c_str());
            std::printf("\n");
        }
        if (!r.error.empty()) {
            std::printf("ERROR %s: %s\n", r.name.c_str(), r.error.c_str());
            ++failures;
        }
        if (!r.verify.empty()) {
            std::printf("CONTRACT %s: %s\n", r.name.c_str(),
                        r.verify.c_str());
            ++failures;
        }
        if (r.violations > 0 || r.unattributed > 0) {
            std::printf("BAR %s: %llu violations, %llu unattributed "
                        "drops\n",
                        r.name.c_str(), (unsigned long long)r.violations,
                        (unsigned long long)r.unattributed);
            ++failures;
        }
        if (golden)
            std::fputs(r.golden_dump.c_str(), stdout);
    }

    if (out_path != "-") {
        bench::BenchJson record("trace_campaign");
        record.u64("entries", entries.size());
        record.i64("failures", failures);
        std::string corpus_json = "[\n";
        char jbuf[512];
        for (std::size_t i = 0; i < results.size(); ++i) {
            const EntryResult &r = results[i];
            std::snprintf(
                jbuf, sizeof(jbuf),
                "    {\"entry\": \"%s\", \"kind\": \"%s\", "
                "\"verbatim\": %s, \"bitexact\": %s, "
                "\"presents\": %llu, \"drops\": %llu, "
                "\"fdps_vsync\": %.4f, \"fdps_dvsync\": %.4f, "
                "\"violations\": %llu}%s\n",
                r.name.c_str(), r.kind.c_str(),
                r.verbatim ? "true" : "false",
                r.verbatim && r.verify.empty() && r.error.empty()
                    ? "true"
                    : "false",
                (unsigned long long)r.recorded.presents,
                (unsigned long long)r.recorded.drops, r.vsync.fdps,
                r.dvsync.fdps, (unsigned long long)r.violations,
                i + 1 < results.size() ? "," : "");
            corpus_json += jbuf;
        }
        corpus_json += "  ]";
        record.raw("corpus", corpus_json);
        record.write(out_path);
        std::printf("trace record written to %s\n", out_path.c_str());
    }

    if (failures > 0) {
        std::printf("TRACE CAMPAIGN FAILED (%d)\n", failures);
        return 1;
    }
    return 0;
}
