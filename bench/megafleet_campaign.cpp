/**
 * @file
 * Megafleet campaign (`BENCH_megafleet.json`): one million simulated
 * user sessions streamed through the sink/aggregator pipeline.
 *
 * The point of this bench is the *shape* of the computation, not any
 * single number: a weighted device-tier x app-class population
 * (DevicePopulation) materializes each (config, scenario, seed) lazily,
 * the harness streams every finished RunReport into a
 * CampaignAggregator, and nothing else is ever retained. Peak RSS is
 * measured and printed — it must stay flat whether the campaign runs
 * 10k or 1M sessions, which is the property that makes fleet-scale
 * sweeps possible at all.
 *
 * With --observatory the same stream is teed into an Observatory
 * (src/obs/observatory.h): per-cohort SLO burn-rate monitors plus a
 * mergeable top-K anomaly ranking, checkpointed alongside the
 * aggregator (`<checkpoint>.obs`) under the same shard/resume/merge
 * determinism contract. --specimens=DIR then re-simulates the final
 * top-K offenders and writes verified bit-exact .dvst captures plus a
 * manifest — the tail of a million-session campaign, in replayable form.
 *
 * Usage: megafleet_campaign [--sessions=N] [--shard=K/N] [--jobs=N]
 *                           [--seed=N] [--checkpoint=PATH] [--resume]
 *                           [--checkpoint-every=N] [--merge PATHS...]
 *                           [--out=PATH] [--rss-limit-mb=N] [--golden]
 *                           [--observatory] [--top-k=N]
 *                           [--specimens=DIR]
 *   --sessions=N     campaign size (default 1000000)
 *   --shard=K/N      run only global session indices congruent to K
 *                    mod N; the aggregator checkpoints of all N shards
 *                    merge to the byte-exact unsharded state
 *   --seed=N         population seed (default 1)
 *   --checkpoint=PATH  write the aggregator checkpoint JSON here (the
 *                    observatory checkpoint goes to PATH.obs)
 *   --resume         load --checkpoint first and skip the sessions it
 *                    already covers (its in-order watermark)
 *   --checkpoint-every=N  additionally save every N consumed sessions
 *   --merge          merge mode: load the positional checkpoint paths,
 *                    fold them together, print the merged summary
 *                    (saving to --checkpoint when given), run nothing;
 *                    with --observatory each PATH.obs is merged too
 *   --observatory    tee the stream into the SLO/anomaly observatory
 *                    and print its summary after the aggregator's
 *   --top-k=N        observatory offender ranking depth (default 8)
 *   --specimens=DIR  after an unsharded run or a merge, re-simulate the
 *                    top-K offenders into DIR as verified .dvst
 *                    specimens + manifest.json (needs --observatory;
 *                    pass the same --seed as the shards)
 *   --out=PATH       JSON bench record (default BENCH_megafleet.json;
 *                    "-" suppresses the file)
 *   --rss-limit-mb=N fail if peak RSS exceeds N MB (default 1024)
 *   --golden         deterministic 240-session replay for the golden
 *                    check (summary only: no timing, no RSS)
 *
 * Exits nonzero when any session fails, violates an invariant, drops a
 * frame without an attributed cause, exceeds the RSS bound, or fails
 * specimen capture/verification.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "workload/device_population.h"

using namespace dvs;
using namespace dvs::bench;

namespace {

/** Peak resident set size of this process, in MB. */
double
peak_rss_mb()
{
    struct rusage usage = {};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    // Linux reports ru_maxrss in KB (macOS in bytes; this repo's CI is
    // Linux, and the value is informational elsewhere).
    return double(usage.ru_maxrss) / 1024.0;
}

/** Write the offender specimens; exits the process on failure. */
void
write_specimens(const Observatory &obs, const DevicePopulation &fleet,
                const std::string &dir)
{
    std::string error;
    if (!capture_specimens(
            obs,
            [&](std::uint64_t session) { return fleet.experiment(session); },
            dir, &error))
        fatal("specimen capture failed: %s", error.c_str());
    std::fprintf(stderr, "observatory: %zu specimens written to %s\n",
                 obs.top().size(), dir.c_str());
}

int
merge_checkpoints(const std::vector<std::string> &paths,
                  const std::string &checkpoint_path,
                  std::optional<Observatory> &obs,
                  const DevicePopulation &fleet,
                  const std::string &specimens_dir)
{
    if (paths.empty())
        fatal("--merge needs checkpoint paths as positional arguments");
    CampaignAggregator merged;
    std::string error;
    if (!merged.load(paths.front(), &error))
        fatal("cannot load %s: %s", paths.front().c_str(), error.c_str());
    for (std::size_t i = 1; i < paths.size(); ++i) {
        CampaignAggregator shard;
        if (!shard.load(paths[i], &error))
            fatal("cannot load %s: %s", paths[i].c_str(), error.c_str());
        merged.merge(shard);
    }
    if (obs) {
        if (!obs->load(paths.front() + ".obs", &error))
            fatal("cannot load %s.obs: %s", paths.front().c_str(),
                  error.c_str());
        for (std::size_t i = 1; i < paths.size(); ++i) {
            Observatory shard(obs->config());
            if (!shard.load(paths[i] + ".obs", &error))
                fatal("cannot load %s.obs: %s", paths[i].c_str(),
                      error.c_str());
            obs->merge(shard);
        }
    }
    if (!checkpoint_path.empty()) {
        if (!merged.save(checkpoint_path))
            fatal("cannot write %s", checkpoint_path.c_str());
        if (obs && !obs->save(checkpoint_path + ".obs"))
            fatal("cannot write %s.obs", checkpoint_path.c_str());
    }
    std::fputs(merged.summary().c_str(), stdout);
    if (obs) {
        std::fputs(obs->summary().c_str(), stdout);
        if (!specimens_dir.empty())
            write_specimens(*obs, fleet, specimens_dir);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const bool golden = args.bool_flag("golden");
    const std::uint64_t sessions_flag = args.u64_flag("sessions", 1'000'000);
    const std::uint64_t sessions = golden ? 240 : sessions_flag;
    const ShardSpec shard = args.shard_flag("shard");
    const std::uint64_t seed = args.u64_flag("seed", 1);
    const std::string checkpoint_path = args.string_flag("checkpoint");
    const bool resume = args.bool_flag("resume");
    const std::uint64_t checkpoint_every =
        args.u64_flag("checkpoint-every", 0);
    const bool merge = args.bool_flag("merge");
    const std::string out_flag =
        args.string_flag("out", "BENCH_megafleet.json");
    const std::string out_path = golden ? "-" : out_flag;
    const double rss_limit_mb = args.double_flag("rss-limit-mb", 1024.0);
    const int jobs = args.jobs();
    const bool observatory_on = args.bool_flag("observatory");
    const int top_k = args.int_flag("top-k", 8);
    const std::string specimens_dir = args.string_flag("specimens");
    const std::vector<std::string> merge_paths =
        merge ? args.positional(1024) : std::vector<std::string>{};
    args.finish();

    if (!specimens_dir.empty() && !observatory_on)
        fatal("--specimens needs --observatory");

    const DevicePopulation fleet = DevicePopulation::paper_fleet(seed);
    ObservatoryConfig obs_config;
    obs_config.top_k = top_k;

    if (merge) {
        std::optional<Observatory> obs;
        if (observatory_on)
            obs.emplace(obs_config);
        return merge_checkpoints(merge_paths, checkpoint_path, obs, fleet,
                                 specimens_dir);
    }
    if (sessions < 1)
        fatal("--sessions must be >= 1");
    if (resume && checkpoint_path.empty())
        fatal("--resume needs --checkpoint=PATH");
    if (!specimens_dir.empty() && shard.count > 1)
        fatal("--specimens on a shard would capture a shard-local top-K; "
              "merge the shard checkpoints first");

    // The aggregator keys cohorts by report label, which the population
    // sets to "<tier>/<mode>" — six cohorts, each with its twin.
    CampaignAggregator agg;
    if (resume) {
        std::string error;
        if (!agg.load(checkpoint_path, &error))
            fatal("cannot resume from %s: %s", checkpoint_path.c_str(),
                  error.c_str());
    }

    // This shard owns global indices K, K+N, K+2N, ...; a resumed run
    // skips the local positions its checkpoint already covers.
    const std::uint64_t shard_sessions = shard.size(sessions);
    const std::uint64_t done = agg.resume_pos();
    if (done > shard_sessions)
        fatal("checkpoint covers %llu sessions but this shard has %llu",
              (unsigned long long)done,
              (unsigned long long)shard_sessions);
    const std::uint64_t todo = shard_sessions - done;

    // The observatory rides the same stream; its verdicts carry *global*
    // session indices so any offender can be re-materialized later.
    std::optional<Observatory> obs;
    if (observatory_on) {
        obs.emplace(obs_config, nullptr, [shard, done](std::size_t i) {
            return shard.global(done + i);
        });
        if (resume) {
            std::string error;
            if (!obs->load(checkpoint_path + ".obs", &error))
                fatal("cannot resume observatory from %s.obs: %s",
                      checkpoint_path.c_str(), error.c_str());
            if (obs->resume_pos() != done)
                fatal("observatory checkpoint covers %llu sessions but "
                      "the aggregator covers %llu — mismatched resume "
                      "state",
                      (unsigned long long)obs->resume_pos(),
                      (unsigned long long)done);
        }
    }

    const ExperimentRunner runner(jobs);

    // Fan the stream out: aggregator, observatory (when on), then the
    // checkpoint saver — which runs last so a periodic checkpoint never
    // captures a half-delivered index.
    CallbackSink saver([&](std::size_t, RunReport &&) {
        if (checkpoint_every > 0 && agg.resume_pos() % checkpoint_every == 0
            && !checkpoint_path.empty()) {
            if (!agg.save(checkpoint_path))
                fatal("cannot write %s", checkpoint_path.c_str());
            if (obs && !obs->save(checkpoint_path + ".obs"))
                fatal("cannot write %s.obs", checkpoint_path.c_str());
        }
    });
    std::vector<ReportSink *> branches{&agg};
    if (obs)
        branches.push_back(&*obs);
    branches.push_back(&saver);
    TeeSink sink(std::move(branches));

    const auto t0 = std::chrono::steady_clock::now();
    runner.run_stream(
        todo,
        [&](std::size_t p) {
            return fleet.experiment(shard.global(done + p));
        },
        sink);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    if (!checkpoint_path.empty()) {
        if (!agg.save(checkpoint_path))
            fatal("cannot write %s", checkpoint_path.c_str());
        if (obs && !obs->save(checkpoint_path + ".obs"))
            fatal("cannot write %s.obs", checkpoint_path.c_str());
    }

    if (shard.count > 1)
        std::printf("shard %llu/%llu: %llu of %llu sessions\n",
                    (unsigned long long)shard.index,
                    (unsigned long long)shard.count,
                    (unsigned long long)shard_sessions,
                    (unsigned long long)sessions);
    std::fputs(agg.summary().c_str(), stdout);
    if (obs)
        std::fputs(obs->summary().c_str(), stdout);

    if (obs && !specimens_dir.empty())
        write_specimens(*obs, fleet, specimens_dir);

    const double rss_mb = peak_rss_mb();
    if (!golden) {
        std::printf("\nthroughput: %llu sessions in %.2f s (%.0f/s, "
                    "jobs=%d)\n",
                    (unsigned long long)todo, wall_s,
                    wall_s > 0 ? double(todo) / wall_s : 0.0,
                    runner.jobs());
        std::printf("peak RSS: %.1f MB (limit %.0f MB)\n", rss_mb,
                    rss_limit_mb);
    }

    if (out_path != "-") {
        BenchJson record("megafleet_campaign");
        record.u64("sessions", agg.sessions());
        record.u64("shard_index", shard.index);
        record.u64("shard_count", shard.count);
        record.u64("cohorts", agg.cohorts().size());
        record.u64("errors", agg.errors());
        record.u64("violations", agg.invariant_violations());
        record.boolean("observatory", observatory_on);
        record.num("wall_s", wall_s, 3);
        record.num("sessions_per_sec",
                   wall_s > 0 ? double(todo) / wall_s : 0.0, 1);
        record.num("peak_rss_mb", rss_mb, 1);
        record.i64("jobs", runner.jobs());
        record.write(out_path);
        std::fprintf(stderr, "record written to %s\n", out_path.c_str());
    }

    // Acceptance: a fleet campaign must complete clean — failed
    // sessions, invariant violations, unattributed drops, or an
    // unbounded memory footprint all fail the bench.
    int rc = 0;
    if (agg.errors() > 0) {
        std::printf("FAIL: %llu failed sessions\n",
                    (unsigned long long)agg.errors());
        rc = 1;
    }
    if (agg.invariant_violations() > 0) {
        std::printf("FAIL: %llu invariant violations\n",
                    (unsigned long long)agg.invariant_violations());
        rc = 1;
    }
    if (agg.unattributed_drops() > 0) {
        std::printf("FAIL: %llu drops without an attributed cause\n",
                    (unsigned long long)agg.unattributed_drops());
        rc = 1;
    }
    if (rss_limit_mb > 0 && rss_mb > rss_limit_mb) {
        std::printf("FAIL: peak RSS %.1f MB exceeds the %.0f MB bound\n",
                    rss_mb, rss_limit_mb);
        rc = 1;
    }
    return rc;
}
