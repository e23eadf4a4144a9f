/**
 * @file
 * Observatory overhead record (`BENCH_observatory.json`).
 *
 * The fleet observatory rides the campaign report stream as a second
 * TeeSink branch, so every session pays its SLO evaluation, anomaly
 * scoring and bounded top-K insert on top of simulating the session.
 * This bench prices that tax in thread CPU time
 * (`CLOCK_THREAD_CPUTIME_ID`), which a loaded host cannot inflate the way
 * it inflates wall time:
 *
 *  - produce: a fleet slice of `--sessions` sessions is materialized and
 *    simulated on this thread, and the CPU time of producing the reports
 *    is summed;
 *  - consume: the pre-built reports are handed, in order, to
 *    `Observatory::consume`, and the CPU time of that pass is measured.
 *
 * The overhead is consume CPU over produce CPU. Two contracts are
 * enforced, not just measured:
 *
 *  - parity: the aggregator checkpoint must be byte-identical with the
 *    observatory on vs off (the reports streamed through a TeeSink into
 *    the aggregator and an observatory, vs into the aggregator alone) —
 *    a passive monitor must not perturb the stream it watches;
 *  - budget: the overhead must stay within 5% (the same budget the
 *    forensics layer carries in perf_sim_core), so the monitor stays
 *    cheap enough to leave on for every fleet sweep.
 *
 * Usage: observatory_overhead [--sessions=N] [--seed=S] [--out=PATH]
 *   --sessions=N  fleet sessions produced and consumed (default 50,000;
 *                 at least 50,000 keeps the consume pass long enough to
 *                 time)
 *   --out=PATH    record path (default BENCH_observatory.json; "-"
 *                 suppresses the file)
 */

#include <time.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/aggregator.h"
#include "obs/observatory.h"
#include "sim/logging.h"
#include "workload/device_population.h"

using namespace dvs;

namespace {

/** CPU time consumed so far by the calling thread, in seconds. */
double
thread_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

Observatory
make_observatory()
{
    return Observatory(ObservatoryConfig{}, nullptr,
                       [](std::size_t i) { return std::uint64_t(i); });
}

} // namespace

int
main(int argc, char **argv)
{
    bench::ArgParser args(argc, argv);
    const std::uint64_t sessions = args.u64_flag("sessions", 50'000);
    const std::uint64_t seed = args.u64_flag("seed", 1);
    const std::string out_path =
        args.string_flag("out", "BENCH_observatory.json");
    args.finish();
    if (sessions < 1)
        fatal("--sessions must be >= 1");

    const DevicePopulation fleet = DevicePopulation::paper_fleet(seed);
    const ExperimentRunner runner(1);

    // Produce: materialize and simulate every session on this thread.
    std::vector<RunReport> reports;
    reports.reserve(sessions);
    const double produce_t0 = thread_cpu_s();
    for (std::uint64_t i = 0; i < sessions; ++i)
        reports.push_back(runner.run_one(fleet.experiment(i)));
    const double produce_s = thread_cpu_s() - produce_t0;

    // Parity: the observatory branch must not change what the
    // aggregator sees. Byte-compare the full checkpoint.
    CampaignAggregator agg_off;
    CampaignAggregator agg_on;
    Observatory parity_obs = make_observatory();
    TeeSink tee({&agg_on, &parity_obs});
    for (std::size_t i = 0; i < reports.size(); ++i) {
        agg_off.consume(i, RunReport(reports[i]));
        tee.consume(i, RunReport(reports[i]));
    }
    if (agg_on.to_json() != agg_off.to_json())
        fatal("aggregator checkpoint differs with the observatory on — "
              "the monitor perturbed the stream it watches");

    // Consume: the timed pass hands each report over as the campaign
    // stream would, by move.
    Observatory obs = make_observatory();
    const double consume_t0 = thread_cpu_s();
    for (std::size_t i = 0; i < reports.size(); ++i)
        obs.consume(i, std::move(reports[i]));
    const double consume_s = thread_cpu_s() - consume_t0;
    if (obs.to_json() != parity_obs.to_json())
        fatal("observatory state diverged between two passes over the "
              "same reports");

    std::uint64_t slo_violations = 0;
    for (std::size_t s = 0; s < obs.config().slos.size(); ++s)
        slo_violations += obs.violations(s);
    const double produce_us = 1e6 * produce_s / double(sessions);
    const double consume_us = 1e6 * consume_s / double(sessions);
    const double overhead_pct = 100.0 * consume_s / produce_s;

    std::printf("observatory overhead: %llu sessions, thread CPU time\n",
                (unsigned long long)sessions);
    std::printf("  produce: %.3f s (%.2f us per report)\n", produce_s,
                produce_us);
    std::printf("  consume: %.4f s (%.3f us per report), %llu SLO "
                "violations, top-%zu retained\n",
                consume_s, consume_us,
                (unsigned long long)slo_violations, obs.top().size());
    std::printf("  overhead: %.2f%% (budget 5%%)\n", overhead_pct);
    std::printf("  parity: aggregator checkpoint byte-identical on vs "
                "off\n");

    if (out_path != "-") {
        bench::BenchJson record("observatory_overhead");
        record.u64("sessions", sessions);
        record.num("produce_cpu_s", produce_s, 4);
        record.num("consume_cpu_s", consume_s, 4);
        record.num("produce_us_per_report", produce_us, 3);
        record.num("consume_us_per_report", consume_us, 3);
        record.num("overhead_percent", overhead_pct, 2);
        record.u64("slo_violations", slo_violations);
        record.u64("top_k_retained", obs.top().size());
        record.boolean("aggregator_parity", true);
        record.write(out_path);
        std::printf("observatory record written to %s\n",
                    out_path.c_str());
    }

    if (overhead_pct > 5.0)
        fatal("observatory overhead %.2f%% exceeds the 5%% budget "
              "(%.4f s consume vs %.3f s produce CPU)",
              overhead_pct, consume_s, produce_s);
    return 0;
}
