#include "harness/aggregator.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json_view.h"
#include "sim/logging.h"
#include "sim/tracing.h"

namespace dvs {

namespace {

std::int64_t
milli(double x)
{
    return std::llround(x * 1e3);
}

} // namespace

void
CohortStats::accumulate(const RunReport &r)
{
    ++sessions;
    if (!r.error.empty()) {
        // A rejected configuration has every metric zeroed; folding the
        // zeros into the distributions would fake a perfect session.
        ++errors;
        return;
    }
    drops += r.drops;
    frames_due += r.frames_due > 0 ? std::uint64_t(r.frames_due) : 0;
    presents += r.presents;
    stutters += r.stutters;
    deadline_misses += r.deadline_misses;
    invariant_violations += r.invariant_violations;
    faults_injected += r.faults_injected;
    degradations += r.degradations;
    repromotions += r.repromotions;
    for (int c = 0; c < kDropCauseCount; ++c)
        drop_causes[std::size_t(c)] += r.drop_causes[std::size_t(c)];
    drops_injected += r.drops_injected;

    fdps_milli_sum += milli(r.fdps);
    latency_p95_us_sum += milli(r.latency_p95_ms);
    energy_uj_sum += milli(r.energy_mj);

    fdps_hist.add(r.fdps);
    latency_hist.add(r.latency_p95_ms);
    drops_hist.add(double(r.drops));
}

void
CohortStats::merge(const CohortStats &other)
{
    sessions += other.sessions;
    errors += other.errors;
    drops += other.drops;
    frames_due += other.frames_due;
    presents += other.presents;
    stutters += other.stutters;
    deadline_misses += other.deadline_misses;
    invariant_violations += other.invariant_violations;
    faults_injected += other.faults_injected;
    degradations += other.degradations;
    repromotions += other.repromotions;
    for (int c = 0; c < kDropCauseCount; ++c)
        drop_causes[std::size_t(c)] += other.drop_causes[std::size_t(c)];
    drops_injected += other.drops_injected;
    fdps_milli_sum += other.fdps_milli_sum;
    latency_p95_us_sum += other.latency_p95_us_sum;
    energy_uj_sum += other.energy_uj_sum;
    fdps_hist.merge(other.fdps_hist);
    latency_hist.merge(other.latency_hist);
    drops_hist.merge(other.drops_hist);
}

double
CohortStats::mean_fdps() const
{
    return completed() ? double(fdps_milli_sum) / 1e3 / double(completed())
                       : 0.0;
}

double
CohortStats::mean_latency_p95_ms() const
{
    return completed()
               ? double(latency_p95_us_sum) / 1e3 / double(completed())
               : 0.0;
}

double
CohortStats::mean_energy_mj() const
{
    return completed() ? double(energy_uj_sum) / 1e3 / double(completed())
                       : 0.0;
}

CampaignAggregator::CampaignAggregator(CohortFn cohort_of)
    : cohort_of_(std::move(cohort_of))
{}

CohortStats &
CampaignAggregator::cohort(const std::string &key)
{
    return cohorts_[key];
}

void
CampaignAggregator::add(const RunReport &report)
{
    const std::string key =
        cohort_of_ ? cohort_of_(report) : report.label;
    cohort(key).accumulate(report);
    ++sessions_;
    if (!report.error.empty())
        ++errors_;
}

void
CampaignAggregator::consume(std::size_t, RunReport &&report)
{
    add(report);
    // Delivery is in submission order (the runner's sink contract), so
    // a count of consumed reports is exactly the resume watermark.
    ++resume_pos_;
}

void
CampaignAggregator::merge(const CampaignAggregator &other)
{
    for (const auto &[key, stats] : other.cohorts_)
        cohort(key).merge(stats);
    sessions_ += other.sessions_;
    errors_ += other.errors_;
    resume_pos_ += other.resume_pos_;
}

std::uint64_t
CampaignAggregator::invariant_violations() const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += c.invariant_violations;
    return total;
}

std::uint64_t
CampaignAggregator::unattributed_drops() const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += c.drop_causes[std::size_t(DropCause::kUnknown)];
    return total;
}

std::string
CampaignAggregator::summary() const
{
    char buf[512];
    std::string out;
    std::size_t key_width = std::string("cohort").size();
    for (const auto &[key, _] : cohorts_)
        key_width = std::max(key_width, key.size());

    std::uint64_t drops = 0, due = 0, violations = 0, injected = 0;
    std::array<std::uint64_t, kDropCauseCount> causes{};
    for (const auto &[_, c] : cohorts_) {
        drops += c.drops;
        due += c.frames_due;
        violations += c.invariant_violations;
        injected += c.drops_injected;
        for (int i = 0; i < kDropCauseCount; ++i)
            causes[std::size_t(i)] += c.drop_causes[std::size_t(i)];
    }

    std::snprintf(buf, sizeof(buf),
                  "campaign: %llu sessions (%llu errors) across %zu "
                  "cohorts | drops %llu of %llu due | violations %llu\n",
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_, cohorts_.size(),
                  (unsigned long long)drops, (unsigned long long)due,
                  (unsigned long long)violations);
    out += buf;

    out += "drop causes:";
    for (int c = 0; c < kDropCauseCount; ++c) {
        if (causes[std::size_t(c)] > 0) {
            std::snprintf(buf, sizeof(buf), " %s=%llu",
                          to_string(DropCause(c)),
                          (unsigned long long)causes[std::size_t(c)]);
            out += buf;
        }
    }
    std::snprintf(buf, sizeof(buf), " | injected %llu of %llu drops\n",
                  (unsigned long long)injected,
                  (unsigned long long)drops);
    out += buf;

    std::snprintf(buf, sizeof(buf),
                  "%-*s %9s %5s %9s %10s %8s | fdps %6s %6s %6s %6s | "
                  "p95lat(ms) %7s %7s | %9s\n",
                  int(key_width), "cohort", "sessions", "errs", "drops",
                  "due", "stutter", "mean", "p50", "p95", "p99", "mean",
                  "p95", "energy_mj");
    out += buf;
    for (const auto &[key, c] : cohorts_) {
        if (c.completed() == 0) {
            // No completed session means no metric surface at all (the
            // histograms are empty and their percentiles are NaN). Say
            // so instead of printing a row of zeros a reader could
            // mistake for a perfectly smooth cohort.
            std::snprintf(
                buf, sizeof(buf),
                "%-*s %9llu %5llu %9llu %10llu %8llu | fdps %6s %6s "
                "%6s %6s | p95lat(ms) %7s %7s | %9s\n",
                int(key_width), key.c_str(),
                (unsigned long long)c.sessions,
                (unsigned long long)c.errors, (unsigned long long)c.drops,
                (unsigned long long)c.frames_due,
                (unsigned long long)c.stutters, "n/a", "n/a", "n/a",
                "n/a", "n/a", "n/a", "n/a");
            out += buf;
            continue;
        }
        std::snprintf(
            buf, sizeof(buf),
            "%-*s %9llu %5llu %9llu %10llu %8llu | fdps %6.3f %6.2f "
            "%6.2f %6.2f | p95lat(ms) %7.2f %7.1f | %9.2f\n",
            int(key_width), key.c_str(), (unsigned long long)c.sessions,
            (unsigned long long)c.errors, (unsigned long long)c.drops,
            (unsigned long long)c.frames_due,
            (unsigned long long)c.stutters, c.mean_fdps(),
            c.fdps_hist.percentile(50), c.fdps_hist.percentile(95),
            c.fdps_hist.percentile(99), c.mean_latency_p95_ms(),
            c.latency_hist.percentile(95), c.mean_energy_mj());
        out += buf;
    }
    return out;
}

namespace {

void
append_histogram(std::string &out, const char *name, const Histogram &h)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"lo\": %.17g, \"hi\": %.17g, "
                  "\"underflow\": %llu, \"overflow\": %llu, \"bins\": [",
                  name, h.lo(), h.hi(), (unsigned long long)h.underflow(),
                  (unsigned long long)h.overflow());
    out += buf;
    for (int i = 0; i < h.bins(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%llu", i ? "," : "",
                      (unsigned long long)h.bin_count(i));
        out += buf;
    }
    out += "]}";
}

/** Restore a histogram from its checkpoint node; false on mismatch. */
bool
load_histogram(const JsonValue &node, Histogram &h, std::string *error)
{
    const auto &bins = node.at("bins");
    if (!node.is_object() || !bins.is_array()) {
        if (error)
            *error = "histogram node malformed";
        return false;
    }
    if (node.number_at("lo") != h.lo() || node.number_at("hi") != h.hi() ||
        int(bins.items().size()) != h.bins()) {
        if (error)
            *error = "histogram layout mismatch (incompatible checkpoint)";
        return false;
    }
    h.add_to_bin(Histogram::kUnderflowBin,
                 std::uint64_t(node.number_at("underflow")));
    h.add_to_bin(Histogram::kOverflowBin,
                 std::uint64_t(node.number_at("overflow")));
    for (int i = 0; i < h.bins(); ++i)
        h.add_to_bin(i, std::uint64_t(bins.items()[std::size_t(i)]
                                          .as_number()));
    return true;
}

} // namespace

std::string
CampaignAggregator::to_json() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema\": %d,\n  \"sessions\": %llu,\n"
                  "  \"errors\": %llu,\n  \"resume_pos\": %llu,\n"
                  "  \"cohorts\": [\n",
                  kSchema, (unsigned long long)sessions_,
                  (unsigned long long)errors_,
                  (unsigned long long)resume_pos_);
    out += buf;
    std::size_t i = 0;
    for (const auto &[key, c] : cohorts_) {
        out += "    {\"key\": \"" + json_escape(key) + "\", ";
        std::snprintf(
            buf, sizeof(buf),
            "\"sessions\": %llu, \"errors\": %llu, \"drops\": %llu, "
            "\"frames_due\": %llu, \"presents\": %llu, "
            "\"stutters\": %llu, \"deadline_misses\": %llu, ",
            (unsigned long long)c.sessions, (unsigned long long)c.errors,
            (unsigned long long)c.drops, (unsigned long long)c.frames_due,
            (unsigned long long)c.presents,
            (unsigned long long)c.stutters,
            (unsigned long long)c.deadline_misses);
        out += buf;
        std::snprintf(
            buf, sizeof(buf),
            "\"violations\": %llu, \"faults\": %llu, "
            "\"degradations\": %llu, \"repromotions\": %llu, "
            "\"drops_injected\": %llu, ",
            (unsigned long long)c.invariant_violations,
            (unsigned long long)c.faults_injected,
            (unsigned long long)c.degradations,
            (unsigned long long)c.repromotions,
            (unsigned long long)c.drops_injected);
        out += buf;
        out += "\"drop_causes\": [";
        for (int cause = 0; cause < kDropCauseCount; ++cause) {
            std::snprintf(buf, sizeof(buf), "%s%llu", cause ? "," : "",
                          (unsigned long long)
                              c.drop_causes[std::size_t(cause)]);
            out += buf;
        }
        out += "], ";
        std::snprintf(buf, sizeof(buf),
                      "\"fdps_milli_sum\": %lld, "
                      "\"latency_p95_us_sum\": %lld, "
                      "\"energy_uj_sum\": %lld, ",
                      (long long)c.fdps_milli_sum,
                      (long long)c.latency_p95_us_sum,
                      (long long)c.energy_uj_sum);
        out += buf;
        append_histogram(out, "fdps_hist", c.fdps_hist);
        out += ", ";
        append_histogram(out, "latency_hist", c.latency_hist);
        out += ", ";
        append_histogram(out, "drops_hist", c.drops_hist);
        // Derived percentile surface for consumers that do not rebin the
        // histograms. Explicit nulls for empty cohorts (JSON has no NaN);
        // load() ignores the block — the histograms stay authoritative.
        out += ", \"percentiles\": {";
        if (c.completed() == 0) {
            out += "\"fdps_p50\": null, \"fdps_p95\": null, "
                   "\"fdps_p99\": null, \"latency_p95_ms\": null}";
        } else {
            std::snprintf(buf, sizeof(buf),
                          "\"fdps_p50\": %.6g, \"fdps_p95\": %.6g, "
                          "\"fdps_p99\": %.6g, \"latency_p95_ms\": %.6g}",
                          c.fdps_hist.percentile(50),
                          c.fdps_hist.percentile(95),
                          c.fdps_hist.percentile(99),
                          c.latency_hist.percentile(95));
            out += buf;
        }
        out += "}";
        out += ++i < cohorts_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
CampaignAggregator::save(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << to_json();
    return bool(f.flush());
}

bool
CampaignAggregator::load(const std::string &path, std::string *error)
{
    std::ifstream f(path);
    if (!f) {
        if (error)
            *error = "cannot open " + path;
        return false;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    std::string parse_error;
    const JsonValue root = JsonValue::parse(ss.str(), &parse_error);
    if (!root.is_object()) {
        if (error)
            *error = path + ": " + (parse_error.empty() ? "not an object"
                                                        : parse_error);
        return false;
    }
    if (int(root.number_at("schema", -1)) != kSchema) {
        if (error)
            *error = path + ": unsupported checkpoint schema " +
                     std::to_string(int(root.number_at("schema", -1)));
        return false;
    }

    cohorts_.clear();
    sessions_ = std::uint64_t(root.number_at("sessions"));
    errors_ = std::uint64_t(root.number_at("errors"));
    resume_pos_ = std::uint64_t(root.number_at("resume_pos"));
    for (const JsonValue &node : root.at("cohorts").items()) {
        CohortStats &c = cohort(node.string_at("key"));
        c.sessions = std::uint64_t(node.number_at("sessions"));
        c.errors = std::uint64_t(node.number_at("errors"));
        c.drops = std::uint64_t(node.number_at("drops"));
        c.frames_due = std::uint64_t(node.number_at("frames_due"));
        c.presents = std::uint64_t(node.number_at("presents"));
        c.stutters = std::uint64_t(node.number_at("stutters"));
        c.deadline_misses =
            std::uint64_t(node.number_at("deadline_misses"));
        c.invariant_violations =
            std::uint64_t(node.number_at("violations"));
        c.faults_injected = std::uint64_t(node.number_at("faults"));
        c.degradations = std::uint64_t(node.number_at("degradations"));
        c.repromotions = std::uint64_t(node.number_at("repromotions"));
        c.drops_injected = std::uint64_t(node.number_at("drops_injected"));
        const auto &causes = node.at("drop_causes").items();
        if (int(causes.size()) != kDropCauseCount) {
            if (error)
                *error = path + ": drop_causes arity mismatch";
            return false;
        }
        for (int i = 0; i < kDropCauseCount; ++i)
            c.drop_causes[std::size_t(i)] =
                std::uint64_t(causes[std::size_t(i)].as_number());
        c.fdps_milli_sum =
            std::int64_t(node.number_at("fdps_milli_sum"));
        c.latency_p95_us_sum =
            std::int64_t(node.number_at("latency_p95_us_sum"));
        c.energy_uj_sum = std::int64_t(node.number_at("energy_uj_sum"));
        if (!load_histogram(node.at("fdps_hist"), c.fdps_hist, error) ||
            !load_histogram(node.at("latency_hist"), c.latency_hist,
                            error) ||
            !load_histogram(node.at("drops_hist"), c.drops_hist, error))
            return false;
    }
    return true;
}

} // namespace dvs
