#include "obs/observatory.h"

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/render_system.h"
#include "obs/json_view.h"
#include "sim/logging.h"
#include "sim/tracing.h"
#include "trace/dvst_io.h"
#include "trace/session_recorder.h"

namespace dvs {

const char *
to_string(SloMetric m)
{
    switch (m) {
      case SloMetric::kDropRatePercent:
        return "drop-rate";
      case SloMetric::kLatencyP99Ms:
        return "p99-latency";
      case SloMetric::kStutters:
        return "stutters";
      case SloMetric::kInvariantViolations:
        return "invariants";
      case SloMetric::kEnergyPerFrameMj:
        return "energy/frame";
    }
    return "?";
}

double
slo_metric_value(const RunReport &r, SloMetric metric)
{
    switch (metric) {
      case SloMetric::kDropRatePercent:
        return r.frames_due > 0
                   ? 100.0 * double(r.drops) / double(r.frames_due)
                   : 0.0;
      case SloMetric::kLatencyP99Ms:
        return r.latency_p99_ms;
      case SloMetric::kStutters:
        return double(r.stutters);
      case SloMetric::kInvariantViolations:
        return double(r.invariant_violations);
      case SloMetric::kEnergyPerFrameMj:
        return r.presents > 0 ? r.energy_mj / double(r.presents) : 0.0;
    }
    return 0.0;
}

std::vector<SloSpec>
default_slos()
{
    return {
        {"drop-rate", SloMetric::kDropRatePercent, 10.0},
        {"p99-latency", SloMetric::kLatencyP99Ms, 100.0},
        {"stutters", SloMetric::kStutters, 3.0},
        {"invariants", SloMetric::kInvariantViolations, 0.0},
        {"energy/frame", SloMetric::kEnergyPerFrameMj, 60.0},
    };
}

std::int64_t
anomaly_score_milli(const RunReport &r, const CohortBaseline &b,
                    const ScoreWeights &w)
{
    // Relative excess over the baseline expectation; 0 when at or below.
    const auto excess = [](double value, double base) {
        return value > base ? (value - base) / std::max(base, 1e-9) : 0.0;
    };
    const double score =
        w.drop * excess(slo_metric_value(r, SloMetric::kDropRatePercent),
                        b.drop_rate_percent) +
        w.latency * excess(r.latency_p99_ms, b.latency_p99_ms) +
        w.stutter * excess(double(r.stutters), b.stutters) +
        w.energy * excess(slo_metric_value(r, SloMetric::kEnergyPerFrameMj),
                          b.energy_per_frame_mj) +
        w.violation * double(r.invariant_violations);
    return std::llround(1000.0 * score);
}

const CohortBaseline &
ObservatoryConfig::baseline_for(const std::string &cohort) const
{
    const auto it = baselines.find(cohort);
    return it != baselines.end() ? it->second : baseline;
}

std::string
ObservatoryConfig::canonical() const
{
    char buf[256];
    std::string out = "observatory-config v1\n";
    std::snprintf(buf, sizeof(buf), "top_k=%d\n", top_k);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "weights=%.17g,%.17g,%.17g,%.17g,%.17g\n", weights.drop,
                  weights.latency, weights.stutter, weights.energy,
                  weights.violation);
    out += buf;
    const auto baseline_line = [&](const std::string &key,
                                   const CohortBaseline &b) {
        std::snprintf(buf, sizeof(buf), "baseline[%s]=%.17g,%.17g,%.17g,%.17g\n",
                      key.c_str(), b.drop_rate_percent, b.latency_p99_ms,
                      b.stutters, b.energy_per_frame_mj);
        out += buf;
    };
    baseline_line("", baseline);
    for (const auto &[cohort, b] : baselines)
        baseline_line(cohort, b);
    for (const SloSpec &slo : slos) {
        std::snprintf(buf, sizeof(buf), "slo[%s]=%d,%.17g\n",
                      slo.name.c_str(), int(slo.metric), slo.threshold);
        out += buf;
    }
    return out;
}

Observatory::Observatory(ObservatoryConfig config, CohortFn cohort_of,
                         IndexFn global_index)
    : config_(std::move(config)), cohort_of_(std::move(cohort_of)),
      global_index_(std::move(global_index))
{
    if (config_.slos.empty() || config_.slos.size() > 32)
        fatal("observatory: need 1..32 SLOs, got %zu",
              config_.slos.size());
    if (config_.top_k < 1)
        fatal("observatory: --top-k must be >= 1");
    config_fnv_ = fnv1a(config_.canonical());
}

void
Observatory::consume(std::size_t index, RunReport &&report)
{
    observe(global_index_ ? global_index_(index) : index, report);
    // Delivery is in submission order (the runner's sink contract), so
    // a count of consumed reports is exactly the resume watermark.
    ++resume_pos_;
}

void
Observatory::observe(std::uint64_t session, const RunReport &report)
{
    ++sessions_;
    const std::string cohort =
        cohort_of_ ? cohort_of_(report) : report.label;
    CohortMonitor &c = cohorts_[cohort];
    if (c.violations.empty())
        c.violations.resize(config_.slos.size(), 0);
    ++c.sessions;
    if (!report.error.empty()) {
        // A failed run has every metric zeroed; checking zeros against
        // the SLOs (or scoring them) would mark it perfectly healthy.
        ++errors_;
        ++c.errors;
        return;
    }

    SessionVerdict v;
    v.session = session;
    v.cohort = cohort;
    v.label = report.label;
    for (std::size_t i = 0; i < config_.slos.size(); ++i) {
        const SloSpec &slo = config_.slos[i];
        if (slo_metric_value(report, slo.metric) > slo.threshold) {
            v.violated |= std::uint32_t(1) << i;
            ++c.violations[i];
        }
    }
    v.score_milli = anomaly_score_milli(
        report, config_.baseline_for(cohort), config_.weights);
    v.drops = report.drops;
    v.frames_due = report.frames_due;
    v.presents = report.presents;
    v.stutters = report.stutters;
    v.invariant_violations = report.invariant_violations;
    v.latency_p99_us = std::llround(report.latency_p99_ms * 1e3);
    v.energy_uj = std::llround(report.energy_mj * 1e3);
    v.drop_causes = report.drop_causes;
    rank_insert(std::move(v));
}

void
Observatory::rank_insert(SessionVerdict &&v)
{
    const auto pos = std::lower_bound(
        top_.begin(), top_.end(), v,
        [](const SessionVerdict &a, const SessionVerdict &b) {
            return a.ranks_before(b);
        });
    if (top_.size() >= std::size_t(config_.top_k) && pos == top_.end())
        return;
    top_.insert(pos, std::move(v));
    if (top_.size() > std::size_t(config_.top_k))
        top_.pop_back();
}

void
Observatory::merge(const Observatory &other)
{
    if (config_fnv_ != other.config_fnv_)
        fatal("observatory merge: configuration mismatch (the shards "
              "were monitored under different SLOs/weights)");
    for (const auto &[key, mon] : other.cohorts_) {
        CohortMonitor &c = cohorts_[key];
        if (c.violations.empty())
            c.violations.resize(config_.slos.size(), 0);
        c.sessions += mon.sessions;
        c.errors += mon.errors;
        for (std::size_t i = 0; i < c.violations.size(); ++i)
            c.violations[i] += mon.violations[i];
    }
    // The global top-K is a subset of the union of per-shard top-Ks
    // (any globally retained verdict is in its own shard's top-K), so
    // rank-merge-truncate loses nothing.
    for (const SessionVerdict &v : other.top_)
        rank_insert(SessionVerdict(v));
    sessions_ += other.sessions_;
    errors_ += other.errors_;
    resume_pos_ += other.resume_pos_;
}

std::uint64_t
Observatory::violations(std::size_t slo) const
{
    std::uint64_t total = 0;
    for (const auto &[_, c] : cohorts_)
        total += slo < c.violations.size() ? c.violations[slo] : 0;
    return total;
}

std::string
Observatory::summary() const
{
    char buf[512];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "observatory: %llu sessions (%llu errors) across %zu "
                  "cohorts | %zu SLOs | top-%d offenders\n",
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_, cohorts_.size(),
                  config_.slos.size(), config_.top_k);
    out += buf;

    std::uint64_t completed_total = 0;
    for (const auto &[_, c] : cohorts_)
        completed_total += c.sessions - c.errors;

    out += "slo burn-rates (violations / completed sessions):\n";
    for (std::size_t i = 0; i < config_.slos.size(); ++i) {
        const std::uint64_t viol = violations(i);
        const double burn =
            completed_total ? 100.0 * double(viol) / double(completed_total)
                            : 0.0;
        std::snprintf(buf, sizeof(buf), "  %-14s %8llu / %llu  (%.2f%%)\n",
                      config_.slos[i].name.c_str(),
                      (unsigned long long)viol,
                      (unsigned long long)completed_total, burn);
        out += buf;
    }

    std::size_t key_width = std::string("cohort").size();
    for (const auto &[key, _] : cohorts_)
        key_width = std::max(key_width, key.size());
    std::snprintf(buf, sizeof(buf), "%-*s %9s", int(key_width), "cohort",
                  "sessions");
    out += buf;
    for (const SloSpec &slo : config_.slos) {
        std::snprintf(buf, sizeof(buf), " %12s", slo.name.c_str());
        out += buf;
    }
    out += "\n";
    for (const auto &[key, c] : cohorts_) {
        const std::uint64_t completed = c.sessions - c.errors;
        std::snprintf(buf, sizeof(buf), "%-*s %9llu", int(key_width),
                      key.c_str(), (unsigned long long)c.sessions);
        out += buf;
        for (std::size_t i = 0; i < config_.slos.size(); ++i) {
            if (completed == 0) {
                std::snprintf(buf, sizeof(buf), " %12s", "n/a");
            } else {
                std::snprintf(buf, sizeof(buf), " %11.2f%%",
                              100.0 * double(c.violations[i]) /
                                  double(completed));
            }
            out += buf;
        }
        out += "\n";
    }

    if (top_.empty()) {
        out += "top offenders: none\n";
        return out;
    }
    out += "top offenders (score desc, session asc):\n";
    for (std::size_t r = 0; r < top_.size(); ++r) {
        const SessionVerdict &v = top_[r];
        std::string slos;
        for (std::size_t i = 0; i < config_.slos.size(); ++i) {
            if (v.violated & (std::uint32_t(1) << i)) {
                if (!slos.empty())
                    slos += ",";
                slos += config_.slos[i].name;
            }
        }
        if (slos.empty())
            slos = "-";
        std::snprintf(
            buf, sizeof(buf),
            "  #%zu session %llu  score %.3f  cohort %s  slos [%s]  "
            "drops %llu/%lld  stutters %llu  p99 %.2fms  "
            "energy/frame %.1fmJ\n",
            r + 1, (unsigned long long)v.session,
            double(v.score_milli) / 1e3, v.cohort.c_str(), slos.c_str(),
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.stutters, double(v.latency_p99_us) / 1e3,
            v.presents ? double(v.energy_uj) / 1e3 / double(v.presents)
                       : 0.0);
        out += buf;
    }
    return out;
}

std::string
Observatory::to_json() const
{
    char buf[256];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "{\n  \"schema\": %d,\n"
                  "  \"source\": \"dvsync-observatory\",\n"
                  "  \"config_fnv\": \"%016llx\",\n"
                  "  \"sessions\": %llu,\n  \"errors\": %llu,\n"
                  "  \"resume_pos\": %llu,\n  \"slos\": [",
                  kSchema, (unsigned long long)config_fnv_,
                  (unsigned long long)sessions_,
                  (unsigned long long)errors_,
                  (unsigned long long)resume_pos_);
    out += buf;
    for (std::size_t i = 0; i < config_.slos.size(); ++i) {
        out += i ? ", " : "";
        out += "\"" + json_escape(config_.slos[i].name) + "\"";
    }
    out += "],\n  \"cohorts\": [\n";
    std::size_t n = 0;
    for (const auto &[key, c] : cohorts_) {
        out += "    {\"key\": \"" + json_escape(key) + "\", ";
        std::snprintf(buf, sizeof(buf),
                      "\"sessions\": %llu, \"errors\": %llu, "
                      "\"violations\": [",
                      (unsigned long long)c.sessions,
                      (unsigned long long)c.errors);
        out += buf;
        for (std::size_t i = 0; i < c.violations.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%llu", i ? "," : "",
                          (unsigned long long)c.violations[i]);
            out += buf;
        }
        out += "]}";
        out += ++n < cohorts_.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"top\": [\n";
    for (std::size_t r = 0; r < top_.size(); ++r) {
        const SessionVerdict &v = top_[r];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"session\": %llu, \"score_milli\": %lld, "
            "\"violated\": %llu, ",
            (unsigned long long)v.session, (long long)v.score_milli,
            (unsigned long long)v.violated);
        out += buf;
        out += "\"cohort\": \"" + json_escape(v.cohort) +
               "\", \"label\": \"" + json_escape(v.label) + "\", ";
        std::snprintf(
            buf, sizeof(buf),
            "\"drops\": %llu, \"frames_due\": %lld, \"presents\": %llu, "
            "\"stutters\": %llu, \"invariant_violations\": %llu, "
            "\"latency_p99_us\": %lld, \"energy_uj\": %lld, "
            "\"drop_causes\": [",
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.presents, (unsigned long long)v.stutters,
            (unsigned long long)v.invariant_violations,
            (long long)v.latency_p99_us, (long long)v.energy_uj);
        out += buf;
        for (int c = 0; c < kDropCauseCount; ++c) {
            std::snprintf(buf, sizeof(buf), "%s%llu", c ? "," : "",
                          (unsigned long long)
                              v.drop_causes[std::size_t(c)]);
            out += buf;
        }
        out += "]}";
        out += r + 1 < top_.size() ? ",\n" : "\n";
    }
    out += "  ]\n}\n";
    return out;
}

bool
Observatory::save(const std::string &path) const
{
    std::ofstream f(path, std::ios::trunc);
    if (!f)
        return false;
    f << to_json();
    return bool(f.flush());
}

bool
Observatory::load(const std::string &path, std::string *error)
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
            *error = path + ": unsupported observatory schema " +
                     std::to_string(int(root.number_at("schema", -1)));
        return false;
    }
    char fnv_hex[32];
    std::snprintf(fnv_hex, sizeof(fnv_hex), "%016llx",
                  (unsigned long long)config_fnv_);
    if (root.string_at("config_fnv") != fnv_hex) {
        if (error)
            *error = path + ": checkpoint was written under a different "
                            "observatory configuration";
        return false;
    }

    cohorts_.clear();
    top_.clear();
    sessions_ = std::uint64_t(root.number_at("sessions"));
    errors_ = std::uint64_t(root.number_at("errors"));
    resume_pos_ = std::uint64_t(root.number_at("resume_pos"));
    for (const JsonValue &node : root.at("cohorts").items()) {
        CohortMonitor &c = cohorts_[node.string_at("key")];
        c.sessions = std::uint64_t(node.number_at("sessions"));
        c.errors = std::uint64_t(node.number_at("errors"));
        const auto &viol = node.at("violations").items();
        if (viol.size() != config_.slos.size()) {
            if (error)
                *error = path + ": violations arity mismatch";
            return false;
        }
        c.violations.resize(config_.slos.size(), 0);
        for (std::size_t i = 0; i < viol.size(); ++i)
            c.violations[i] = std::uint64_t(viol[i].as_number());
    }
    for (const JsonValue &node : root.at("top").items()) {
        SessionVerdict v;
        v.session = std::uint64_t(node.number_at("session"));
        v.score_milli = std::int64_t(node.number_at("score_milli"));
        v.violated = std::uint32_t(node.number_at("violated"));
        v.cohort = node.string_at("cohort");
        v.label = node.string_at("label");
        v.drops = std::uint64_t(node.number_at("drops"));
        v.frames_due = std::int64_t(node.number_at("frames_due"));
        v.presents = std::uint64_t(node.number_at("presents"));
        v.stutters = std::uint64_t(node.number_at("stutters"));
        v.invariant_violations =
            std::uint64_t(node.number_at("invariant_violations"));
        v.latency_p99_us = std::int64_t(node.number_at("latency_p99_us"));
        v.energy_uj = std::int64_t(node.number_at("energy_uj"));
        const auto &causes = node.at("drop_causes").items();
        if (int(causes.size()) != kDropCauseCount) {
            if (error)
                *error = path + ": drop_causes arity mismatch";
            return false;
        }
        for (int i = 0; i < kDropCauseCount; ++i)
            v.drop_causes[std::size_t(i)] =
                std::uint64_t(causes[std::size_t(i)].as_number());
        rank_insert(std::move(v));
    }
    return true;
}

bool
capture_specimens(const Observatory &obs,
                  const std::function<Experiment(std::uint64_t)>
                      &materialize,
                  const std::string &dir, std::string *error)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    ::mkdir(dir.c_str(), 0755); // existing directory is fine

    char buf[512];
    std::string manifest = "{\n  \"schema\": 1,\n"
                           "  \"source\": \"dvsync-observatory\",\n"
                           "  \"specimens\": [\n";
    const std::vector<SessionVerdict> &top = obs.top();
    for (std::size_t r = 0; r < top.size(); ++r) {
        const SessionVerdict &v = top[r];

        // Re-simulate the offender from its index alone — the campaign
        // contract that every session is a pure function of (seed, index).
        const Experiment point = materialize(v.session);
        RenderSystem sys(point.config, point.scenario);
        RunReport report = sys.run();
        report.label = point.label;
        const std::int64_t rescore = anomaly_score_milli(
            report, obs.config().baseline_for(v.cohort),
            obs.config().weights);
        if (report.drops != v.drops || report.frames_due != v.frames_due ||
            report.presents != v.presents ||
            report.stutters != v.stutters || rescore != v.score_milli) {
            std::snprintf(buf, sizeof(buf),
                          "session %llu re-simulation diverged from its "
                          "verdict (score %lld vs %lld, drops %llu vs "
                          "%llu) — not a pure function of its index?",
                          (unsigned long long)v.session,
                          (long long)rescore, (long long)v.score_milli,
                          (unsigned long long)report.drops,
                          (unsigned long long)v.drops);
            return fail(buf);
        }

        std::snprintf(buf, sizeof(buf), "specimen-%02zu-session-%llu.dvst",
                      r + 1, (unsigned long long)v.session);
        const std::string file = buf;
        const std::string path = dir + "/" + file;
        const std::string label =
            "observatory/session-" + std::to_string(v.session) + "/" +
            v.cohort;
        SessionCapture cap;
        std::string verify_error;
        if (!SessionRecorder::capture_verified(sys, label, path,
                                               &verify_error, &cap))
            return fail(verify_error);

        std::snprintf(
            buf, sizeof(buf),
            "    {\"rank\": %zu, \"file\": \"%s\", \"session\": %llu, "
            "\"score_milli\": %lld, ",
            r + 1, file.c_str(), (unsigned long long)v.session,
            (long long)v.score_milli);
        manifest += buf;
        manifest += "\"cohort\": \"" + json_escape(v.cohort) +
                    "\", \"label\": \"" + json_escape(v.label) +
                    "\", \"slos\": [";
        bool first = true;
        for (std::size_t i = 0; i < obs.config().slos.size(); ++i) {
            if (v.violated & (std::uint32_t(1) << i)) {
                manifest += first ? "\"" : ", \"";
                manifest += json_escape(obs.config().slos[i].name) + "\"";
                first = false;
            }
        }
        std::snprintf(
            buf, sizeof(buf),
            "], \"drops\": %llu, \"frames_due\": %lld, "
            "\"presents\": %llu, \"stutters\": %llu, "
            "\"invariant_violations\": %llu, \"latency_p99_ms\": %.3f, "
            "\"energy_mj\": %.3f, \"drop_causes\": {",
            (unsigned long long)v.drops, (long long)v.frames_due,
            (unsigned long long)v.presents, (unsigned long long)v.stutters,
            (unsigned long long)v.invariant_violations,
            double(v.latency_p99_us) / 1e3, double(v.energy_uj) / 1e3);
        manifest += buf;
        first = true;
        for (int c = 0; c < kDropCauseCount; ++c) {
            if (v.drop_causes[std::size_t(c)] == 0)
                continue;
            std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                          first ? "" : ", ", to_string(DropCause(c)),
                          (unsigned long long)
                              v.drop_causes[std::size_t(c)]);
            manifest += buf;
            first = false;
        }
        std::snprintf(buf, sizeof(buf),
                      "}, \"dispatch_hash\": \"%016llx\"}%s\n",
                      (unsigned long long)cap.source_dispatch_hash,
                      r + 1 < top.size() ? "," : "");
        manifest += buf;
    }
    manifest += "  ]\n}\n";

    const std::string manifest_path = dir + "/manifest.json";
    std::ofstream f(manifest_path, std::ios::trunc);
    if (!f)
        return fail("cannot write " + manifest_path);
    f << manifest;
    if (!f.flush())
        return fail("cannot write " + manifest_path);
    return true;
}

} // namespace dvs
