#include "obs/frame_forensics.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "metrics/frame_stats.h"
#include "obs/metrics_registry.h"
#include "pipeline/producer.h"
#include "sim/logging.h"
#include "sim/tracing.h"

namespace dvs {
namespace {

/** Flow ids must stay unique across surfaces of one export. */
constexpr std::uint64_t kFlowSurfaceStride = std::uint64_t(1) << 32;

void
span(FrameChain &chain, const char *stage, Time t0, Time t1)
{
    if (t0 == kTimeNone)
        return;
    if (t1 != kTimeNone && t1 < t0)
        return;
    chain.spans.push_back(FrameSpan{stage, t0, t1});
}

FrameChain
build_chain(const FrameRecord &rec, std::uint64_t flow_base)
{
    FrameChain c;
    c.flow_id = flow_base + rec.frame_id;
    c.frame_id = rec.frame_id;
    c.segment = rec.segment_index;
    c.slot = rec.slot;
    c.pre_rendered = rec.pre_rendered;
    c.trigger = rec.trigger_time;
    c.timeline = rec.timeline_timestamp;
    c.present = rec.present_time;

    // Input stage: interactive frames render a sampled (vsync path) or
    // IPL-predicted (pre-render path) input state at wakeup.
    if (rec.has_content_value) {
        span(c, rec.pre_rendered ? "input.predict" : "input.sample",
             rec.trigger_time, rec.trigger_time);
    }
    if (rec.ui_start != kTimeNone && rec.ui_start > rec.trigger_time)
        span(c, "ui.wait", rec.trigger_time, rec.ui_start);
    span(c, "ui.run", rec.ui_start, rec.ui_end);

    // Between UI completion and render start: the VSync-rs alignment
    // wait (conventional pipeline), then possibly a wait for the render
    // thread or a free buffer slot.
    if (rec.render_ready != kTimeNone &&
        rec.render_ready > rec.ui_end)
        span(c, "rs.wait", rec.ui_end, rec.render_ready);
    if (rec.buffer_stall_start != kTimeNone) {
        if (rec.buffer_stall_start > rec.render_ready)
            span(c, "render.wait", rec.render_ready,
                 rec.buffer_stall_start);
        span(c, "buffer.stall", rec.buffer_stall_start,
             rec.render_start);
    } else if (rec.render_ready != kTimeNone &&
               rec.render_start != kTimeNone &&
               rec.render_start > rec.render_ready) {
        span(c, "render.wait", rec.render_ready, rec.render_start);
    }
    span(c, "render.run", rec.render_start, rec.render_end);

    // GPU: the ExecResource wait (submitted, parked behind other jobs)
    // vs. execute split.
    if (rec.gpu_start != kTimeNone && rec.gpu_start > rec.render_end)
        span(c, "gpu.wait", rec.render_end, rec.gpu_start);
    span(c, "gpu.run", rec.gpu_start, rec.gpu_end);

    // FIFO dwell: enqueue until the panel latched it (open when the run
    // ended with the buffer still queued).
    span(c, "queue.dwell", rec.queue_time, rec.present_time);
    if (rec.present_time != kTimeNone)
        span(c, "display.present", rec.present_time, rec.present_time);
    return c;
}

} // namespace

void
FrameForensics::add_surface(const std::string &name,
                            const Producer &producer,
                            const FrameStats &stats,
                            const DropClassifier *classifier)
{
    (void)stats; // present times already live in the frame records
    SurfaceForensics sf;
    sf.name = name;
    const std::uint64_t flow_base =
        kFlowSurfaceStride * (std::uint64_t(surfaces_.size()) + 1);
    sf.chains.reserve(producer.records().size());
    for (const FrameRecord &rec : producer.records())
        sf.chains.push_back(build_chain(rec, flow_base));
    if (classifier) {
        sf.drops = classifier->drops();
        sf.cause_counts = classifier->counts();
        sf.injected_drops = classifier->injected_drops();
    }
    surfaces_.push_back(std::move(sf));
}

void
FrameForensics::export_flows(TraceLog &log) const
{
    char name[64];
    for (const SurfaceForensics &sf : surfaces_) {
        const std::string prefix =
            sf.name.empty() ? std::string() : sf.name + "/";
        for (const FrameChain &c : sf.chains) {
            std::snprintf(name, sizeof(name), "frame %lld.%lld",
                          (long long)c.segment, (long long)c.slot);
            // One flow point per track the frame touched, in lifecycle
            // order; matches the duration slices export_trace() draws.
            std::vector<std::pair<const char *, Time>> points;
            for (const FrameSpan &s : c.spans) {
                if (std::strcmp(s.stage, "ui.run") == 0)
                    points.emplace_back("ui thread", s.t0);
                else if (std::strcmp(s.stage, "render.run") == 0)
                    points.emplace_back("render thread", s.t0);
                else if (std::strcmp(s.stage, "gpu.run") == 0)
                    points.emplace_back("gpu", s.t0);
                else if (std::strcmp(s.stage, "queue.dwell") == 0)
                    points.emplace_back("buffer queue", s.t0);
                else if (std::strcmp(s.stage, "display.present") == 0)
                    points.emplace_back("display", s.t0);
            }
            if (points.empty())
                continue;
            log.flow_begin(prefix + points.front().first, name,
                           points.front().second, c.flow_id);
            for (std::size_t i = 1; i + 1 < points.size(); ++i)
                log.flow_step(prefix + points[i].first, name,
                              points[i].second, c.flow_id);
            log.flow_end(prefix + points.back().first, name,
                         points.back().second, c.flow_id);
        }
    }
}

std::string
FrameForensics::dump_json(const std::string &scenario,
                          const std::string &mode,
                          const MetricsRegistry *metrics) const
{
    std::string out;
    char buf[256];
    out += "{\"schema\":1,\"source\":\"dvsync-forensics\",";
    out += "\"scenario\":\"" + scenario + "\",";
    out += "\"mode\":\"" + mode + "\",";
    out += "\"surfaces\":[";
    for (std::size_t si = 0; si < surfaces_.size(); ++si) {
        const SurfaceForensics &sf = surfaces_[si];
        if (si)
            out += ',';
        out += "\n{\"name\":\"" + sf.name + "\",\"causes\":{";
        for (int ci = 0; ci < kDropCauseCount; ++ci) {
            std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu",
                          ci ? "," : "", to_string(DropCause(ci)),
                          (unsigned long long)sf.cause_counts[ci]);
            out += buf;
        }
        std::snprintf(buf, sizeof(buf), "},\"injected_drops\":%llu,",
                      (unsigned long long)sf.injected_drops);
        out += buf;
        out += "\"drops\":[";
        for (std::size_t di = 0; di < sf.drops.size(); ++di) {
            const DropRecord &d = sf.drops[di];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"t\":%lld,\"refresh\":%llu,\"cause\":\"%s\","
                "\"injected\":%s,\"frame\":%lld}",
                di ? "," : "", (long long)d.at,
                (unsigned long long)d.refresh_index, to_string(d.cause),
                d.injected ? "true" : "false",
                d.frame_hint == UINT64_MAX ? -1LL
                                           : (long long)d.frame_hint);
            out += buf;
        }
        out += "],\"frames\":[";
        for (std::size_t fi = 0; fi < sf.chains.size(); ++fi) {
            const FrameChain &c = sf.chains[fi];
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"id\":%llu,\"flow\":%llu,\"seg\":%d,"
                "\"slot\":%lld,\"pre\":%s,\"trigger\":%lld,"
                "\"timeline\":%lld,\"present\":%lld,\"spans\":[",
                fi ? "," : "", (unsigned long long)c.frame_id,
                (unsigned long long)c.flow_id, c.segment,
                (long long)c.slot, c.pre_rendered ? "true" : "false",
                (long long)c.trigger, (long long)c.timeline,
                (long long)c.present);
            out += buf;
            for (std::size_t pi = 0; pi < c.spans.size(); ++pi) {
                const FrameSpan &s = c.spans[pi];
                std::snprintf(buf, sizeof(buf),
                              "%s{\"stage\":\"%s\",\"t0\":%lld,"
                              "\"t1\":%lld}",
                              pi ? "," : "", s.stage, (long long)s.t0,
                              (long long)s.t1);
                out += buf;
            }
            out += "]}";
        }
        out += "]}";
    }
    out += "],\"metrics\":";
    if (metrics)
        out += metrics->to_json();
    else
        out += "null";
    out += "}\n";
    return out;
}

bool
FrameForensics::save(const std::string &path,
                     const std::string &scenario,
                     const std::string &mode,
                     const MetricsRegistry *metrics) const
{
    std::ofstream out(path);
    if (!out) {
        warn("FrameForensics::save: cannot open %s: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    out << dump_json(scenario, mode, metrics);
    if (!out) {
        warn("FrameForensics::save: write to %s failed: %s",
             path.c_str(), std::strerror(errno));
        return false;
    }
    return true;
}

void
export_queue_depth(TraceLog &log, const std::string &name,
                   const std::vector<FrameRecord> &records)
{
    std::vector<std::pair<Time, int>> deltas;
    for (const FrameRecord &rec : records) {
        if (rec.queue_time == kTimeNone)
            continue;
        deltas.emplace_back(rec.queue_time, +1);
        if (rec.present_time != kTimeNone)
            deltas.emplace_back(rec.present_time, -1);
    }
    std::sort(deltas.begin(), deltas.end());
    int depth = 0;
    for (std::size_t k = 0; k < deltas.size(); ++k) {
        depth += deltas[k].second;
        if (k + 1 < deltas.size() && deltas[k + 1].first == deltas[k].first)
            continue; // coalesce same-instant changes
        log.counter(name, deltas[k].first, double(depth));
    }
}

} // namespace dvs
