#include "trace/session_recorder.h"

#include <algorithm>
#include <cmath>

#include "trace/dvst_io.h"
#include "trace/trace_replay.h"

namespace dvs {

namespace {

std::vector<FrameSample>
sample_records(const Producer &producer)
{
    std::vector<FrameSample> out;
    out.reserve(producer.records().size());
    for (const FrameRecord &rec : producer.records())
        out.push_back(FrameSample::from_record(rec));
    return out;
}

} // namespace

ScenarioCapture
SessionRecorder::capture_scenario(const Scenario &scenario,
                                  const DeviceConfig &device,
                                  const Producer &producer)
{
    ScenarioCapture sc;
    sc.name = scenario.name();
    // The highest rate the panel can anchor a segment's timeline at.
    const double max_hz = device.max_refresh_hz();
    for (std::size_t i = 0; i < scenario.size(); ++i) {
        const Segment &seg = scenario.segments()[i];
        SegmentCapture cap;
        cap.kind = seg.kind;
        cap.duration = seg.duration;
        cap.label = seg.label;
        if (seg.produces_frames()) {
            // Table bound: a segment anchored at the panel's highest
            // rate owes at most ceil(duration * hz / 1e9) + 1 slots;
            // widen to the slot count this run actually resolved (the
            // anchor lands after the segment start, never before), so
            // the table covers every query replay can make.
            std::int64_t slots = std::int64_t(
                std::ceil(double(seg.duration) * max_hz / 1e9)) + 2;
            const SegmentState &st = producer.segment_state(int(i));
            if (st.total_slots > 0)
                slots = std::max(slots, st.total_slots);
            cap.costs.name = seg.label;
            cap.costs.rate_hz = max_hz;
            cap.costs.frames.reserve(std::size_t(slots));
            for (std::int64_t s = 0; s < slots; ++s)
                cap.costs.frames.push_back(seg.cost->cost_for(
                    s + std::int64_t(i) * kCostIndexStride));
        }
        if (seg.touch)
            cap.touch = seg.touch->events();
        sc.segments.push_back(std::move(cap));
    }
    return sc;
}

SessionCapture
SessionRecorder::capture(RenderSystem &sys, const std::string &label)
{
    SessionCapture cap;
    cap.kind = SessionCapture::Kind::kSingle;
    cap.label = label;
    cap.config = sys.config();
    cap.scenario = capture_scenario(sys.producer().scenario(),
                                    sys.config().device, sys.producer());
    cap.frames = sample_records(sys.producer());

    const RunReport report = sys.report();
    cap.timeline = report.timeline;
    cap.verbatim = true;
    cap.source_dispatch_hash = sys.sim().events().dispatch_hash();
    cap.source_report_fnv = fnv1a(report.debug_string());
    return cap;
}

SessionCapture
SessionRecorder::capture(MultiSurfaceSystem &sys, const std::string &label)
{
    SessionCapture cap;
    cap.kind = SessionCapture::Kind::kMulti;
    cap.label = label;
    cap.multi_config = sys.config();
    for (int i = 0; i < int(sys.size()); ++i) {
        const SurfaceDesc &desc = sys.desc(i);
        SurfaceCapture s;
        s.name = desc.name;
        s.dvsync_aware = desc.dvsync_aware;
        s.buffer_mb = desc.buffer_mb;
        s.max_extra_buffers = desc.max_extra_buffers;
        s.weight = desc.weight;
        s.start_at = desc.start_at;
        s.scenario = capture_scenario(desc.scenario,
                                      sys.config().device,
                                      sys.producer(i));
        s.frames = sample_records(sys.producer(i));
        cap.surfaces.push_back(std::move(s));
    }

    const RunReport report = sys.report();
    cap.timeline = report.timeline;
    cap.verbatim = true;
    cap.source_dispatch_hash = sys.sim().events().dispatch_hash();
    cap.source_report_fnv = fnv1a(report.debug_string());
    return cap;
}

bool
SessionRecorder::capture_verified(RenderSystem &sys,
                                  const std::string &label,
                                  const std::string &path,
                                  std::string *error, SessionCapture *out)
{
    const auto fail = [&](const std::string &what) {
        if (error)
            *error = what;
        return false;
    };
    const SessionCapture cap = capture(sys, label);
    if (!cap.save(path))
        return fail("cannot write " + path);
    // Verify the *file*, not the in-memory capture: a decode bug or a
    // lossy round-trip must fail here, not at the consumer's replay.
    SessionCapture loaded;
    std::string decode_error;
    if (!SessionCapture::load(path, loaded, decode_error))
        return fail(path + ": " + decode_error);
    const ReplayResult replayed = replay_session(loaded);
    const std::string mismatch = replayed.verify_against(loaded);
    if (!mismatch.empty())
        return fail(path + ": " + mismatch);
    if (out)
        *out = std::move(loaded);
    return true;
}

} // namespace dvs
