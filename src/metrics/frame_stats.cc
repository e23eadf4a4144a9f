#include "metrics/frame_stats.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sim/logging.h"

namespace dvs {

FrameStats::FrameStats(Producer &producer, Panel &panel, int pipeline_depth)
    : producer_(producer), pipeline_depth_(pipeline_depth),
      seg_presented_(producer.scenario().size(), 0)
{
    panel.add_present_listener(
        [this](const PresentEvent &ev) { on_present(ev); });
}

LogCapacity
log_capacity(const Scenario &scenario, Time horizon, double max_hz)
{
    // Counted in double and clamped before the conversion, so no rate,
    // duration or horizon can overflow; fmax also maps NaN to 1.
    // Refreshes fall on multiples of the whole-ns period the panel uses;
    // slots are counted at the nominal rate, which keeps a segment whose
    // duration is a whole number of refreshes from counting one more.
    const auto round = [](double n) {
        return std::bit_ceil(
            std::size_t(std::fmin(std::fmax(n, 1.0), 65536.0)));
    };
    const double period = std::floor(1e9 / max_hz);
    double frames = 0.0;
    for (const Segment &seg : scenario.segments()) {
        if (seg.produces_frames())
            frames += std::ceil(double(seg.duration) * max_hz / 1e9);
    }
    return {round(std::floor(double(horizon) / period) + 1.0),
            round(frames)};
}

void
FrameStats::reserve(const LogCapacity &capacity)
{
    // At most one shown frame, latency sample and touch sample per
    // frame; touch samples only come from interactive segments.
    refreshes_.reserve(capacity.refreshes);
    shown_.reserve(capacity.frames);
    latency_.reserve(capacity.frames);
    for (const Segment &seg : producer_.scenario().segments()) {
        if (seg.touch) {
            touch_error_.reserve(capacity.frames);
            break;
        }
    }
}

bool
FrameStats::content_due(Time t)
{
    // Content is due at refresh t when some segment's present schedule
    // says more frames should have been shown than actually were, and
    // either the segment's display window is still open or frames of it
    // are still in flight. Slots the producer skipped (VSync running
    // behind, or DTV's drop elasticity) were visible as repeats when
    // they were missed; they must not keep counting after the segment's
    // window closes.
    //
    // Only segments up to the producer's current one can be anchored.
    // A segment before it is frozen (anchor, period, total_slots and
    // started no longer change), so once it was never anchored, or its
    // window has closed with every started frame presented, it is never
    // due again: refresh times only grow. The cursor retires such
    // segments from the front, keeping the scan to the live ones.
    const int current = producer_.current_segment();
    for (; int(due_cursor_) < current; ++due_cursor_) {
        const SegmentState &st = producer_.segment_state(int(due_cursor_));
        if (st.anchor == kTimeNone)
            continue;
        const Time window_end = st.anchor +
                                Time(pipeline_depth_) * st.period +
                                (st.total_slots - 1) * st.period;
        if (t <= window_end || seg_presented_[due_cursor_] < st.started)
            break;
    }
    for (int i = int(due_cursor_); i <= current; ++i) {
        const SegmentState &st = producer_.segment_state(i);
        if (st.anchor == kTimeNone)
            continue; // never started producing
        const Time lag = Time(pipeline_depth_) * st.period;
        const Time first = st.anchor + lag;
        if (t < first)
            continue;
        const std::int64_t expected = std::min<std::int64_t>(
            (t - first) / st.period + 1, st.total_slots);
        const std::int64_t presented = seg_presented_[std::size_t(i)];
        if (presented >= expected)
            continue;
        const Time window_end = first + (st.total_slots - 1) * st.period;
        if (t <= window_end || presented < st.started)
            return true;
    }
    return false;
}

std::int64_t
FrameStats::frames_due() const
{
    std::int64_t total = 0;
    const std::size_t n = producer_.scenario().size();
    for (std::size_t i = 0; i < n; ++i) {
        const SegmentState &st = producer_.segment_state(int(i));
        if (st.anchor != kTimeNone)
            total += st.total_slots;
    }
    return total;
}

void
FrameStats::on_present(const PresentEvent &ev)
{
    RefreshLog log;
    log.time = ev.present_time;
    log.presented = !ev.repeat;

    if (!ev.repeat) {
        FrameRecord &rec = producer_.record(ev.meta.frame_id);
        rec.present_time = ev.present_time;
        ++presented_total_;
        ++seg_presented_[std::size_t(rec.segment_index)];
        log.frame_id = ev.meta.frame_id;
        log.due = true;

        ShownFrame sf;
        sf.frame_id = rec.frame_id;
        sf.segment_index = rec.segment_index;
        sf.content_timestamp = ev.meta.content_timestamp;
        sf.timeline_timestamp = ev.meta.timeline_timestamp;
        sf.present_time = ev.present_time;
        sf.queue_wait = ev.present_time - ev.queue_time;
        sf.pre_rendered = ev.meta.pre_rendered;
        sf.rate_hz = ev.rate_hz;
        shown_.push_back(sf);

        const SegmentState &st =
            producer_.segment_state(rec.segment_index);
        if (sf.queue_wait > st.period)
            ++stuffed_;
        else
            ++direct_;

        if (ev.meta.timeline_timestamp != kTimeNone) {
            latency_.add(
                double(ev.present_time - ev.meta.timeline_timestamp));
        }

        if (rec.has_content_value) {
            const Segment &seg =
                producer_.scenario().segments()[rec.segment_index];
            if (seg.touch) {
                const Time rel = ev.present_time - st.abs_start;
                const double truth =
                    touch_value(seg.touch->interpolate(rel));
                touch_error_.add(std::abs(rec.content_value - truth));
            }
        }
    } else {
        const bool due = content_due(ev.present_time);
        log.due = due;
        if (due) {
            log.drop = true;
            ++drops_;
        }
    }

    refreshes_.push_back(log);
}

double
FrameStats::fdps() const
{
    const Time active = producer_.scenario().active_duration();
    if (active <= 0)
        return 0.0;
    return double(drops_) / to_seconds(active);
}

double
FrameStats::fps() const
{
    const Time active = producer_.scenario().active_duration();
    if (active <= 0)
        return 0.0;
    return double(presents()) / to_seconds(active);
}

double
FrameStats::frame_drop_percent() const
{
    const std::int64_t due = frames_due();
    if (due <= 0)
        return 0.0;
    return 100.0 * double(drops_) / double(due);
}

StatSet
FrameStats::summary() const
{
    StatSet s;
    s.set("frames_due", double(frames_due()));
    s.set("frames_presented", double(presents()));
    s.set("frame_drops", double(drops_));
    s.set("fdps", fdps());
    s.set("fps", fps());
    s.set("frame_drop_percent", frame_drop_percent());
    s.set("direct_composition", double(direct_));
    s.set("buffer_stuffing", double(stuffed_));
    s.set("latency_mean_ms", to_ms(Time(latency_.mean())));
    s.set("latency_p95_ms",
          latency_.count() > 0 ? to_ms(Time(latency_.percentile(95)))
                               : 0.0);
    s.set("latency_max_ms", to_ms(Time(latency_.max())));
    if (touch_error_.count() > 0) {
        s.set("touch_error_mean_px", touch_error_.mean());
        s.set("touch_error_max_px", touch_error_.max());
    }
    return s;
}

} // namespace dvs
