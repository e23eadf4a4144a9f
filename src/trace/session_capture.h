/**
 * @file
 * SessionCapture: the persisted form of one recorded session (.dvst).
 *
 * A capture stores the *causal* inputs of a run — configuration, fault
 * plan, and per-segment workload (dense cost tables + touch streams) —
 * plus observational streams (per-frame lifecycle samples, the
 * LTPO/governor/watchdog timeline) that replay never consumes but the
 * bisect tooling reads. The causal half is minimal in the record/replay
 * sense: because every cost model in the repo is a pure function of the
 * nominal frame index, recording the table of values a segment *can*
 * query reproduces the run exactly without recording scheduler state.
 *
 * File format (.dvst), schema version 1:
 *
 *   "DVST"  u16 version  u8 kind (0 single / 1 multi)  u8 reserved(0)
 *   then sections, each:  4-byte tag | u32 payload len | payload | u32 CRC
 *
 *   META  provenance: label, verbatim flag, source dispatch hash +
 *         report fingerprint, transform lineage, timeline strings
 *   CONF  SystemConfig (single-surface captures)
 *   MCNF  MultiSurfaceConfig + per-surface descriptors (multi captures)
 *   FALT  fault plan windows (optional; absent = no injection)
 *   SEGS  scenario(s): per-segment kind/duration/label, dense cost
 *         table, touch events
 *   FRMS  observational per-frame samples (optional)
 *
 * Integers are LEB128 varints (zigzag + delta where consecutive values
 * correlate), doubles are raw bit patterns, every section payload is
 * CRC-32 guarded, and loading is strict: unknown tags, duplicate or
 * missing sections, out-of-range enums, trailing bytes, or any CRC
 * mismatch fail with a clear error — never a crash, never a silent
 * misparse. DESIGN.md §5i specifies the format and the replay
 * determinism contract in full.
 */

#ifndef DVS_TRACE_SESSION_CAPTURE_H
#define DVS_TRACE_SESSION_CAPTURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/render_system.h"
#include "input/touch_event.h"
#include "pipeline/frame.h"
#include "surface/multi_surface.h"
#include "workload/trace.h"

namespace dvs {

/**
 * Observational copy of one FrameRecord's lifecycle — what the producer
 * did, kept for inspection and diffing; replay regenerates these.
 */
struct FrameSample {
    std::int64_t frame_id = 0;
    int segment_index = -1;
    SegmentKind kind = SegmentKind::kIdle;
    std::int64_t slot = -1;
    bool pre_rendered = false;
    FrameCost cost;
    double rate_hz = 0.0;
    Time trigger_time = kTimeNone;
    Time ui_start = kTimeNone;
    Time ui_end = kTimeNone;
    Time render_start = kTimeNone;
    Time render_end = kTimeNone;
    Time gpu_start = kTimeNone;
    Time gpu_end = kTimeNone;
    Time queue_time = kTimeNone;
    Time present_time = kTimeNone;

    static FrameSample from_record(const FrameRecord &rec);

    friend bool operator==(const FrameSample &,
                           const FrameSample &) = default;
};

/** One recorded scenario segment: script + materialized workload. */
struct SegmentCapture {
    SegmentKind kind = SegmentKind::kIdle;
    Time duration = 0;
    std::string label;

    /**
     * Dense per-slot cost table (empty for idle segments): entry s is
     * the value the producer's cost query returns for slot s, so a
     * TraceCostModel in kSegmentSlot mode replays the segment's costs
     * bit-exactly. Sized past the largest slot the segment can anchor
     * to; queries beyond the end clamp to the last entry.
     */
    FrameTrace costs;

    /** Touch events of interaction segments (segment-relative times). */
    std::vector<TouchEvent> touch;
};

/** One scenario: name + ordered segments. */
struct ScenarioCapture {
    std::string name;
    std::vector<SegmentCapture> segments;
};

/** One surface of a multi-surface capture. */
struct SurfaceCapture {
    // SurfaceDesc fields (the scenario is captured separately below).
    std::string name = "surface";
    bool dvsync_aware = true;
    double buffer_mb = 12.0;
    int max_extra_buffers = 4;
    double weight = 1.0;
    Time start_at = 0;

    ScenarioCapture scenario;

    /** Observational per-frame stream of this surface's producer. */
    std::vector<FrameSample> frames;
};

/**
 * A complete recorded session, loadable/savable as .dvst.
 */
struct SessionCapture {
    static constexpr std::uint16_t kSchemaVersion = 1;

    enum class Kind : std::uint8_t { kSingle = 0, kMulti = 1 };
    Kind kind = Kind::kSingle;

    /** Free-form provenance tag (who recorded this, from what run). */
    std::string label;

    /**
     * Whether the bit-exact replay contract holds: replaying the capture
     * unmodified must reproduce source_dispatch_hash and a RunReport
     * whose debug_string() hashes to source_report_fnv. Transforms and
     * mode overrides clear it — a mutated capture is a new scenario, not
     * a recording.
     */
    bool verbatim = false;
    std::uint64_t source_dispatch_hash = 0;
    std::uint64_t source_report_fnv = 0;

    /** Applied transforms, oldest first (empty for raw recordings). */
    std::vector<std::string> lineage;

    /** Recorded degrade/governor/LTPO transition log (observational). */
    std::vector<std::string> timeline;

    // ----- kSingle ------------------------------------------------------

    /**
     * The recorded SystemConfig, fault plan included (shared_ptr rebuilt
     * on load via FaultPlan::from_windows).
     */
    SystemConfig config;
    ScenarioCapture scenario;
    std::vector<FrameSample> frames; ///< observational

    // ----- kMulti -------------------------------------------------------

    MultiSurfaceConfig multi_config;
    std::vector<SurfaceCapture> surfaces;

    // ----- serialization ------------------------------------------------

    /** Serialize to .dvst bytes. */
    std::string encode() const;

    /**
     * Strict decode. @return false with @p error set on any malformed
     * input; @p out is untouched on failure. Never crashes.
     */
    static bool decode(const std::string &bytes, SessionCapture &out,
                       std::string &error);

    /** Write encode() to @p path. @return success. */
    bool save(const std::string &path) const;

    /**
     * Read + decode @p path. @return false with @p error set when the
     * file is unreadable or malformed.
     */
    static bool load(const std::string &path, SessionCapture &out,
                     std::string &error);
};

} // namespace dvs

#endif // DVS_TRACE_SESSION_CAPTURE_H
