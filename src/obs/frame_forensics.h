/**
 * @file
 * FrameForensics: per-frame causal span chains.
 *
 * Every frame already carries a stable id (FrameRecord::frame_id,
 * assigned at UI-thread wakeup) and the producer timestamps each
 * lifecycle stage as it happens. FrameForensics turns those records
 * into explicit causal chains — input sample / IPL prediction → UI
 * thread → render thread (wait vs. execute) → GPU (wait vs. execute) →
 * BufferQueue dwell → present or drop — links them across tracks in the
 * Chrome/Perfetto export via flow events, and writes a self-contained
 * JSON dump (chains + attributed drops + metric time series) that
 * bench/dvsync_inspect reads back.
 *
 * Building chains is a pure post-run derivation: nothing here runs
 * during the simulation, so the hot path pays zero cost for it.
 */

#ifndef DVS_OBS_FRAME_FORENSICS_H
#define DVS_OBS_FRAME_FORENSICS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/drop_classifier.h"
#include "sim/time.h"

namespace dvs {

class FrameStats;
struct FrameRecord;
class MetricsRegistry;
class Producer;
class TraceLog;

/** One stage of a frame's causal chain. */
struct FrameSpan {
    const char *stage = ""; ///< "ui.run", "gpu.wait", "queue.dwell", ...
    Time t0 = kTimeNone;
    Time t1 = kTimeNone; ///< kTimeNone = open at run end
};

/** The full causal chain of one frame. */
struct FrameChain {
    std::uint64_t flow_id = 0;  ///< unique across surfaces
    std::uint64_t frame_id = 0; ///< producer-local stable id
    int segment = -1;
    std::int64_t slot = -1;
    bool pre_rendered = false;
    Time trigger = kTimeNone;
    Time timeline = kTimeNone;
    Time present = kTimeNone; ///< kTimeNone when never displayed
    std::vector<FrameSpan> spans;

    /** Present latency vs. the nominal timeline; kTimeNone when unshown. */
    Time latency() const
    {
        return present == kTimeNone || timeline == kTimeNone
                   ? kTimeNone
                   : present - timeline;
    }
};

/** One surface's forensic record. */
struct SurfaceForensics {
    std::string name; ///< empty for the single-surface system
    std::vector<FrameChain> chains;
    std::vector<DropRecord> drops;
    std::array<std::uint64_t, kDropCauseCount> cause_counts{};
    std::uint64_t injected_drops = 0;
};

class FrameForensics
{
  public:
    /**
     * Derive the chains of one finished surface. @p name prefixes the
     * flow tracks ("name/ui thread") exactly like the trace export;
     * empty for single-surface runs. @p classifier may be null.
     */
    void add_surface(const std::string &name, const Producer &producer,
                     const FrameStats &stats,
                     const DropClassifier *classifier);

    const std::vector<SurfaceForensics> &surfaces() const
    {
        return surfaces_;
    }

    /** Flow events linking each chain's stages across @p log's tracks. */
    void export_flows(TraceLog &log) const;

    /**
     * Self-contained JSON dump. @p scenario / @p mode label the run;
     * @p metrics (may be null) embeds the sampled time series.
     */
    std::string dump_json(const std::string &scenario,
                          const std::string &mode,
                          const MetricsRegistry *metrics) const;

    /** Write dump_json to @p path; warn()s with the OS error on failure. */
    bool save(const std::string &path, const std::string &scenario,
              const std::string &mode,
              const MetricsRegistry *metrics) const;

  private:
    std::vector<SurfaceForensics> surfaces_;
};

/**
 * Write one surface's buffer-queue depth to @p log as samples of counter
 * @p name, rebuilt from its frame records: a buffer occupies the queue
 * from its queue_time until its latch (present_time). One sample per
 * instant at which the depth changes.
 */
void export_queue_depth(TraceLog &log, const std::string &name,
                        const std::vector<FrameRecord> &records);

} // namespace dvs

#endif // DVS_OBS_FRAME_FORENSICS_H
