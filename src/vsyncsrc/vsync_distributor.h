/**
 * @file
 * Software VSync distributor.
 *
 * Receives HW-VSync edges and posts software vsync events to pipeline
 * entities at configured offsets — VSync-app for the UI thread, VSync-rs
 * for the render service, VSync-sf for the compositor (§2). Callbacks are
 * one-shot and must be re-requested every frame, matching the Android
 * NativeVSync / Choreographer contract.
 */

#ifndef DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
#define DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "display/hw_vsync.h"
#include "sim/inline_function.h"
#include "sim/lane.h"
#include "sim/simulator.h"
#include "vsyncsrc/vsync_model.h"

namespace dvs {

/** Software vsync channels, by pipeline stage. */
enum class VsyncChannel : int {
    kApp = 0, ///< triggers the app UI thread
    kRs = 1,  ///< triggers the render service / render thread
    kSf = 2,  ///< triggers the compositor (SurfaceFlinger)
};

inline constexpr int kNumVsyncChannels = 3;

/** A software vsync delivery. */
struct SwVsync {
    Time timestamp;      ///< the hardware edge this delivery derives from
    Time delivery_time;  ///< when the callback actually ran (edge+offset)
    std::uint64_t index; ///< hardware edge counter
    double rate_hz;      ///< panel rate at the edge
};

/**
 * Fans HW-VSync out to software channels with per-channel phase offsets.
 */
class VsyncDistributor
{
  public:
    using Callback = InlineFunction<void(const SwVsync &)>;

    VsyncDistributor(Simulator &sim, HwVsyncGenerator &hw);

    /** Set a channel's offset from the hardware edge (>= 0). */
    void set_offset(VsyncChannel ch, Time offset);
    Time offset(VsyncChannel ch) const;

    /**
     * Request a single callback at the next delivery of @p ch. Requests
     * made at the exact delivery time of an edge wait for the next edge.
     * @p lane is the requester's event lane: under per-lane delivery the
     * callback rides a delivery event tagged with that lane, so a
     * surface's frame work executes on its own lane between barriers.
     */
    void request_callback(VsyncChannel ch, Callback fn,
                          LaneId lane = kSharedLane);

    /**
     * Fan each edge out as one delivery event *per requester lane*
     * instead of one combined event per channel. Same deliveries at the
     * same times; only the batching (and thus the cross-surface callback
     * interleaving at equal timestamps) changes, which is why this is a
     * construction-time decision: the multi-surface system enables it
     * exactly when surfaces are decoupled (private GPUs), where the
     * interleaving is unobservable — and it must be identical between
     * serial and parallel runs of the same config (DESIGN.md §5g).
     */
    void set_per_lane_delivery(bool on) { per_lane_delivery_ = on; }
    bool per_lane_delivery() const { return per_lane_delivery_; }

    /** Number of outstanding requests on a channel (for tests). */
    std::size_t pending(VsyncChannel ch) const;

    /** The distributor's model of the hardware timeline. */
    const VsyncModel &model() const { return model_; }

  private:
    /** One outstanding request: callback plus its requester's lane. */
    struct Pending {
        LaneId lane;
        Callback fn;
    };

    void on_edge(const VsyncEdge &edge);
    std::uint32_t acquire_batch();
    void deliver(const SwVsync &sw, std::uint32_t batch);

    Simulator &sim_;
    VsyncModel model_;
    std::array<Time, kNumVsyncChannels> offsets_{};
    std::array<std::vector<Pending>, kNumVsyncChannels> pending_;
    // Delivery batches in flight, by slot. A delivery event carries only
    // its slot index; once delivered, the slot is cleared (keeping its
    // capacity) and returned to free_batches_, so steady-state edges
    // reuse the same vectors instead of allocating new ones.
    std::vector<std::vector<Pending>> batches_;
    std::vector<std::uint32_t> free_batches_;
    std::vector<LaneId> lane_order_; ///< per-lane fan-out scratch
    bool per_lane_delivery_ = false;
};

} // namespace dvs

#endif // DVS_VSYNCSRC_VSYNC_DISTRIBUTOR_H
