/**
 * @file
 * Choreographer: per-producer frame-callback coalescing.
 *
 * Mirrors Android's Choreographer (§5.2): an app posts a frame callback;
 * the choreographer requests the underlying software vsync and invokes the
 * callback with the frame timestamp. Multiple posts before the next vsync
 * coalesce into a single callback. If the app posts while a previous
 * callback is still executing (UI thread busy), the post simply targets
 * the next vsync — this is how a slow frame naturally skips grid slots.
 */

#ifndef DVS_VSYNCSRC_CHOREOGRAPHER_H
#define DVS_VSYNCSRC_CHOREOGRAPHER_H

#include <functional>

#include "vsyncsrc/vsync_distributor.h"

namespace dvs {

/**
 * Coalescing frame-callback dispatcher on one software vsync channel.
 */
class Choreographer
{
  public:
    /** Callback receives the vsync timestamp the frame is paced by. */
    using FrameCallback = std::function<void(const SwVsync &)>;

    Choreographer(VsyncDistributor &dist, VsyncChannel channel);

    /**
     * Install the single frame callback target (the producer's frame
     * entry point). Must be set before posting.
     */
    void set_callback(FrameCallback fn) { callback_ = std::move(fn); }

    /**
     * Request that the frame callback run at the next vsync. Idempotent
     * between vsyncs: repeated posts coalesce into one delivery.
     */
    void post_frame_callback();

    /**
     * Event tag of the owning producer. Forwarded with every vsync
     * request so per-tag delivery can tag the delivery event.
     */
    void set_event_tag(EventTag tag) { tag_ = tag; }

    /** Whether a callback is armed for the next vsync. */
    bool armed() const { return armed_; }

    /** Vsync deliveries that actually invoked the callback. */
    std::uint64_t callbacks_delivered() const { return delivered_; }

  private:
    VsyncDistributor &dist_;
    VsyncChannel channel_;
    FrameCallback callback_;
    EventTag tag_ = kSharedTag;
    bool armed_ = false;
    std::uint64_t delivered_ = 0;
};

} // namespace dvs

#endif // DVS_VSYNCSRC_CHOREOGRAPHER_H
