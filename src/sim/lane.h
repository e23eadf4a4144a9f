/**
 * @file
 * Event lanes: the partitioning unit of the parallel-in-time simulator.
 *
 * Every scheduled event carries a LaneId. Lane 0 (`kSharedLane`) is the
 * shared lane — vsync edges, software vsync distribution, the device GPU,
 * arbiter and compositor work, scenario boundaries: everything that can
 * touch cross-surface state. Per-surface work (UI / render / private-GPU
 * stage completions and whatever they schedule) is tagged with the
 * surface's lane so the parallel dispatcher can execute disjoint lanes
 * concurrently between shared-lane barriers (see DESIGN.md §5g).
 *
 * Tagging is ambient: schedule() stamps the new event with the current
 * thread's ambient lane. The ambient lane defaults to kSharedLane; an
 * ExecResource pinned to a lane raises it around its completion schedule
 * (LaneScope), and during parallel lane execution the dispatcher sets it
 * to the executing lane so emissions inherit their parent's lane.
 * Serial dispatch ignores lanes entirely — the tag only ever affects
 * *where* an event executes, never *when*: dispatch order stays
 * (time, priority, sequence) in both modes, byte-identical.
 */

#ifndef DVS_SIM_LANE_H
#define DVS_SIM_LANE_H

#include <cstdint>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace dvs {

/** Lane tag carried by every event. 0 = shared lane. */
using LaneId = std::uint32_t;

inline constexpr LaneId kSharedLane = 0;

/** Event handle; mirrors the alias in event_queue.h (same type). */
using EventId = std::uint64_t;

class LaneExecContext; // parallel_dispatch.h

namespace lane_detail {

/**
 * Per-thread execution state. `ctx` is non-null only while the parallel
 * dispatcher is executing a lane's window on this thread; `lane_now` then
 * mirrors the lane's virtual clock so EventQueue::now() stays exact
 * without a context indirection on the hot path.
 */
struct Ambient {
    LaneId lane = kSharedLane;
    LaneExecContext *ctx = nullptr;
    Time lane_now = 0;
};

inline Ambient &
ambient()
{
    thread_local Ambient a;
    return a;
}

} // namespace lane_detail

/** Ambient lane new events are stamped with on this thread. */
inline LaneId
current_lane()
{
    return lane_detail::ambient().lane;
}

/** Lane-execution context of this thread; null outside lane windows. */
inline LaneExecContext *
current_lane_ctx()
{
    return lane_detail::ambient().ctx;
}

/** RAII: stamp events scheduled in this scope with lane @p l. */
class LaneScope
{
  public:
    explicit LaneScope(LaneId l) : prev_(lane_detail::ambient().lane)
    {
        lane_detail::ambient().lane = l;
    }
    ~LaneScope() { lane_detail::ambient().lane = prev_; }

    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;

  private:
    LaneId prev_;
};

// ----- lane-execution intercepts (defined in parallel_dispatch.cc) -----
//
// While a lane window is executing, EventQueue::schedule / cancel and
// shared-component ports route through the thread's LaneExecContext so
// lane threads never mutate shared structures mid-window.

EventId lane_intercept_schedule(LaneExecContext &ctx, Time when,
                                InlineFunction<void()> fn, int prio);
bool lane_intercept_cancel(LaneExecContext &ctx, EventId id);

/**
 * Defer a shared-component side effect (e.g. a VsyncDistributor callback
 * request) to the next barrier, where it is applied in the canonical
 * serial dispatch order. Only callable when current_lane_ctx() != null.
 */
void lane_defer_port(LaneExecContext &ctx, InlineFunction<void()> op);

} // namespace dvs

#endif // DVS_SIM_LANE_H
