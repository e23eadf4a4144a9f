/**
 * @file
 * Conservative parallel discrete-event dispatch over per-surface lanes.
 *
 * The dispatcher splits the event stream at shared-lane events (vsync
 * edges, software vsync distribution, device-GPU work, arbiter and
 * compositor events — everything tagged kSharedLane). Between two shared
 * events, all pending lane-tagged events form a *window*: they are popped
 * off the heap, partitioned per lane, and executed concurrently — one
 * worker per lane — because events of different lanes inside a window
 * cannot affect each other (surfaces only couple through shared
 * resources, which live on the shared lane; see DESIGN.md §5g).
 *
 * Determinism is not statistical but structural: lane execution is
 * *logged*, and at the barrier the logs are replayed symbolically through
 * a priority queue that reproduces the exact serial heap order —
 * assigning every emission the same sequence number serial dispatch
 * would have, folding the same dispatch hash, and committing deferred
 * work to the real heap at its canonical position. Any discipline
 * violation (an event emitted into another lane or the shared lane
 * inside a window, a lane dispatching out of canonical order) is
 * detected during replay and reported via fatal().
 *
 * This header is internal to the sim layer; users enable the mode with
 * Simulator::set_sim_workers() / SystemConfig::with_sim_workers().
 */

#ifndef DVS_SIM_PARALLEL_DISPATCH_H
#define DVS_SIM_PARALLEL_DISPATCH_H

#include <cstdint>
#include <exception>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/lane.h"
#include "sim/worker_pool.h"

namespace dvs {

/**
 * Per-lane execution state (internal). Persistent across windows so the
 * window buffers act as arenas: flat POD log records and emission arrays
 * are cleared, never freed, and provisional-id counters keep handles
 * unique for the lifetime of the queue.
 */
class LaneExecContext
{
  public:
    /** A bucket event: popped off the real heap for this window. */
    struct BucketEv {
        Time when;
        int prio;
        std::uint64_t seq;
        EventId id;
        EventQueue::Callback fn;
        bool dead = false;       ///< cancelled in-window before dispatch
        bool dispatched = false; ///< executed locally
    };

    /** An emission: a schedule() issued during this window. */
    struct Emit {
        Time when;
        int prio;
        LaneId lane;            ///< ambient lane at schedule time
        EventId prov;           ///< provisional handle returned to caller
        std::uint64_t seq = 0;  ///< canonical seq, assigned at replay
        EventQueue::Callback fn;
        bool in_window = false;
        bool dead = false;
        bool dispatched = false;
    };

    /** Flat POD dispatch-log record: one locally dispatched event. */
    struct Rec {
        Time when;
        int prio;
        std::uint32_t is_emission;
        std::uint32_t src; ///< index into bucket or emits
        std::uint32_t emit_begin, emit_end; ///< range into emits
        std::uint32_t port_begin, port_end; ///< range into ports
    };

    LaneId lane = kSharedLane;
    EventQueue *queue = nullptr;

    // Window bound: an emission executes inside the window iff it sorts
    // strictly before (bound_when, bound_prio) — emissions always carry
    // larger seqs than any pending heap entry, so (when, prio) decides.
    Time bound_when = 0;
    int bound_prio = 0;
    Time now = 0; ///< lane-local virtual clock

    std::vector<BucketEv> bucket;
    std::vector<Emit> emits;
    std::vector<Rec> log;
    std::vector<InlineFunction<void()>> ports;
    std::vector<EventId> deferred_cancels;
    std::uint64_t prov_counter = 0; ///< never reset: handles stay unique
    std::uint64_t window_epoch = 0; ///< dispatcher epoch of last window
    std::size_t cursor = 0;         ///< replay position in log
    std::exception_ptr error;

    /** Reset per-window state (buffers are reused, not freed). */
    void begin_window();

    /** Execute the window's bucket + local emissions on this thread. */
    void run_window();

    bool in_window(Time when, int prio) const
    {
        return when < bound_when ||
               (when == bound_when && prio < bound_prio);
    }

    EventId intercept_schedule(Time when, EventQueue::Callback fn,
                               int prio);
    bool intercept_cancel(EventId id);

  private:
    /** Lane-local dispatch order: the serial order's per-lane projection. */
    struct Node {
        Time when;
        int prio;
        std::uint32_t cls; ///< 0 = bucket (ord = seq), 1 = emission (ord = idx)
        std::uint64_t ord;
        std::uint32_t idx;

        bool operator>(const Node &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            if (cls != o.cls)
                return cls > o.cls;
            return ord > o.ord;
        }
    };

    std::vector<Node> heap_;
};

/**
 * The parallel run loop. Owns the per-lane contexts and the replay
 * machinery; shares the caller-participating worker pool.
 */
class ParallelDispatcher
{
  public:
    ParallelDispatcher(EventQueue &queue, SimWorkerPool &pool);

    /** Serial-identical run_until (same contract as EventQueue's). */
    std::uint64_t run_until(Time horizon, bool advance_to_horizon);

    /**
     * Testing hook: cap the number of bucket events per window, forcing
     * extra barriers at arbitrary points. Any cap is serial-equivalent —
     * a conservative window may always be shortened. 0 = unbounded.
     */
    void set_max_window(std::size_t cap) { max_window_ = cap; }

    /** Windows executed (with >= 1 lane event). */
    std::uint64_t windows() const { return windows_; }

  private:
    /** Replay priority-queue node: mirrors the serial heap exactly. */
    struct RNode {
        Time when;
        int prio;
        std::uint64_t seq;
        std::uint32_t ctx;  ///< index into active_
        std::uint32_t cls;  ///< 0 = bucket, 1 = emission
        std::uint32_t idx;  ///< index into bucket or emits

        bool operator>(const RNode &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };

    LaneExecContext &ctx_for(LaneId lane);
    void dispatch_top_serial();
    std::uint64_t replay_window();

    EventQueue &q_;
    SimWorkerPool &pool_;
    std::vector<std::unique_ptr<LaneExecContext>> ctxs_;
    std::unordered_map<LaneId, std::uint32_t> ctx_of_lane_;
    std::vector<std::uint32_t> active_; ///< ctx indices in this window
    std::vector<RNode> rheap_;
    std::uint64_t epoch_ = 0;
    std::uint64_t windows_ = 0;
    std::size_t max_window_ = 0;
};

} // namespace dvs

#endif // DVS_SIM_PARALLEL_DISPATCH_H
