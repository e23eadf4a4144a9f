/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are executed in (time, priority, insertion-sequence) order, which
 * makes simulations fully reproducible: two events scheduled for the same
 * tick with the same priority run in the order they were scheduled.
 *
 * Complexity guarantees (the simulator's hot path — see DESIGN.md):
 *  - schedule():        O(log n) heap push, O(1) callback storage
 *  - cancel():          O(1) slot lookup + amortized O(log n) pruning
 *  - dispatch:          O(log n) heap pop, O(1) callback lookup
 *  - next_event_time(): O(1), never reports a cancelled event
 *
 * Callback storage is a slot map: an EventId encodes {slot index,
 * generation}, so lookup is an array index plus a generation check, and
 * cancelled slots are recycled through a free list immediately (memory is
 * bounded by the maximum number of *concurrently pending* events, not by
 * the total scheduled over a run). Heap entries of cancelled events are
 * skipped lazily at dispatch; dead entries at the top are pruned eagerly
 * on cancel, and the heap is compacted whenever dead entries outnumber
 * live ones, so cancel-heavy workloads stay O(live) in memory too.
 */

#ifndef DVS_SIM_EVENT_QUEUE_H
#define DVS_SIM_EVENT_QUEUE_H

#include <cstdint>
#include <vector>

#include "sim/inline_function.h"
#include "sim/time.h"

namespace dvs {

/**
 * Priorities order events that fire at the same tick. Lower values run
 * first. The defaults encode the natural hardware/software layering: the
 * display latches a buffer before software reacts to the same vsync edge.
 */
enum class EventPriority : int {
    kDisplay = 0,   ///< panel refresh / buffer latch
    kSegment = 5,    ///< scenario segment boundaries
    kVsyncDist = 10, ///< software vsync distribution
    kPipeline = 20,  ///< pipeline stage completions
    kDefault = 50,   ///< everything else
    kMetrics = 90,   ///< end-of-tick bookkeeping
};

/**
 * Handle used to cancel a scheduled event. Encodes {slot, generation};
 * treat it as opaque. A handle goes stale once its event fires or is
 * cancelled — using it afterwards is a detected no-op, even if the
 * underlying slot has been recycled for a newer event.
 */
using EventId = std::uint64_t;

/**
 * Plain-data tag carried by every event and folded into the dispatch
 * hash. 0 marks shared work (vsync edges, software vsync distribution,
 * a device GPU, compositor); surface i's pipeline stages tag theirs
 * i + 1. The tag never affects dispatch order.
 */
using EventTag = std::uint32_t;

inline constexpr EventTag kSharedTag = 0;

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns the virtual clock: `now()` advances only as events are
 * dispatched. Callbacks may schedule further events (including at the
 * current time, which run after all currently pending same-tick events of
 * lower or equal ordering).
 */
class EventQueue
{
  public:
    /**
     * Event action. Captures up to 48 bytes are stored inline in the
     * callback slot, so scheduling one allocates nothing.
     */
    using Callback = InlineFunction<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current virtual time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when, tagged @p tag.
     * @pre when >= now()
     * @return an id usable with cancel().
     */
    EventId schedule(Time when, Callback fn,
                     EventPriority prio = EventPriority::kDefault,
                     EventTag tag = kSharedTag);

    /** Schedule @p fn to run @p delay after the current time. */
    EventId
    schedule_in(Time delay, Callback fn,
                EventPriority prio = EventPriority::kDefault)
    {
        return schedule(now() + delay, std::move(fn), prio);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired, already-
     * cancelled, or unknown id is a no-op: stale handles are rejected by
     * the generation check even after their slot is recycled.
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return live_count_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t pending() const { return live_count_; }

    /**
     * Time of the earliest pending event, or kTimeNone when empty.
     * Cancelled events are never reported: cancel() eagerly prunes dead
     * entries off the top of the heap.
     */
    Time next_event_time() const;

    /**
     * Run events until the queue empties or the next event lies beyond
     * @p horizon. The clock is left at the last dispatched event (or moved
     * to @p horizon when @p advance_to_horizon is set).
     * @return number of events dispatched.
     */
    std::uint64_t run_until(Time horizon, bool advance_to_horizon = true);

    /** Run all events to exhaustion. @return number dispatched. */
    std::uint64_t run() { return run_until(kTimeMax, false); }

    /** Total number of events dispatched over the queue's lifetime. */
    std::uint64_t dispatched() const { return dispatched_; }

    /**
     * FNV-style fold of every dispatched event's (when, prio, tag, seq)
     * in dispatch order. Goldens, trace replays and the repository
     * benchmark pin it as the run's fingerprint.
     */
    std::uint64_t dispatch_hash() const { return dispatch_hash_; }

    /**
     * Pre-size the slot map and heap (data-layout hint for runs with a
     * known pending-event ceiling; avoids growth reallocations on the
     * hot path).
     */
    void reserve(std::size_t events)
    {
        heap_.reserve(events);
        slots_.reserve(events);
    }

  private:
    struct Entry {
        Time when;
        int prio;
        EventTag tag; ///< fills the padding hole after prio
        std::uint64_t seq;
        EventId id;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };
    static_assert(sizeof(Entry) == 32, "the tag fills the padding hole");

    /**
     * One callback slot. `gen` is bumped every time the slot is released
     * (fire or cancel), which invalidates every EventId minted for a
     * previous occupancy in O(1).
     */
    struct Slot {
        Callback fn;
        std::uint32_t gen = 1;
        std::uint32_t next_free = kNullSlot;
        bool live = false;
    };

    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    static std::uint32_t slot_of(EventId id)
    {
        return std::uint32_t(id);
    }
    static std::uint32_t gen_of(EventId id)
    {
        return std::uint32_t(id >> 32);
    }
    static EventId make_id(std::uint32_t slot, std::uint32_t gen)
    {
        return (EventId(gen) << 32) | EventId(slot);
    }

    bool is_live(EventId id) const;
    std::uint32_t acquire_slot(Callback fn);
    Callback release_slot(std::uint32_t slot);
    void prune_dead_top();
    void maybe_compact();

    void fold_dispatch(Time when, int prio, EventTag tag, std::uint64_t seq)
    {
        constexpr std::uint64_t kPrime = 0x100000001b3ULL;
        std::uint64_t h = dispatch_hash_;
        h = (h ^ std::uint64_t(when)) * kPrime;
        h = (h ^ std::uint64_t(std::uint32_t(prio))) * kPrime;
        h = (h ^ std::uint64_t(tag)) * kPrime;
        h = (h ^ seq) * kPrime;
        dispatch_hash_ = h;
    }

    // Min-heap on (when, prio, seq) via the std heap algorithms; a plain
    // vector (rather than std::priority_queue) so compaction can filter
    // dead entries in place.
    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::uint32_t free_head_ = kNullSlot;
    std::size_t heap_dead_ = 0; ///< cancelled entries still in heap_

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t dispatch_hash_ = 0xcbf29ce484222325ULL;
    std::size_t live_count_ = 0;
};

} // namespace dvs

#endif // DVS_SIM_EVENT_QUEUE_H
