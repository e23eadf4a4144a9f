/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are executed in (time, priority, insertion-sequence) order, which
 * makes simulations fully reproducible: two events scheduled for the same
 * tick with the same priority run in the order they were scheduled.
 *
 * Complexity guarantees (the simulator's hot path — see DESIGN.md §5b):
 *  - schedule():        O(1) append when the event orders after the far
 *                       run's last entry or after the near run's last
 *                       entry, else an O(n) insert into the near run at
 *                       a place found by scanning from its back (n =
 *                       near entries, usually a few); O(1) callback
 *                       storage
 *  - cancel():          O(pending): a linear scan of both runs, then an
 *                       erase; off the dispatch path (no src/ caller)
 *  - dispatch:          O(1): compare the two fronts, pop the smaller
 *  - next_event_time(): O(1)
 *
 * Pending entries live in two ascending (when, prio, seq) runs and
 * nowhere else: a cancelled entry is erased at once, so there is no
 * liveness bookkeeping. The *far* run takes every entry that orders
 * after its last one: a scenario schedules its whole segment timeline
 * up front, in order, so those far-future boundaries cost O(1) each.
 * Every other entry goes to the *near* run, appended when it orders
 * after the near run's back (the common case: vsync and pipeline chains
 * advance monotonically) and otherwise inserted at its place found from
 * the back. Few entries are pending at once (11.4 per dispatch in
 * perf_sim_core's multi-surface mix), so that insert moves a handful of
 * 24-byte entries; a wide pending set pays O(n) per insert. Dispatch takes the smaller of the two fronts, the
 * same strict total order a single heap gives. Each run reclaims its
 * consumed prefix with an amortized erase once it reaches half the
 * vector, so storage stays O(pending).
 *
 * Callbacks live in a plain vector indexed by slot, with a free list of
 * slot indices, so memory is bounded by the maximum number of
 * concurrently pending events. An EventId is the event's sequence
 * number + 1: nonzero and never reused, so a stale handle is a no-op.
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
 * Handle used to cancel a scheduled event: its sequence number + 1, so
 * never 0 and never reused. A handle goes stale once its event fires or
 * is cancelled; using it afterwards is a no-op.
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
     * Scheduling before now() is a panic in every build type: the event
     * would dispatch out of order.
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
     * Cancel a pending event: its entry is erased and its callback
     * destroyed at once. Cancelling an already-fired, already-cancelled
     * or unknown id is a no-op. O(pending).
     * @return true if the event was pending and is now cancelled.
     */
    bool cancel(EventId id);

    /** Whether any events remain pending. */
    bool empty() const { return pending() == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t
    pending() const
    {
        return near_.size() + far_.size();
    }

    /**
     * Entries held by both runs, counting each run's consumed prefix
     * not yet reclaimed. Stays O(pending), and equals pending() right
     * after a cancel(); tests pin both.
     */
    std::size_t
    stored_entries() const
    {
        return near_.v.size() + far_.v.size();
    }

    /** Time of the earliest pending event, or kTimeNone when empty. */
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
     * Pre-size both runs and the callback storage (data-layout hint for
     * runs with a known pending-event ceiling; avoids growth
     * reallocations on the hot path).
     */
    void
    reserve(std::size_t events)
    {
        near_.v.reserve(events);
        far_.v.reserve(events);
        fns_.reserve(events);
    }

  private:
    static constexpr int kPrioShift = 56;
    static constexpr std::uint64_t kSeqMask =
        (std::uint64_t(1) << kPrioShift) - 1;

    struct Entry {
        Time when;
        std::uint64_t key; ///< prio << kPrioShift | seq
        std::uint32_t slot;
        EventTag tag;

        std::uint64_t seq() const { return key & kSeqMask; }
        int prio() const { return int(key >> kPrioShift); }

        bool
        operator<(const Entry &o) const
        {
            return when < o.when || (when == o.when && key < o.key);
        }
    };
    static_assert(sizeof(Entry) == 24, "slot and tag share one word");

    /**
     * An ascending run of entries; v[head] is its front and the entries
     * before it are consumed, awaiting reclamation.
     */
    struct Run {
        std::vector<Entry> v;
        std::size_t head = 0;

        bool empty() const { return head == v.size(); }
        std::size_t size() const { return v.size() - head; }
        const Entry &front() const { return v[head]; }
        const Entry &back() const { return v.back(); }
        void pop_front();
        void insert(const Entry &e);
        bool erase_seq(std::uint64_t seq, std::uint32_t &slot);
    };

    /** Whether the near run holds the earliest pending entry. */
    bool near_first() const;

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

    // Entries that ordered after every far entry when scheduled.
    Run far_;
    // Every other entry: near-term work, kept ascending by insertion.
    Run near_;
    // Callbacks by slot; free_ lists the slots not holding one.
    std::vector<Callback> fns_;
    std::vector<std::uint32_t> free_;

    Time now_ = 0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t dispatch_hash_ = 0xcbf29ce484222325ULL;
};

} // namespace dvs

#endif // DVS_SIM_EVENT_QUEUE_H
