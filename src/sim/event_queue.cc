#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace dvs {

bool
EventQueue::is_live(EventId id) const
{
    const std::uint32_t slot = slot_of(id);
    return slot < slots_.size() && slots_[slot].live &&
           slots_[slot].gen == gen_of(id);
}

std::uint32_t
EventQueue::acquire_slot(Callback fn)
{
    std::uint32_t slot;
    if (free_head_ != kNullSlot) {
        slot = free_head_;
        free_head_ = slots_[slot].next_free;
    } else {
        slot = std::uint32_t(slots_.size());
        slots_.emplace_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    s.live = true;
    s.next_free = kNullSlot;
    return slot;
}

EventQueue::Callback
EventQueue::release_slot(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    Callback fn = std::move(s.fn);
    s.fn = nullptr;
    s.live = false;
    ++s.gen; // stale EventIds for this slot now fail the generation check
    s.next_free = free_head_;
    free_head_ = slot;
    return fn;
}

bool
EventQueue::run_front_first() const
{
    return run_head_ < run_.size() &&
           (heap_.empty() || heap_.front() > run_[run_head_]);
}

void
EventQueue::pop_run_front()
{
    // The consumed prefix is dropped when the run drains or reaches half
    // the vector, as ExecResource's completion FIFO does: each erase
    // moves no more entries than it frees, so reclamation is amortized
    // O(1) and the run stays O(pending) in memory.
    if (++run_head_ == run_.size()) {
        run_.clear();
        run_head_ = 0;
    } else if (run_head_ * 2 >= run_.size()) {
        run_.erase(run_.begin(), run_.begin() + std::ptrdiff_t(run_head_));
        run_head_ = 0;
    }
}

void
EventQueue::prune_heap_top()
{
    while (!heap_.empty() && !is_live(heap_.front().id)) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        heap_.pop_back();
        --dead_;
    }
}

void
EventQueue::prune_run_front()
{
    while (run_head_ < run_.size() && !is_live(run_[run_head_].id)) {
        pop_run_front();
        --dead_;
    }
}

void
EventQueue::prune_dead_top()
{
    prune_heap_top();
    prune_run_front();
}

void
EventQueue::maybe_compact()
{
    // Cancelled entries buried behind either front are skipped lazily;
    // filter both containers once they outnumber the live ones so a
    // cancel-heavy workload stays O(live) in memory. The comparator is a
    // strict total order (seq is unique), so rebuilding the heap cannot
    // perturb dispatch order, and filtering keeps the run sorted.
    const std::size_t stored = heap_.size() + run_.size() - run_head_;
    if (dead_ <= 64 || dead_ <= stored / 2)
        return;
    const auto dead = [this](const Entry &e) { return !is_live(e.id); };
    std::erase_if(heap_, dead);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});
    run_.erase(run_.begin(), run_.begin() + std::ptrdiff_t(run_head_));
    run_head_ = 0;
    std::erase_if(run_, dead);
    dead_ = 0;
}

EventId
EventQueue::schedule(Time when, Callback fn, EventPriority prio,
                     EventTag tag)
{
    assert(when >= now_ && "cannot schedule events in the past");
    const std::uint32_t slot = acquire_slot(std::move(fn));
    const EventId id = make_id(slot, slots_[slot].gen);
    const Entry e{when, static_cast<int>(prio), tag, next_seq_++, id};
    if (run_.empty() || e > run_.back()) {
        run_.push_back(e);
    } else {
        heap_.push_back(e);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    ++live_count_;
    return id;
}

bool
EventQueue::cancel(EventId id)
{
    if (!is_live(id))
        return false;
    release_slot(slot_of(id));
    --live_count_;
    ++dead_; // its entry is now dead; pruned below or at dispatch
    prune_dead_top();
    maybe_compact();
    return true;
}

Time
EventQueue::next_event_time() const
{
    // Dead entries never rest at either front: cancel() prunes eagerly
    // and run_until() prunes after every pop, before the callback runs.
    if (run_front_first())
        return run_[run_head_].when;
    return heap_.empty() ? kTimeNone : heap_.front().when;
}

std::uint64_t
EventQueue::run_until(Time horizon, bool advance_to_horizon)
{
    std::uint64_t n = 0;
    for (;;) {
        const bool from_run = run_front_first();
        if (!from_run && heap_.empty())
            break;
        const Entry e = from_run ? run_[run_head_] : heap_.front();
        if (e.when > horizon)
            break;
        // Only the popped front can have uncovered a dead entry.
        if (from_run) {
            pop_run_front();
            prune_run_front();
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();
            prune_heap_top();
        }

        Callback fn = release_slot(slot_of(e.id));
        now_ = e.when;
        --live_count_;
        ++dispatched_;
        fold_dispatch(e.when, e.prio, e.tag, e.seq);
        ++n;
        fn();
    }
    if (advance_to_horizon && horizon != kTimeMax && now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dvs
