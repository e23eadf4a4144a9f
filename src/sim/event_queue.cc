#include "sim/event_queue.h"

#include <utility>

#include "sim/logging.h"

namespace dvs {

void
EventQueue::Run::pop_front()
{
    // The consumed prefix is dropped when the run drains or reaches half
    // the vector, as ExecResource's completion FIFO does: each erase
    // moves no more entries than it frees, so reclamation is amortized
    // O(1) and the run stays O(pending) in memory.
    if (++head == v.size()) {
        v.clear();
        head = 0;
    } else if (head * 2 >= v.size()) {
        v.erase(v.begin(), v.begin() + std::ptrdiff_t(head));
        head = 0;
    }
}

void
EventQueue::Run::insert(const Entry &e)
{
    // Near-term chains mostly advance monotonically, so the scan from
    // the back is usually empty. It stops at the front: a new entry may
    // order before a consumed one (same tick, lower priority).
    auto at = v.end();
    const auto first = v.begin() + std::ptrdiff_t(head);
    while (at != first && e < at[-1])
        --at;
    v.insert(at, e);
}

bool
EventQueue::Run::erase_seq(std::uint64_t seq, std::uint32_t &slot)
{
    // Reclaim the consumed prefix first: cancel() is O(pending) anyway,
    // and it leaves the run storing exactly its pending entries.
    v.erase(v.begin(), v.begin() + std::ptrdiff_t(head));
    head = 0;
    for (auto it = v.begin(); it != v.end(); ++it) {
        if (it->seq() == seq) {
            slot = it->slot;
            v.erase(it);
            return true;
        }
    }
    return false;
}

EventId
EventQueue::schedule(Time when, Callback fn, EventPriority prio,
                     EventTag tag)
{
    if (when < now_) {
        panic("event scheduled in the past: t=%lld before now=%lld",
              (long long)when, (long long)now_);
    }
    std::uint32_t slot;
    if (free_.empty()) {
        slot = std::uint32_t(fns_.size());
        fns_.push_back(std::move(fn));
    } else {
        slot = free_.back();
        free_.pop_back();
        fns_[slot] = std::move(fn);
    }
    const std::uint64_t seq = next_seq_++;
    const Entry e{when,
                  std::uint64_t(prio) << kPrioShift | seq, slot, tag};
    if (far_.v.empty() || far_.back() < e)
        far_.v.push_back(e);
    else if (near_.v.empty() || near_.back() < e)
        near_.v.push_back(e);
    else
        near_.insert(e);
    return seq + 1;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == 0 || id > next_seq_)
        return false;
    // Both runs are searched (`|`, not `||`), so both drop their
    // consumed prefix and storage equals pending() afterwards.
    std::uint32_t slot;
    if (!(near_.erase_seq(id - 1, slot) | far_.erase_seq(id - 1, slot)))
        return false;
    fns_[slot] = nullptr;
    free_.push_back(slot);
    return true;
}

bool
EventQueue::near_first() const
{
    return !near_.empty() &&
           (far_.empty() || near_.front() < far_.front());
}

Time
EventQueue::next_event_time() const
{
    if (near_first())
        return near_.front().when;
    return far_.empty() ? kTimeNone : far_.front().when;
}

std::uint64_t
EventQueue::run_until(Time horizon, bool advance_to_horizon)
{
    std::uint64_t n = 0;
    for (;;) {
        Run &from = near_first() ? near_ : far_;
        if (from.empty())
            break;
        const Entry e = from.front();
        if (e.when > horizon)
            break;
        from.pop_front();

        Callback fn = std::move(fns_[e.slot]);
        free_.push_back(e.slot);
        now_ = e.when;
        ++dispatched_;
        fold_dispatch(e.when, e.prio(), e.tag, e.seq());
        ++n;
        fn();
    }
    if (advance_to_horizon && horizon != kTimeMax && now_ < horizon)
        now_ = horizon;
    return n;
}

} // namespace dvs
