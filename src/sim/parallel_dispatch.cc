#include "sim/parallel_dispatch.h"

#include <algorithm>
#include <cassert>
#include <climits>
#include <utility>

#include "sim/logging.h"

namespace dvs {

// ----- intercept hooks (declared in lane.h) ---------------------------

EventId
lane_intercept_schedule(LaneExecContext &ctx, Time when,
                        InlineFunction<void()> fn, int prio)
{
    return ctx.intercept_schedule(when, std::move(fn), prio);
}

bool
lane_intercept_cancel(LaneExecContext &ctx, EventId id)
{
    return ctx.intercept_cancel(id);
}

void
lane_defer_port(LaneExecContext &ctx, InlineFunction<void()> op)
{
    ctx.ports.push_back(std::move(op));
}

// ----- LaneExecContext ------------------------------------------------

void
LaneExecContext::begin_window()
{
    bucket.clear();
    emits.clear();
    log.clear();
    ports.clear();
    deferred_cancels.clear();
    heap_.clear();
    cursor = 0;
    error = nullptr;
}

EventId
LaneExecContext::intercept_schedule(Time when, EventQueue::Callback fn,
                                    int prio)
{
    assert(when >= now && "cannot schedule events in the past");
    const LaneId elane = current_lane();
    const EventId prov = EventQueue::kProvisionalBit |
                         (EventId(lane) << 40) | EventId(prov_counter++);
    const bool inw = in_window(when, prio);
    const std::uint32_t idx = std::uint32_t(emits.size());
    Emit e;
    e.when = when;
    e.prio = prio;
    e.lane = elane;
    e.prov = prov;
    e.fn = std::move(fn);
    e.in_window = inw;
    emits.push_back(std::move(e));
    if (inw && elane == lane) {
        heap_.push_back(Node{when, prio, 1, idx, idx});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    // An in-window emission into another lane (or the shared lane) is a
    // discipline violation; it is detected during barrier replay, where
    // the canonical order makes the report exact.
    return prov;
}

bool
LaneExecContext::intercept_cancel(EventId id)
{
    if (id & EventQueue::kProvisionalBit) {
        // Own emission from this window?
        for (Emit &e : emits) {
            if (e.prov != id)
                continue;
            if (e.dead || e.dispatched)
                return false;
            e.dead = true;
            return true;
        }
        // A deferred emission from an earlier window has a real id by
        // now; resolve and fall through to the real-id path.
        id = queue->translate(id);
        if (id == 0)
            return false;
    }
    // Own bucket event of this window?
    for (BucketEv &b : bucket) {
        if (b.id != id)
            continue;
        if (b.dead || b.dispatched)
            return false;
        b.dead = true;
        return true;
    }
    // An event still in the real heap: it lies at or beyond the window
    // bound, so cancelling it at the barrier (in canonical order) is
    // serial-equivalent. Liveness reads are safe — nothing mutates the
    // slot map during a window.
    if (!queue->is_live(id))
        return false;
    for (EventId seen : deferred_cancels) {
        if (seen == id)
            return false; // second cancel of the same pending event
    }
    deferred_cancels.push_back(id);
    return true;
}

void
LaneExecContext::run_window()
{
    // RAII: route this thread's schedule/cancel/now through this context
    // for the duration of the window.
    struct AmbientGuard {
        lane_detail::Ambient &a;
        lane_detail::Ambient saved;
        explicit AmbientGuard(LaneExecContext *ctx)
            : a(lane_detail::ambient()), saved(a)
        {
            a.lane = ctx->lane;
            a.ctx = ctx;
            a.lane_now = ctx->now;
        }
        ~AmbientGuard() { a = saved; }
    } guard(this);

    // Seed the lane-local order with the bucket (already sorted — heap
    // extraction pops in ascending order — but a heap is cheap and
    // uniform with emission inserts).
    for (std::uint32_t i = 0; i < std::uint32_t(bucket.size()); ++i) {
        heap_.push_back(
            Node{bucket[i].when, bucket[i].prio, 0, bucket[i].seq, i});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }

    try {
        while (!heap_.empty()) {
            const Node n = heap_.front();
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
            heap_.pop_back();

            EventQueue::Callback fn;
            if (n.cls == 0) {
                BucketEv &b = bucket[n.idx];
                if (b.dead)
                    continue;
                b.dispatched = true;
                fn = std::move(b.fn);
            } else {
                Emit &e = emits[n.idx];
                if (e.dead)
                    continue;
                e.dispatched = true;
                fn = std::move(e.fn);
            }
            now = n.when;
            guard.a.lane_now = n.when;

            const std::uint32_t eb = std::uint32_t(emits.size());
            const std::uint32_t pb = std::uint32_t(ports.size());
            fn();
            log.push_back(Rec{n.when, n.prio, n.cls, n.idx, eb,
                              std::uint32_t(emits.size()), pb,
                              std::uint32_t(ports.size())});
        }
    } catch (...) {
        error = std::current_exception();
    }
}

// ----- ParallelDispatcher ---------------------------------------------

ParallelDispatcher::ParallelDispatcher(EventQueue &queue,
                                       SimWorkerPool &pool)
    : q_(queue), pool_(pool)
{
}

LaneExecContext &
ParallelDispatcher::ctx_for(LaneId lane)
{
    auto it = ctx_of_lane_.find(lane);
    if (it == ctx_of_lane_.end()) {
        auto ctx = std::make_unique<LaneExecContext>();
        ctx->lane = lane;
        ctx->queue = &q_;
        ctxs_.push_back(std::move(ctx));
        it = ctx_of_lane_
                 .emplace(lane, std::uint32_t(ctxs_.size() - 1))
                 .first;
    }
    return *ctxs_[it->second];
}

void
ParallelDispatcher::dispatch_top_serial()
{
    const EventQueue::Entry e = q_.heap_.front();
    std::pop_heap(q_.heap_.begin(), q_.heap_.end(), std::greater<>{});
    q_.heap_.pop_back();
    EventQueue::Callback fn = q_.release_slot(EventQueue::slot_of(e.id));
    q_.now_ = e.when;
    --q_.live_count_;
    ++q_.dispatched_;
    q_.fold_dispatch(e.when, e.prio, e.lane, e.seq);
    fn();
}

std::uint64_t
ParallelDispatcher::run_until(Time horizon, bool advance_to_horizon)
{
    std::uint64_t n = 0;
    for (;;) {
        q_.prune_dead_top();
        if (q_.heap_.empty() || q_.heap_.front().when > horizon)
            break;
        if (q_.heap_.front().lane == kSharedLane) {
            dispatch_top_serial();
            ++n;
            continue;
        }

        // ---- extract a window: all lane events up to the next shared
        // event (or the horizon), in heap order ----------------------
        ++epoch_;
        active_.clear();
        Time bound_when = horizon;
        int bound_prio = INT_MAX;
        std::size_t count = 0;
        for (;;) {
            if (q_.heap_.empty())
                break;
            const EventQueue::Entry &t = q_.heap_.front();
            if (!q_.is_live(t.id)) {
                std::pop_heap(q_.heap_.begin(), q_.heap_.end(),
                              std::greater<>{});
                q_.heap_.pop_back();
                --q_.heap_dead_;
                continue;
            }
            if (t.when > horizon)
                break;
            if (t.lane == kSharedLane ||
                (max_window_ && count >= max_window_)) {
                bound_when = t.when;
                bound_prio = t.prio;
                break;
            }
            const EventQueue::Entry e = t;
            std::pop_heap(q_.heap_.begin(), q_.heap_.end(),
                          std::greater<>{});
            q_.heap_.pop_back();
            LaneExecContext &c = ctx_for(e.lane);
            if (c.window_epoch != epoch_) {
                c.window_epoch = epoch_;
                c.begin_window();
                active_.push_back(ctx_of_lane_[e.lane]);
            }
            // The slot stays held (is_live == true) until the barrier;
            // only the callback moves out for lane execution.
            c.bucket.push_back(LaneExecContext::BucketEv{
                e.when, e.prio, e.seq, e.id,
                std::move(q_.slots_[EventQueue::slot_of(e.id)].fn)});
            ++count;
        }
        if (active_.empty())
            continue; // everything at the top was dead

        for (std::uint32_t ci : active_) {
            LaneExecContext &c = *ctxs_[ci];
            c.bound_when = bound_when;
            c.bound_prio = bound_prio;
            c.now = q_.now_;
        }

        // ---- execute lanes concurrently ----------------------------
        ++windows_;
        if (active_.size() == 1) {
            ctxs_[active_[0]]->run_window();
        } else {
            pool_.run(int(active_.size()), [this](int i) {
                ctxs_[active_[std::size_t(i)]]->run_window();
            });
        }
        for (std::uint32_t ci : active_) {
            if (ctxs_[ci]->error)
                std::rethrow_exception(ctxs_[ci]->error);
        }

        // ---- barrier: symbolic serial replay ------------------------
        n += replay_window();
    }
    if (advance_to_horizon && horizon != kTimeMax && q_.now_ < horizon)
        q_.now_ = horizon;
    return n;
}

std::uint64_t
ParallelDispatcher::replay_window()
{
    rheap_.clear();
    for (std::uint32_t ai = 0; ai < std::uint32_t(active_.size()); ++ai) {
        LaneExecContext &c = *ctxs_[active_[ai]];
        c.cursor = 0;
        for (std::uint32_t bi = 0; bi < std::uint32_t(c.bucket.size());
             ++bi) {
            LaneExecContext::BucketEv &b = c.bucket[bi];
            if (b.dead) {
                // Cancelled before its dispatch point; the lane skipped
                // it, the slot is released here.
                q_.release_slot(EventQueue::slot_of(b.id));
                --q_.live_count_;
                continue;
            }
            rheap_.push_back(RNode{b.when, b.prio, b.seq, ai, 0, bi});
        }
    }
    std::make_heap(rheap_.begin(), rheap_.end(), std::greater<>{});

    std::uint64_t counter = q_.next_seq_;
    std::uint64_t fired = 0;
    while (!rheap_.empty()) {
        const RNode rn = rheap_.front();
        std::pop_heap(rheap_.begin(), rheap_.end(), std::greater<>{});
        rheap_.pop_back();

        LaneExecContext &c = *ctxs_[active_[rn.ctx]];
        if (c.cursor >= c.log.size()) {
            fatal("parallel dispatch: lane %u under-dispatched (event at "
                  "t=%lld prio=%d has no log record) — lane discipline "
                  "violation",
                  unsigned(c.lane), (long long)rn.when, rn.prio);
        }
        const LaneExecContext::Rec &r = c.log[c.cursor++];
        if (r.when != rn.when || r.prio != rn.prio ||
            r.is_emission != rn.cls || r.src != rn.idx) {
            fatal("parallel dispatch: lane %u dispatched out of canonical "
                  "order (logged t=%lld prio=%d, canonical t=%lld "
                  "prio=%d) — lane discipline violation",
                  unsigned(c.lane), (long long)r.when, r.prio,
                  (long long)rn.when, rn.prio);
        }

        q_.fold_dispatch(rn.when, rn.prio, c.lane, rn.seq);
        q_.now_ = rn.when;
        ++q_.dispatched_;
        ++fired;
        if (rn.cls == 0) {
            q_.release_slot(
                EventQueue::slot_of(c.bucket[rn.idx].id));
            --q_.live_count_;
        }

        // Emissions of this event, in program order: each consumes the
        // exact sequence number serial dispatch would have assigned.
        for (std::uint32_t ei = r.emit_begin; ei < r.emit_end; ++ei) {
            LaneExecContext::Emit &e = c.emits[ei];
            e.seq = counter++;
            if (e.dead)
                continue; // cancelled in-window; seq consumed, no event
            if (e.in_window) {
                if (e.lane != c.lane) {
                    fatal("parallel dispatch: lane %u emitted an "
                          "in-window event into lane %u at t=%lld — "
                          "cross-lane emission inside a window breaks "
                          "the conservative bound (shared-GPU configs "
                          "must run serial; see DESIGN.md §5g)",
                          unsigned(c.lane), unsigned(e.lane),
                          (long long)e.when);
                }
                rheap_.push_back(
                    RNode{e.when, e.prio, e.seq, rn.ctx, 1, ei});
                std::push_heap(rheap_.begin(), rheap_.end(),
                               std::greater<>{});
            } else {
                const std::uint32_t slot =
                    q_.acquire_slot(std::move(e.fn));
                const EventId id =
                    EventQueue::make_id(slot, q_.slots_[slot].gen);
                q_.heap_.push_back(EventQueue::Entry{e.when, e.prio,
                                                     e.lane, e.seq, id});
                std::push_heap(q_.heap_.begin(), q_.heap_.end(),
                               std::greater<>{});
                ++q_.live_count_;
                q_.prov_to_real_.emplace(e.prov, id);
            }
        }

        // Deferred shared-component side effects, in canonical order.
        for (std::uint32_t pi = r.port_begin; pi < r.port_end; ++pi)
            c.ports[pi]();
    }

    for (std::uint32_t ci : active_) {
        LaneExecContext &c = *ctxs_[ci];
        if (c.cursor != c.log.size()) {
            fatal("parallel dispatch: lane %u over-dispatched (%zu log "
                  "records, %zu replayed) — lane discipline violation",
                  unsigned(c.lane), c.log.size(), c.cursor);
        }
    }
    q_.next_seq_ = counter;

    // Cancels of events beyond the window bound: applying them at the
    // barrier is serial-equivalent (the targets could not have fired).
    for (std::uint32_t ci : active_) {
        for (EventId id : ctxs_[ci]->deferred_cancels)
            q_.cancel(id);
    }
    return fired;
}

} // namespace dvs
