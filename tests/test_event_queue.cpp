/**
 * @file
 * Unit tests for the deterministic event queue and its inline-storage
 * event callables.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

using namespace dvs;
using namespace dvs::time_literals;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.next_event_time(), kTimeNone);
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickOrderedByPriorityThenSequence)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); }, EventPriority::kPipeline);
    q.schedule(10, [&] { order.push_back(1); }, EventPriority::kDisplay);
    q.schedule(10, [&] { order.push_back(3); }, EventPriority::kPipeline);
    q.schedule(10, [&] { order.push_back(4); }, EventPriority::kMetrics);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, ClockAdvancesOnlyThroughEvents)
{
    EventQueue q;
    Time seen = -1;
    q.schedule(500, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 500);
}

TEST(EventQueue, RunUntilStopsAtHorizon)
{
    EventQueue q;
    int fired = 0;
    q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    q.schedule(30, [&] { ++fired; });
    const auto n = q.run_until(20);
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockToHorizon)
{
    EventQueue q;
    q.schedule(5, [] {});
    q.run_until(100);
    EXPECT_EQ(q.now(), 100);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    std::vector<Time> times;
    std::function<void()> chain = [&] {
        times.push_back(q.now());
        if (times.size() < 5)
            q.schedule_in(10, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(times, (std::vector<Time>{0, 10, 20, 30, 40}));
}

TEST(EventQueue, SameTimeSelfScheduledEventRunsAfterPending)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] {
        order.push_back(1);
        q.schedule(10, [&] { order.push_back(3); });
    });
    q.schedule(10, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue q;
    int fired = 0;
    EventId id = q.schedule(10, [&] { ++fired; });
    q.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsNoop)
{
    EventQueue q;
    EventId id = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(99999));
}

TEST(EventQueue, CancelUpdatesPendingCount)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, DispatchedCounterAccumulates)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i, [] {});
    q.run();
    EXPECT_EQ(q.dispatched(), 7u);
}

TEST(EventQueue, CancelFromCallbackSuppressesSameTickEvent)
{
    EventQueue q;
    std::vector<int> order;
    EventId victim = 0;
    q.schedule(10, [&] {
        order.push_back(1);
        EXPECT_TRUE(q.cancel(victim));
    });
    victim = q.schedule(10, [&] { order.push_back(2); });
    q.schedule(10, [&] { order.push_back(3); });
    q.run();
    // The cancelled same-tick event must not fire even though its heap
    // entry was already pending when the cancelling callback ran.
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, RescheduleAfterCancel)
{
    EventQueue q;
    int fired = 0;
    EventId a = q.schedule(10, [&] { fired += 1; });
    EXPECT_TRUE(q.cancel(a));
    EventId b = q.schedule(10, [&] { fired += 10; });
    EXPECT_NE(a, b);
    q.run();
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(q.dispatched(), 1u);
}

TEST(EventQueue, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue q;
    int fired = 0;
    // Cancel a, then schedule b: with slot recycling b likely reuses a's
    // storage. The stale handle must be rejected by the generation
    // check, not cancel b.
    EventId a = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(a));
    q.schedule(20, [&] { ++fired; });
    EXPECT_FALSE(q.cancel(a));
    q.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextEventTimeSkipsCancelledEarliest)
{
    EventQueue q;
    EventId first = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.next_event_time(), 10);
    q.cancel(first);
    // The cancelled entry must not be reported as the earliest event
    // (the old storage left it on the heap top until dispatch drained
    // it, so horizon-driven callers saw a phantom event at t=10).
    EXPECT_EQ(q.next_event_time(), 20);
}

TEST(EventQueue, NextEventTimeNoneAfterCancellingEverything)
{
    EventQueue q;
    EventId a = q.schedule(10, [] {});
    EventId b = q.schedule(20, [] {});
    q.cancel(b);
    q.cancel(a);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_event_time(), kTimeNone);
}

TEST(EventQueue, CancelHeavyChurnStaysBoundedAndConsistent)
{
    // High schedule/cancel churn: slots recycle, dead heap entries are
    // pruned or compacted away, and bookkeeping stays exact throughout.
    EventQueue q;
    std::uint64_t fired = 0;
    std::vector<EventId> window;
    for (int i = 0; i < 50'000; ++i) {
        window.push_back(
            q.schedule(Time(1 + i % 977), [&] { ++fired; }));
        if (window.size() >= 16) {
            EXPECT_TRUE(q.cancel(window.front()));
            window.erase(window.begin());
        }
    }
    EXPECT_EQ(q.pending(), window.size());
    q.run();
    EXPECT_EQ(fired, window.size());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_event_time(), kTimeNone);
}

namespace {

const EventPriority kAllPrios[] = {
    EventPriority::kDisplay, EventPriority::kVsyncDist,
    EventPriority::kPipeline, EventPriority::kDefault,
    EventPriority::kMetrics};

/** xorshift64: a fixed pseudo-random stream for the model tests. */
std::uint64_t
xorshift(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

} // namespace

TEST(EventQueue, DispatchOrderMatchesStableSortModel)
{
    // Determinism pin for the storage: the queue must dispatch a
    // pseudo-random workload in exactly (time, priority,
    // insertion-sequence) order — the same order a stable sort of the
    // surviving schedule calls produces. Ascending far-future batches
    // (a scenario's up-front segment timeline) land in the sorted run,
    // random near-term schedules in the heap. Cancels hit both, the
    // run's front included, and are numerous enough to compact both.
    struct Scheduled {
        Time when;
        int prio;
        int tag;
        EventId id;
        bool cancelled;
    };

    EventQueue q;
    std::vector<Scheduled> model;
    std::vector<int> fired;
    std::uint64_t rng = 0x2545f4914f6cdd1dULL;
    const auto add = [&](Time when, EventPriority prio) {
        const int tag = int(model.size());
        const EventId id =
            q.schedule(when, [&fired, tag] { fired.push_back(tag); }, prio);
        model.push_back(Scheduled{when, int(prio), tag, id, false});
    };
    const auto cancel = [&](Scheduled &s) {
        EXPECT_TRUE(q.cancel(s.id));
        s.cancelled = true;
        // Compaction keeps dead entries at most as many as the live
        // ones (or at most 64) across both containers, and the run's
        // consumed prefix is never longer than the rest of the run.
        EXPECT_LE(q.stored_entries(),
                  2 * std::max(2 * q.pending(), q.pending() + 64));
    };

    Time batch_at = 1000;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t r = xorshift(rng);
        add(Time(r % 101), kAllPrios[(r >> 32) % 5]);
        if (i % 100 == 0) {
            for (int k = 0; k < 20; ++k) {
                const std::uint64_t b = xorshift(rng);
                batch_at += 1 + Time(b % 40);
                add(batch_at, kAllPrios[(b >> 32) % 5]);
            }
        }
    }

    // The first schedule went to the empty run, so it is the run's front;
    // the first batch entry is the front of the far-future timeline.
    cancel(model[0]);
    cancel(model[1]);
    for (Scheduled &s : model) {
        if (!s.cancelled && xorshift(rng) % 10 != 0)
            cancel(s);
    }

    std::vector<Scheduled> expected;
    for (const Scheduled &s : model) {
        if (!s.cancelled)
            expected.push_back(s);
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         if (a.when != b.when)
                             return a.when < b.when;
                         return a.prio < b.prio;
                     });
    EXPECT_EQ(q.pending(), expected.size());
    EXPECT_EQ(q.next_event_time(), expected.front().when);
    q.run();
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].tag) << "at dispatch index " << i;
}

TEST(EventQueue, InterleavedSchedulingMatchesReferenceOrder)
{
    // Events scheduled and cancelled from callbacks: each fired event
    // schedules near-term work (which lands in the heap), sometimes
    // appends an ascending far-future batch (the run) and sometimes
    // cancels an earlier event. Dispatch order and next_event_time()
    // must match an ordered-set reference of (when, prio, seq) keys.
    using Key = std::tuple<Time, int, std::uint64_t>;
    EventQueue q;
    std::set<Key> model;
    std::vector<std::pair<EventId, Key>> issued;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    std::uint64_t order_errors = 0, next_time_errors = 0;
    Time batch_at = 0;

    std::function<void(Time, EventPriority)> add;
    const auto on_fire = [&](const Key &key) {
        if (model.empty() || *model.begin() != key)
            ++order_errors;
        model.erase(key);
        if (issued.size() < 40'000) {
            const std::uint64_t r = xorshift(rng);
            add(q.now() + Time(r % 50), kAllPrios[(r >> 8) % 5]);
            if (r % 7 == 0)
                add(q.now() + Time((r >> 16) % 50), kAllPrios[r % 5]);
            if (r % 97 == 0) {
                batch_at = std::max(batch_at, q.now() + 50);
                for (int k = 0; k < 30; ++k) {
                    const std::uint64_t b = xorshift(rng);
                    batch_at += 1 + Time(b % 40);
                    add(batch_at, kAllPrios[(b >> 32) % 5]);
                }
            }
            if (r % 5 == 0) {
                const auto &[id, victim] =
                    issued[std::size_t(xorshift(rng) % issued.size())];
                if (q.cancel(id))
                    model.erase(victim);
            }
        }
        const Time expect_next =
            model.empty() ? kTimeNone : std::get<0>(*model.begin());
        if (q.next_event_time() != expect_next)
            ++next_time_errors;
    };
    std::uint64_t seq = 0;
    add = [&](Time when, EventPriority prio) {
        const Key key{when, int(prio), seq++};
        const EventId id =
            q.schedule(when, [&on_fire, key] { on_fire(key); }, prio);
        model.insert(key);
        issued.emplace_back(id, key);
    };
    for (int i = 0; i < 16; ++i)
        add(Time(i), kAllPrios[i % 5]);
    q.run();
    EXPECT_EQ(order_errors, 0u);
    EXPECT_EQ(next_time_errors, 0u);
    EXPECT_TRUE(model.empty());
    EXPECT_TRUE(q.empty());
    EXPECT_GE(issued.size(), 40'000u);
}

TEST(EventQueue, InterleavedChainsKeepRunStorageBounded)
{
    // Two self-rescheduling chains whose next events always order past
    // each other's, so every schedule appends to the sorted run. The
    // run's consumed prefix must be reclaimed as it goes; without that
    // its storage would grow by one entry per event.
    constexpr std::uint64_t kEvents = 1'000'000;
    EventQueue q;
    std::uint64_t fired = 0;
    std::size_t max_stored = 0;
    std::function<void(Time)> tick = [&](Time period) {
        max_stored = std::max(max_stored, q.stored_entries());
        if (++fired < kEvents)
            q.schedule(q.now() + period, [&tick, period] { tick(period); });
    };
    q.schedule(0, [&tick] { tick(10); });
    q.schedule(5, [&tick] { tick(15); });
    q.run();
    EXPECT_EQ(q.dispatched(), kEvents + 1);
    EXPECT_LE(max_stored, 4u);
    EXPECT_EQ(q.stored_entries(), 0u);
}

TEST(EventQueue, CompactionFiltersCancelledRunEntries)
{
    // An ascending timeline lands in the sorted run. Cancelling most of
    // it (never the front, so nothing is pruned) must trigger compaction
    // of the run, not only of the heap.
    EventQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 1000; ++i)
        ids.push_back(q.schedule(Time(10 + i), [] {}));
    for (std::size_t i = 1; i + 10 < ids.size(); ++i)
        EXPECT_TRUE(q.cancel(ids[i]));
    EXPECT_EQ(q.pending(), 11u);
    EXPECT_LE(q.stored_entries(), q.pending() + 64);
    EXPECT_EQ(q.run(), 11u);
    EXPECT_EQ(q.now(), 10 + 999);
}

TEST(EventQueue, NextEventTimeSkipsCancelledRunFront)
{
    EventQueue q;
    // Ascending schedules append to the sorted run; 25 orders before the
    // run's last entry (30), so it goes to the heap.
    const EventId a = q.schedule(10, [] {});
    const EventId b = q.schedule(20, [] {});
    q.schedule(30, [] {});
    const EventId c = q.schedule(25, [] {});
    EXPECT_EQ(q.next_event_time(), 10);
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.next_event_time(), 20);
    EXPECT_TRUE(q.cancel(b));
    EXPECT_EQ(q.next_event_time(), 25);
    EXPECT_TRUE(q.cancel(c));
    EXPECT_EQ(q.next_event_time(), 30);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    Time last = -1;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        const Time when = (i * 7919) % 1000;
        q.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.dispatched(), 5000u);
}

// ----- event callables (InlineFunction) -------------------------------------

namespace {

/**
 * Capture that counts its live instances and calls: every instance
 * constructed (including by move) must be destroyed exactly once, so
 * `alive` returns to zero, never below, once the callable is gone.
 */
struct Probe {
    int *alive;
    int *calls;

    Probe(int *a, int *c) : alive(a), calls(c) { ++*alive; }
    Probe(const Probe &o) : alive(o.alive), calls(o.calls) { ++*alive; }
    Probe(Probe &&o) noexcept : alive(o.alive), calls(o.calls) { ++*alive; }
    ~Probe() { --*alive; }

    void operator()() const { ++*calls; }
};

/** A capture too large for the inline buffer. */
struct BigProbe {
    Probe probe;
    char pad[256] = {};

    void operator()() const { probe(); }
};

} // namespace

TEST(InlineFunction, SmallCapturesAreInlineLargeOnesUseTheHeap)
{
    using Fn = EventQueue::Callback;
    struct ThreePointers {
        void *a, *b, *c;
        void operator()() const {}
    };
    static_assert(Fn::stored_inline<Probe>);
    static_assert(Fn::stored_inline<ThreePointers>);
    static_assert(!Fn::stored_inline<BigProbe>);

    int alive = 0, calls = 0;
    {
        Fn big = BigProbe{Probe(&alive, &calls)};
        EXPECT_EQ(alive, 1);
        Fn moved = std::move(big);
        EXPECT_FALSE(big);
        EXPECT_EQ(alive, 1); // a heap target moves by pointer
        moved();
        EXPECT_EQ(calls, 1);
    }
    EXPECT_EQ(alive, 0);
}

TEST(InlineFunction, EventRunsOnceAndIsDestroyedOnceOnFire)
{
    int alive = 0, calls = 0;
    EventQueue q;
    q.schedule(10, Probe(&alive, &calls));
    q.schedule(20, BigProbe{Probe(&alive, &calls)});
    EXPECT_EQ(alive, 2);
    q.run();
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(alive, 0);
}

TEST(InlineFunction, CancelDestroysTheCallbackOnce)
{
    int alive = 0, calls = 0;
    EventQueue q;
    const EventId small = q.schedule(10, Probe(&alive, &calls));
    const EventId big = q.schedule(10, BigProbe{Probe(&alive, &calls)});
    EXPECT_TRUE(q.cancel(small));
    EXPECT_TRUE(q.cancel(big));
    EXPECT_EQ(alive, 0);
    EXPECT_FALSE(q.cancel(small));
    q.run();
    EXPECT_EQ(calls, 0);
    EXPECT_EQ(alive, 0);
}

TEST(InlineFunction, QueueDestructionDestroysPendingCallbacks)
{
    int alive = 0, calls = 0;
    {
        EventQueue q;
        for (int i = 0; i < 100; ++i) {
            q.schedule(Time(i), Probe(&alive, &calls));
            q.schedule(Time(i), BigProbe{Probe(&alive, &calls)});
        }
        q.run_until(9); // fires 20, leaves 180 pending
        EXPECT_EQ(calls, 20);
        EXPECT_EQ(alive, 180);
    }
    EXPECT_EQ(alive, 0);
    EXPECT_EQ(calls, 20);
}

TEST(InlineFunction, HoldsMoveOnlyCaptures)
{
    EventQueue q;
    auto owned = std::make_unique<int>(41);
    int seen = 0;
    q.schedule(5, [p = std::move(owned), &seen] { seen = ++*p; });
    q.run();
    EXPECT_EQ(seen, 42);

    // Arguments forward to the target; a mutable target keeps its state
    // across calls.
    InlineFunction<int(int)> counter = [n = 0](int step) mutable {
        return n += step;
    };
    EXPECT_EQ(counter(2), 2);
    EXPECT_EQ(counter(3), 5);
    counter = nullptr;
    EXPECT_FALSE(counter);
}
