/**
 * @file
 * Allocation counters of the traced benchmark driver.
 *
 * alloc_counter.cc replaces the global operator new/delete and is linked
 * into perfbench_traced only, so the end-to-end driver keeps the stock
 * allocator path.
 */

#ifndef DVS_PERFBENCH_ALLOC_COUNTER_H
#define DVS_PERFBENCH_ALLOC_COUNTER_H

#include <cstdint>

namespace perfbench {

/** Allocation calls and requested bytes counted so far. */
struct AllocCount {
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};

AllocCount alloc_count();

/** Count allocations from now on, or stop; counting starts off. */
void count_allocs(bool on);

} // namespace perfbench

#endif // DVS_PERFBENCH_ALLOC_COUNTER_H
