// Counting replacement of every global operator new/delete form. Counts
// are relaxed atomics: the benchmark is single-threaded, but the library
// may start worker threads and the counter must stay race-free.

#include "alloc_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_calls{0};
std::atomic<std::uint64_t> g_bytes{0};

void *
counted_alloc(std::size_t size, std::size_t align = 0)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_calls.fetch_add(1, std::memory_order_relaxed);
        g_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align > alignof(std::max_align_t)) {
        // aligned_alloc requires a size that is a multiple of align.
        p = std::aligned_alloc(align, (size + align - 1) / align * align);
    } else {
        p = std::malloc(size);
    }
    return p;
}

void *
counted_alloc_or_throw(std::size_t size, std::size_t align = 0)
{
    void *p = counted_alloc(size, align);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

namespace perfbench {

AllocCount
alloc_count()
{
    return {g_calls.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

void
count_allocs(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

} // namespace perfbench

void *operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void *operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return counted_alloc_or_throw(n, std::size_t(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return counted_alloc_or_throw(n, std::size_t(a));
}
void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc(n);
}
void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return counted_alloc(n);
}
void *
operator new(std::size_t n, std::align_val_t a,
             const std::nothrow_t &) noexcept
{
    return counted_alloc(n, std::size_t(a));
}
void *
operator new[](std::size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return counted_alloc(n, std::size_t(a));
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
