/**
 * @file
 * Move-only type-erased callable with inline (small-buffer) storage.
 *
 * The event queue stores one callable per pending event, so the storage
 * strategy of that callable is on the simulator's hot path. A callable
 * whose captures fit in `Cap` bytes (and are nothrow-movable) lives
 * inside the InlineFunction itself; larger captures fall back to one
 * heap allocation, so every call site compiles regardless of size.
 * Unlike std::function the wrapper is move-only: it never needs its
 * target to be copyable, and moving it never allocates.
 */

#ifndef DVS_SIM_INLINE_FUNCTION_H
#define DVS_SIM_INLINE_FUNCTION_H

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace dvs {

template <class Sig, std::size_t Cap = 48>
class InlineFunction;

template <class R, class... Args, std::size_t Cap>
class InlineFunction<R(Args...), Cap>
{
    static constexpr std::size_t kAlign = alignof(void *);

  public:
    InlineFunction() noexcept = default;
    InlineFunction(std::nullptr_t) noexcept {}

    template <class F, class D = std::decay_t<F>,
              class = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFunction(F &&f)
    {
        if constexpr (stored_inline<D>) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
            ops_ = &kInlineOps<D>;
        } else {
            D *heap = new D(std::forward<F>(f));
            ::new (static_cast<void *>(buf_)) D *(heap);
            ops_ = &kHeapOps<D>;
        }
    }

    InlineFunction(InlineFunction &&o) noexcept { take(o); }

    InlineFunction &
    operator=(InlineFunction &&o) noexcept
    {
        if (this != &o) {
            reset();
            take(o);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** Invoke the target. @pre *this holds a target. */
    R
    operator()(Args... args) const
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

    /** Whether a callable of type @p F is stored without allocating. */
    template <class F>
    static constexpr bool stored_inline =
        sizeof(F) <= Cap && alignof(F) <= kAlign &&
        std::is_nothrow_move_constructible_v<F>;

  private:
    struct Ops {
        R (*invoke)(void *buf, Args &&...args);
        /** Move the target from @p src into @p dst and end @p src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *buf) noexcept;
    };

    template <class D>
    static D &
    inline_target(void *buf)
    {
        return *std::launder(static_cast<D *>(buf));
    }

    template <class D>
    static D &
    heap_target(void *buf)
    {
        return **std::launder(static_cast<D **>(buf));
    }

    template <class D>
    static constexpr Ops kInlineOps = {
        [](void *buf, Args &&...args) -> R {
            return std::invoke(inline_target<D>(buf),
                               std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            D &from = inline_target<D>(src);
            ::new (dst) D(std::move(from));
            from.~D();
        },
        [](void *buf) noexcept { inline_target<D>(buf).~D(); },
    };

    template <class D>
    static constexpr Ops kHeapOps = {
        [](void *buf, Args &&...args) -> R {
            return std::invoke(heap_target<D>(buf),
                               std::forward<Args>(args)...);
        },
        [](void *dst, void *src) noexcept {
            ::new (dst) D *(&heap_target<D>(src));
        },
        [](void *buf) noexcept { delete &heap_target<D>(buf); },
    };

    void
    take(InlineFunction &o) noexcept
    {
        if (o.ops_) {
            o.ops_->relocate(buf_, o.buf_);
            ops_ = o.ops_;
            o.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (ops_) {
            const Ops *ops = ops_;
            ops_ = nullptr;
            ops->destroy(buf_);
        }
    }

    // Mutable: a const InlineFunction still calls its (possibly
    // stateful) target, as std::function does.
    alignas(kAlign) mutable unsigned char buf_[Cap];
    const Ops *ops_ = nullptr;
};

} // namespace dvs

#endif // DVS_SIM_INLINE_FUNCTION_H
