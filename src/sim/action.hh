/**
 * @file
 * Move-only type-erased callable with small-buffer optimization.
 *
 * InlineAction is the payload of a closure event: an arbitrary
 * callable, where the hot events (coroutine resumes, bus and network
 * steps) travel as one EventWord (event_queue.hh). The callable keeps
 * a 48-byte inline buffer and only falls back to the heap for
 * captures that are larger (or whose move constructor may throw), so
 * scheduling a small closure performs zero heap allocations.
 *
 * Relocation is a plain memcpy for trivially copyable captures — raw
 * pointers, small PODs — and a type-erased move-construct + destroy
 * for everything else.
 */

#ifndef HOWSIM_SIM_ACTION_HH
#define HOWSIM_SIM_ACTION_HH

#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/arena.hh"

namespace howsim::sim
{

/**
 * True for any std::coroutine_handle. A handle is not a closure: it
 * travels as an EventWord, so InlineAction refuses to wrap one.
 */
template <typename F>
inline constexpr bool isCoroutineHandle = false;

template <typename P>
inline constexpr bool isCoroutineHandle<std::coroutine_handle<P>> = true;

/** Move-only void() callable; see the file comment for the layout. */
class InlineAction
{
  public:
    /** Captures up to this size (and max_align_t alignment) stay inline. */
    static constexpr std::size_t inlineSize = 48;

    InlineAction() noexcept = default;

    template <typename F>
        requires(!std::is_same_v<std::decay_t<F>, InlineAction>
                 && !isCoroutineHandle<std::decay_t<F>>
                 && std::is_invocable_r_v<void, std::decay_t<F> &>)
    InlineAction(F &&f)
    {
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(f));
            ops = &inlineOpsFor<D>;
        } else {
            // Oversized captures live in the thread's arena (when
            // installed) so even the fallback stays off malloc.
            void *mem = Arena::allocateGlobal(sizeof(D));
            D *obj;
            try {
                obj = ::new (mem) D(std::forward<F>(f));
            } catch (...) {
                Arena::release(mem);
                throw;
            }
            ::new (static_cast<void *>(storage))(D *)(obj);
            ops = &heapOpsFor<D>;
        }
    }

    InlineAction(InlineAction &&other) noexcept
        : ops(std::exchange(other.ops, nullptr))
    {
        if (ops)
            relocateFrom(other);
    }

    InlineAction &
    operator=(InlineAction &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops = std::exchange(other.ops, nullptr);
            if (ops)
                relocateFrom(other);
        }
        return *this;
    }

    InlineAction(const InlineAction &) = delete;
    InlineAction &operator=(const InlineAction &) = delete;

    ~InlineAction() { reset(); }

    /** True when a callable is stored. */
    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Invoke the stored callable. @pre bool(*this). */
    void operator()() { ops->invoke(storage); }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        /**
         * Move-construct from src into dst and destroy src; null when
         * a memcpy of the buffer relocates correctly.
         */
        void (*relocate)(void *src, void *dst) noexcept;
        /** Null when the capture is trivially destructible. */
        void (*destroy)(void *) noexcept;
    };

    template <typename F>
    static constexpr bool fitsInline
        = sizeof(F) <= inlineSize && alignof(F) <= alignof(std::max_align_t)
          && std::is_nothrow_move_constructible_v<F>;

    template <typename F>
    static constexpr bool memcpyRelocatable
        = std::is_trivially_copyable_v<F>
          && std::is_trivially_destructible_v<F>;

    template <typename F>
    static void
    invokeInline(void *s)
    {
        (*std::launder(static_cast<F *>(s)))();
    }

    template <typename F>
    static void
    relocateInline(void *src, void *dst) noexcept
    {
        F *from = std::launder(static_cast<F *>(src));
        ::new (dst) F(std::move(*from));
        from->~F();
    }

    template <typename F>
    static void
    destroyInline(void *s) noexcept
    {
        std::launder(static_cast<F *>(s))->~F();
    }

    template <typename F>
    static void
    invokeHeap(void *s)
    {
        (**std::launder(static_cast<F **>(s)))();
    }

    template <typename F>
    static void
    destroyHeap(void *s) noexcept
    {
        F *obj = *std::launder(static_cast<F **>(s));
        obj->~F();
        Arena::release(obj);
    }

    template <typename F>
    static constexpr Ops inlineOpsFor{
        &invokeInline<F>,
        memcpyRelocatable<F> ? nullptr : &relocateInline<F>,
        std::is_trivially_destructible_v<F> ? nullptr : &destroyInline<F>,
    };

    // The heap representation is a single pointer: memcpy-relocatable.
    template <typename F>
    static constexpr Ops heapOpsFor{
        &invokeHeap<F>,
        nullptr,
        &destroyHeap<F>,
    };

    void
    relocateFrom(InlineAction &other) noexcept
    {
        if (ops->relocate)
            ops->relocate(other.storage, storage);
        else
            std::memcpy(storage, other.storage, inlineSize);
    }

    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    alignas(std::max_align_t) unsigned char storage[inlineSize];
    const Ops *ops = nullptr;
};

} // namespace howsim::sim

#endif // HOWSIM_SIM_ACTION_HH
