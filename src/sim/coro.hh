/**
 * @file
 * Lazy coroutine type used to describe simulated processes.
 *
 * Coro<T> is a lazily-started coroutine that produces a value of type
 * T. Simulated behaviours are written as ordinary C++ functions that
 * return Coro<> and co_await kernel awaitables (delays, channel
 * operations, resource grants). Sub-behaviours compose by awaiting
 * other Coro<> values with symmetric transfer, so arbitrarily deep
 * call chains cost no native stack.
 *
 * Ownership: the Coro object owns the coroutine frame. Awaiting a
 * Coro (`co_await makeChild()`) keeps the temporary alive in the
 * awaiting frame for the duration of the child. Top-level coroutines
 * are owned by the Simulator: a spawned one by its Process, a
 * detached one by the Simulator itself until it finishes (see
 * simulator.hh).
 */

#ifndef HOWSIM_SIM_CORO_HH
#define HOWSIM_SIM_CORO_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/arena.hh"
#include "sim/logging.hh"

namespace howsim::sim
{

template <typename T = void>
class Coro;

/**
 * What a top-level coroutine (one no parent awaits) calls when its
 * body finishes. Process implements it, and so does each of the
 * Simulator's detached-coroutine slots, whose onFinish() destroys
 * the frame; nothing may touch the frame after the call.
 */
class FinishHook
{
  public:
    virtual void onFinish() noexcept = 0;

  protected:
    ~FinishHook() = default;
};

namespace detail
{

/** State and hooks shared by all Coro promise types. */
struct PromiseBase
{
    /**
     * Coroutine frames come from the thread's installed Arena (the
     * owning Simulator's) and fall back to ::operator new when none
     * is installed. The header written by the arena makes the delete
     * self-routing, so a frame may safely outlive the arena handle.
     */
    static void *
    operator new(std::size_t bytes)
    {
        return Arena::allocateGlobal(bytes);
    }

    static void
    operator delete(void *p) noexcept
    {
        Arena::release(p);
    }

    static void
    operator delete(void *p, std::size_t) noexcept
    {
        Arena::release(p);
    }

    /** Coroutine to resume when this one finishes (symmetric xfer). */
    std::coroutine_handle<> continuation;

    /** Finish hook for top-level coroutines (no continuation). */
    FinishHook *onDone = nullptr;

    /** Captured exception, rethrown at the awaiter. */
    std::exception_ptr exception;

    std::suspend_always initial_suspend() noexcept { return {}; }

    void unhandled_exception() { exception = std::current_exception(); }

    struct FinalAwaiter
    {
        bool await_ready() noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) noexcept
        {
            PromiseBase &p = h.promise();
            if (p.continuation)
                return p.continuation;
            // A detached coroutine's hook destroys this frame: touch
            // nothing of it after the call.
            if (p.onDone)
                p.onDone->onFinish();
            return std::noop_coroutine();
        }

        void await_resume() noexcept {}
    };

    FinalAwaiter final_suspend() noexcept { return {}; }
};

template <typename T>
struct Promise : PromiseBase
{
    T value{};

    Coro<T> get_return_object();

    void
    return_value(T v)
    {
        value = std::move(v);
    }
};

template <>
struct Promise<void> : PromiseBase
{
    Coro<void> get_return_object();

    void return_void() {}
};

} // namespace detail

/**
 * A lazily-started coroutine producing a T. See the file comment for
 * the composition and ownership rules.
 */
template <typename T>
class Coro
{
  public:
    using promise_type = detail::Promise<T>;
    using Handle = std::coroutine_handle<promise_type>;

    Coro() = default;

    explicit Coro(Handle h) : handle(h) {}

    Coro(Coro &&other) noexcept
        : handle(std::exchange(other.handle, nullptr))
    {}

    Coro &
    operator=(Coro &&other) noexcept
    {
        if (this != &other) {
            destroy();
            handle = std::exchange(other.handle, nullptr);
        }
        return *this;
    }

    Coro(const Coro &) = delete;
    Coro &operator=(const Coro &) = delete;

    ~Coro() { destroy(); }

    /** True when this object refers to a live coroutine. */
    bool valid() const { return handle != nullptr; }

    /** True once the coroutine has run to completion. */
    bool done() const { return !handle || handle.done(); }

    /** Access the promise (kernel internals only). */
    promise_type &promise() const { return handle.promise(); }

    /**
     * Release ownership of the frame to the caller (kernel internals
     * only; the Simulator takes detached coroutines this way).
     */
    Handle release() { return std::exchange(handle, nullptr); }

    /** Awaiter implementing child-coroutine composition. */
    struct Awaiter
    {
        Handle h;

        bool await_ready() const noexcept { return !h || h.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> cont) noexcept
        {
            h.promise().continuation = cont;
            return h;
        }

        T
        await_resume()
        {
            if (h.promise().exception)
                std::rethrow_exception(h.promise().exception);
            if constexpr (!std::is_void_v<T>)
                return std::move(h.promise().value);
        }
    };

    /**
     * Await this coroutine: starts it, suspends the parent until it
     * completes, and yields its result (or rethrows its exception).
     */
    Awaiter operator co_await() const noexcept { return Awaiter{handle}; }

  private:
    void
    destroy()
    {
        if (handle) {
            handle.destroy();
            handle = nullptr;
        }
    }

    Handle handle = nullptr;
};

namespace detail
{

template <typename T>
Coro<T>
Promise<T>::get_return_object()
{
    return Coro<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Coro<void>
Promise<void>::get_return_object()
{
    return Coro<void>(
        std::coroutine_handle<Promise<void>>::from_promise(*this));
}

} // namespace detail

} // namespace howsim::sim

#endif // HOWSIM_SIM_CORO_HH
