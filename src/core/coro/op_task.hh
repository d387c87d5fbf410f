/**
 * @file
 * The coroutine type BABOL operations are written in.
 *
 * The paper's first software environment encodes flash operations as C++
 * coroutines: linear-looking code that enqueues transactions and
 * relinquishes control at every co_await (§V, Algorithms 1–3). Op<T> is
 * that coroutine type. Operations nest naturally — READ co_awaits
 * READ STATUS in its polling loop — via symmetric transfer, so a nested
 * call costs no scheduler round-trip.
 *
 * Ownership: the Op object owns the coroutine frame. Sub-operations are
 * owned by the temporary in the parent's co_await expression; root
 * operations are owned by whoever keeps the Op (the controller's live
 * table) and must stay alive until the completion hook runs.
 *
 * Frames: an operation whose first parameter carries a FramePool (the
 * ops' OpEnv does) gets its frame from that pool, so the steady-state
 * READ -> poll -> READ STATUS nesting recycles the same few frames
 * instead of allocating three per IO.
 */

#ifndef BABOL_CORE_CORO_OP_TASK_HH
#define BABOL_CORE_CORO_OP_TASK_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"

namespace babol::core {

/**
 * Free lists of coroutine frames, one per 128-byte size class. A frame
 * carries a small header naming the pool it came from (or none), so
 * the promise's operator delete can return it without the operation's
 * parameters. The pool must outlive every frame it hands out; frames
 * of more than 4 KiB bypass it.
 */
class FramePool
{
  public:
    FramePool() = default;
    FramePool(const FramePool &) = delete;
    FramePool &operator=(const FramePool &) = delete;

    ~FramePool()
    {
        for (std::vector<void *> &list : free_)
            for (void *block : list)
                ::operator delete(block);
    }

    /** A frame of @p bytes from this pool. */
    void *allocate(std::size_t bytes) { return allocateFrom(this, bytes); }

    /** A frame of @p bytes straight from the heap (no pool at hand). */
    static void *
    allocateUnpooled(std::size_t bytes)
    {
        return allocateFrom(nullptr, bytes);
    }

    /** Return a frame from allocate() or allocateUnpooled(). */
    static void
    release(void *frame)
    {
        void *block = static_cast<std::byte *>(frame) - kHeader;
        Header *h = static_cast<Header *>(block);
        if (h->pool)
            h->pool->free_[h->sizeClass].push_back(block);
        else
            ::operator delete(block);
    }

  private:
    struct Header
    {
        FramePool *pool;
        std::size_t sizeClass;
    };
    static constexpr std::size_t kHeader = alignof(std::max_align_t);
    static_assert(sizeof(Header) <= kHeader);
    static constexpr std::size_t kGranule = 128;
    static constexpr std::size_t kClasses = 32;

    static void *
    allocateFrom(FramePool *pool, std::size_t bytes)
    {
        const std::size_t cls = (bytes + kHeader + kGranule - 1) / kGranule;
        void *block;
        if (!pool || cls >= kClasses) {
            pool = nullptr;
            block = ::operator new(bytes + kHeader);
        } else if (!pool->free_[cls].empty()) {
            block = pool->free_[cls].back();
            pool->free_[cls].pop_back();
        } else {
            block = ::operator new(cls * kGranule);
        }
        ::new (block) Header{pool, cls};
        return static_cast<std::byte *>(block) + kHeader;
    }

    std::vector<void *> free_[kClasses];
};

template <typename T>
class [[nodiscard]] Op
{
  public:
    struct promise_type;
    using Handle = std::coroutine_handle<promise_type>;

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        std::coroutine_handle<>
        await_suspend(Handle h) noexcept
        {
            promise_type &p = h.promise();
            if (p.onDone)
                p.onDone(); // must not destroy the frame synchronously
            if (p.continuation)
                return p.continuation;
            return std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    struct promise_type
    {
        T value{};
        std::exception_ptr error;
        std::coroutine_handle<> continuation;
        InlineFunction<void()> onDone;

        /** Frames of operations whose first parameter has a FramePool
         *  member named `frames` come from that pool. */
        template <typename Env, typename... Rest>
            requires requires(Env &env) { env.frames.allocate(0); }
        static void *
        operator new(std::size_t bytes, Env &env, Rest &...)
        {
            return env.frames.allocate(bytes);
        }

        static void *
        operator new(std::size_t bytes)
        {
            return FramePool::allocateUnpooled(bytes);
        }

        static void
        operator delete(void *frame)
        {
            FramePool::release(frame);
        }

        Op
        get_return_object()
        {
            return Op(Handle::from_promise(*this));
        }

        std::suspend_always initial_suspend() noexcept { return {}; }
        FinalAwaiter final_suspend() noexcept { return {}; }

        void return_value(T v) { value = std::move(v); }

        void unhandled_exception() { error = std::current_exception(); }
    };

    Op() = default;
    explicit Op(Handle h) : h_(h) {}
    Op(Op &&other) noexcept : h_(std::exchange(other.h_, {})) {}
    Op &
    operator=(Op &&other) noexcept
    {
        if (this != &other) {
            if (h_)
                h_.destroy();
            h_ = std::exchange(other.h_, {});
        }
        return *this;
    }
    Op(const Op &) = delete;
    Op &operator=(const Op &) = delete;

    ~Op()
    {
        if (h_)
            h_.destroy();
    }

    Handle handle() const { return h_; }
    bool done() const { return h_ && h_.done(); }

    /** Result after completion (root-op accessor). */
    T &
    result()
    {
        if (h_.promise().error)
            std::rethrow_exception(h_.promise().error);
        return h_.promise().value;
    }

    /** Completion hook for root operations. */
    void
    setOnDone(InlineFunction<void()> fn)
    {
        h_.promise().onDone = std::move(fn);
    }

    /** Stashed exception, if the operation body threw. */
    std::exception_ptr error() const { return h_.promise().error; }

    /** Awaiting an Op runs it as a nested operation. */
    struct NestedAwaiter
    {
        Handle h;

        bool await_ready() const noexcept { return h.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> parent) noexcept
        {
            h.promise().continuation = parent;
            return h; // symmetric transfer: start the sub-operation
        }

        T
        await_resume()
        {
            if (h.promise().error)
                std::rethrow_exception(h.promise().error);
            return std::move(h.promise().value);
        }
    };

    NestedAwaiter operator co_await() && noexcept
    {
        return NestedAwaiter{h_};
    }

  private:
    Handle h_;
};

} // namespace babol::core

#endif // BABOL_CORE_CORO_OP_TASK_HH
