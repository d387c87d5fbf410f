/**
 * @file
 * Small-buffer-optimized callables for the simulator's hot paths.
 *
 * Almost every callback in the simulator captures a couple of pointers
 * and a few scalars, so the common case fits in a fixed inline buffer
 * and never touches the heap; oversized captures fall back to a single
 * allocation. Two forms share one implementation:
 *
 *  - InlineFunction<R(Args...)>: a move-only std::function replacement
 *    for callbacks that travel by value (bus completions, transaction
 *    completions, CPU work items, LUN array-op completions).
 *  - InlineCallback: the event kernel's slot. Records live at stable
 *    addresses inside the pool and are recycled in place, so the slot
 *    supports neither copy nor move — only emplace / invoke / reset.
 */

#ifndef BABOL_SIM_INLINE_CALLBACK_HH
#define BABOL_SIM_INLINE_CALLBACK_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace babol {

template <typename Sig, std::size_t Bytes = 48>
class InlineFunction;

namespace detail {
template <typename T>
struct IsStdFunction : std::false_type
{};
template <typename S>
struct IsStdFunction<std::function<S>> : std::true_type
{};
} // namespace detail

template <typename R, typename... Args, std::size_t Bytes>
class InlineFunction<R(Args...), Bytes>
{
  public:
    static constexpr std::size_t kInlineBytes = Bytes;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFunction(InlineFunction &&other) noexcept { takeFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            takeFrom(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    /**
     * Install @p fn. @return true when the callable was stored inline
     * (no heap allocation).
     */
    template <typename F>
    bool
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, Fn &, Args...>,
                      "callable does not match the slot's signature");
        reset();
        if constexpr (detail::IsStdFunction<Fn>::value ||
                      std::is_pointer_v<Fn>) {
            if (!fn)
                return true; // an empty callable leaves the slot empty
        }
        if constexpr (sizeof(Fn) <= Bytes &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(fn));
            invoke_ = [](void *p, Args &&...args) -> R {
                return (*static_cast<Fn *>(p))(std::forward<Args>(args)...);
            };
            manage_ = [](void *dst, void *src) {
                Fn *f = static_cast<Fn *>(src);
                if (dst)
                    ::new (dst) Fn(std::move(*f));
                f->~Fn();
            };
            return true;
        } else {
            ::new (static_cast<void *>(buf_))
                Fn *(new Fn(std::forward<F>(fn)));
            invoke_ = [](void *p, Args &&...args) -> R {
                return (**static_cast<Fn **>(p))(
                    std::forward<Args>(args)...);
            };
            manage_ = [](void *dst, void *src) {
                Fn **f = static_cast<Fn **>(src);
                if (dst)
                    ::new (dst) Fn *(*f);
                else
                    delete *f;
            };
            outlined_ = true;
            return false;
        }
    }

    /** Destroy the stored callable (no-op when empty). */
    void
    reset()
    {
        if (manage_)
            manage_(nullptr, buf_);
        invoke_ = nullptr;
        manage_ = nullptr;
        outlined_ = false;
    }

    explicit operator bool() const { return invoke_ != nullptr; }
    bool engaged() const { return invoke_ != nullptr; }
    bool outlined() const { return outlined_; }

    R
    operator()(Args... args) const
    {
        return invoke_(const_cast<unsigned char *>(buf_),
                       std::forward<Args>(args)...);
    }

  private:
    void
    takeFrom(InlineFunction &other) noexcept
    {
        if (!other.manage_)
            return;
        other.manage_(buf_, other.buf_);
        invoke_ = other.invoke_;
        manage_ = other.manage_;
        outlined_ = other.outlined_;
        other.invoke_ = nullptr;
        other.manage_ = nullptr;
        other.outlined_ = false;
    }

    alignas(std::max_align_t) unsigned char buf_[Bytes];
    R (*invoke_)(void *, Args &&...) = nullptr;
    /** Move the callable from src to dst (dst null: destroy src). */
    void (*manage_)(void *dst, void *src) = nullptr;
    bool outlined_ = false;
};

/**
 * The event kernel's callback slot. Sized so the largest hot-path
 * event capture in the tree still lands inline.
 */
class InlineCallback : public InlineFunction<void(), 48>
{
  public:
    InlineCallback() = default;
    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;
};

} // namespace babol

#endif // BABOL_SIM_INLINE_CALLBACK_HH
