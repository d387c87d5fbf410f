/**
 * @file
 * Small containers for the IO path's per-transaction state.
 *
 *  - InlineVec<T, N>: a vector whose first N elements live inside the
 *    object. The ONFI sequences the ops emit are short and bounded
 *    (a transaction's instruction list, a C/A writer's latches, a
 *    segment's items, a status byte), so sizing N by the longest one
 *    keeps them off the heap; a longer list spills to one allocation
 *    rather than failing.
 *  - RingQueue<T>: a FIFO over one growable circular buffer. Unlike
 *    std::deque it keeps its storage when it drains, so a queue whose
 *    depth is bounded by in-flight work stops allocating once it has
 *    reached that depth.
 */

#ifndef BABOL_SIM_INLINE_VEC_HH
#define BABOL_SIM_INLINE_VEC_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "logging.hh"

namespace babol {

template <typename T, std::size_t N>
class InlineVec
{
  public:
    using value_type = T;
    using iterator = T *;
    using const_iterator = const T *;

    InlineVec() = default;
    InlineVec(std::initializer_list<T> init)
    {
        append(init.begin(), init.end());
    }
    template <typename It>
    InlineVec(It first, It last)
    {
        append(first, last);
    }
    InlineVec(const InlineVec &other) { append(other.begin(), other.end()); }
    InlineVec(InlineVec &&other) noexcept { takeFrom(other); }

    InlineVec &
    operator=(const InlineVec &other)
    {
        if (this != &other) {
            clear();
            append(other.begin(), other.end());
        }
        return *this;
    }

    InlineVec &
    operator=(InlineVec &&other) noexcept
    {
        if (this != &other) {
            clear();
            freeHeap();
            takeFrom(other);
        }
        return *this;
    }

    ~InlineVec()
    {
        clear();
        freeHeap();
    }

    T *data() { return heap_ ? heap_ : inlineData(); }
    const T *data() const { return heap_ ? heap_ : inlineData(); }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return data(); }
    T *end() { return data() + size_; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }

    T &operator[](std::size_t i) { return data()[i]; }
    const T &operator[](std::size_t i) const { return data()[i]; }

    const T &
    at(std::size_t i) const
    {
        babol_assert(i < size_, "index %zu past the end (%zu)", i,
                     static_cast<std::size_t>(size_));
        return data()[i];
    }

    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }
    T &back() { return data()[size_ - 1]; }
    const T &back() const { return data()[size_ - 1]; }

    template <typename... A>
    T &
    emplace_back(A &&...args)
    {
        if (size_ == cap_)
            grow(cap_ * 2);
        T *p = ::new (static_cast<void *>(data() + size_))
            T(std::forward<A>(args)...);
        ++size_;
        return *p;
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    template <typename It>
    void
    append(It first, It last)
    {
        for (; first != last; ++first)
            emplace_back(*first);
    }

    template <typename It>
    void
    assign(It first, It last)
    {
        clear();
        append(first, last);
    }

    /** Drop every element; spilled storage is kept for reuse. */
    void
    clear()
    {
        std::destroy_n(data(), size_);
        size_ = 0;
    }

  private:
    T *
    inlineData()
    {
        return std::launder(reinterpret_cast<T *>(buf_));
    }
    const T *
    inlineData() const
    {
        return std::launder(reinterpret_cast<const T *>(buf_));
    }

    void
    grow(std::size_t cap)
    {
        T *p = std::allocator<T>().allocate(cap);
        std::uninitialized_move_n(data(), size_, p);
        std::destroy_n(data(), size_);
        freeHeap();
        heap_ = p;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    void
    freeHeap()
    {
        if (heap_)
            std::allocator<T>().deallocate(heap_, cap_);
        heap_ = nullptr;
        cap_ = N;
    }

    void
    takeFrom(InlineVec &other) noexcept
    {
        if (other.heap_) {
            heap_ = std::exchange(other.heap_, nullptr);
            cap_ = std::exchange(other.cap_, static_cast<std::uint32_t>(N));
            size_ = std::exchange(other.size_, 0);
            return;
        }
        std::uninitialized_move_n(other.data(), other.size_, inlineData());
        size_ = other.size_;
        other.clear();
    }

    alignas(T) unsigned char buf_[N * sizeof(T)];
    T *heap_ = nullptr;
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
};

template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    T &front() { return slots_[head_]; }

    /** The @p i-th queued element, 0 being the front. */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }

    void
    push_back(T &&v)
    {
        if (count_ == slots_.size())
            grow();
        slots_[wrap(head_ + count_)] = std::move(v);
        ++count_;
    }

    void
    pop_front()
    {
        slots_[head_] = T();
        head_ = wrap(head_ + 1);
        --count_;
    }

    /** Remove the @p i-th element, keeping the others in order. */
    void
    erase(std::size_t i)
    {
        for (; i + 1 < count_; ++i)
            (*this)[i] = std::move((*this)[i + 1]);
        (*this)[count_ - 1] = T();
        --count_;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i & (slots_.size() - 1);
    }

    void
    grow()
    {
        std::vector<T> bigger(std::max<std::size_t>(4, slots_.size() * 2));
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move((*this)[i]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_; //!< power-of-two sized
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace babol

#endif // BABOL_SIM_INLINE_VEC_HH
