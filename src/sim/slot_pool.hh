/**
 * @file
 * SlotPool: values parked across an asynchronous hop; InPlaceSlot:
 * one polymorphic object at a time, constructed in reused storage.
 *
 * A component that must hold a value until a later event (a submitted
 * transaction until its segment completes, a segment's completion
 * waiting for the bus) parks it in a slot and lets the events and
 * queues carry only the slot's small handle, so an event's callback
 * stays on the kernel's inline path and the value is moved once.
 * Freed slots are reused, so the pool grows to the most values ever
 * parked at once (bounded by in-flight work) and then stops
 * allocating. Handles carry the slot's generation, as the event
 * kernel's do: taking a stale handle is caught instead of silently
 * handing out another value.
 */

#ifndef BABOL_SIM_SLOT_POOL_HH
#define BABOL_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "logging.hh"

namespace babol {

template <typename T>
class SlotPool
{
  public:
    struct Handle
    {
        std::uint32_t index = 0;
        std::uint32_t gen = 0;
    };

    SlotPool() = default;
    SlotPool(const SlotPool &) = delete;
    SlotPool &operator=(const SlotPool &) = delete;
    ~SlotPool()
    {
        for (Slot &s : slots_)
            if (s.live)
                std::destroy_at(s.ptr());
    }

    /** Move @p value into a free slot (its one move into the pool). */
    Handle
    park(T &&value)
    {
        std::uint32_t i;
        if (free_.empty()) {
            i = static_cast<std::uint32_t>(slots_.size());
            slots_.emplace_back();
        } else {
            i = free_.back();
            free_.pop_back();
        }
        Slot &s = slots_[i];
        ::new (static_cast<void *>(s.bytes)) T(std::move(value));
        s.live = true;
        return {i, s.gen};
    }

    /** The value in @p h's slot. Slots never move, so the reference
     *  stays valid until the slot is released. */
    T &get(Handle h) { return *slot(h).ptr(); }

    /** Destroy the value in @p h's slot and free the slot. */
    void
    release(Handle h)
    {
        Slot &s = slot(h);
        std::destroy_at(s.ptr());
        s.live = false;
        ++s.gen;
        free_.push_back(h.index);
    }

    /** Move the value out of @p h's slot and free the slot. */
    T
    take(Handle h)
    {
        T value = std::move(get(h));
        release(h);
        return value;
    }

    /** Values parked now. */
    std::size_t live() const { return slots_.size() - free_.size(); }

  private:
    struct Slot
    {
        alignas(T) unsigned char bytes[sizeof(T)];
        std::uint32_t gen = 0;
        bool live = false;

        T *ptr() { return std::launder(reinterpret_cast<T *>(bytes)); }
    };

    Slot &
    slot(Handle h)
    {
        babol_assert(h.index < slots_.size() && slots_[h.index].live &&
                         slots_[h.index].gen == h.gen,
                     "stale slot-pool handle %u/%u", h.index, h.gen);
        return slots_[h.index];
    }

    std::deque<Slot> slots_; //!< a deque, so growing never moves a slot
    std::vector<std::uint32_t> free_;
};

/**
 * Storage for one polymorphic object at a time, reused in place. A
 * controller keeps one per chip for the operation running on it (a chip
 * runs one op at a time), sized once for the largest op class, so
 * starting an op constructs it without allocating.
 */
template <typename Base>
class InPlaceSlot
{
  public:
    explicit InPlaceSlot(std::size_t bytes)
        : buf_(std::make_unique<std::max_align_t[]>(
              (bytes + sizeof(std::max_align_t) - 1) /
              sizeof(std::max_align_t))),
          bytes_(bytes)
    {}
    InPlaceSlot(InPlaceSlot &&other) noexcept
        : buf_(std::move(other.buf_)), bytes_(other.bytes_),
          obj_(std::exchange(other.obj_, nullptr))
    {}
    InPlaceSlot(const InPlaceSlot &) = delete;
    InPlaceSlot &operator=(const InPlaceSlot &) = delete;
    ~InPlaceSlot() { reset(); }

    template <typename T, typename... A>
    T &
    emplace(A &&...args)
    {
        static_assert(std::is_base_of_v<Base, T>);
        static_assert(alignof(T) <= alignof(std::max_align_t));
        babol_assert(sizeof(T) <= bytes_,
                     "slot of %zu bytes for a %zu-byte object", bytes_,
                     sizeof(T));
        reset();
        T *obj = ::new (static_cast<void *>(buf_.get()))
            T(std::forward<A>(args)...);
        obj_ = obj;
        return *obj;
    }

    /** Destroy the object in the slot (no-op when empty). */
    void
    reset()
    {
        if (obj_)
            std::exchange(obj_, nullptr)->~Base();
    }

    Base *get() const { return obj_; }
    Base *operator->() const { return obj_; }
    explicit operator bool() const { return obj_ != nullptr; }

  private:
    std::unique_ptr<std::max_align_t[]> buf_;
    std::size_t bytes_;
    Base *obj_ = nullptr;
};

} // namespace babol

#endif // BABOL_SIM_SLOT_POOL_HH
