/**
 * @file
 * Label interner: maps strings to dense 32-bit ids, once.
 *
 * Trace records store label *ids*, never strings, so the recording hot
 * path does no heap allocation after a label's first appearance. The
 * lookup is heterogeneous (C++20 transparent hashing) so repeat interns
 * by string_view build no temporary std::string either.
 *
 * The interner is the one obs structure deliberately shared across
 * fleet members (ids must agree so every member's trace records decode
 * uniformly), so it is mutex-guarded. Interning happens at
 * component construction, never on the per-event hot path, so the lock
 * is cold; label() returns a reference to node-stable storage that
 * outlives the lock.
 */

#ifndef BABOL_OBS_INTERNER_HH
#define BABOL_OBS_INTERNER_HH

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace babol::obs {

class Interner
{
  public:
    static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;

    /** Id for @p s, minting one on first sight (the only allocating path). */
    std::uint32_t
    intern(std::string_view s)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = ids_.find(s);
        if (it != ids_.end())
            return it->second;
        const auto id = static_cast<std::uint32_t>(labels_.size());
        auto [pos, inserted] = ids_.emplace(std::string(s), id);
        labels_.push_back(&pos->first);
        return id;
    }

    /** Id for @p s if already interned, else kInvalid. Never allocates. */
    std::uint32_t
    find(std::string_view s) const
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = ids_.find(s);
        return it == ids_.end() ? kInvalid : it->second;
    }

    const std::string &
    label(std::uint32_t id) const
    {
        static const std::string unknown = "<?>";
        std::lock_guard<std::mutex> lk(mu_);
        return id < labels_.size() ? *labels_[id] : unknown;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return labels_.size();
    }

  private:
    struct Hash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view sv) const
        {
            return std::hash<std::string_view>{}(sv);
        }
    };
    struct Eq
    {
        using is_transparent = void;
        bool
        operator()(std::string_view a, std::string_view b) const
        {
            return a == b;
        }
    };

    mutable std::mutex mu_;
    std::unordered_map<std::string, std::uint32_t, Hash, Eq> ids_;

    /** id -> key in ids_ (node-stable, so the pointers never move). */
    std::deque<const std::string *> labels_;
};

} // namespace babol::obs

#endif // BABOL_OBS_INTERNER_HH
