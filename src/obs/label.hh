/**
 * @file
 * Trace labels held as interner ids.
 *
 * Transactions and bus segments carry a label ("READ.ca c3") for the
 * trace, the auditor and debug logs. Formatting that string per
 * transaction cost a heap allocation and two vsnprintf passes on every
 * IO; a Label is the label's interner id instead, so it is four bytes,
 * copies for free and records into the trace ring as-is. Controllers
 * format their labels once, per (op, chip), when they are built
 * (ChipLabels); the string is looked up only when someone prints it.
 */

#ifndef BABOL_OBS_LABEL_HH
#define BABOL_OBS_LABEL_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "interner.hh"

namespace babol::obs {

Interner &interner();

class Label
{
  public:
    /** The empty label; it is interned only when something records it. */
    Label() = default;
    Label(std::string_view s) : id_(interner().intern(s)) {}
    Label(const char *s) : Label(std::string_view(s)) {}
    Label(const std::string &s) : Label(std::string_view(s)) {}

    static Label
    fromId(std::uint32_t id)
    {
        Label l;
        l.id_ = id;
        return l;
    }

    /** The interner id (interning the empty label on first use). */
    std::uint32_t
    id() const
    {
        return id_ != Interner::kInvalid ? id_ : interner().intern("");
    }

    const std::string &
    str() const
    {
        static const std::string empty;
        return id_ != Interner::kInvalid ? interner().label(id_) : empty;
    }

    const char *c_str() const { return str().c_str(); }
    explicit operator std::string() const { return str(); }

    friend bool
    operator==(const Label &a, const Label &b)
    {
        return a.id_ == b.id_ || a.str() == b.str();
    }
    friend bool
    operator==(const Label &a, std::string_view b)
    {
        return a.str() == b;
    }
    friend bool
    operator==(const Label &a, const char *b)
    {
        return a.str() == b;
    }
    friend std::ostream &
    operator<<(std::ostream &os, const Label &l)
    {
        return os << l.str();
    }

  private:
    std::uint32_t id_ = Interner::kInvalid;
};

/**
 * One label per chip, formatted once from a printf pattern whose only
 * conversion is the chip index (e.g. "READ.ca c%u"). Each is interned
 * on first use rather than when the controller is built, so building
 * a controller leaves the interner — and the ids of every track named
 * after it, which trace exports print — exactly as it was.
 */
class ChipLabels
{
  public:
    ChipLabels(const char *fmt, std::uint32_t chips);

    Label
    operator[](std::uint32_t chip) const
    {
        std::uint32_t &id = ids_.at(chip);
        if (id == Interner::kInvalid)
            id = interner().intern(text_[chip]);
        return Label::fromId(id);
    }

  private:
    std::vector<std::string> text_;
    mutable std::vector<std::uint32_t> ids_;
};

} // namespace babol::obs

#endif // BABOL_OBS_LABEL_HH
