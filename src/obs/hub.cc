#include "hub.hh"

#include "label.hh"
#include "sim/logging.hh"

namespace babol::obs {

Interner &
interner()
{
    static Interner interner;
    return interner;
}

ChipLabels::ChipLabels(const char *fmt, std::uint32_t chips)
    : ids_(chips, Interner::kInvalid)
{
    text_.reserve(chips);
    for (std::uint32_t c = 0; c < chips; ++c)
        text_.push_back(strfmt(fmt, c));
}

} // namespace babol::obs
