/**
 * @file
 * Exact heap-allocation count of the whole process: alloc_count.cc
 * replaces the global operator new, so every allocation the simulator
 * or the benchmark makes is counted.
 */

#ifndef E2EBENCH_ALLOC_COUNT_HH
#define E2EBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace e2e {

/** Calls to operator new (all forms) since the process started. */
std::uint64_t allocCount();

} // namespace e2e

#endif // E2EBENCH_ALLOC_COUNT_HH
