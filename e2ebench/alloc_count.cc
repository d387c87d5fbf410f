/**
 * @file
 * Global operator new counter (single simulation thread, so a plain
 * counter suffices). Every plain and nothrow form is replaced, with the
 * matching deletes, so allocation and release always pair up.
 */

#include "alloc_count.hh"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_allocs = 0;
}

void *
operator new(std::size_t n)
{
    ++g_allocs;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    ++g_allocs;
    return std::malloc(n ? n : 1);
}

void *
operator new[](std::size_t n, const std::nothrow_t &tag) noexcept
{
    return operator new(n, tag);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept { std::free(p); }
void operator delete[](void *p, const std::nothrow_t &) noexcept { std::free(p); }

std::uint64_t
e2e::allocCount()
{
    return g_allocs;
}
