#include "alloc_guard.hh"

#ifdef LECA_ALLOC_GUARD

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

// This translation unit replaces the global allocation functions, so it
// is the one place in src/ allowed to call malloc/free directly (lint
// rule `raw-allocation` exempts it): the replacements must not recurse
// into operator new themselves.

namespace leca {
namespace alloc_detail {

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_violations{0};
std::atomic<int> g_denyDepth{0};

/** Per-thread AllowAllocScope nesting depth. Plain int with constant
 *  initialization so touching it from operator new is safe at any
 *  point of the process lifetime. */
thread_local int t_allowDepth = 0;

bool
fatalOnViolation()
{
    // Latched on first use; getenv is async-signal-unsafe but operator
    // new already is, and the latch avoids re-reading per allocation.
    static const bool fatal = [] {
        const char *env = std::getenv("LECA_ALLOC_GUARD_FATAL");
        return env != nullptr && env[0] == '1';
    }();
    return fatal;
}

void
recordAllocation(std::size_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (g_denyDepth.load(std::memory_order_relaxed) > 0
        && t_allowDepth == 0) {
        g_violations.fetch_add(1, std::memory_order_relaxed);
        if (fatalOnViolation()) {
            std::fprintf(stderr,
                         "leca: heap allocation of %zu bytes inside "
                         "DenyAllocScope (LECA_ALLOC_GUARD_FATAL=1)\n",
                         size);
            std::abort();
        }
    }
}

void *
allocateOrHandle(std::size_t size)
{
    for (;;) {
        void *ptr = std::malloc(size == 0 ? 1 : size);
        if (ptr != nullptr)
            return ptr;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            return nullptr;
        handler();
    }
}

void *
allocateAlignedOrHandle(std::size_t size, std::size_t alignment)
{
    // aligned_alloc requires size to be a multiple of the alignment.
    const std::size_t rounded =
        (size + alignment - 1) / alignment * alignment;
    for (;;) {
        void *ptr = std::aligned_alloc(alignment,
                                       rounded == 0 ? alignment : rounded);
        if (ptr != nullptr)
            return ptr;
        std::new_handler handler = std::get_new_handler();
        if (handler == nullptr)
            return nullptr;
        handler();
    }
}

} // namespace
} // namespace alloc_detail

// leca-analyze: keep: test hook — alloc-guard tests skip when compiled out
bool
allocGuardEnabled()
{
    return true;
}

// leca-analyze: keep: test hook — alloc-guard counter
std::uint64_t
totalHeapAllocs()
{
    return alloc_detail::g_allocs.load(std::memory_order_relaxed);
}

std::uint64_t
totalDenyViolations()
{
    return alloc_detail::g_violations.load(std::memory_order_relaxed);
}

DenyAllocScope::DenyAllocScope() : _violationsAtOpen(totalDenyViolations())
{
    alloc_detail::g_denyDepth.fetch_add(1, std::memory_order_relaxed);
}

DenyAllocScope::~DenyAllocScope()
{
    alloc_detail::g_denyDepth.fetch_sub(1, std::memory_order_relaxed);
}

bool
DenyAllocScope::active()
{
    return alloc_detail::g_denyDepth.load(std::memory_order_relaxed) > 0;
}

std::uint64_t
DenyAllocScope::violations() const
{
    return totalDenyViolations() - _violationsAtOpen;
}

AllowAllocScope::AllowAllocScope() { ++alloc_detail::t_allowDepth; }

AllowAllocScope::~AllowAllocScope() { --alloc_detail::t_allowDepth; }

} // namespace leca

// ---- Global allocation-function replacements ----------------------------

void *
operator new(std::size_t size)
{
    leca::alloc_detail::recordAllocation(size);
    void *ptr = leca::alloc_detail::allocateOrHandle(size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size)
{
    leca::alloc_detail::recordAllocation(size);
    void *ptr = leca::alloc_detail::allocateOrHandle(size);
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    leca::alloc_detail::recordAllocation(size);
    return leca::alloc_detail::allocateOrHandle(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    leca::alloc_detail::recordAllocation(size);
    return leca::alloc_detail::allocateOrHandle(size);
}

void *
operator new(std::size_t size, std::align_val_t alignment)
{
    leca::alloc_detail::recordAllocation(size);
    void *ptr = leca::alloc_detail::allocateAlignedOrHandle(
        size, static_cast<std::size_t>(alignment));
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new[](std::size_t size, std::align_val_t alignment)
{
    leca::alloc_detail::recordAllocation(size);
    void *ptr = leca::alloc_detail::allocateAlignedOrHandle(
        size, static_cast<std::size_t>(alignment));
    if (ptr == nullptr)
        throw std::bad_alloc();
    return ptr;
}

void *
operator new(std::size_t size, std::align_val_t alignment,
             const std::nothrow_t &) noexcept
{
    leca::alloc_detail::recordAllocation(size);
    return leca::alloc_detail::allocateAlignedOrHandle(
        size, static_cast<std::size_t>(alignment));
}

void *
operator new[](std::size_t size, std::align_val_t alignment,
               const std::nothrow_t &) noexcept
{
    leca::alloc_detail::recordAllocation(size);
    return leca::alloc_detail::allocateAlignedOrHandle(
        size, static_cast<std::size_t>(alignment));
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::size_t, std::align_val_t) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

void
operator delete[](void *ptr, std::align_val_t,
                  const std::nothrow_t &) noexcept
{
    std::free(ptr);
}

#else // !LECA_ALLOC_GUARD

namespace leca {

// leca-analyze: keep: test hook — alloc-guard tests skip when compiled out
bool
allocGuardEnabled()
{
    return false;
}

// leca-analyze: keep: test hook — alloc-guard counter
std::uint64_t
totalHeapAllocs()
{
    return 0;
}

std::uint64_t
totalDenyViolations()
{
    return 0;
}

DenyAllocScope::DenyAllocScope() : _violationsAtOpen(0) {}
DenyAllocScope::~DenyAllocScope() = default;

bool
DenyAllocScope::active()
{
    return false;
}

std::uint64_t
DenyAllocScope::violations() const
{
    return 0;
}

AllowAllocScope::AllowAllocScope() = default;
AllowAllocScope::~AllowAllocScope() = default;

} // namespace leca

#endif // LECA_ALLOC_GUARD
