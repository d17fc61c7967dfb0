/**
 * @file
 * Debug-only heap-allocation interposer and RAII deny scopes
 * (DESIGN.md §11, Tier 3).
 *
 * The repo's "warm steady state allocates nothing" claims (blocked
 * GEMM scratch, the trainloop step, the serve dispatch path) used to
 * be asserted indirectly through Arena block counters, which only see
 * arena growth — a stray std::vector or std::function capture on the
 * hot path went unnoticed. When built with LECA_ALLOC_GUARD (the
 * default outside sanitizer builds; see the option in the top-level
 * CMakeLists), alloc_guard.cc replaces the global operator new/delete
 * family with counting hooks so those claims become hard assertions:
 *
 *   DenyAllocScope deny;           // process-wide: EVERY thread's
 *   hotPath();                     // operator new now counts as a
 *   EXPECT_EQ(deny.violations(), 0);  // violation
 *
 * Violations are counted, not fatal, so a test failure reports how
 * many allocations leaked into the scope instead of aborting the
 * whole suite; set LECA_ALLOC_GUARD_FATAL=1 in the environment to
 * abort at the first violation with the size in the message (useful
 * under a debugger: break in leca::alloc_detail::onViolation).
 *
 * AllowAllocScope re-permits allocation on the *current thread* inside
 * an active deny scope. The serve dispatcher wraps its backend
 * invocation in one: the serve layer itself is allocation-free and the
 * guard proves it, while the model backend owns its own allocation
 * budget (a quantized backend may legitimately allocate on first use).
 *
 * Everything compiles to trivial no-ops when LECA_ALLOC_GUARD is off;
 * tests gate their assertions on allocGuardEnabled().
 */

#ifndef LECA_UTIL_ALLOC_GUARD_HH
#define LECA_UTIL_ALLOC_GUARD_HH

#include <cstdint>

namespace leca {

/** True when the counting operator-new hooks are compiled in. */
bool allocGuardEnabled();

/** Process-wide heap allocations observed since start (0 when the
 *  guard is compiled out). Monotonic; taken with relaxed atomics. */
std::uint64_t totalHeapAllocs();

/** Process-wide count of allocations that happened inside an active
 *  DenyAllocScope (and outside an AllowAllocScope). */
std::uint64_t totalDenyViolations();

/**
 * RAII scope during which heap allocation on ANY thread is a
 * violation. Process-wide by design: the hot paths under test fan out
 * across the util/parallel pool and the serve dispatcher thread, so a
 * thread-local deny would miss exactly the allocations we care about.
 * Scopes nest; the deny is active while at least one is open.
 */
// leca-analyze: keep: test hook — the steady-state zero-allocation tests
class DenyAllocScope
{
  public:
    DenyAllocScope();
    ~DenyAllocScope();
    DenyAllocScope(const DenyAllocScope &) = delete;
    DenyAllocScope &operator=(const DenyAllocScope &) = delete;

    /** True while any DenyAllocScope is open (false when compiled out). */
    static bool active();

    /** Violations recorded since this scope opened. */
    std::uint64_t violations() const;

  private:
    std::uint64_t _violationsAtOpen;
};

/**
 * RAII scope re-permitting allocation on the current thread inside a
 * DenyAllocScope (e.g. around a backend whose allocations are its own
 * business). Nests; no effect when no deny scope is active.
 */
class AllowAllocScope
{
  public:
    AllowAllocScope();
    ~AllowAllocScope();
    AllowAllocScope(const AllowAllocScope &) = delete;
    AllowAllocScope &operator=(const AllowAllocScope &) = delete;
};

} // namespace leca

#endif // LECA_UTIL_ALLOC_GUARD_HH
