/**
 * @file
 * Explicit float -> integer conversion helpers.
 *
 * A bare `static_cast<int>` on a floating value truncates toward zero
 * and is UB when the value is out of range — exactly the silent-error
 * class the hardware models must not contain. All narrowing in src/
 * goes through these helpers (enforced by tools/leca_lint.py), which
 * name the rounding mode and bound the argument to the int range.
 */

#ifndef LECA_UTIL_NUMERIC_HH
#define LECA_UTIL_NUMERIC_HH

#include <cmath>
#include <limits>

#include "util/check.hh"

namespace leca {

namespace detail {

template <typename F>
inline void
checkIntRange(F value)
{
    LECA_CHECK(value >= static_cast<F>(std::numeric_limits<int>::min())
                   && value <= static_cast<F>(
                                   std::numeric_limits<int>::max()),
               "value ", value, " out of int range");
}

} // namespace detail

/** Round-to-nearest (ties away from zero), then narrow to int. */
template <typename F>
inline int
roundToInt(F value)
{
    const F rounded = std::round(value);
    detail::checkIntRange(rounded);
    return static_cast<int>(rounded);
}

/** Truncate toward zero (the C++ default), made explicit. */
template <typename F>
inline int
truncToInt(F value)
{
    const F truncated = std::trunc(value);
    detail::checkIntRange(truncated);
    return static_cast<int>(truncated);
}

} // namespace leca

#endif // LECA_UTIL_NUMERIC_HH
