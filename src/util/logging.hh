/**
 * @file
 * Status messages in the spirit of gem5's logging.hh. Errors are not
 * reported here: a violated contract throws leca::CheckError
 * (util/check.hh).
 *
 * warn()   - something works but not as well as it should.
 * inform() - normal operating status for the user.
 */

#ifndef LECA_UTIL_LOGGING_HH
#define LECA_UTIL_LOGGING_HH

#include <iostream>
#include <sstream>
#include <string>
#include <utility>

namespace leca {

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    std::cerr << "info: " << detail::concat(std::forward<Args>(args)...)
              << "\n";
}

/** Print a warning to stderr; execution continues. */
template <typename... Args>
void
warn(Args &&...args)
{
    std::cerr << "warn: " << detail::concat(std::forward<Args>(args)...)
              << "\n";
}

} // namespace leca

#endif // LECA_UTIL_LOGGING_HH
