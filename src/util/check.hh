/**
 * @file
 * Runtime contracts for the simulator.
 *
 * The library has one failure channel: LECA_CHECK. It validates
 * preconditions and postconditions on interfaces (shape agreement,
 * config ranges, codec round-trip invariants), per-element bounds on
 * hot paths (Tensor::at, quantizer code ranges, LUT lookups) and I/O
 * (a path that cannot be written). Every check is live in every build
 * type; a violation throws leca::CheckError, so tests can assert on it
 * and callers can recover from a bad configuration or a bad file.
 */

#ifndef LECA_UTIL_CHECK_HH
#define LECA_UTIL_CHECK_HH

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace leca {

/**
 * Thrown by LECA_CHECK on contract violation. what() carries the
 * failed condition, file:line, and the formatted context message.
 */
class CheckError : public std::runtime_error
{
  public:
    CheckError(std::string condition, std::string file, int line,
               std::string message)
        : std::runtime_error(file + ":" + std::to_string(line)
                             + ": check '" + condition + "' failed"
                             + (message.empty() ? "" : ": " + message)),
          _condition(std::move(condition)), _file(std::move(file)),
          _line(line), _message(std::move(message))
    {
    }

    const std::string &condition() const { return _condition; }
    const std::string &file() const { return _file; }
    int line() const { return _line; }
    const std::string &message() const { return _message; }

  private:
    std::string _condition;
    std::string _file;
    int _line;
    std::string _message;
};

namespace detail {

/** Concatenate any streamable arguments into one string. */
template <typename... Args>
std::string
checkConcat(Args &&...args)
{
    std::ostringstream os;
    ((os << std::forward<Args>(args)), ...);
    return os.str();
}

/** Render a shape vector as "[n, c, h, w]" for check messages. */
inline std::string
formatShape(const std::vector<int> &shape)
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < shape.size(); ++i) {
        if (i > 0)
            os << ", ";
        os << shape[i];
    }
    os << ']';
    return os.str();
}

[[noreturn]] inline void
throwCheckError(const char *condition, const char *file, int line,
                std::string message)
{
    throw CheckError(condition, file, line, std::move(message));
}

} // namespace detail

/**
 * Always-on contract: throws leca::CheckError when @p cond is false.
 * Extra arguments are streamed into the error message.
 */
#define LECA_CHECK(cond, ...)                                                \
    do {                                                                     \
        if (!(cond)) {                                                       \
            ::leca::detail::throwCheckError(                                 \
                #cond, __FILE__, __LINE__,                                   \
                ::leca::detail::checkConcat(__VA_ARGS__));                   \
        }                                                                    \
    } while (false)

/** Check that a Tensor-like object has exactly the expected shape.
 *  Binds the expected shape by const reference: an lvalue vector
 *  argument is compared in place (no per-call copy on hot paths such
 *  as Server::submit), while a brace temporary is lifetime-extended
 *  for the duration of the check. */
#define LECA_CHECK_SHAPE(tensor, ...)                                        \
    do {                                                                     \
        const std::vector<int> &leca_check_expected_ = __VA_ARGS__;          \
        if ((tensor).shape() != leca_check_expected_) {                      \
            ::leca::detail::throwCheckError(                                 \
                #tensor " has expected shape", __FILE__, __LINE__,           \
                ::leca::detail::checkConcat(                                 \
                    "got ", ::leca::detail::formatShape((tensor).shape()),   \
                    ", expected ",                                           \
                    ::leca::detail::formatShape(leca_check_expected_)));     \
        }                                                                    \
    } while (false)

/** Check that two Tensor-like objects agree in shape. */
#define LECA_CHECK_SAME_SHAPE(a, b)                                          \
    do {                                                                     \
        if ((a).shape() != (b).shape()) {                                    \
            ::leca::detail::throwCheckError(                                 \
                #a " same shape as " #b, __FILE__, __LINE__,                 \
                ::leca::detail::checkConcat(                                 \
                    #a " is ", ::leca::detail::formatShape((a).shape()),     \
                    ", " #b " is ",                                          \
                    ::leca::detail::formatShape((b).shape())));              \
        }                                                                    \
    } while (false)

} // namespace leca

#endif // LECA_UTIL_CHECK_HH
