/**
 * @file
 * Error reporting helpers, following the gem5 discipline:
 *
 *  - panic():  an internal invariant was violated -- a simulator bug.
 *              Aborts (throws PanicError so tests can assert on it).
 *  - fatal():  the user asked for something the simulator cannot do
 *              (bad configuration, invalid arguments). Throws FatalError.
 *
 * Both panic() and fatal() throw rather than calling std::abort()/exit()
 * so that unit tests can exercise error paths; uncaught, they terminate
 * the process with a readable message. Both are marked cold, and the
 * panicIf()/fatalIf() checks are macros that evaluate their message
 * arguments only on failure, so a check inlined into the cycle loop
 * keeps its error path out of the hot code.
 */

#ifndef CANON_COMMON_LOGGING_HH
#define CANON_COMMON_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace canon
{

/** Thrown by panic(): an internal simulator invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Thrown by fatal(): the simulation cannot continue due to user error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace log_detail
{

/** Fold any set of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace log_detail

/** Report an internal simulator bug and unwind. */
template <typename... Args>
[[noreturn, gnu::cold]] void
panic(Args &&...args)
{
    throw PanicError("panic: " +
                     log_detail::concat(std::forward<Args>(args)...));
}

/** Report an unrecoverable user/configuration error and unwind. */
template <typename... Args>
[[noreturn, gnu::cold]] void
fatal(Args &&...args)
{
    throw FatalError("fatal: " +
                     log_detail::concat(std::forward<Args>(args)...));
}

} // namespace canon

/**
 * panic() if @p cond holds. A macro, as in gem5: the message arguments
 * are evaluated only on failure, so a check inlined into the cycle
 * loop costs one predicted branch and never spills its operands.
 */
#define panicIf(cond, ...)                                                \
    do {                                                                  \
        if (__builtin_expect(static_cast<bool>(cond), false))             \
            ::canon::panic(__VA_ARGS__);                                  \
    } while (false)

/** fatal() if @p cond holds; the message is built only on failure. */
#define fatalIf(cond, ...)                                                \
    do {                                                                  \
        if (__builtin_expect(static_cast<bool>(cond), false))             \
            ::canon::fatal(__VA_ARGS__);                                  \
    } while (false)

#endif // CANON_COMMON_LOGGING_HH
