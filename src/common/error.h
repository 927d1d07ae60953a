/**
 * @file
 * Error handling primitives for the carbonx library.
 *
 * Carbon Explorer follows the gem5 fatal/panic distinction:
 *   - UserError   (fatal):  the caller supplied an invalid configuration;
 *                           recoverable by fixing inputs.
 *   - InternalError (panic): an invariant inside the library was violated;
 *                           indicates a bug in carbonx itself.
 */

#ifndef CARBONX_COMMON_ERROR_H
#define CARBONX_COMMON_ERROR_H

#include <stdexcept>
#include <string>

namespace carbonx
{

/** Base class for all exceptions thrown by the carbonx library. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * Raised when a caller-provided configuration or argument is invalid.
 * Equivalent to gem5's fatal(): the simulation cannot continue and the
 * fix lies with the user, not the library.
 */
class UserError : public Error
{
  public:
    explicit UserError(const std::string &msg) : Error("user error: " + msg) {}
};

/**
 * Raised when an internal invariant is violated. Equivalent to gem5's
 * panic(): this should never happen regardless of user input.
 */
class InternalError : public Error
{
  public:
    explicit InternalError(const std::string &msg)
        : Error("internal error: " + msg) {}
};

/**
 * Throw a UserError unless @p condition holds.
 *
 * @param condition Predicate that must be true for valid user input.
 * @param msg Human-readable description of the violated requirement.
 */
inline void
require(bool condition, const std::string &msg)
{
    if (!condition)
        throw UserError(msg);
}

/**
 * require() for a literal message: the string is built only when the
 * check fails, so a passing check never allocates. (A message built
 * with `+` is materialized before the call either way; hot paths
 * branch first and build it on the failure path.)
 */
inline void
require(bool condition, const char *msg)
{
    if (!condition)
        throw UserError(msg);
}

/**
 * Throw an InternalError unless @p condition holds.
 *
 * @param condition Invariant that the library guarantees.
 * @param msg Human-readable description of the violated invariant.
 */
inline void
ensure(bool condition, const std::string &msg)
{
    if (!condition)
        throw InternalError(msg);
}

/** ensure() for a literal message; allocates only on failure. */
inline void
ensure(bool condition, const char *msg)
{
    if (!condition)
        throw InternalError(msg);
}

} // namespace carbonx

#endif // CARBONX_COMMON_ERROR_H
