/**
 * @file
 * Strict environment-variable parsing with warn-and-default
 * semantics.
 *
 * Every JSMT_* variable is an operator convenience, not a contract:
 * a malformed value must never silently misconfigure a run (atoll
 * happily reads "8x" as 8 and "abc" as 0). These helpers parse the
 * whole string strictly and, when it does not parse or violates the
 * stated minimum, print one warning and fall back to the built-in
 * default.
 */

#ifndef JSMT_COMMON_ENV_H
#define JSMT_COMMON_ENV_H

#include <cstdint>
#include <string>

namespace jsmt {

/**
 * Read @p name as an unsigned integer.
 *
 * @return the parsed value; @p fallback when the variable is unset,
 * and warn-and-@p-fallback when it is set but malformed (trailing
 * garbage, negative, overflow) or below @p min.
 */
std::uint64_t envUint(const char* name, std::uint64_t fallback,
                      std::uint64_t min = 0);

/**
 * Read @p name as a filesystem path. A variable that is set but
 * empty (JSMT_RUN_CACHE= ...) warns and falls back: an empty path
 * is always an operator slip — were it passed through it would
 * either disable the feature silently or name the current
 * directory, neither of which was asked for.
 */
std::string envPath(const char* name,
                    const std::string& fallback = "");

/**
 * Strict whole-string parses (no environment access); used by the
 * helpers above and by CLI flag validation.
 * @return whether @p text parsed completely into @p out.
 */
bool parseUint(const std::string& text, std::uint64_t* out);
bool parseDouble(const std::string& text, double* out);

} // namespace jsmt

#endif // JSMT_COMMON_ENV_H
