/**
 * @file
 * Strict numeric parsing for tool command lines.
 *
 * std::atoi/atoll silently return 0 on garbage ("--threads=abc" used to
 * mean --threads=0) and wrap negatives through the unsigned casts.
 * These helpers reject non-numeric input, signs, embedded whitespace,
 * trailing garbage, and out-of-range values with a kInvalidArgument
 * naming the flag, so main() prints a usage error instead of booting
 * with a misparsed knob. Header-only so
 * cli_test.cc links the exact code the tools run.
 */
#ifndef SEVF_TOOLS_SEVF_CLI_NUM_H_
#define SEVF_TOOLS_SEVF_CLI_NUM_H_

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "base/status.h"
#include "base/types.h"

namespace sevf::tools {

/**
 * Parse an unsigned decimal integer. Rejects empty strings, any
 * non-digit character (including '+'/'-' signs and whitespace, which
 * strtoull would accept), and values above 2^64-1.
 */
inline Result<u64>
parseU64(const std::string &flag, const std::string &value)
{
    if (value.empty()) {
        return errInvalidArgument(flag + " needs a number, got \"\"");
    }
    for (char c : value) {
        if (c < '0' || c > '9') {
            return errInvalidArgument(flag + " expects an unsigned "
                                      "integer, got \"" + value + "\"");
        }
    }
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (errno == ERANGE || end != value.c_str() + value.size()) {
        return errInvalidArgument(flag + " out of range: \"" + value +
                                  "\"");
    }
    return static_cast<u64>(parsed);
}

/** parseU64 restricted to the u32 range. */
inline Result<u32>
parseU32(const std::string &flag, const std::string &value)
{
    SEVF_ASSIGN_OR_RETURN(u64 wide, parseU64(flag, value));
    if (wide > std::numeric_limits<u32>::max()) {
        return errInvalidArgument(flag + " out of range: \"" + value +
                                  "\"");
    }
    return static_cast<u32>(wide);
}

/**
 * Parse a non-negative finite decimal (fraction-style flags such as
 * --scale and --retry-jitter). Rejects non-numeric input, trailing
 * garbage, negatives, inf/nan, and anything above @p max.
 */
inline Result<double>
parseFraction(const std::string &flag, const std::string &value,
              double max)
{
    if (value.empty() || value.front() == '+' || value.front() == '-' ||
        std::isspace(static_cast<unsigned char>(value.front())) != 0) {
        return errInvalidArgument(flag + " expects a number in [0, " +
                                  std::to_string(max) + "], got \"" +
                                  value + "\"");
    }
    errno = 0;
    char *end = nullptr;
    double parsed = std::strtod(value.c_str(), &end);
    if (errno == ERANGE || end != value.c_str() + value.size() ||
        !std::isfinite(parsed) || parsed < 0.0 || parsed > max) {
        return errInvalidArgument(flag + " expects a number in [0, " +
                                  std::to_string(max) + "], got \"" +
                                  value + "\"");
    }
    return parsed;
}

} // namespace sevf::tools

#endif // SEVF_TOOLS_SEVF_CLI_NUM_H_
