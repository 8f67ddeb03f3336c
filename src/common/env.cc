#include "common/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

#include "common/log.h"

namespace jsmt {

bool
parseUint(const std::string& text, std::uint64_t* out)
{
    if (text.empty() || text[0] == '-' || text[0] == '+' ||
        std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long long value =
        std::strtoull(text.c_str(), &end, 10);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    *out = static_cast<std::uint64_t>(value);
    return true;
}

bool
parseDouble(const std::string& text, double* out)
{
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0]))) {
        return false;
    }
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() ||
        std::isnan(value)) {
        return false;
    }
    *out = value;
    return true;
}

std::uint64_t
envUint(const char* name, std::uint64_t fallback, std::uint64_t min)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr)
        return fallback;
    std::uint64_t value = 0;
    if (!parseUint(raw, &value) || value < min) {
        warn(std::string(name) + "='" + raw +
             "' is not an integer >= " + std::to_string(min) +
             "; using default " + std::to_string(fallback));
        return fallback;
    }
    return value;
}

std::string
envPath(const char* name, const std::string& fallback)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr)
        return fallback;
    if (raw[0] == '\0') {
        warn(std::string(name) +
             " is set but empty; using default '" + fallback + "'");
        return fallback;
    }
    return std::string(raw);
}

} // namespace jsmt
