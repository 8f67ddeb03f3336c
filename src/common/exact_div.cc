#include "common/exact_div.h"

#include <bit>
#include <mutex>
#include <set>

#include "common/log.h"

namespace jsmt {

ExactDiv::ExactDiv(std::uint64_t d) : _d(d)
{
    if (d == 0)
        return;
    const auto fl = static_cast<std::uint8_t>(
        63 - std::countl_zero(d)); // floor(log2 d)
    if ((d & (d - 1)) == 0) {
        _shiftOnly = true;
        _shift = fl;
        return;
    }
    _shiftOnly = false;
    // Magic for a non-power-of-two divisor (Granlund-Montgomery):
    // proposed_m = floor(2^(64+fl) / d). When the error term e is
    // small enough a 64-bit magic suffices; otherwise the 65-bit
    // magic is folded into the add-and-halve form.
    const Wide num = static_cast<Wide>(1) << (64 + fl);
    auto proposed = static_cast<std::uint64_t>(num / d);
    const auto rem = static_cast<std::uint64_t>(num % d);
    const std::uint64_t e = d - rem;
    if (e < (std::uint64_t{1} << fl)) {
        _add = false;
    } else {
        const std::uint64_t twice_rem = rem + rem;
        std::uint64_t m2 = proposed + proposed;
        if (twice_rem >= d || twice_rem < rem)
            ++m2;
        proposed = m2;
        _add = true;
    }
    _shift = fl;
    _magic = proposed + 1;

    // The magic depends on d alone, so the self-check runs once per
    // distinct divisor per process. The registry of checked divisors
    // is deliberately leaked, as Rng::geoDistFor's tables are, so it
    // outlives every static that might construct an ExactDiv.
    static std::mutex mutex;
    static auto* const checked = new std::set<std::uint64_t>();
    const std::lock_guard<std::mutex> lock(mutex);
    if (checked->count(d) != 0)
        return;

    // Cold-path self-check against the hardware divide: divisor
    // edges, numerator extremes and a deterministic LCG sweep. A
    // wrong magic must abort, never silently skew address streams.
    const std::uint64_t probes[] = {
        0,      1,          d - 1,      d,     d + 1,
        2 * d - 1, 2 * d,   ~std::uint64_t{0}, ~std::uint64_t{0} - 1,
        (~std::uint64_t{0} / d) * d, (~std::uint64_t{0} / d) * d - 1};
    for (const std::uint64_t n : probes) {
        if (quotient(n) != n / d)
            fatal("ExactDiv: magic self-check failed");
    }
    std::uint64_t x = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < 256; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        if (quotient(x) != x / d)
            fatal("ExactDiv: magic self-check failed");
    }
    checked->insert(d);
}

} // namespace jsmt
