/**
 * @file
 * Exact division by a precomputed invariant divisor.
 *
 * The workload synthesizers reduce raw RNG draws into region-sized
 * offsets with `next() % span` on every generated load/store. The
 * spans are fixed at construction, but the hardware 64-bit divide
 * still costs 20+ cycles per draw on the simulator's hottest path.
 * ExactDiv precomputes the Granlund-Montgomery magic number for a
 * divisor (Hacker's Delight §10; the scheme libdivide implements)
 * so each reduction becomes a high multiply plus shifts that yield
 * the EXACT hardware quotient and remainder for every numerator —
 * results are bit-identical to `%`, only cheaper.
 *
 * The first construction for each divisor self-checks the magic
 * against the hardware divide on a battery of adversarial numerators
 * (once per process), so a faulty table aborts loudly instead of
 * silently perturbing a run.
 */

#ifndef JSMT_COMMON_EXACT_DIV_H
#define JSMT_COMMON_EXACT_DIV_H

#include <cstdint>

#include "common/rng.h"

namespace jsmt {

/** Precomputed exact `/` and `%` by one invariant 64-bit divisor. */
class ExactDiv
{
  public:
    ExactDiv() = default;

    /** Precompute for divisor @p d (d == 0 is allowed; see draw()). */
    explicit ExactDiv(std::uint64_t d);

    /** @return the divisor this instance reduces by. */
    std::uint64_t divisor() const { return _d; }

    /** @return n / divisor, exactly as the hardware divide would. */
    std::uint64_t
    quotient(std::uint64_t n) const
    {
        if (_shiftOnly)
            return n >> _shift;
        const std::uint64_t q = mulhi(_magic, n);
        if (_add)
            return (((n - q) >> 1) + q) >> _shift;
        return q >> _shift;
    }

    /** @return n % divisor, exactly as the hardware divide would. */
    std::uint64_t
    mod(std::uint64_t n) const
    {
        return n - quotient(n) * _d;
    }

    /**
     * @return a uniform value in [0, divisor) drawn from @p rng,
     * reproducing Rng::below(divisor) exactly — including consuming
     * no draw at all when the divisor is zero.
     */
    std::uint64_t
    draw(Rng& rng) const
    {
        if (_d == 0)
            return 0;
        return mod(rng.next());
    }

  private:
    // GCC/Clang extension; guarded from -Wpedantic.
    __extension__ typedef unsigned __int128 Wide;

    static std::uint64_t
    mulhi(std::uint64_t a, std::uint64_t b)
    {
        return static_cast<std::uint64_t>(
            (static_cast<Wide>(a) * b) >> 64);
    }

    std::uint64_t _d = 0;
    std::uint64_t _magic = 0;
    std::uint8_t _shift = 0;
    bool _shiftOnly = true;
    bool _add = false;
};

} // namespace jsmt

#endif // JSMT_COMMON_EXACT_DIV_H
