/**
 * @file
 * Positional-argument checks shared by the examples: a malformed or
 * out-of-range argument, or one too many, prints the problem and the
 * example's usage line and exits with status 2.
 */

#ifndef JSMT_EXAMPLES_EXAMPLE_ARGS_H
#define JSMT_EXAMPLES_EXAMPLE_ARGS_H

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>

#include "common/env.h"

namespace jsmt {

/** An example's positional arguments, checked against its usage. */
class ExampleArgs
{
  public:
    /** Reject more than @p max_args arguments. */
    ExampleArgs(int argc, char** argv, std::string usage, int max_args)
        : _argc(argc), _argv(argv), _usage(std::move(usage))
    {
        if (argc - 1 > max_args)
            fail("too many arguments");
    }

    /** @return argument @p i, or @p fallback when it is absent. */
    std::string
    text(int i, const std::string& fallback) const
    {
        return i < _argc ? _argv[i] : fallback;
    }

    /** @return argument @p i, an integer in [lo, hi], or @p fallback. */
    std::uint64_t
    count(int i, std::uint64_t fallback, std::uint64_t lo,
          std::uint64_t hi, const std::string& what) const
    {
        std::uint64_t value = fallback;
        if (i < _argc &&
            (!parseUint(_argv[i], &value) || value < lo || value > hi)) {
            fail("invalid " + what + " '" + _argv[i] + "'");
        }
        return value;
    }

    /** @return argument @p i, a finite scale > 0, or @p fallback. */
    double
    scale(int i, double fallback) const
    {
        double value = fallback;
        if (i < _argc && (!parseDouble(_argv[i], &value) ||
                          !std::isfinite(value) || value <= 0.0)) {
            fail(std::string("invalid scale '") + _argv[i] + "'");
        }
        return value;
    }

  private:
    [[noreturn]] void
    fail(const std::string& problem) const
    {
        std::cerr << problem << "\nusage: " << _usage << '\n';
        std::exit(2);
    }

    int _argc;
    char** _argv;
    std::string _usage;
};

} // namespace jsmt

#endif // JSMT_EXAMPLES_EXAMPLE_ARGS_H
