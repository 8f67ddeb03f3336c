#include "jvm/code_walker.h"

#include <algorithm>

namespace jsmt {

CodeWalker::CodeWalker(const WorkloadProfile& profile, Rng rng,
                       Addr base)
    : _profile(profile),
      _rng(std::move(rng)),
      _base(base),
      _jumpLocal(Rng::threshold(profile.codeJumpLocal))
{
    _line = static_cast<std::uint32_t>(
        _rng.below(_profile.codeLines));
    _runRemaining = static_cast<std::uint32_t>(
        1 + _rng.geometric(1.0 / _profile.codeMeanRun, 64));
}

Addr
CodeWalker::nextLine()
{
    const std::uint32_t lines = _profile.codeLines;
    if (_runRemaining > 0) {
        // Continue the sequential run (wrapping at the footprint end;
        // _line < lines always holds, so no divide is needed).
        --_runRemaining;
        _lastWasJump = false;
        _line = _line + 1 == lines ? 0 : _line + 1;
    } else {
        // Take a jump and start a new run.
        _lastWasJump = true;
        if (_rng.chanceBelow(_jumpLocal)) {
            // Loop-local: land within the trailing window.
            const std::uint32_t window =
                std::min(_profile.codeLoopWindow, lines);
            const auto back = static_cast<std::uint32_t>(
                _rng.below(window));
            _line = _line >= back ? _line - back : _line + lines - back;
        } else {
            // Long-range transfer anywhere in the code region.
            _line = static_cast<std::uint32_t>(_rng.below(lines));
        }
        _runRemaining = static_cast<std::uint32_t>(
            _rng.geometric(1.0 / _profile.codeMeanRun, 64));
    }
    return currentAddr();
}

} // namespace jsmt
