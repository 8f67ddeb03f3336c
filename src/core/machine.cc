#include "core/machine.h"

namespace jsmt {

Machine::Machine(const SystemConfig& config, Cache* shared_l2)
    : _config(config),
      _pmu(),
      _mem(config.mem, _pmu, shared_l2),
      _branch(config.branch, _pmu),
      _scheduler(config.os, _pmu),
      _core(config.core, _mem, _branch, _scheduler, _pmu,
            config.seed, config.hyperThreading)
{
}

void
Machine::setHyperThreading(bool enabled)
{
    _core.setHyperThreading(enabled);
}

} // namespace jsmt
