/**
 * @file
 * Sweep-manifest names for callers written against them:
 * SweepCheckpoint is the result store in its --resume role
 * (SweepCheckpoint(path, flush_every, topology) opens a manifest,
 * record() adds a completed point, flush() writes it), and
 * BatchReport is the task pool's batch outcome.
 */

#ifndef JSMT_RESILIENCE_CHECKPOINT_H
#define JSMT_RESILIENCE_CHECKPOINT_H

#include "exec/result_store.h"
#include "exec/task_pool.h"

namespace jsmt::resilience {

using SweepCheckpoint = exec::ResultStore;
using BatchReport = exec::BatchReport;

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_CHECKPOINT_H
