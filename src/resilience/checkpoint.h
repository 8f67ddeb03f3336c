/**
 * @file
 * SweepCheckpoint: the result store under its sweep-manifest-role
 * name, for callers written against it. SweepCheckpoint(path,
 * flush_every, topology) opens a manifest, record() adds a completed
 * point, flush() writes it.
 */

#ifndef JSMT_RESILIENCE_CHECKPOINT_H
#define JSMT_RESILIENCE_CHECKPOINT_H

#include "exec/result_store.h"

namespace jsmt::resilience {

using SweepCheckpoint = exec::ResultStore;

} // namespace jsmt::resilience

#endif // JSMT_RESILIENCE_CHECKPOINT_H
