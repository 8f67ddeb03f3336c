/**
 * @file
 * RunCache: the result store under its memo-role name, for callers
 * written against it.
 */

#ifndef JSMT_EXEC_RUN_CACHE_H
#define JSMT_EXEC_RUN_CACHE_H

#include "exec/result_store.h"

namespace jsmt::exec {

using RunCache = ResultStore;

} // namespace jsmt::exec

#endif // JSMT_EXEC_RUN_CACHE_H
