#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// The traced run's in-process layer split: each statement is parsed,
// bound and executed through the public calls, then its execution is
// replayed call by call (input copy, GreedyPlan, ExecutePlan with op
// stats, Enumerator drain, EnumerateToRelation / GroupAggToRelation,
// Project) so that each layer's time is timed by the benchmark itself.

#include <cstdint>

#include "fdb/engine/database.h"
#include "reference.h"
#include "util.h"

namespace perfbench {

/// Totals over the statements split so far (times in ms, bytes in bytes).
struct LayerSums {
  double parse = 0, bind = 0, execute = 0;
  double input = 0, plan = 0, plan_ops = 0;
  double ops = 0, swap = 0, aggregate = 0, singletons_after = 0;
  double enumerate = 0, materialise = 0, group_aggregate = 0, rows = 0;
  double materialise_bytes = 0, materialise_allocs = 0;
  double project = 0, project_bytes = 0;
  double unattributed = 0;
  double tasks_run = 0, steals = 0, worker_idle_ms = 0;
};

/// Splits one statement into its layers, adding to `sums`; checks the
/// executed result against `exp`. Returns parse + bind + execute in ms.
double SplitStatement(fdb::Database* db, const Stmt& s, const Expected& exp,
                      LayerSums* sums, RunResult* res);

/// Adds the per-pass averages of `sums` over `passes` passes.
void ReportLayers(const LayerSums& sums, double passes, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
