#ifndef PERFBENCH_RUNS_H_
#define PERFBENCH_RUNS_H_

#include "util.h"

namespace perfbench {

/// An untraced run: set-up fifteen times, the workload's rounds for the run's
/// seconds, recovery; reports every end-to-end metric.
void RunEndToEnd(const Options& opt, RunResult* res);

/// A traced run: the in-process layer split, the served and storage
/// split from registry deltas, recovery; reports every per-layer metric.
void RunTraced(const Options& opt, RunResult* res);

}  // namespace perfbench

#endif  // PERFBENCH_RUNS_H_
