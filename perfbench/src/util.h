#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

// Shared plumbing of the benchmark driver: run options, the metric sink,
// clocks, order statistics and process facts.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  int threads = 4;             ///< TaskPool::Default() size, set explicitly
  std::string work_dir = ".";  ///< scratch space for WAL and snapshots
};

/// One reported metric: name, value, unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The outcome of one run: what the last line of stdout reports.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// First check failure, printed to stderr (the verdict is `correct`).
  std::string first_error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Fail(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
};

/// Monotonic time in seconds.
double Now();
inline double MsSince(double t0) { return (Now() - t0) * 1e3; }

/// The q-quantile (0..1) of `v` by linear interpolation between closest
/// ranks; 0 for an empty sample. Sorts a copy.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Samples tagged with the CPU their caller was pinned to.
///
/// The host runs some of its CPUs markedly slower than others at any one
/// time (1.2 to 1.4x on a shared 4-vCPU VM), and which ones changes from
/// minute to minute. A caller that stayed on one CPU would report whichever
/// speed it landed on. So callers rotate over every CPU they may use, one
/// round per CPU in turn, and a run reports the mean over CPUs of each CPU's
/// quantile: every CPU weighs the same in every run.
struct Timed {
  double ms = 0;
  int cpu = 0;
};
using Series = std::vector<Timed>;

/// The number of CPUs this process may run on.
int AllowedCpus();
/// Pins the calling thread to the `slot`-th allowed CPU (modulo their
/// number); returns that slot.
int PinToCpu(int slot);
/// Lets the calling thread run on every allowed CPU again.
void Unpin();
/// The q-quantile of each CPU's samples, averaged over the CPUs.
double BalancedQuantile(const Series& s, double q);
/// The median, over consecutive blocks of at least `block` samples (one
/// block if there are fewer), of each block's BalancedQuantile. A tail
/// quantile of the whole run follows the few seconds in which the host ran
/// slow; the median over blocks does not.
double BlockQuantile(const Series& s, double q, size_t block);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Creates `dir` (and parents); throws on failure.
void MakeDirs(const std::string& dir);
/// Removes `path` recursively; ignores a missing path.
void RemoveTree(const std::string& path);

/// JSON number text with all significant digits.
std::string JsonNum(double v);

/// Bytes and calls seen by the counting allocator (zero in the untraced
/// driver, which links no allocation hook).
struct AllocTally {
  uint64_t bytes = 0;
  uint64_t calls = 0;
};
AllocTally ReadAllocTally();
bool AllocCountingLinked();

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
