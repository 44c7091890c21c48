// The benchmark driver. One run:
//
//   perfbench --workload agg|ord|serve_mix --seed N --seconds S
//             [--threads T] [--work-dir DIR] [--commit SHA]
//
// prints a metadata line, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. The perfbench binary
// reports the end-to-end metrics; perfbench_traced, the same code plus a
// counting allocator, reports the per-layer metrics.

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "fdb/exec/task_pool.h"
#include "fdb/obs/metrics.h"
#include "runs.h"
#include "util.h"
#include "workload.h"

namespace {

using perfbench::JsonNum;

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload agg|ord|serve_mix --seed N "
               "--seconds S [--threads T] [--work-dir DIR] [--commit SHA]\n";
  std::exit(2);
}

std::string Quote(const std::string& s) {
  return "\"" + fdb::obs::JsonEscape(s) + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.traced = perfbench::AllocCountingLinked();
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + a);
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--threads") {
      opt.threads = std::atoi(v.c_str());
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else if (a == "--commit") {
      commit = v;
    } else {
      Usage("unknown flag " + a);
    }
  }
  if (opt.workload != "agg" && opt.workload != "ord" &&
      opt.workload != "serve_mix") {
    Usage("unknown workload '" + opt.workload + "'");
  }
  if (opt.seconds <= 0 || opt.threads < 1) Usage("bad --seconds/--threads");

  fdb::exec::TaskPool::SetDefaultThreads(opt.threads);
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"meta\": {\"workload\": " << Quote(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << JsonNum(opt.seconds)
            << ", \"traced\": " << (opt.traced ? "true" : "false")
            << ", \"commit\": " << Quote(commit)
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"ndebug\": " << (ndebug ? "true" : "false")
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": "
            << fdb::exec::TaskPool::Default().num_threads()
            << ", \"scale\": " << perfbench::ScaleOf(opt.workload) << "}}"
            << std::endl;

  perfbench::RunResult res;
  try {
    if (opt.traced) {
      perfbench::RunTraced(opt, &res);
    } else {
      perfbench::RunEndToEnd(opt, &res);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  if (!res.correct) std::cerr << "check failed: " << res.first_error << "\n";

  std::string out = "{\"correct\": ";
  out += res.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    if (i > 0) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + JsonNum(m.value) +
           ", \"unit\": " + Quote(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}
