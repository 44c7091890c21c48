#include "util.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {

// The CPUs the process may use, read once at start-up.
const std::vector<int>& Cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    if (out.empty()) out.push_back(0);
    return out;
  }();
  return cpus;
}

}  // namespace

int AllowedCpus() { return static_cast<int>(Cpus().size()); }

int PinToCpu(int slot) {
  const std::vector<int>& cpus = Cpus();
  slot %= static_cast<int>(cpus.size());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot], &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
  return slot;
}

void Unpin() {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : Cpus()) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double BalancedQuantile(const Series& s, double q) {
  std::map<int, std::vector<double>> by_cpu;
  for (const Timed& t : s) by_cpu[t.cpu].push_back(t.ms);
  if (by_cpu.empty()) return 0;
  double sum = 0;
  for (const auto& [cpu, v] : by_cpu) sum += Quantile(v, q);
  return sum / static_cast<double>(by_cpu.size());
}

double BlockQuantile(const Series& s, double q, size_t block) {
  const size_t n = s.size();
  const size_t blocks = std::max<size_t>(1, n / block);
  std::vector<double> per;
  for (size_t b = 0; b < blocks; ++b) {
    Series part(s.begin() + static_cast<ptrdiff_t>(b * n / blocks),
                s.begin() + static_cast<ptrdiff_t>((b + 1) * n / blocks));
    per.push_back(BalancedQuantile(part, q));
  }
  return Median(per);
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MakeDirs(const std::string& dir) {
  std::filesystem::create_directories(dir);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
