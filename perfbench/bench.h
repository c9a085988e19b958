// Shared plumbing of the end-to-end benchmark (see README.md).
//
// A workload is a sequence of identical-shape *ops*, each timed from the
// outside on the host clock and metered on the simulated clock. main.cc
// runs whole rounds of ops for the requested number of seconds; every op checks its own output against an oracle computed
// apart from the code under test, and a failed check fails the op.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MsSince(Clock::time_point t0) { return 1e3 * SecondsSince(t0); }

// Linear-interpolation quantile, q in [0, 1]. Empty input gives 0.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double Mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

// Per-layer samples recorded by traced ops, keyed by metric name.
class Samples {
 public:
  void Add(const std::string& name, double v) { v_[name].push_back(v); }
  const std::vector<double>& Of(const std::string& name) const {
    static const std::vector<double> kNone;
    auto it = v_.find(name);
    return it == v_.end() ? kNone : it->second;
  }
  double Median(const std::string& name) const {
    return perfbench::Median(Of(name));
  }
  double Mean(const std::string& name) const {
    return perfbench::Mean(Of(name));
  }

 private:
  std::map<std::string, std::vector<double>> v_;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// One workload. main.cc times Setup() on several fresh instances (for
// setup_s), keeps the last, calls its Prepare() once, then whole rounds of
// PrepareOp()+Op() (only Op is timed per op; traced ops are followed by
// an untimed Probe()), and Finish() after the timed phase.
class Workload {
 public:
  virtual ~Workload() = default;

  // Everything a user pays once before the first op.
  virtual std::string Setup() = 0;
  // Untimed one-off work the checks need (e.g. reference runs).
  virtual std::string Prepare() { return ""; }
  // Traced runs only, untimed, after Prepare(): builds whatever traced
  // ops need apart from untraced ones. A trace sink is attached to a
  // runtime before it runs any code and never detached, because toggling
  // the machine's counters under cached blocks is unsafe (see README).
  virtual std::string EnableTracing() { return ""; }
  // Ops per round; every run attempts whole rounds.
  virtual int RoundOps() const { return 1; }
  // Untimed preparation of round `round` (> 0; Setup() and Prepare()
  // prepare round 0).
  virtual std::string BeginRound(uint64_t /*round*/) { return ""; }
  // Round teardown: timed as part of the phase, not of any op.
  virtual void EndRound() {}
  // Untimed per-op input generation.
  virtual void PrepareOp(uint64_t /*index*/) {}
  // One op. With `tr` set, the op is traced and records per-layer
  // samples. Returns "" on success, else what went wrong. `*cycles`
  // receives the simulated cycles the op consumed.
  virtual std::string Op(uint64_t index, Samples* tr, uint64_t* cycles) = 0;
  // Untimed per-layer measurements taken after each traced op: direct
  // calls into one layer, kept out of the op so trace.overhead_pct
  // compares the same work.
  virtual std::string Probe(uint64_t /*index*/, Samples* /*tr*/) {
    return "";
  }
  // Checks that run once after the timed phase.
  virtual std::string Finish() { return ""; }
  // Turns traced samples into per-layer metrics.
  virtual void Report(const Samples& s, Metrics* out) const = 0;

  // Self-test: op 0's expectation is made deliberately wrong.
  void set_sabotage(bool on) { sabotage_ = on; }

 protected:
  bool Sabotaged(uint64_t index) const { return sabotage_ && index == 0; }

 private:
  bool sabotage_ = false;
};

std::unique_ptr<Workload> MakePipeline(uint64_t seed);
std::unique_ptr<Workload> MakeSpec(uint64_t seed);
std::unique_ptr<Workload> MakeServe(uint64_t seed);
std::unique_ptr<Workload> MakeEmbed(uint64_t seed);

// Parse -> rewrite (O2; `guards` false is the unguarded native build) ->
// assemble -> ELF. Returns "" or what failed.
std::string BuildElf(const std::string& src, bool guards,
                     std::vector<uint8_t>* elf);

// The runtime configuration of every workload: lfi-run's defaults.
lfi::runtime::RuntimeConfig BenchConfig();

// Process memory figures from /proc/self/status, in MB (10^6 bytes).
double PeakRssMb();     // VmHWM
double CurrentRssMb();  // VmRSS
// Minor page faults of this process so far (getrusage).
uint64_t MinorFaults();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
