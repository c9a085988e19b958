// perfbench: one end-to-end benchmark over the four product surfaces.
//
//   perfbench --workload <pipeline|spec|serve|embed> --seed <n>
//             --seconds <s> --trace <0|1> [--self-test]
//
// --trace 0 prints the end-to-end metrics of the named workload.
// --trace 1 prints the per-layer metrics of every workload (the named
// one gets most of the time and its trace.overhead_pct). The last line of
// standard output is one JSON object; progress and failures go to stderr.
// The exit status is 0 only when every op passed its check.
//
// --self-test makes op 0's expected output deliberately wrong; the run
// must then count a failed op and exit non-zero.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

// setup_s is the median of kSetups set-ups before the timed phase plus one
// more, of a fresh instance that is destroyed at once, after each round
// that ends kSetupEvery seconds or more after the last: the set-ups then sample the same host
// conditions as the ops instead of one short stretch before them.
constexpr int kSetups = 5;
constexpr double kSetupEvery = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
};

const char* const kWorkloads[] = {"pipeline", "spec", "serve", "embed"};

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "pipeline") return MakePipeline(seed);
  if (name == "spec") return MakeSpec(seed);
  if (name == "serve") return MakeServe(seed);
  if (name == "embed") return MakeEmbed(seed);
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "0") != 0;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

// Tally of one run.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& where, const std::string& what) {
    correct = false;
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", where.c_str(),
                 what.c_str());
  }
};

// What a timed phase measured.
struct Phase {
  std::vector<double> op_ms;      // untraced ops that passed
  std::vector<double> traced_ms;  // traced ops that passed
  std::vector<double> op_cycles;  // simulated cycles of each op in op_ms
  double seconds = 0;             // rounds only (no untimed preparation)
};

// Runs whole rounds until `budget` seconds of phase time (and at least
// `min_ops` ops) have passed. With `samples` set, every odd op is traced
// into it; `after_round` runs after each round, outside the phase time.
Phase RunPhase(Workload& wl, const std::string& name, double budget,
               uint64_t min_ops, Samples* samples, Tally* tally,
               const std::function<void()>& after_round = [] {}) {
  Phase ph;
  uint64_t index = 0;
  for (uint64_t round = 0;; ++round) {
    if (round > 0) {
      if (auto err = wl.BeginRound(round); !err.empty()) {
        tally->Fail(name + " round", err);
        return ph;
      }
    }
    double round_s = 0;
    for (int i = 0; i < wl.RoundOps(); ++i, ++index) {
      wl.PrepareOp(index);
      const bool tr = samples != nullptr && index % 2 == 1;
      uint64_t cycles = 0;
      const auto t0 = Clock::now();
      const std::string err = wl.Op(index, tr ? samples : nullptr, &cycles);
      const double ms = MsSince(t0);
      round_s += ms / 1e3;
      ++tally->attempted;
      if (!err.empty()) {
        ++tally->failed;
        tally->Fail(name + " op " + std::to_string(index), err);
        continue;
      }
      if (tr) {
        ph.traced_ms.push_back(ms);
        if (auto perr = wl.Probe(index, samples); !perr.empty()) {
          tally->Fail(name + " probe " + std::to_string(index), perr);
        }
      } else {
        ph.op_ms.push_back(ms);
        ph.op_cycles.push_back(static_cast<double>(cycles));
      }
    }
    const auto t1 = Clock::now();
    wl.EndRound();
    round_s += SecondsSince(t1);
    ph.seconds += round_s;
    after_round();
    if (ph.seconds >= budget && index >= min_ops) break;
  }
  return ph;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void PrintResult(const Tally& t, const Metrics& m) {
  std::string s = "{\"correct\": ";
  s += t.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(t.attempted);
  s += ", \"failed\": " + std::to_string(t.failed);
  s += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + Num(metric.value) +
         ", \"unit\": \"" + metric.unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

// Makes a fresh instance of workload `name` and times its Setup(),
// appending the seconds to `*out`. Returns nullptr when set-up failed.
std::unique_ptr<Workload> TimedSetup(const std::string& name, uint64_t seed,
                                     std::vector<double>* out, Tally* tally) {
  auto wl = Make(name, seed);
  const auto t0 = Clock::now();
  const std::string err = wl->Setup();
  out->push_back(SecondsSince(t0));
  if (!err.empty()) {
    tally->Fail(name + " setup", err);
    return nullptr;
  }
  return wl;
}

// kSetups timed set-ups, each of a fresh instance (the previous one is
// destroyed first, untimed); returns the last.
std::unique_ptr<Workload> SetUp(const std::string& name, uint64_t seed,
                                std::vector<double>* out, Tally* tally) {
  std::unique_ptr<Workload> wl;
  for (int k = 0; k < kSetups; ++k) {
    wl.reset();
    wl = TimedSetup(name, seed, out, tally);
    if (!wl) break;
  }
  return wl;
}

bool Prepare(Workload& wl, const std::string& name, Tally* tally) {
  if (auto err = wl.Prepare(); !err.empty()) {
    tally->Fail(name + " prepare", err);
    return false;
  }
  return true;
}

// Host-drift diagnostic on stderr: the mean op time of each ~1 s stretch
// of the run, as a range. The simulated work of every op is the same, so
// the range is the host's own variation.
void PrintDrift(const std::vector<double>& op_ms) {
  std::vector<double> block_means;
  double t = 0, sum = 0;
  int n = 0;
  for (double ms : op_ms) {
    t += ms;
    sum += ms;
    ++n;
    if (t >= 1000) {
      block_means.push_back(sum / n);
      t = sum = 0;
      n = 0;
    }
  }
  if (block_means.size() < 2) return;
  const auto [lo, hi] =
      std::minmax_element(block_means.begin(), block_means.end());
  std::fprintf(stderr,
               "perfbench: host drift: mean op time per 1 s stretch %.4g-%.4g "
               "ms (x%.2f) over %zu stretches\n",
               *lo, *hi, *hi / *lo, block_means.size());
}

int RunPlain(const Args& a) {
  Tally tally;
  Metrics m;
  std::vector<double> setups;
  auto wl = SetUp(a.workload, a.seed, &setups, &tally);
  if (!wl || !Prepare(*wl, a.workload, &tally)) return 1;
  wl->set_sabotage(a.self_test);
  // Each sample sets up a fresh instance and destroys it at once, so the
  // run's peak RSS holds only the workload's own stack.
  auto last_setup = Clock::now();
  auto sample_setup = [&] {
    if (SecondsSince(last_setup) < kSetupEvery) return;
    TimedSetup(a.workload, a.seed, &setups, &tally);
    last_setup = Clock::now();
  };
  Phase ph = RunPhase(*wl, a.workload, a.seconds, 10, nullptr, &tally,
                      sample_setup);
  if (auto err = wl->Finish(); !err.empty()) tally.Fail(a.workload, err);
  m["setup_s"] = {Median(setups), "s"};
  m["peak_rss_mb"] = {PeakRssMb(), "MB"};
  m["p90_ms"] = {Quantile(ph.op_ms, 0.9), "ms"};
  // The median op: the first op on a fresh runtime pays cold simulated
  // caches, so a mean would depend on how many ops fit in the run.
  m["sim_cycles_per_op"] = {Median(ph.op_cycles), "cycles"};
  // Throughput and the median op time swing with the share of the run the
  // host spends in its slow state, so they are reported on stderr only
  // (see README, "Why p90 and not p50").
  std::fprintf(stderr,
               "perfbench: %zu ops, ops_per_s %.6g, p50_ms %.6g, p10_ms %.6g\n",
               ph.op_ms.size(),
               static_cast<double>(ph.op_ms.size()) / ph.seconds,
               Quantile(ph.op_ms, 0.5), Quantile(ph.op_ms, 0.1));
  PrintDrift(ph.op_ms);
  PrintResult(tally, m);
  return tally.correct && tally.failed == 0 ? 0 : 1;
}

// Every workload's layers, in a fixed order (pipeline first, so its RSS
// slope is taken on a fresh heap). The named workload gets 70% of the
// time; ops alternate untraced/traced so trace.overhead_pct compares
// neighbours under the same host conditions.
int RunTraced(const Args& a) {
  Tally tally;
  Metrics m;
  for (const char* name : kWorkloads) {
    const bool primary = a.workload == name;
    std::vector<double> setups;
    auto wl = SetUp(name, a.seed, &setups, &tally);
    if (!wl || !Prepare(*wl, name, &tally)) return 1;
    wl->set_sabotage(a.self_test && primary);
    if (auto err = wl->EnableTracing(); !err.empty()) {
      tally.Fail(std::string(name) + " tracing", err);
      return 1;
    }
    Samples samples;
    const double budget = a.seconds * (primary ? 0.7 : 0.1);
    Phase ph = RunPhase(*wl, name, budget, 4, &samples, &tally);
    if (auto err = wl->Finish(); !err.empty()) tally.Fail(name, err);
    wl->Report(samples, &m);
    if (primary) {
      m["trace.overhead_pct"] = {
          100 * (Mean(ph.traced_ms) / Mean(ph.op_ms) - 1), "%"};
    }
  }
  PrintResult(tally, m);
  return tally.correct && tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!ParseArgs(argc, argv, &a) || Make(a.workload, a.seed) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <pipeline|spec|serve|embed> "
                 "--seed <n> --seconds <s> --trace <0|1> [--self-test]\n");
    return 2;
  }
  return a.trace ? RunTraced(a) : RunPlain(a);
}
