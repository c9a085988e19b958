// `spec`: one pass over the 15 stand-in programs (the 14 SPEC programs
// plus coremark), each O2-built during set-up, loaded into a fresh
// Runtime (as lfi-run does) and run to exit on the default chained
// backend. Execution dominates. The seed sets the order of the pass.
//
// Oracles: each program's exit status and stdout equal its unguarded
// native build's (semantic preservation by the rewriter); each program's
// simulated cycles are the same on every pass; once per run, one
// program's cycles are identical on the chained and step backends.

#include <cmath>
#include <optional>

#include "bench.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "trace/trace.h"
#include "workloads/workloads.h"

namespace perfbench {
namespace {

using lfi::fuzz::DeriveSeed;
using lfi::fuzz::Rng;

// Length of each program's main phase. The stand-ins' fixed working sets
// put a floor of ~20M instructions under a pass whatever the scale.
constexpr uint64_t kScale = 100'000;
constexpr uint64_t kRunBudget = 500'000'000;

struct Outcome {
  int status = 0;
  std::string out;
  uint64_t cycles = 0;
  uint64_t insts = 0;
};

// Loads `elf` into a fresh runtime and runs it to exit.
std::string RunOnce(const std::vector<uint8_t>& elf, lfi::emu::Dispatch d,
                    bool verify, lfi::trace::TraceSink* sink, Outcome* o,
                    double* run_ms = nullptr) {
  lfi::runtime::RuntimeConfig cfg = BenchConfig();
  cfg.dispatch = d;
  cfg.enforce_verification = verify;
  lfi::runtime::Runtime rt(cfg);
  if (sink != nullptr) rt.set_trace_sink(sink);
  auto pid = rt.Load({elf.data(), elf.size()});
  if (!pid.ok()) return "load: " + pid.error();
  const auto t = Clock::now();
  rt.RunUntilIdle(kRunBudget);
  if (run_ms != nullptr) *run_ms = MsSince(t);
  const lfi::runtime::Proc* p = rt.proc(*pid);
  if (p->exit_kind != lfi::runtime::ExitKind::kExited) {
    return "did not exit: " + p->fault_detail;
  }
  o->status = p->exit_status;
  o->out = p->out;
  o->cycles = rt.Cycles();
  o->insts = rt.machine().timing().Retired();
  return "";
}

struct Program {
  std::string name;
  std::vector<uint8_t> o2;
  Outcome want;         // native build's status and stdout
  uint64_t cycles = 0;  // O2 cycles, pinned by the first pass
};

class Spec : public Workload {
 public:
  explicit Spec(uint64_t seed) : seed_(seed) {}

  std::string Setup() override {
    progs_.clear();
    for (const auto& w : lfi::workloads::AllWorkloads()) {
      Program p;
      p.name = w.name;
      const std::string src = lfi::workloads::Generate(w.name, kScale);
      if (auto err = BuildElf(src, true, &p.o2); !err.empty()) {
        return w.name + ": " + err;
      }
      progs_.push_back(std::move(p));
    }
    return "";
  }

  // Native reference runs: the unguarded build of the same source.
  std::string Prepare() override {
    for (Program& p : progs_) {
      const std::string src = lfi::workloads::Generate(p.name, kScale);
      std::vector<uint8_t> native;
      if (auto err = BuildElf(src, false, &native); !err.empty()) {
        return p.name + " native: " + err;
      }
      if (auto err = RunOnce(native, lfi::emu::Dispatch::kChained, false,
                             nullptr, &p.want);
          !err.empty()) {
        return p.name + " native: " + err;
      }
    }
    return "";
  }

  void PrepareOp(uint64_t index) override {
    order_.resize(progs_.size());
    for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    Rng r(DeriveSeed(seed_, index));
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[r.Below(i)]);
    }
  }

  std::string Op(uint64_t index, Samples* tr, uint64_t* cycles) override {
    *cycles = 0;
    lfi::trace::ExecCounters pass{};
    for (size_t k : order_) {
      Program& p = progs_[k];
      std::optional<lfi::trace::TraceSink> sink;
      if (tr) sink.emplace();
      Outcome o;
      double run_ms = 0;
      if (auto err = RunOnce(p.o2, lfi::emu::Dispatch::kChained, true,
                             tr ? &*sink : nullptr, &o, &run_ms);
          !err.empty()) {
        return p.name + ": " + err;
      }
      const int want = p.want.status ^ (Sabotaged(index) ? 1 : 0);
      if (o.status != want || o.out != p.want.out) {
        return p.name + ": O2 exit status " + std::to_string(o.status) +
               " / stdout differ from the native build (status " +
               std::to_string(want) + ")";
      }
      if (p.cycles == 0) p.cycles = o.cycles;
      if (o.cycles != p.cycles) {
        return p.name + ": simulated cycles changed between passes";
      }
      *cycles += o.cycles;
      if (tr) {
        tr->Add("emu.run_ms." + p.name, run_ms);
        tr->Add("mips." + p.name, static_cast<double>(o.insts) / run_ms / 1e3);
        for (const auto& [pid, m] : sink->all_metrics()) {
          using C = lfi::trace::Counter;
          pass.retired += m.Get(C::kInstRetired);
          pass.guards += m.Get(C::kGuardsExecuted);
          pass.loads += m.Get(C::kLoads);
          pass.stores += m.Get(C::kStores);
          pass.block_hits += m.Get(C::kBlockCacheHits);
          pass.block_misses += m.Get(C::kBlockCacheMisses);
        }
      }
    }
    if (tr) {
      tr->Add("insts", static_cast<double>(pass.retired));
      tr->Add("guards", static_cast<double>(pass.guards));
      tr->Add("loads", static_cast<double>(pass.loads));
      tr->Add("stores", static_cast<double>(pass.stores));
      tr->Add("hit_ratio", static_cast<double>(pass.block_hits) /
                               static_cast<double>(pass.block_hits +
                                                   pass.block_misses));
    }
    return "";
  }

  // The step backend is the reference for the chained one.
  std::string Finish() override {
    const Program& p = progs_[seed_ % progs_.size()];
    if (p.cycles == 0) return "";  // no pass completed
    Outcome o;
    if (auto err = RunOnce(p.o2, lfi::emu::Dispatch::kStep, true, nullptr, &o);
        !err.empty()) {
      return p.name + " on the step backend: " + err;
    }
    if (o.cycles != p.cycles) {
      return p.name + ": step backend ran " + std::to_string(o.cycles) +
             " cycles, chained " + std::to_string(p.cycles);
    }
    return "";
  }

  void Report(const Samples& s, Metrics* out) const override {
    double log_sum = 0;
    for (const Program& p : progs_) {
      (*out)["emu.run_ms." + p.name] = {s.Median("emu.run_ms." + p.name),
                                        "ms"};
      (*out)["emu.sim_cycles." + p.name] = {static_cast<double>(p.cycles),
                                            "cycles"};
      log_sum += std::log(s.Median("mips." + p.name));
    }
    (*out)["emu.sim_mips"] = {
        std::exp(log_sum / static_cast<double>(progs_.size())), "MIPS"};
    (*out)["emu.insts_per_op"] = {s.Median("insts"), "count"};
    (*out)["emu.guards_per_op"] = {s.Median("guards"), "count"};
    (*out)["emu.loads_per_op"] = {s.Median("loads"), "count"};
    (*out)["emu.stores_per_op"] = {s.Median("stores"), "count"};
    (*out)["emu.block_cache_hit_ratio"] = {s.Median("hit_ratio"), "ratio"};
  }

 private:
  uint64_t seed_;
  std::vector<Program> progs_;
  std::vector<size_t> order_;
};

}  // namespace

std::unique_ptr<Workload> MakeSpec(uint64_t seed) {
  return std::make_unique<Spec>(seed);
}

}  // namespace perfbench
