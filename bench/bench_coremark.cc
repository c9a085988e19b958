// CoreMark (artifact appendix A.6.3): the openly-available workload the
// paper's artifact offers for users without a SPEC license. Reports LFI
// overheads at every optimization level on both core models, plus the
// per-sandbox Spectre-isolation cost on top of O2 (Section 7.1), and a
// host-side backend wall-throughput section (chained vs block vs step
// dispatch on the O2 build) carrying the same in-run speedup gates as
// bench_emu_dispatch — simulated results must be bit-identical across
// backends before any rate is reported.

#include "harness.h"

#include <algorithm>
#include <vector>

namespace lfi::bench {
namespace {

constexpr uint64_t kScale = 1500000;

// Backend wall-throughput section: paired reps (all three dispatch modes
// back-to-back per rep, order rotated), speedups as the median of per-rep
// paired ratios — the same noise handling, and the same gates, as
// bench_emu_dispatch (see its header comment for the gate rationale and
// the ablation ceiling behind the chained/block threshold).
constexpr int kBackendReps = 9;
constexpr double kMinChainedVsStep = 2.0;
constexpr double kMinChainedVsBlock = 1.1;
// The gated section runs a longer build than the overhead sections above:
// short runs leave a larger cold-cache/warm-up fraction per rep, which
// eats into the chained/step margin and makes the 2x gate flaky.
constexpr uint64_t kBackendScale = 4000000;
// Host throttle phases (frequency scaling, steal) compress the measured
// chained/step ratio for minutes at a time — every rep of a section sits
// in the same phase, so no per-rep statistic recovers. A gate miss
// therefore re-measures the whole section; a semantic divergence never
// retries.
constexpr int kBackendAttempts = 3;

// `gate_vs_step` applies the chained/step gate; it is asserted on the
// primary (apple-m1) core only, matching bench_emu_dispatch — the other
// core model's cache parameters shift the timing-model/dispatch work mix,
// which moves the achievable ratio. The chained/block superiority gate
// holds on every core.
bool BackendSection(const arch::CoreParams& core, bool gate_vs_step,
                    JsonReport* json) {
  const std::string src = workloads::Generate("coremark", kBackendScale);
  const Built built = BuildLfi(src, Config::kO2);
  const emu::Dispatch kModes[3] = {emu::Dispatch::kBlock,
                                   emu::Dispatch::kChained,
                                   emu::Dispatch::kStep};
  for (int attempt = 0; attempt < kBackendAttempts; ++attempt) {
    Outcome outs[3];
    double best[3] = {0, 0, 0};
    std::vector<double> rates[3];
    for (int r = 0; r < kBackendReps; ++r) {
      for (int m = 0; m < 3; ++m) {
        const int mi = (r + m) % 3;
        const Outcome o = Run(built, core, true, true, false, kModes[mi]);
        if (!o.ok) {
          std::printf("  %-18s ERROR %s\n", "backends", o.error.c_str());
          return false;
        }
        const double rate =
            static_cast<double>(o.insts) / o.host_seconds / 1e6;
        rates[mi].push_back(rate);
        if (rate > best[mi]) {
          best[mi] = rate;
          outs[mi] = o;
        }
      }
    }
    const bool same = outs[0].status == outs[1].status &&
                      outs[0].cycles == outs[1].cycles &&
                      outs[0].insts == outs[1].insts &&
                      outs[0].status == outs[2].status &&
                      outs[0].cycles == outs[2].cycles &&
                      outs[0].insts == outs[2].insts;
    std::vector<double> vs_step, vs_block;
    for (int r = 0; r < kBackendReps; ++r) {
      vs_step.push_back(rates[1][r] / rates[2][r]);
      vs_block.push_back(rates[1][r] / rates[0][r]);
    }
    const double chained_vs_step = Median(vs_step);
    const double chained_vs_block = Median(vs_block);
    std::printf(
        "  %-18s step: %5.1f  block: %5.1f  chained: %5.1f Minsts/s   "
        "chained/step: %.2fx  chained/block: %.2fx  semantics: %s\n",
        "backends", best[2], best[0], best[1], chained_vs_step,
        chained_vs_block, same ? "identical" : "DIVERGED");
    if (!same) return false;
    const bool gates_pass =
        (!gate_vs_step || chained_vs_step >= kMinChainedVsStep) &&
        chained_vs_block >= kMinChainedVsBlock;
    if (gates_pass || attempt == kBackendAttempts - 1) {
      const std::string prefix = "coremark." + core.name + ".backend.";
      json->Add(prefix + "step_minsts_per_s", best[2]);
      json->Add(prefix + "block_minsts_per_s", best[0]);
      json->Add(prefix + "chained_minsts_per_s", best[1]);
      json->Add(prefix + "chained_speedup_vs_step", chained_vs_step);
      json->Add(prefix + "chained_speedup_vs_block", chained_vs_block);
      if (gate_vs_step && chained_vs_step < kMinChainedVsStep) {
        std::printf("  %-18s GATE FAILED: chained/step %.2fx < %.2fx\n",
                    "backends", chained_vs_step, kMinChainedVsStep);
        return false;
      }
      if (chained_vs_block < kMinChainedVsBlock) {
        std::printf("  %-18s GATE FAILED: chained/block %.2fx < %.2fx\n",
                    "backends", chained_vs_block, kMinChainedVsBlock);
        return false;
      }
      return true;
    }
    std::printf("  %-18s gate miss (attempt %d/%d), re-measuring --"
                " host throttle suspected\n",
                "backends", attempt + 1, kBackendAttempts);
  }
  return false;  // unreachable
}

bool RunCore(const arch::CoreParams& core, bool gate_vs_step,
             JsonReport* json) {
  const std::string src = workloads::Generate("coremark", kScale);
  const Outcome base = Run(BuildLfi(src, Config::kNative), core, false);
  if (!base.ok) {
    std::printf("%s: ERROR %s\n", core.name.c_str(), base.error.c_str());
    return false;
  }
  std::printf("\ncoremark - %s (native: %llu cycles, %llu insts)\n",
              core.name.c_str(),
              static_cast<unsigned long long>(base.cycles),
              static_cast<unsigned long long>(base.insts));
  const std::string prefix = "coremark." + core.name + ".";
  json->Add(prefix + "native.cycles", static_cast<double>(base.cycles));
  for (Config c : {Config::kO0, Config::kO1, Config::kO2,
                   Config::kO2NoLoads}) {
    const Outcome o =
        Run(BuildLfi(src, c), core, true, c != Config::kO2NoLoads);
    if (!o.ok || o.status != base.status) {
      std::printf("  %-18s ERROR %s\n", ConfigName(c), o.error.c_str());
      continue;
    }
    std::printf("  %-18s %6.1f%% overhead\n", ConfigName(c),
                OverheadPct(base.cycles, o.cycles));
    json->Add(prefix + ConfigSlug(c) + ".cycles",
              static_cast<double>(o.cycles));
    json->Add(prefix + ConfigSlug(c) + ".overhead_pct",
              OverheadPct(base.cycles, o.cycles));
  }
  // Counter decomposition of the O2 run (guards executed is the guard
  // instruction tax behind the overhead percentage above).
  {
    trace::TraceSink sink;
    const Outcome o = Run(BuildLfi(src, Config::kO2), core, true, true,
                          false, emu::Dispatch::kBlock, &sink);
    if (o.ok) {
      uint64_t guards = 0, loads = 0, stores = 0;
      for (const auto& [pid, m] : sink.all_metrics()) {
        guards += m.Get(trace::Counter::kGuardsExecuted);
        loads += m.Get(trace::Counter::kLoads);
        stores += m.Get(trace::Counter::kStores);
      }
      std::printf(
          "  %-18s %llu guards / %llu loads / %llu stores / %llu insts\n",
          "O2 breakdown", static_cast<unsigned long long>(guards),
          static_cast<unsigned long long>(loads),
          static_cast<unsigned long long>(stores),
          static_cast<unsigned long long>(o.insts));
      json->Add(prefix + "o2.guards", static_cast<double>(guards));
      json->Add(prefix + "o2.loads", static_cast<double>(loads));
      json->Add(prefix + "o2.stores", static_cast<double>(stores));
      json->Add(prefix + "o2.insts", static_cast<double>(o.insts));
    }
  }
  // O2 with per-sandbox predictor contexts (a second sandbox runs
  // alongside, so domain crossings actually happen).
  {
    const Built b = BuildLfi(src, Config::kO2);
    runtime::RuntimeConfig cfg;
    cfg.core = core;
    cfg.spectre_ctx_isolation = true;
    runtime::Runtime rt(cfg);
    auto p1 = rt.Load({b.elf.data(), b.elf.size()});
    auto p2 = rt.Load({b.elf.data(), b.elf.size()});
    if (p1.ok() && p2.ok()) {
      rt.RunUntilIdle(uint64_t{2000} * 1000 * 1000);
      std::printf("  %-18s %6.1f%% overhead (2 sandboxes, vs 2x native)\n",
                  "O2 + SCXTNUM", OverheadPct(2 * base.cycles, rt.Cycles()));
      json->Add(prefix + "o2-scxtnum.cycles",
                static_cast<double>(rt.Cycles()));
      json->Add(prefix + "o2-scxtnum.overhead_pct",
                OverheadPct(2 * base.cycles, rt.Cycles()));
    }
  }
  // Backend wall throughput (its own longer O2 build), with hard gates.
  return BackendSection(core, gate_vs_step, json);
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  auto json = lfi::bench::JsonReport::FromArgs(argc, argv);
  std::printf("=== CoreMark-like workload (artifact appendix A.6.3) ===\n");
  bool ok = true;
  ok &= lfi::bench::RunCore(lfi::arch::AppleM1LikeParams(),
                            /*gate_vs_step=*/true, &json);
  ok &= lfi::bench::RunCore(lfi::arch::GcpT2aLikeParams(),
                            /*gate_vs_step=*/false, &json);
  ok &= json.Write();
  return ok ? 0 : 1;
}
