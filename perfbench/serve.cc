// `serve`: one closed-loop session of a fixed number of requests through
// serve::Server per op, over one warm SpawnPool with recycling on (the
// product default). More clients than max_concurrency, so a queue forms;
// the queue and the SLO are wide enough that nothing is ever shed. Each
// round of sessions gets a freshly set-up stack. The
// handler has a ~1 MiB image, dirties a few data pages and does little
// compute, so the control plane, the pool and snapshot restore/recycle
// do most of the work. The seed drives each session's traffic (tenant
// assignment) and the value the handler stores.
//
// Oracles: every request completes, none is shed or fails; replaying the
// first session's seed on a freshly set-up stack gives the same
// outcome_hash.

#include <memory>
#include <optional>

#include "bench.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "runtime/spawn_pool.h"
#include "serve/serve.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using lfi::fuzz::DeriveSeed;

constexpr uint64_t kRequests = 128;  // per session
// Sessions per stack. The runtime keeps every sandbox the pool ever
// evicted, and its scheduler scans them all, so a session gets slower
// the more sessions its stack has served; a fixed round keeps every
// metric set by the work done rather than by the time budget.
constexpr int kRoundSessions = 96;
constexpr uint32_t kClients = 16;
constexpr uint32_t kConcurrency = 8;
constexpr int kPrewarm = 16;

// Stores a seeded value into four pages spread over the 1 MiB payload,
// spins briefly, writes "ok" and exits 0.
std::string HandlerSource(uint64_t value) {
  std::string s = ".globl _start\n.text\n_start:\n";
  s += "  adrp x14, payload\n  add x14, x14, :lo12:payload\n";
  for (int sh = 0; sh < 64; sh += 16) {
    s += std::string(sh == 0 ? "  movz" : "  movk") + " x9, #" +
         std::to_string((value >> sh) & 0xffff) +
         (sh == 0 ? "" : ", lsl #" + std::to_string(sh)) + "\n";
  }
  for (int page = 0; page < 4; ++page) {
    s += "  movz x10, #" + std::to_string(page * 4) + ", lsl #16\n";
    s += "  add x10, x14, x10\n  str x9, [x10]\n";
  }
  s += "  movz x19, #64\nspin:\n  sub x19, x19, #1\n  cbnz x19, spin\n";
  s += "  adrp x1, msg\n  add x1, x1, :lo12:msg\n";
  s += "  mov x0, #1\n  mov x2, #2\n  rtcall #1\n";
  s += "  mov x0, #0\n  rtcall #0\n";
  s += ".data\nmsg:\n  .asciz \"ok\"\n.balign 16\npayload:\n  .zero 1048576\n";
  return s;
}

lfi::serve::ServeConfig SessionConfig(uint64_t traffic_seed) {
  lfi::serve::ServeConfig cfg;
  cfg.traffic.kind = lfi::serve::TrafficKind::kClosed;
  cfg.traffic.seed = traffic_seed;
  cfg.traffic.requests = kRequests;
  cfg.traffic.tenants = 4;
  cfg.traffic.closed_clients = kClients;
  cfg.traffic.think_cycles = 0;
  cfg.tiers.resize(1);
  cfg.tiers[0].slo_cycles = uint64_t{1} << 40;  // never late
  cfg.admission.max_queue_depth = 4 * kClients;
  cfg.admission.shed_on_deadline = false;
  cfg.max_concurrency = kConcurrency;
  cfg.pool_min = kConcurrency;
  cfg.pool_max = 2 * kClients;
  return cfg;
}

// Runtime + template load + pool snapshot + prewarmed pool. Traced
// stacks carry a sink from the start.
struct Stack {
  std::unique_ptr<lfi::trace::TraceSink> sink;
  std::unique_ptr<lfi::runtime::Runtime> rt;
  std::shared_ptr<const lfi::snapshot::Snapshot> snap;
  std::unique_ptr<lfi::runtime::SpawnPool> pool;

  // Tears down users before what they point at.
  void Clear() {
    pool.reset();
    rt.reset();
    sink.reset();
    snap.reset();
  }
};

std::string MakeStack(const std::vector<uint8_t>& elf, bool traced,
                      Stack* s) {
  s->Clear();
  if (traced) s->sink = std::make_unique<lfi::trace::TraceSink>();
  s->rt = std::make_unique<lfi::runtime::Runtime>(BenchConfig());
  if (traced) s->rt->set_trace_sink(s->sink.get());
  auto pid = s->rt->Load({elf.data(), elf.size()});
  if (!pid.ok()) return "template load: " + pid.error();
  auto cap = s->rt->CaptureSnapshot(*pid);
  if (!cap.ok()) return "capture: " + cap.error();
  s->snap = std::make_shared<const lfi::snapshot::Snapshot>(*std::move(cap));
  if (auto st = s->rt->Kill(*pid, "template"); !st.ok()) return st.error();
  s->pool = std::make_unique<lfi::runtime::SpawnPool>(s->rt.get(), s->snap);
  if (s->pool->Prewarm(kPrewarm) != kPrewarm) return "prewarm fell short";
  return "";
}

struct Session {
  lfi::serve::ServeReport rep;
  uint64_t cycles = 0;
};

// Runs one session and checks that exactly `want` requests completed and
// none failed or was shed.
std::string RunSession(Stack& s, uint64_t traffic_seed, uint64_t want,
                       Session* out) {
  lfi::serve::Server srv(s.rt.get(), SessionConfig(traffic_seed),
                         s.pool.get());
  const uint64_t c0 = s.rt->Cycles();
  out->rep = srv.Run();
  out->cycles = s.rt->Cycles() - c0;
  const auto& r = out->rep;
  const uint64_t shed = r.shed_queue + r.shed_deadline + r.shed_quota +
                        r.shed_breaker + r.shed_degrade + r.dispatch_failures;
  if (r.aborted) return "session hit max_steps";
  if (r.completed != want || r.failed != 0 || shed != 0) {
    return "completed " + std::to_string(r.completed) + "/" +
           std::to_string(want) + ", failed " + std::to_string(r.failed) +
           ", shed " + std::to_string(shed);
  }
  return "";
}

class Serve : public Workload {
 public:
  explicit Serve(uint64_t seed) : seed_(seed) {}

  std::string Setup() override {
    if (auto err =
            BuildElf(HandlerSource(seed_ * 0x9E3779B97F4A7C15ULL), true, &elf_);
        !err.empty()) {
      return "handler: " + err;
    }
    return MakeStack(elf_, false, &plain_);
  }

  std::string EnableTracing() override {
    tracing_ = true;
    return MakeStack(elf_, true, &traced_);
  }

  int RoundOps() const override { return kRoundSessions; }
  std::string BeginRound(uint64_t) override {
    if (auto err = MakeStack(elf_, false, &plain_); !err.empty()) return err;
    return tracing_ ? MakeStack(elf_, true, &traced_) : "";
  }
  void EndRound() override {
    plain_.Clear();
    traced_.Clear();
  }

  // (snapshot restores, dirty pages restored) the sink has counted.
  static std::pair<uint64_t, uint64_t> Restores(const Stack& st) {
    uint64_t restores = 0, dirty = 0;
    for (const auto& [pid, m] : st.sink->all_metrics()) {
      restores += m.Get(lfi::trace::Counter::kSnapshotRestores);
      dirty += m.Get(lfi::trace::Counter::kSnapshotDirtyPages);
    }
    return {restores, dirty};
  }

  std::string Op(uint64_t index, Samples* tr, uint64_t* cycles) override {
    Stack& st = tr ? traced_ : plain_;
    const auto r0 = tr ? Restores(st) : std::pair<uint64_t, uint64_t>{};
    const uint64_t hits0 = st.pool->warm_hits();
    const uint64_t cold0 = st.pool->cold_spawns();
    const uint64_t rec0 = st.pool->recycles();
    Session ses;
    const std::string err =
        RunSession(st, DeriveSeed(seed_, index),
                   kRequests + (Sabotaged(index) ? 1 : 0), &ses);
    if (!err.empty()) return err;
    *cycles = ses.cycles;
    if (index == 0) first_hash_ = ses.rep.outcome_hash;
    if (tr) {
      const auto r1 = Restores(st);
      tr->Add("dirty", static_cast<double>(r1.second - r0.second) /
                           static_cast<double>(r1.first - r0.first));
      tr->Add("serve.warm_hits",
              static_cast<double>(st.pool->warm_hits() - hits0));
      tr->Add("serve.cold_spawns",
              static_cast<double>(st.pool->cold_spawns() - cold0));
      tr->Add("serve.recycles",
              static_cast<double>(st.pool->recycles() - rec0));
      tr->Add("serve.sim_p50_cycles",
              static_cast<double>(ses.rep.LatencyPercentile(50)));
      tr->Add("serve.sim_p99_cycles",
              static_cast<double>(ses.rep.LatencyPercentile(99)));
      tr->Add("serve.sim_req_per_mcycle", ses.rep.ThroughputPerMcycle());
    }
    return "";
  }

  // Direct calls on the same image: spawn, capture, run, recycle.
  std::string Probe(uint64_t, Samples* tr) override {
    auto& rt = *traced_.rt;
    auto t = Clock::now();
    auto pid = rt.SpawnFromSnapshot(traced_.snap, false);
    tr->Add("snapshot.spawn_ms", MsSince(t));
    if (!pid.ok()) return "spawn: " + pid.error();
    t = Clock::now();
    auto cap = rt.CaptureSnapshot(*pid);
    tr->Add("snapshot.capture_ms", MsSince(t));
    if (!cap.ok()) return "capture: " + cap.error();
    rt.set_retain_on_exit(*pid, true);
    if (auto st = rt.Activate(*pid); !st.ok()) return st.error();
    rt.RunUntilIdle();
    t = Clock::now();
    const auto st = rt.Recycle(*pid);
    tr->Add("runtime.recycle_ms", MsSince(t));
    if (!st.ok()) return "recycle: " + st.error();
    (void)rt.Kill(*pid, "probe done");
    return "";
  }

  // Replays session 0 on a fresh stack: same seed, same outcome_hash.
  std::string Finish() override {
    if (!first_hash_) return "";
    Stack fresh;
    if (auto err = MakeStack(elf_, false, &fresh); !err.empty()) return err;
    Session ses;
    if (auto err = RunSession(fresh, DeriveSeed(seed_, 0), kRequests, &ses);
        !err.empty()) {
      return "replay: " + err;
    }
    if (ses.rep.outcome_hash != *first_hash_) {
      return "replay of session 0 gave another outcome_hash";
    }
    return "";
  }

  void Report(const Samples& s, Metrics* out) const override {
    for (const char* k :
         {"snapshot.spawn_ms", "runtime.recycle_ms", "snapshot.capture_ms"}) {
      (*out)[k] = {s.Median(k), "ms"};
    }
    (*out)["snapshot.dirty_pages_per_restore"] = {s.Mean("dirty"), "count"};
    for (const char* k : {"serve.warm_hits", "serve.cold_spawns",
                          "serve.recycles"}) {
      (*out)[k] = {s.Mean(k), "count"};
    }
    (*out)["serve.sim_p50_cycles"] = {s.Median("serve.sim_p50_cycles"),
                                      "cycles"};
    (*out)["serve.sim_p99_cycles"] = {s.Median("serve.sim_p99_cycles"),
                                      "cycles"};
    (*out)["serve.sim_req_per_mcycle"] = {
        s.Median("serve.sim_req_per_mcycle"), "1/Mcycle"};
  }

 private:
  uint64_t seed_;
  std::vector<uint8_t> elf_;
  Stack plain_, traced_;
  bool tracing_ = false;
  std::optional<uint64_t> first_hash_;
};

}  // namespace

std::unique_ptr<Workload> MakeServe(uint64_t seed) {
  return std::make_unique<Serve>(seed);
}

}  // namespace perfbench
