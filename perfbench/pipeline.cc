// `pipeline`: one seeded module through every stage, per op.
//
//   .s text -> asmtext::Parse -> rewriter::Rewrite (O2) -> asmtext::Assemble
//   -> elf::Write -> Runtime::Load (ELF read, verify, map) -> RunUntilIdle
//
// All ops of a round share one long-lived Runtime (the cold-serve
// pattern), so the runtime's per-sandbox retention shows in peak RSS;
// rounds have a fixed size, so the peak is set by the work done and not by
// how many ops fit in the time budget. Every op's module is distinct: the
// program's shape (instruction sequence, registers, table offsets) is
// fixed, and the seed picks its 64-bit constants and the initial table
// contents. The simulated cost of an op is therefore the same for every
// seed, while no two modules share their bytes.
//
// Oracle: the benchmark interprets the same step list in C++ and derives
// the expected 16 bytes of stdout and the exit status from the seed.

#include <cstring>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "bench.h"
#include "elf/elf.h"
#include "fuzz/rng.h"
#include "rewriter/rewriter.h"
#include "runtime/runtime.h"
#include "verifier/verifier.h"

namespace perfbench {
namespace {

using lfi::fuzz::DeriveSeed;
using lfi::fuzz::Rng;

constexpr int kRoundOps = 48;              // modules per runtime
constexpr uint64_t kDataBytes = 1 << 20;   // service-sized data image
constexpr int kTableQuads = 64;            // seeded table at the data start
constexpr int kOutOffset = kTableQuads * 8;
constexpr int kLoopSteps = 48;
constexpr int kLoopIters = 24;
constexpr int kLineSteps = 720;
constexpr uint64_t kShapeSeed = 0x9b1f0e5d2c3a4b67ULL;  // fixed, not --seed
constexpr uint64_t kRunBudget = 50'000'000;

enum class Kind : uint8_t { kAdd, kRorEor, kMulConst, kLoadAdd, kStore,
                            kAddConst, kLsrEor, kCount };

// One step of the program's shape. Registers are x0..x7; x9 is scratch,
// x14 the table base, x15 the loop counter.
struct Step {
  Kind kind;
  int d, s;  // destination / source state register
  int amt;   // shift amount (ror/lsr)
  int slot;  // table quad (load/store)
};

std::vector<Step> MakeShape(Rng& r, int n) {
  std::vector<Step> v;
  for (int i = 0; i < n; ++i) {
    Step st;
    st.kind = static_cast<Kind>(r.Below(static_cast<uint64_t>(Kind::kCount)));
    st.d = static_cast<int>(r.Below(8));
    st.s = static_cast<int>(r.Below(8));
    st.amt = static_cast<int>(r.Range(1, 63));
    st.slot = static_cast<int>(r.Below(kTableQuads));
    v.push_back(st);
  }
  return v;
}

struct Shape {
  std::vector<Step> loop, line;
  Shape() {
    Rng r(kShapeSeed);
    loop = MakeShape(r, kLoopSteps);
    line = MakeShape(r, kLineSteps);
  }
};
const Shape& TheShape() {
  static const Shape s;
  return s;
}

bool UsesConst(Kind k) { return k == Kind::kMulConst || k == Kind::kAddConst; }

uint64_t Ror(uint64_t x, int a) { return (x >> a) | (x << (64 - a)); }

// The C++ reference semantics of one step.
void Apply(const Step& st, uint64_t c, uint64_t* x, uint64_t* tbl) {
  switch (st.kind) {
    case Kind::kAdd: x[st.d] += x[st.s]; break;
    case Kind::kRorEor: x[st.d] ^= Ror(x[st.s], st.amt); break;
    case Kind::kMulConst: x[st.d] *= (c | 1); break;
    case Kind::kLoadAdd: x[st.d] += tbl[st.slot]; break;
    case Kind::kStore: tbl[st.slot] = x[st.d]; break;
    case Kind::kAddConst: x[st.d] += c; break;
    case Kind::kLsrEor: x[st.d] ^= x[st.s] >> st.amt; break;
    case Kind::kCount: break;
  }
}

std::string R(int i) { return "x" + std::to_string(i); }

// movz + three movk, whatever the value, so the instruction count (and
// so the simulated cost) does not depend on the seed.
void Imm64(std::string* o, uint64_t v) {
  *o += "  movz x9, #" + std::to_string(v & 0xffff) + "\n";
  for (int sh = 16; sh < 64; sh += 16) {
    *o += "  movk x9, #" + std::to_string((v >> sh) & 0xffff) + ", lsl #" +
          std::to_string(sh) + "\n";
  }
}

void Emit(const Step& st, uint64_t c, std::string* o) {
  const std::string d = R(st.d), s = R(st.s);
  switch (st.kind) {
    case Kind::kAdd: *o += "  add " + d + ", " + d + ", " + s + "\n"; break;
    case Kind::kRorEor:
      *o += "  ror x9, " + s + ", #" + std::to_string(st.amt) + "\n";
      *o += "  eor " + d + ", " + d + ", x9\n";
      break;
    case Kind::kMulConst:
      Imm64(o, c | 1);
      *o += "  mul " + d + ", " + d + ", x9\n";
      break;
    case Kind::kLoadAdd:
      *o += "  ldr x9, [x14, #" + std::to_string(st.slot * 8) + "]\n";
      *o += "  add " + d + ", " + d + ", x9\n";
      break;
    case Kind::kStore:
      *o += "  str " + d + ", [x14, #" + std::to_string(st.slot * 8) + "]\n";
      break;
    case Kind::kAddConst:
      Imm64(o, c);
      *o += "  add " + d + ", " + d + ", x9\n";
      break;
    case Kind::kLsrEor:
      *o += "  lsr x9, " + s + ", #" + std::to_string(st.amt) + "\n";
      *o += "  eor " + d + ", " + d + ", x9\n";
      break;
    case Kind::kCount: break;
  }
}

struct Module {
  std::string text;
  std::string want_out;  // 16 bytes: final x0, x1 little-endian
  int want_status = 0;   // final x0 & 127
};

Module GenModule(uint64_t mseed) {
  const Shape& shape = TheShape();
  Rng r(mseed);
  uint64_t tbl[kTableQuads];
  for (auto& q : tbl) q = r.Next();
  auto consts = [&r](const std::vector<Step>& steps) {
    std::vector<uint64_t> c;
    for (const Step& st : steps) c.push_back(UsesConst(st.kind) ? r.Next() : 0);
    return c;
  };
  const std::vector<uint64_t> loop_c = consts(shape.loop);
  const std::vector<uint64_t> line_c = consts(shape.line);

  Module m;
  std::string& o = m.text;
  o.reserve(96 * 1024);
  o += ".globl _start\n.text\n_start:\n";
  o += "  adrp x14, tbl\n  add x14, x14, :lo12:tbl\n";
  for (int i = 0; i < 8; ++i) {
    o += "  ldr " + R(i) + ", [x14, #" + std::to_string(i * 8) + "]\n";
  }
  o += "  movz x15, #" + std::to_string(kLoopIters) + "\n";
  o += "loop:\n";
  for (size_t i = 0; i < loop_c.size(); ++i) Emit(shape.loop[i], loop_c[i], &o);
  o += "  sub x15, x15, #1\n  cbnz x15, loop\n";
  for (size_t i = 0; i < line_c.size(); ++i) Emit(shape.line[i], line_c[i], &o);
  o += "  str x0, [x14, #" + std::to_string(kOutOffset) + "]\n";
  o += "  str x1, [x14, #" + std::to_string(kOutOffset + 8) + "]\n";
  o += "  movz x9, #127\n  and x19, x0, x9\n";
  o += "  add x1, x14, #" + std::to_string(kOutOffset) + "\n";
  o += "  mov x0, #1\n  mov x2, #16\n  rtcall #1\n";
  o += "  mov x0, x19\n  rtcall #0\n";
  o += ".data\ntbl:\n";
  for (uint64_t q : tbl) o += "  .quad " + std::to_string(q) + "\n";
  o += "out:\n  .zero 16\npad:\n  .zero " +
       std::to_string(kDataBytes - kOutOffset - 16) + "\n";

  // Reference run.
  uint64_t x[8];
  std::memcpy(x, tbl, sizeof x);
  for (int it = 0; it < kLoopIters; ++it) {
    for (size_t i = 0; i < loop_c.size(); ++i) {
      Apply(shape.loop[i], loop_c[i], x, tbl);
    }
  }
  for (size_t i = 0; i < line_c.size(); ++i) {
    Apply(shape.line[i], line_c[i], x, tbl);
  }
  m.want_out.resize(16);
  std::memcpy(m.want_out.data(), &x[0], 8);  // the guest is little-endian,
  std::memcpy(m.want_out.data() + 8, &x[1], 8);  // like every supported host
  m.want_status = static_cast<int>(x[0] & 127);
  return m;
}

class Pipeline : public Workload {
 public:
  explicit Pipeline(uint64_t seed) : seed_(seed) {}

  // All a user pays before the first module: a fresh runtime.
  std::string Setup() override {
    rt_ = std::make_unique<lfi::runtime::Runtime>(BenchConfig());
    return "";
  }
  std::string Prepare() override {
    NewSources(0);
    return "";
  }
  int RoundOps() const override { return kRoundOps; }
  std::string BeginRound(uint64_t round) override {
    const std::string err = Setup();
    NewSources(round);
    return err;
  }
  void EndRound() override {
    if (rss_slope_ < 0) {
      rss_slope_ = (CurrentRssMb() - rss_start_) / kRoundOps * 100;
    }
    rt_.reset();
  }

  std::string Op(uint64_t index, Samples* tr, uint64_t* cycles) override {
    const Module& mod = mods_[index % kRoundOps];
    auto t = Clock::now();
    auto file = lfi::asmtext::Parse(mod.text);
    if (!file.ok()) return "parse: " + file.error();
    if (tr) tr->Add("asmtext.parse_ms", MsSince(t));

    t = Clock::now();
    lfi::rewriter::RewriteOptions ropts;
    ropts.level = lfi::rewriter::OptLevel::kO2;
    auto rw = lfi::rewriter::Rewrite(*file, ropts);
    if (!rw.ok()) return "rewrite: " + rw.error();
    if (tr) tr->Add("rewriter.rewrite_ms", MsSince(t));

    t = Clock::now();
    lfi::asmtext::LayoutSpec spec;
    spec.text_offset = lfi::runtime::kProgramStart;
    auto img = lfi::asmtext::Assemble(*rw, spec);
    if (!img.ok()) return "assemble: " + img.error();
    if (tr) tr->Add("asmtext.assemble_ms", MsSince(t));

    t = Clock::now();
    const std::vector<uint8_t> bytes =
        lfi::elf::Write(lfi::elf::FromAssembled(*img));
    if (tr) tr->Add("elf.write_ms", MsSince(t));
    if (tr) last_text_ = img->text;

    const uint64_t flt0 = tr ? MinorFaults() : 0;
    t = Clock::now();
    auto pid = rt_->Load({bytes.data(), bytes.size()});
    if (!pid.ok()) return "load: " + pid.error();
    if (tr) {
      tr->Add("runtime.load_ms", MsSince(t));
      tr->Add("runtime.load_minor_faults",
              static_cast<double>(MinorFaults() - flt0));
    }

    t = Clock::now();
    const uint64_t c0 = rt_->Cycles();
    rt_->RunUntilIdle(kRunBudget);
    *cycles = rt_->Cycles() - c0;
    if (tr) tr->Add("emu.run_ms", MsSince(t));

    const lfi::runtime::Proc* p = rt_->proc(*pid);
    if (p == nullptr || p->exit_kind != lfi::runtime::ExitKind::kExited) {
      return "module did not exit: " + (p ? p->fault_detail : "no proc");
    }
    const int want = mod.want_status ^ (Sabotaged(index) ? 1 : 0);
    if (p->exit_status != want) {
      return "exit status " + std::to_string(p->exit_status) + ", want " +
             std::to_string(want);
    }
    if (p->out != mod.want_out) return "stdout differs from the reference";
    return "";
  }

  // The verifier, timed apart from Load on the text the op just built.
  std::string Probe(uint64_t, Samples* tr) override {
    const auto t = Clock::now();
    const auto v =
        lfi::verifier::Verify({last_text_.data(), last_text_.size()});
    tr->Add("verifier.verify_ms", MsSince(t));
    tr->Add("verifier.insts_checked", static_cast<double>(v.insts_checked));
    return v.ok ? "" : "verifier rejected the O2 build: " + v.reason;
  }

  void Report(const Samples& s, Metrics* out) const override {
    for (const char* k : {"asmtext.parse_ms", "rewriter.rewrite_ms",
                          "asmtext.assemble_ms", "elf.write_ms",
                          "verifier.verify_ms", "runtime.load_ms",
                          "emu.run_ms"}) {
      (*out)[k] = {s.Median(k), "ms"};
    }
    (*out)["verifier.insts_checked"] = {s.Mean("verifier.insts_checked"),
                                        "count"};
    (*out)["runtime.load_minor_faults"] = {
        s.Mean("runtime.load_minor_faults"), "count"};
    (*out)["runtime.rss_growth_mb_per_100_loads"] = {rss_slope_,
                                                     "MB/100loads"};
  }

 private:
  // The round's seeded sources and their reference results: the
  // benchmark's own work, kept out of set-up and of every op.
  void NewSources(uint64_t round) {
    mods_.clear();
    for (int i = 0; i < kRoundOps; ++i) {
      mods_.push_back(GenModule(DeriveSeed(seed_, round * kRoundOps + i)));
    }
    rss_start_ = CurrentRssMb();
  }

  uint64_t seed_;
  std::unique_ptr<lfi::runtime::Runtime> rt_;
  std::vector<Module> mods_;
  std::vector<uint8_t> last_text_;
  double rss_start_ = 0;
  double rss_slope_ = -1;  // first round's RSS growth per 100 loads
};

}  // namespace

std::unique_ptr<Workload> MakePipeline(uint64_t seed) {
  return std::make_unique<Pipeline>(seed);
}

}  // namespace perfbench
