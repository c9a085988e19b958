// `embed`: one batch of typed calls into one embed::Sandbox per op —
// no-op calls, callback round trips, and 4 KiB BufIn and BufOut calls
// whose guest work is a few instructions. Transitions and marshalling do
// most of the work, in both directions (host->guest writes for BufIn,
// guest->host reads for BufOut). The seed picks every argument and
// buffer byte.
//
// Oracle: every return value and every BufOut byte equals the host's own
// computation of what the guest function does.

#include <cstring>
#include <functional>

#include "bench.h"
#include "embed/abi.h"
#include "embed/embed.h"
#include "fuzz/rng.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace perfbench {
namespace {

using lfi::embed::BufIn;
using lfi::embed::BufOut;
using lfi::fuzz::DeriveSeed;
using lfi::fuzz::Rng;

constexpr int kNoops = 512;
constexpr int kCallbacks = 256;
constexpr int kBufCalls = 16;  // of each direction
constexpr size_t kBuf = 4096;
constexpr uint64_t kCallbackXor = 0x5bd1e9955bd1e995ULL;

// noop: returns its argument. echo: calls back with its argument and
// returns the callback's result plus one. peek: xor of the buffer's
// first and last quads and a key. poke: stores a key at three offsets.
std::string ModuleSource() {
  const std::vector<lfi::embed::GuestExport> exports = {
      {"noop", "noop"}, {"echo", "echo"}, {"peek", "peek"}, {"poke", "poke"}};
  const char* body = R"(
noop:
  ret
echo:
  hostcall #0
  add x0, x0, #1
  ret
peek:
  ldr x9, [x0]
  ldr x10, [x0, #4088]
  eor x9, x9, x10
  eor x0, x9, x1
  ret
poke:
  str x1, [x0]
  str x1, [x0, #2048]
  str x1, [x0, #4088]
  mov x0, #0
  ret
)";
  return lfi::embed::GuestModuleSource(exports, body);
}

uint64_t Le64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

// One batch's inputs and expected outputs.
struct Batch {
  std::vector<uint64_t> noop_args, echo_args;
  std::vector<std::vector<uint8_t>> in_bufs, out_bufs, out_want;
  std::vector<uint64_t> in_keys, out_keys, in_want;
};

class Embed : public Workload {
 public:
  explicit Embed(uint64_t seed) : seed_(seed) {}

  std::string Setup() override {
    if (auto err = BuildElf(ModuleSource(), true, &elf_); !err.empty()) {
      return err;
    }
    return MakeStack(false, &plain_);
  }

  std::string EnableTracing() override { return MakeStack(true, &traced_); }

  void PrepareOp(uint64_t index) override {
    Rng r(DeriveSeed(seed_, index));
    Batch& b = batch_;
    b = Batch{};
    for (int i = 0; i < kNoops; ++i) b.noop_args.push_back(r.Next());
    for (int i = 0; i < kCallbacks; ++i) b.echo_args.push_back(r.Next());
    auto fill = [&r]() {
      std::vector<uint8_t> v(kBuf);
      for (size_t i = 0; i < kBuf; i += 8) {
        const uint64_t q = r.Next();
        std::memcpy(v.data() + i, &q, 8);
      }
      return v;
    };
    for (int i = 0; i < kBufCalls; ++i) {
      b.in_bufs.push_back(fill());
      b.in_keys.push_back(r.Next());
      b.in_want.push_back(Le64(b.in_bufs.back().data()) ^
                          Le64(b.in_bufs.back().data() + kBuf - 8) ^
                          b.in_keys.back());
      b.out_bufs.push_back(fill());
      b.out_keys.push_back(r.Next());
      std::vector<uint8_t> want = b.out_bufs.back();
      for (size_t off : {size_t{0}, size_t{2048}, kBuf - 8}) {
        std::memcpy(want.data() + off, &b.out_keys.back(), 8);
      }
      b.out_want.push_back(std::move(want));
    }
    if (Sabotaged(index)) b.in_want[0] ^= 1;
  }

  std::string Op(uint64_t, Samples* tr, uint64_t* cycles) override {
    Stack& st = tr ? traced_ : plain_;
    const auto before = Counts(st);
    const uint64_t c0 = st.rt->Cycles();
    const std::string err = RunBatch(st, batch_, tr);
    *cycles = st.rt->Cycles() - c0;
    if (!err.empty() || !tr) return err;
    // The runtime's own counters must agree with the batch.
    const auto after = Counts(st);
    if (after.first - before.first != kNoops + kCallbacks + 2 * kBufCalls ||
        after.second - before.second != kCallbacks) {
      return "trace counters disagree with the batch";
    }
    return "";
  }

  void Report(const Samples& s, Metrics* out) const override {
    for (const char* k : {"embed.call", "embed.callback", "embed.bufin_4k",
                          "embed.bufout_4k"}) {
      const std::string n = k;
      (*out)[n + "_us"] = {s.Median(n + "_us"), "us"};
      (*out)[n + "_cycles"] = {s.Median(n + "_cycles"), "cycles"};
    }
    // BufIn copies in; BufOut copies in and back out.
    (*out)["embed.marshalled_bytes_per_op"] = {
        static_cast<double>(3 * kBufCalls * kBuf), "bytes"};
  }

 private:
  // A runtime and its sandbox; traced stacks carry a sink from the start.
  struct Stack {
    std::unique_ptr<lfi::trace::TraceSink> sink;
    std::unique_ptr<lfi::runtime::Runtime> rt;
    std::unique_ptr<lfi::embed::Sandbox> sb;
  };

  std::string MakeStack(bool traced, Stack* st) {
    st->sb.reset();
    st->rt.reset();
    if (traced) st->sink = std::make_unique<lfi::trace::TraceSink>();
    st->rt = std::make_unique<lfi::runtime::Runtime>(BenchConfig());
    if (traced) st->rt->set_trace_sink(st->sink.get());
    auto sb = lfi::embed::Sandbox::Create(*st->rt, {elf_.data(), elf_.size()});
    if (!sb.ok()) return "create: " + sb.error();
    st->sb = std::move(*sb);
    st->sb->Bind(0, [](uint64_t x) -> uint64_t { return x ^ kCallbackXor; });
    return "";
  }

  // (embedded calls, callbacks) the sink has counted for the sandbox.
  static std::pair<uint64_t, uint64_t> Counts(Stack& st) {
    if (!st.sink) return {0, 0};
    const auto& m = st.sink->metrics(st.sb->pid());
    return {m.Get(lfi::trace::Counter::kEmbedCalls),
            m.Get(lfi::trace::Counter::kEmbedCallbacks)};
  }

  // Runs the batch, checking every result. With `tr`, each call is timed
  // on both clocks.
  std::string RunBatch(Stack& st, Batch& b, Samples* tr) {
    lfi::runtime::Runtime* rt = st.rt.get();
    lfi::embed::Sandbox* sb = st.sb.get();
    Clock::time_point t;
    uint64_t c = 0;
    auto start = [&] {
      if (tr) {
        c = rt->Cycles();
        t = Clock::now();
      }
    };
    auto stop = [&](const char* k) {
      if (!tr) return;
      const double us = 1e3 * MsSince(t);
      tr->Add(std::string(k) + "_us", us);
      tr->Add(std::string(k) + "_cycles",
              static_cast<double>(rt->Cycles() - c));
    };
    for (uint64_t a : b.noop_args) {
      start();
      auto r = sb->Call<uint64_t(uint64_t)>("noop", a);
      stop("embed.call");
      if (!r.ok()) return "noop: " + r.detail;
      if (r.value != a) return "noop returned another value";
    }
    for (uint64_t a : b.echo_args) {
      start();
      auto r = sb->Call<uint64_t(uint64_t)>("echo", a);
      stop("embed.callback");
      if (!r.ok()) return "echo: " + r.detail;
      if (r.value != (a ^ kCallbackXor) + 1) {
        return "echo returned another value";
      }
    }
    for (int i = 0; i < kBufCalls; ++i) {
      start();
      auto r = sb->Call<uint64_t(BufIn, uint64_t)>(
          "peek", BufIn{b.in_bufs[i].data(), kBuf}, b.in_keys[i]);
      stop("embed.bufin_4k");
      if (!r.ok()) return "peek: " + r.detail;
      if (r.value != b.in_want[i]) return "peek returned another value";
    }
    for (int i = 0; i < kBufCalls; ++i) {
      start();
      auto r = sb->Call<uint64_t(BufOut, uint64_t)>(
          "poke", BufOut{b.out_bufs[i].data(), kBuf}, b.out_keys[i]);
      stop("embed.bufout_4k");
      if (!r.ok()) return "poke: " + r.detail;
      if (r.value != 0 || b.out_bufs[i] != b.out_want[i]) {
        return "poke left other bytes in the BufOut buffer";
      }
    }
    return "";
  }

  uint64_t seed_;
  std::vector<uint8_t> elf_;
  Stack plain_, traced_;
  Batch batch_;
};

}  // namespace

std::unique_ptr<Workload> MakeEmbed(uint64_t seed) {
  return std::make_unique<Embed>(seed);
}

}  // namespace perfbench
