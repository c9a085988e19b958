// ARM64 interpreter with integrated timing.
//
// Executes the encoded instruction subset against an AddressSpace with full
// permission checking, so the LFI isolation argument is *executed*, not
// assumed: a guard really does force the top 32 bits of an address, a
// store to a guard region really does trap. Cycle accounting runs inline
// through the Timing scoreboard.
//
// Dispatch and the decode cache. The hot loop decodes straight-line basic
// blocks (up to the next branch, page end, or undecodable word) into flat
// vectors of pre-decoded instructions with their static costs, keyed by
// start PC. Each block entry costs one hash probe, one runtime-region
// check, and one generation compare; each instruction inside the block is
// then executed with zero lookups.
//
// Invalidation contract: the block cache is stamped with
// AddressSpace::mutation_generation(), which Map/Unmap/Protect/InstallPage
// on an executable page and any write landing on one bump. A stamp
// mismatch at block entry drops the cached blocks that start on the pages
// changed since the stamp (AddressSpace::code_change) and severs every
// chain link into them -- or drops everything when the stamp is more than
// the change ring behind -- so executing stale code after a remap is
// structurally impossible, with no caller cooperation needed, while the
// code of untouched pages (other sandboxes) stays decoded. The
// one window the generation cannot close is an instruction overwriting
// *its own* basic block mid-flight; real hardware requires an ISB there,
// and the runtime's W^X policy forbids it entirely.
//
// Backends. Run() switches on the Dispatch mode selected by set_dispatch().
// kBlock and kStep are the reference interpreters (the switch in ExecInst);
// kChained is the optimized backend (backend_chained.cc): blocks record their
// static fallthrough/direct-branch successors and hot loops jump block->block
// without re-entering the dispatch loop, the inner loop is direct-threaded
// (computed goto) where the compiler supports it, and data accesses go through
// a small per-Machine page-pointer TLB validated against
// AddressSpace::payload_epoch(). All backends share the op bodies in
// exec_ops.inc, and kChained is required to keep simulated cycles, retired
// counts, ExecCounters, and traces bit-identical to kBlock (see
// docs/DISPATCH.md for the argument and the invalidation contract).
#ifndef LFI_EMU_MACHINE_H_
#define LFI_EMU_MACHINE_H_

// Hot helpers shared by both interpreter backends must actually inline
// into each backend's dispatch loop (GCC leaves the bigger ones, e.g.
// the EffAddr switch, out of line at -O2 without this).
#if defined(__GNUC__) || defined(__clang__)
#define LFI_EMU_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define LFI_EMU_ALWAYS_INLINE inline
#endif

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/cost_model.h"
#include "arch/inst.h"
#include "emu/address_space.h"
#include "emu/timing.h"
#include "trace/trace.h"

namespace lfi::emu {

// 128-bit SIMD&FP register value.
struct VRegVal {
  uint64_t lo = 0, hi = 0;
  bool operator==(const VRegVal&) const = default;
};

// Architectural CPU state.
struct CpuState {
  std::array<uint64_t, 31> x{};  // x0..x30
  uint64_t sp = 0;
  uint64_t pc = 0;
  bool n = false, z = false, c = false, v = false;
  std::array<VRegVal, 32> vr{};
  // Exclusive monitor for ldxr/stxr.
  bool excl_valid = false;
  uint64_t excl_addr = 0;

  bool operator==(const CpuState&) const = default;
};

// Forces the LFI reserved registers of `cpu` back onto their invariants
// for the sandbox at `base`: x21 = base, and x18/x23/x24/x30, sp, and pc
// each base|low32 (exactly what a guard would compute). Every host-built
// or untrusted register frame must pass through this before the machine
// executes it — sigreturn frames, snapshot rebases, and embedded-call
// entry/callback-return states all get the same treatment, so even a
// bit-flipped (but otherwise accepted) frame cannot produce an
// out-of-slot reserved register.
inline void CanonicalizeSandboxRegs(CpuState& cpu, uint64_t base) {
  cpu.x[21] = base;
  for (int r : {18, 23, 24, 30}) cpu.x[r] = base | (cpu.x[r] & 0xffffffffu);
  cpu.sp = base | (cpu.sp & 0xffffffffu);
  cpu.pc = base | (cpu.pc & 0xffffffffu);
}

// Why Run() returned.
enum class StopReason : uint8_t {
  kStepLimit,     // executed the requested number of instructions
  kRuntimeEntry,  // PC entered the registered runtime region
  kFault,         // memory/decode/alignment fault; see fault()
  kBrk,           // brk instruction (debug trap)
  kHookStop,      // the attached ExecHook requested a stop
};

// Per-instruction observation hook, the substrate for invariant checking
// and soundness fuzzing. While attached (set_exec_hook), OnInst is called
// after EVERY executed instruction — including one that faulted
// (`faulted` == true), in which case the instruction did not retire but
// `accesses` still records the memory addresses it *attempted*, and
// `after` is the unmodified pre-fault register state. `pc` is the
// instruction's own address; `after.pc` is where control went next.
// Return false to stop Run() with StopReason::kHookStop.
//
// Cost: one branch per instruction when detached; when attached, data
// accesses are additionally traced through the AddressSpace.
class ExecHook {
 public:
  virtual ~ExecHook() = default;
  virtual bool OnInst(const arch::Inst& inst, uint64_t pc,
                      const CpuState& after,
                      std::span<const AccessRecord> accesses,
                      bool faulted) = 0;
};

// Description of a fault that stopped execution.
struct CpuFault {
  enum class Kind : uint8_t {
    kMemory,   // data access fault (mem holds details)
    kFetch,    // instruction fetch from unmapped/non-executable page
    kDecode,   // undecodable instruction word
    kIllegal,  // svc/mrs/msr executed by sandboxed code
    kPcAlign,  // branch to a non-4-aligned address
  };
  Kind kind = Kind::kMemory;
  uint64_t pc = 0;
  MemFault mem{};
  std::string detail;
};

// How Run() fetches instructions.
enum class Dispatch : uint8_t {
  kChained,  // block chaining + direct-threaded inner loop (default)
  kBlock,    // basic-block cache, one probe per block (reference)
  kStep,     // per-instruction page cache (legacy; baseline for benchmarks)
};

// The emulated CPU. One Machine per hardware context; multiple sandboxes
// time-share it through the runtime's scheduler.
class Machine {
 public:
  Machine(AddressSpace* mem, const arch::CoreParams& params);

  CpuState& state() { return state_; }
  const CpuState& state() const { return state_; }
  Timing& timing() { return timing_; }
  AddressSpace& mem() { return *mem_; }

  // Registers [base, base+len) as the runtime-entry region: the moment PC
  // lands inside it, Run() stops with kRuntimeEntry. This models branching
  // to a runtime address loaded from the call table (Section 4.4).
  void SetRuntimeRegion(uint64_t base, uint64_t len) {
    rt_base_ = base;
    rt_len_ = len;
  }

  // Executes up to `max_instructions`.
  StopReason Run(uint64_t max_instructions);

  const CpuFault& fault() const { return fault_; }

  // Selects the fetch strategy (see Dispatch). kBlock/kStep exist so
  // benchmarks and the differential fuzzer can compare against the
  // reference interpreter; all modes are semantically identical,
  // including cycle accounting.
  void set_dispatch(Dispatch d) { dispatch_ = d; }
  Dispatch dispatch() const { return dispatch_; }

  // Reads a general-purpose register by Inst operand conventions
  // (zr reads 0; sp reads the stack pointer). Exposed for the runtime.
  // Defined inline: these run several times per retired instruction in
  // every backend translation unit.
  LFI_EMU_ALWAYS_INLINE uint64_t ReadReg(arch::Reg r) const {
    if (r.IsZr() || r.IsNone()) return 0;
    if (r.IsSp()) return state_.sp;
    return state_.x[r.id()];
  }
  LFI_EMU_ALWAYS_INLINE void WriteReg(arch::Reg r, uint64_t v) {
    if (r.IsZr() || r.IsNone()) return;
    if (r.IsSp()) {
      state_.sp = v;
      return;
    }
    state_.x[r.id()] = v;
  }

  // Attaches (or detaches, with nullptr) the per-instruction hook. The
  // hook must outlive the Machine or be detached first.
  void set_exec_hook(ExecHook* hook) {
    hook_ = hook;
    mem_->set_access_trace(hook == nullptr ? nullptr : &hook_trace_);
  }
  ExecHook* exec_hook() const { return hook_; }

  // Attaches (or detaches, with nullptr) an execution-counter accumulator.
  // While attached, the dispatch loops tally retired instructions by class
  // (loads/stores/guards) plus decode-cache traffic into it; the caller
  // owns attribution (the runtime snapshots it around timeslices). The
  // disabled path costs one pointer test per dispatched *block* — the
  // per-instruction loop is unchanged. Caveat: an ExecHook stop on a
  // retired instruction skews the class tallies (not retired-count) by at
  // most one; hooks and counters are not used together in practice.
  void set_counters(trace::ExecCounters* c) { counters_ = c; }
  trace::ExecCounters* counters() const { return counters_; }

 private:
  // Instruction-class bits, precomputed at decode time so the counting
  // dispatch loop adds without re-classifying.
  static constexpr uint8_t kClassLoad = 1 << 0;
  static constexpr uint8_t kClassStore = 1 << 1;
  static constexpr uint8_t kClassGuard = 1 << 2;
  static uint8_t ClassifyInst(const arch::Inst& i);

  // A pre-decoded instruction plus its static issue cost (CostOf depends
  // only on the instruction and the fixed core params, so hoisting it to
  // decode time takes it off the hot path entirely).
  struct DecodedInst {
    arch::Inst inst;
    arch::InstCost cost;
    uint8_t class_flags;
    // Direct-threading slot: the chained backend caches the computed-goto
    // label for inst.mn here when its block first runs, so steady-state
    // dispatch is one load + one indirect jump (no table indexing). The
    // label belongs to the instantiation named by Block::labels_for. The
    // reference backends never read it.
    mutable const void* exec_label = nullptr;
  };

  // PC sentinel for "no successor". ~0 is never 4-aligned, so it can
  // never equal a real block-start PC.
  static constexpr uint64_t kNoSucc = ~uint64_t{0};

  // A decoded straight-line run: starts at its cache key's PC and ends at
  // the first branch/system instruction, page end, or undecodable word.
  //
  // Chaining fields: fall_pc/branch_pc are the block's *static* successor
  // PCs, computed at decode time (fallthrough after a conditional branch
  // or a split block; the target of a direct b/bl/b.cond/cbz/tbz).
  // fall_link/branch_link are lazily resolved pointers to the successor
  // blocks, installed by the chained backend so a hot loop transfers
  // block->block with two compares. Links point into block_cache_ nodes
  // and die with them: RevalidateCaches() nulls every link whose target
  // PC lies on a changed page (ClearCaches() drops all blocks), and the
  // chained backend re-checks the mutation generation before following a
  // link, so a stale chain is never executed (see docs/DISPATCH.md).
  struct Block {
    std::vector<DecodedInst> insts;
    uint64_t fall_pc = kNoSucc;
    uint64_t branch_pc = kNoSucc;
    mutable const Block* fall_link = nullptr;
    mutable const Block* branch_link = nullptr;
    // Which ExecChainedRange instantiation resolved the insts'
    // exec_label slots: 0 none, 1 untraced, 2 counting. Labels point into
    // one instantiation's body, so attaching or detaching counters makes
    // the other one re-resolve them.
    mutable uint8_t labels_for = 0;
  };

  // Legacy per-page decode cache (Dispatch::kStep).
  struct DecodedPage {
    std::vector<arch::Inst> insts;   // kPageSize / 4 entries
    std::vector<uint8_t> status;     // 0 = undecoded, 1 = ok, 2 = bad
  };

  // Run()'s body: the interpreter loop dispatch_ selects.
  StopReason RunBackend(uint64_t max_instructions);
  StopReason RunBlocks(uint64_t max_instructions);
  StopReason RunSteps(uint64_t max_instructions);

  // Optimized backend (backend_chained.cc). RunChained falls back to
  // RunBlocks while an ExecHook is attached (observation wants the
  // reference loop + access tracing, not speed).
  StopReason RunChained(uint64_t max_instructions);
  template <bool kCounting>
  StopReason RunChainedImpl(uint64_t max_instructions);
  // Executes insts[0, take) of a block with the direct-threaded inner
  // loop (switch fallback off GCC/Clang); returns false on stop.
  template <bool kCounting>
  bool ExecChainedRange(const Block& b, size_t take);

  // Executes one pre-decoded instruction; returns false if execution must
  // stop (fault or brk), with stop_ set.
  bool ExecInst(const arch::Inst& i, const arch::InstCost& cost);

  // Records the pending data fault and stop reason; always returns false
  // so op bodies can `return MemFaultStop()`.
  bool MemFaultStop() {
    fault_ = {CpuFault::Kind::kMemory, state_.pc, mem_->last_fault(), "data"};
    stop_ = StopReason::kFault;
    return false;
  }

  // Effective address of a load/store, plus (for writeback modes) the new
  // base value. Shared by both backends' op bodies.
  LFI_EMU_ALWAYS_INLINE uint64_t EffAddr(const arch::Inst& i,
                                         uint64_t* writeback) const {
    const auto& m = i.mem;
    const uint64_t base = ReadReg(m.base);
    switch (m.mode) {
      case arch::AddrMode::kImm:
        return base + static_cast<uint64_t>(m.imm);
      case arch::AddrMode::kPreIndex:
        *writeback = base + static_cast<uint64_t>(m.imm);
        return *writeback;
      case arch::AddrMode::kPostIndex:
        *writeback = base + static_cast<uint64_t>(m.imm);
        return base;
      case arch::AddrMode::kRegLsl:
        return base + (ReadReg(m.index) << m.shift);
      case arch::AddrMode::kRegUxtw:
        return base + ((ReadReg(m.index) & 0xffffffffu) << m.shift);
      case arch::AddrMode::kRegSxtw:
        return base +
               (static_cast<uint64_t>(static_cast<int64_t>(
                    static_cast<int32_t>(ReadReg(m.index)))) << m.shift);
    }
    return base;
  }

  // ExecInst with the observation hook wrapped around it: clears the
  // access trace, executes, then consults hook_ (which must be non-null).
  bool ExecHooked(const arch::Inst& i, const arch::InstCost& cost);

  // Legacy single-step: align-check + fetch + decode + execute.
  bool Step();

  // Returns the (possibly freshly decoded) block starting at pc, or
  // nullptr with fault_ set. Revalidates the generation stamp first.
  const Block* FetchBlock(uint64_t pc);

  // Drops the decoded code of every page whose code changed since the
  // caches were filled.
  void RevalidateCaches() {
    const uint64_t gen = mem_->mutation_generation();
    if (gen != cache_generation_) DropChangedCode(gen);
  }
  void DropChangedCode(uint64_t gen);

  void ClearCaches();

  const arch::Inst* FetchDecode(uint64_t pc);

  AddressSpace* mem_;
  CpuState state_;
  Timing timing_;
  CpuFault fault_;
  ExecHook* hook_ = nullptr;
  AccessTrace hook_trace_;
  trace::ExecCounters* counters_ = nullptr;
  StopReason stop_ = StopReason::kStepLimit;
  uint64_t rt_base_ = 0, rt_len_ = 0;
  Dispatch dispatch_ = Dispatch::kChained;
  // Generation stamp both caches were filled under; ~0 forces the first
  // RevalidateCaches() to start clean.
  uint64_t cache_generation_ = ~uint64_t{0};
  // Counts the cache drops that destroyed blocks (ClearCaches() and every
  // DropChangedCode() that erased one). The chained backend snapshots
  // this around a FetchBlock during link resolution: if a drop happened,
  // the predecessor block may be gone and no link may be installed in it.
  uint64_t cache_clears_ = 0;
  std::unordered_map<uint64_t, Block> block_cache_;
  std::unordered_map<uint64_t, DecodedPage> decode_cache_;
  // Direct-mapped front cache over block_cache_: the common case (a hot
  // loop re-entering the same few blocks) resolves in one compare instead
  // of a hash probe. Entries point into block_cache_ nodes (stable across
  // inserts) and are wiped whenever block_cache_ is cleared.
  struct BlockLutEntry {
    uint64_t pc = ~uint64_t{0};
    const Block* block = nullptr;
  };
  static constexpr size_t kBlockLutBits = 12;
  std::vector<BlockLutEntry> block_lut_;
  static size_t LutIndex(uint64_t pc) {
    return (pc >> 2) & ((size_t{1} << kBlockLutBits) - 1);
  }

  // Memoized address translation for the chained backend's load/store
  // fast path: a direct-mapped TLB of page-payload pointers, so a hit
  // costs one compare + memcpy instead of a hash probe + shared_ptr
  // dereference. Entries are only trusted while dtlb_epoch_ matches
  // AddressSpace::payload_epoch(), which bumps whenever any payload
  // pointer, sharing state, or permission can change (COW, snapshot
  // export, fork, Protect, ...) — checked on every access because a
  // store inside the current block can itself trigger a COW. rw is
  // cached only for writable non-executable pages, so stores that must
  // bump the mutation generation always take the slow path.
  struct DtlbEntry {
    uint64_t pageno = ~uint64_t{0};
    const uint8_t* ro = nullptr;
    uint8_t* rw = nullptr;
  };
  static constexpr size_t kDtlbBits = 6;
  static constexpr size_t kDtlbSize = size_t{1} << kDtlbBits;
  std::array<DtlbEntry, kDtlbSize> dtlb_{};
  uint64_t dtlb_epoch_ = ~uint64_t{0};

  // Result of a chained-backend fast read; mimics Result<uint64_t>'s
  // interface so exec_ops.inc bodies work against either.
  struct FastVal {
    uint64_t val;
    bool ok;
    explicit operator bool() const { return ok; }
    uint64_t operator*() const { return val; }
  };
  LFI_EMU_ALWAYS_INLINE FastVal FastRead(uint64_t addr, unsigned size);
  LFI_EMU_ALWAYS_INLINE bool FastWrite(uint64_t addr, uint64_t value,
                                       unsigned size);
  void SyncDtlbEpoch() {
    const uint64_t e = mem_->payload_epoch();
    if (e != dtlb_epoch_) {
      for (DtlbEntry& d : dtlb_) d = DtlbEntry{};
      dtlb_epoch_ = e;
    }
  }

};

}  // namespace lfi::emu

#endif  // LFI_EMU_MACHINE_H_
