#include "emu/machine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>

#include "arch/decode.h"
#include "emu/machine_internal.h"

namespace lfi::emu {

using arch::FpSize;
using arch::Inst;
using arch::InstCost;
using arch::Mn;
using arch::Reg;
using arch::Width;
using namespace internal;

namespace {

// True for instructions that end a decoded basic block: anything that can
// redirect PC or stop execution. Everything else falls through to pc+4.
bool EndsBlock(Mn mn) {
  switch (mn) {
    case Mn::kB: case Mn::kBl: case Mn::kBCond:
    case Mn::kCbz: case Mn::kCbnz: case Mn::kTbz: case Mn::kTbnz:
    case Mn::kBr: case Mn::kBlr: case Mn::kRet:
    case Mn::kBrk: case Mn::kSvc: case Mn::kMrs: case Mn::kMsr:
      return true;
    default:
      return false;
  }
}

// Cap on decoded-block length; blocks also never cross a page boundary,
// so an executability check at decode time covers every instruction.
constexpr size_t kMaxBlockInsts = 256;
// Backstop against unbounded cache growth across many sandboxes.
constexpr size_t kMaxCachedBlocks = size_t{1} << 15;

}  // namespace

Machine::Machine(AddressSpace* mem, const arch::CoreParams& params)
    : mem_(mem), timing_(params), block_lut_(size_t{1} << kBlockLutBits) {}

uint8_t Machine::ClassifyInst(const Inst& i) {
  uint8_t f = 0;
  if (arch::IsLoad(i)) f |= kClassLoad;
  if (arch::IsStore(i)) f |= kClassStore;
  if (arch::IsGuardFor(i, i.rd) || arch::IsSpGuard(i)) f |= kClassGuard;
  return f;
}

void Machine::ClearCaches() {
  block_cache_.clear();
  decode_cache_.clear();
  std::fill(block_lut_.begin(), block_lut_.end(), BlockLutEntry{});
  // Every chain link pointed into block_cache_ nodes that no longer
  // exist; the bump tells an in-flight link resolution not to write into
  // a destroyed predecessor.
  ++cache_clears_;
}

void Machine::DropChangedCode(uint64_t gen) {
  const bool first_fill = cache_generation_ == ~uint64_t{0};
  // The very first fill (sentinel stamp) is no invalidation: nothing was
  // cached yet.
  if (counters_ != nullptr && !first_fill) ++counters_->block_invalidations;
  if (first_fill || gen - cache_generation_ > AddressSpace::kCodeChangeRing) {
    ClearCaches();
    cache_generation_ = gen;
    return;
  }
  auto on_changed_page = [&](uint64_t pc) {
    for (uint64_t g = cache_generation_ + 1; g <= gen; ++g) {
      if (mem_->code_change(g).Covers(pc / kPageSize)) return true;
    }
    return false;
  };
  // Blocks never cross a page, so a block is stale iff its start page
  // changed; a surviving block's link is stale iff its target's is.
  bool erased = false;
  for (auto it = block_cache_.begin(); it != block_cache_.end();) {
    if (on_changed_page(it->first)) {
      BlockLutEntry& lut = block_lut_[LutIndex(it->first)];
      if (lut.pc == it->first) lut = BlockLutEntry{};
      it = block_cache_.erase(it);
      erased = true;
      continue;
    }
    const Block& b = it->second;
    if (b.fall_link != nullptr && on_changed_page(b.fall_pc)) {
      b.fall_link = nullptr;
    }
    if (b.branch_link != nullptr && on_changed_page(b.branch_pc)) {
      b.branch_link = nullptr;
    }
    ++it;
  }
  for (auto it = decode_cache_.begin(); it != decode_cache_.end();) {
    it = on_changed_page(it->first * kPageSize) ? decode_cache_.erase(it)
                                                : std::next(it);
  }
  if (erased) ++cache_clears_;
  cache_generation_ = gen;
}

// Legacy per-instruction fetch path (Dispatch::kStep). Executability is
// verified once per page; staleness across Map/Unmap/Protect is handled
// by the generation check in RunSteps.
const Inst* Machine::FetchDecode(uint64_t pc) {
  const uint64_t pageno = pc / kPageSize;
  auto it = decode_cache_.find(pageno);
  if (it == decode_cache_.end()) {
    if (!mem_->Check(pageno * kPageSize, kPageSize, kPermExec)) {
      auto f = mem_->Fetch(pc);  // sets last_fault
      (void)f;
      fault_ = {CpuFault::Kind::kFetch, pc, mem_->last_fault(), "fetch"};
      return nullptr;
    }
    DecodedPage dp;
    dp.insts.resize(kPageSize / 4);
    dp.status.assign(kPageSize / 4, 0);
    it = decode_cache_.emplace(pageno, std::move(dp)).first;
  }
  DecodedPage& dp = it->second;
  const size_t idx = (pc & kPageMask) / 4;
  if (dp.status[idx] == 0) {
    auto word = mem_->Fetch(pc);
    if (!word) {
      fault_ = {CpuFault::Kind::kFetch, pc, mem_->last_fault(), "fetch"};
      return nullptr;
    }
    auto inst = arch::Decode(*word);
    if (!inst) {
      dp.status[idx] = 2;
      fault_ = {CpuFault::Kind::kDecode, pc, {}, inst.error()};
      return nullptr;
    }
    dp.insts[idx] = *inst;
    dp.status[idx] = 1;
  } else if (dp.status[idx] == 2) {
    fault_ = {CpuFault::Kind::kDecode, pc, {}, "bad instruction (cached)"};
    return nullptr;
  }
  return &dp.insts[idx];
}

const Machine::Block* Machine::FetchBlock(uint64_t pc) {
  RevalidateCaches();
  BlockLutEntry& lut = block_lut_[LutIndex(pc)];
  if (lut.pc == pc) {
    if (counters_ != nullptr) ++counters_->block_hits;
    return lut.block;
  }
  auto it = block_cache_.find(pc);
  if (it != block_cache_.end()) {
    if (counters_ != nullptr) ++counters_->block_hits;
    lut = {pc, &it->second};
    return lut.block;
  }
  if (pc % 4 != 0) {
    fault_ = {CpuFault::Kind::kPcAlign, pc, {}, "misaligned pc"};
    return nullptr;
  }
  const uint64_t page_base = pc & ~kPageMask;
  if (!mem_->Check(page_base, kPageSize, kPermExec)) {
    auto f = mem_->Fetch(pc);  // sets last_fault with the precise cause
    (void)f;
    fault_ = {CpuFault::Kind::kFetch, pc, mem_->last_fault(), "fetch"};
    return nullptr;
  }
  Block b;
  b.insts.reserve(8);
  for (uint64_t cur = pc; cur < page_base + kPageSize; cur += 4) {
    auto word = mem_->Fetch(cur);
    if (!word) break;  // unreachable: the whole page was checked above
    auto inst = arch::Decode(*word);
    if (!inst) {
      if (b.insts.empty()) {
        fault_ = {CpuFault::Kind::kDecode, pc, {}, inst.error()};
        return nullptr;
      }
      // End the block before the undecodable word so the fault fires only
      // if control actually reaches it.
      break;
    }
    b.insts.push_back(
        {*inst, arch::CostOf(*inst, timing_.params()), ClassifyInst(*inst)});
    if (EndsBlock(inst->mn) || b.insts.size() >= kMaxBlockInsts) break;
  }
  // Record the static successor PCs the chained backend links through.
  // Only direct control flow is chainable; br/blr/ret targets are data-
  // dependent and stopping instructions have no successor.
  const Inst& last = b.insts.back().inst;
  const uint64_t last_pc = pc + 4 * (b.insts.size() - 1);
  switch (last.mn) {
    case Mn::kB: case Mn::kBl:
      b.branch_pc = last_pc + static_cast<uint64_t>(last.imm);
      break;
    case Mn::kBCond: case Mn::kCbz: case Mn::kCbnz:
    case Mn::kTbz: case Mn::kTbnz:
      b.branch_pc = last_pc + static_cast<uint64_t>(last.imm);
      b.fall_pc = last_pc + 4;
      break;
    case Mn::kBr: case Mn::kBlr: case Mn::kRet:
    case Mn::kBrk: case Mn::kSvc: case Mn::kMrs: case Mn::kMsr:
      break;
    default:
      // Split block (size cap, page end, or undecodable next word):
      // control falls through to the next address.
      b.fall_pc = last_pc + 4;
      break;
  }
  if (counters_ != nullptr) ++counters_->block_misses;
  if (block_cache_.size() >= kMaxCachedBlocks) ClearCaches();
  const Block* nb = &block_cache_.emplace(pc, std::move(b)).first->second;
  block_lut_[LutIndex(pc)] = {pc, nb};
  return nb;
}

StopReason Machine::RunBackend(uint64_t max_instructions) {
  switch (dispatch_) {
    case Dispatch::kStep:
      return RunSteps(max_instructions);
    case Dispatch::kBlock:
      return RunBlocks(max_instructions);
    case Dispatch::kChained:
      return RunChained(max_instructions);
  }
  return RunChained(max_instructions);
}

StopReason Machine::Run(uint64_t max_instructions) {
  if (counters_ == nullptr) return RunBackend(max_instructions);
  // Retired instructions are counted as a Timing delta around the whole
  // run rather than per instruction: Timing::Issue already increments its
  // own retire counter on the hot path, so this is exact and free.
  const uint64_t retired_before = timing_.Retired();
  const StopReason r = RunBackend(max_instructions);
  counters_->retired += timing_.Retired() - retired_before;
  return r;
}

StopReason Machine::RunBlocks(uint64_t max_instructions) {
  uint64_t executed = 0;
  while (executed < max_instructions) {
    // Blocks end at every control transfer, so PC can only enter the
    // runtime region (or need realignment/revalidation) at a block edge:
    // one check per block replaces one check per instruction.
    if (state_.pc - rt_base_ < rt_len_) {
      stop_ = StopReason::kRuntimeEntry;
      return stop_;
    }
    const Block* b = FetchBlock(state_.pc);
    if (b == nullptr) {
      stop_ = StopReason::kFault;
      return stop_;
    }
    const uint64_t budget = max_instructions - executed;
    const size_t take = b->insts.size() <= budget
                            ? b->insts.size()
                            : static_cast<size_t>(budget);
    if (counters_ == nullptr) {
      for (size_t k = 0; k < take; ++k) {
        const DecodedInst& di = b->insts[k];
        if (hook_ == nullptr ? !ExecInst(di.inst, di.cost)
                             : !ExecHooked(di.inst, di.cost)) {
          return stop_;
        }
      }
    } else {
      // Counting twin of the loop above; classes come from the flags byte
      // precomputed at decode time and are tallied only after the
      // instruction retires (a faulting instruction counts nothing).
      for (size_t k = 0; k < take; ++k) {
        const DecodedInst& di = b->insts[k];
        if (hook_ == nullptr ? !ExecInst(di.inst, di.cost)
                             : !ExecHooked(di.inst, di.cost)) {
          return stop_;
        }
        counters_->loads += di.class_flags & kClassLoad;
        counters_->stores += (di.class_flags >> 1) & 1;
        counters_->guards += (di.class_flags >> 2) & 1;
      }
    }
    executed += take;
    if (take < b->insts.size()) break;  // step budget exhausted mid-block
  }
  stop_ = StopReason::kStepLimit;
  return stop_;
}

StopReason Machine::RunSteps(uint64_t max_instructions) {
  RevalidateCaches();
  for (uint64_t n = 0; n < max_instructions; ++n) {
    if (state_.pc - rt_base_ < rt_len_) {
      stop_ = StopReason::kRuntimeEntry;
      return stop_;
    }
    if (!Step()) return stop_;
  }
  stop_ = StopReason::kStepLimit;
  return stop_;
}

bool Machine::Step() {
  CpuState& s = state_;
  if (s.pc % 4 != 0) {
    fault_ = {CpuFault::Kind::kPcAlign, s.pc, {}, "misaligned pc"};
    stop_ = StopReason::kFault;
    return false;
  }
  const Inst* ip = FetchDecode(s.pc);
  if (ip == nullptr) {
    stop_ = StopReason::kFault;
    return false;
  }
  const InstCost cost = arch::CostOf(*ip, timing_.params());
  const bool ok = hook_ == nullptr ? ExecInst(*ip, cost) : ExecHooked(*ip, cost);
  if (ok && counters_ != nullptr) {
    // kStep has no decode-time flags byte; classify on the fly (this path
    // is the legacy baseline, not the hot one).
    const uint8_t f = ClassifyInst(*ip);
    counters_->loads += f & kClassLoad;
    counters_->stores += (f >> 1) & 1;
    counters_->guards += (f >> 2) & 1;
  }
  return ok;
}

bool Machine::ExecHooked(const Inst& i, const InstCost& cost) {
  hook_trace_.Clear();
  const uint64_t pc = state_.pc;
  const bool ok = ExecInst(i, cost);
  if (!hook_->OnInst(i, pc, state_, hook_trace_.records(), !ok)) {
    // The hook's verdict wins over whatever stop ExecInst produced: a
    // violation on a faulting instruction is still a violation.
    stop_ = StopReason::kHookStop;
    return false;
  }
  return ok;
}

// Reference interpreter: one switch dispatch per instruction. The op
// bodies live in exec_ops.inc, shared verbatim with the direct-threaded
// chained backend (backend_chained.cc) so the two cannot diverge.
bool Machine::ExecInst(const Inst& i, const InstCost& cost) {
  CpuState& s = state_;
  const Width w = i.width;
  uint64_t next_pc = s.pc + 4;

  switch (i.mn) {
#define LFI_EMU_CASE(mn) case Mn::mn:
#define EXEC_OP(...) LFI_EMU_MAP(LFI_EMU_CASE, __VA_ARGS__) {
#define EXEC_OP_END \
  }                 \
  break;
#define EXEC_READ(addr, size) mem_->Read((addr), (size))
#define EXEC_WRITE(addr, value, size) mem_->Write((addr), (value), (size)).ok()
#define EXEC_MEMFAULT() return MemFaultStop()
#define EXEC_STOP() return false
#define EXEC_MEM_EXTRA(addr, is_store) timing_.MemoryExtra((addr), (is_store))
#define EXEC_PREDICT_COND(pc, taken) \
  timing_.predictor().PredictConditional((pc), (taken))
#define EXEC_PREDICT_IND(pc, target) \
  timing_.predictor().PredictIndirect((pc), (target))
#include "emu/exec_ops.inc"  // NOLINT(build/include)
#undef EXEC_PREDICT_IND
#undef EXEC_PREDICT_COND
#undef EXEC_MEM_EXTRA
#undef EXEC_STOP
#undef EXEC_MEMFAULT
#undef EXEC_WRITE
#undef EXEC_READ
#undef EXEC_OP_END
#undef EXEC_OP
#undef LFI_EMU_CASE
  }

  s.pc = next_pc;
  return true;
}

}  // namespace lfi::emu
