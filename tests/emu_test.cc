// Emulator tests: address space, instruction semantics, timing model.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "emu/machine.h"

namespace lfi::emu {
namespace {

using arch::Reg;

constexpr uint64_t kCode = 0x100000;  // where test code is mapped
constexpr uint64_t kData = 0x200000;  // general-purpose RW area

// Builds a machine with a code page at kCode (RX) and a data page at
// kData (RW), assembles `src` there, and returns after running it until
// a brk, fault, or the step limit.
struct TestVm {
  AddressSpace space;
  Machine machine;

  explicit TestVm(const std::string& src)
      : machine(&space, arch::AppleM1LikeParams()) {
    auto file = asmtext::Parse(src);
    EXPECT_TRUE(file.ok()) << (file.ok() ? "" : file.error());
    asmtext::LayoutSpec spec;
    spec.text_offset = kCode;
    auto img = asmtext::Assemble(*file, spec);
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
    EXPECT_TRUE(space.Map(kCode, 0x40000, kPermRead | kPermExec).ok());
    EXPECT_TRUE(space.Map(kData, 0x40000, kPermRead | kPermWrite).ok());
    EXPECT_TRUE(space
                    .HostWrite(img->text_addr,
                               {img->text.data(), img->text.size()})
                    .ok());
    if (!img->data.empty()) {
      EXPECT_TRUE(
          space.HostWrite(img->data_addr, {img->data.data(), img->data.size()})
              .ok());
    }
    machine.state().pc = img->entry;
    machine.state().sp = kData + 0x20000;
  }

  StopReason Run(uint64_t steps = 100000) { return machine.Run(steps); }
  uint64_t X(int n) { return machine.state().x[n]; }
};

// Assembles `src` with the TestVm layout (text at kCode) without mapping
// anything; used to produce replacement code bytes for remap tests.
asmtext::Image AssembleAt(const std::string& src) {
  auto file = asmtext::Parse(src);
  EXPECT_TRUE(file.ok()) << (file.ok() ? "" : file.error());
  asmtext::LayoutSpec spec;
  spec.text_offset = kCode;
  auto img = asmtext::Assemble(*file, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  return *img;
}

TEST(AddressSpace, MapReadWrite) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x8000, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(0x4100, 0xdeadbeefcafe, 8).ok());
  auto v = as.Read(0x4100, 8);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xdeadbeefcafeu);
  // Partial-width read.
  auto b = as.Read(0x4100, 2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 0xcafeu);
}

TEST(AddressSpace, FaultsOnUnmappedAndPerms) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x4000, kPermRead).ok());
  EXPECT_FALSE(as.Read(0x100000, 8).ok());
  EXPECT_EQ(as.last_fault().kind, MemFault::Kind::kUnmapped);
  EXPECT_FALSE(as.Write(0x4000, 1, 8).ok());
  EXPECT_EQ(as.last_fault().kind, MemFault::Kind::kPermission);
  EXPECT_EQ(as.last_fault().access, Access::kWrite);
  EXPECT_FALSE(as.Fetch(0x4000).ok());  // no exec permission
}

TEST(AddressSpace, AccessStraddlingUnmappedBoundaryFaults) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 0x4000, kPermRead | kPermWrite).ok());
  // Last 4 bytes of the mapping + 4 bytes beyond.
  EXPECT_FALSE(as.Read(0x7ffc, 8).ok());
  EXPECT_FALSE(as.Write(0x7ffc, 0, 8).ok());
  // And fully inside is fine.
  EXPECT_TRUE(as.Read(0x7ff8, 8).ok());
}

TEST(AddressSpace, CopyOnWriteSharing) {
  AddressSpace a;
  ASSERT_TRUE(a.Map(0x4000, 0x4000, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(a.Write(0x4000, 42, 8).ok());
  // Installing an exported payload at a second address shares it.
  uint8_t perms = 0;
  auto payload = a.ExportPage(0x4000, &perms);
  ASSERT_TRUE(a.InstallPage(0x40000, std::move(payload), perms).ok());
  EXPECT_EQ(*a.Read(0x40000, 8), 42u);
  // Writing one copy must not affect the other.
  ASSERT_TRUE(a.Write(0x40000, 99, 8).ok());
  EXPECT_EQ(*a.Read(0x4000, 8), 42u);
  EXPECT_EQ(*a.Read(0x40000, 8), 99u);
}

TEST(AddressSpace, HostCopiesSpanPages) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, 3 * kPageSize, kPermRead).ok());
  std::vector<uint8_t> in(2 * kPageSize + 100);
  for (size_t k = 0; k < in.size(); ++k) in[k] = static_cast<uint8_t>(k * 7);
  ASSERT_TRUE(as.HostWrite(0x4000 + 50, in).ok());
  std::vector<uint8_t> out(in.size());
  ASSERT_TRUE(as.HostRead(0x4000 + 50, out).ok());
  EXPECT_EQ(out, in);
  EXPECT_EQ(*as.Read(0x4000 + 50 + kPageSize, 1), in[kPageSize]);
}

// A host write that fails part-way used to leave the bytes it had already
// copied in place without bumping the generation, so code written to an
// exec page stayed invisible to the decode caches.
TEST(AddressSpace, HostWriteAndReadAreAllOrNothing) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, kPageSize, kPermRead | kPermExec).ok());
  const uint64_t gen = as.mutation_generation();
  // Covers the rest of the exec page, then runs onto the unmapped next one.
  const std::vector<uint8_t> in(kPageSize, 0xab);
  EXPECT_FALSE(as.HostWrite(0x4000 + 8, in).ok());
  EXPECT_EQ(as.mutation_generation(), gen);
  std::vector<uint8_t> page(kPageSize, 0x11);
  ASSERT_TRUE(as.HostRead(0x4000, page).ok());
  EXPECT_EQ(page, std::vector<uint8_t>(kPageSize, 0));

  std::vector<uint8_t> out(16, 0x5a);
  EXPECT_FALSE(as.HostRead(0x8000 - 8, out).ok());
  EXPECT_EQ(out, std::vector<uint8_t>(16, 0x5a));
  EXPECT_FALSE(as.HostWrite(~uint64_t{0} - 7, {in.data(), 16}).ok());

  // A write that lands on the exec page bumps the generation.
  ASSERT_TRUE(as.HostWrite(0x4000, {in.data(), 16}).ok());
  EXPECT_NE(as.mutation_generation(), gen);
}

TEST(AddressSpace, CheckEmptyAndWrappingRanges) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(0x4000, kPageSize, kPermRead).ok());
  // Zero-length ranges are vacuously valid anywhere, even unmapped.
  EXPECT_TRUE(as.Check(0x4000, 0, kPermRead));
  EXPECT_TRUE(as.Check(0x900000, 0, kPermRead));
  // A range wrapping past 2^64 never validates (and must not loop).
  EXPECT_FALSE(as.Check(~uint64_t{0} - 8, 16, kPermRead));
  EXPECT_FALSE(as.Check(~uint64_t{0}, 1, kPermRead));
}

TEST(AddressSpace, MapUnmapProtectRejectWrappingRanges) {
  AddressSpace as;
  const uint64_t top = ~kPageMask;  // last page-aligned address
  EXPECT_FALSE(as.Map(top, 2 * kPageSize, kPermRead).ok());
  EXPECT_FALSE(as.Unmap(top, 2 * kPageSize).ok());
  EXPECT_FALSE(as.Protect(top, 2 * kPageSize, kPermRead).ok());
}

TEST(AddressSpace, MapRejectsOverlapUnlessFixed) {
  AddressSpace as;
  ASSERT_TRUE(as.Map(kPageSize, 2 * kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(kPageSize, 77, 8).ok());
  // A partially overlapping map is rejected and maps nothing at all.
  EXPECT_FALSE(as.Map(2 * kPageSize, 2 * kPageSize, kPermRead).ok());
  EXPECT_EQ(*as.Read(kPageSize, 8), 77u);
  EXPECT_FALSE(as.Check(3 * kPageSize, 8, kPermRead));
  // MAP_FIXED-style replacement succeeds and zero-fills.
  ASSERT_TRUE(
      as.Map(kPageSize, kPageSize, kPermRead | kPermWrite, MapMode::kFixed)
          .ok());
  EXPECT_EQ(*as.Read(kPageSize, 8), 0u);
}

// The generation moves only when code can go stale: a Map, Unmap,
// Protect or InstallPage involving a page that is executable before or
// after, or a write landing on one. Changes confined to non-executable
// pages (a snapshot restore reinstalling dirtied data pages) leave it
// alone. Each bump records the pages it touched.
TEST(AddressSpace, MutationGenerationTracksExecRelevantChanges) {
  AddressSpace as;
  constexpr uint64_t kA = 0x4000, kB = 0x8000;  // pages 1 and 2
  uint64_t g = as.mutation_generation();
  uint8_t byte = 0;
  ASSERT_TRUE(as.Map(kA, kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Write(kA, 1, 8).ok());
  ASSERT_TRUE(as.HostWrite(kA, {&byte, 1}).ok());
  ASSERT_TRUE(as.Protect(kA, kPageSize, kPermRead).ok());
  ASSERT_TRUE(
      as.Map(kA, kPageSize, kPermRead | kPermWrite, MapMode::kFixed).ok());
  uint8_t perms = 0;
  const auto payload = as.ExportPage(kA, &perms);
  ASSERT_TRUE(as.InstallPage(kA, payload, perms).ok());
  ASSERT_TRUE(as.Map(kB, kPageSize, kPermRead | kPermWrite).ok());
  ASSERT_TRUE(as.Unmap(kB, kPageSize).ok());
  EXPECT_EQ(as.mutation_generation(), g);

  // Every change involving an exec page bumps once and records its pages.
  auto expect_bump = [&](uint64_t lo, uint64_t hi) {
    EXPECT_EQ(as.mutation_generation(), g + 1);
    g = as.mutation_generation();
    EXPECT_EQ(as.code_change(g).lo, lo);
    EXPECT_EQ(as.code_change(g).hi, hi);
  };
  ASSERT_TRUE(
      as.Protect(kA, kPageSize, kPermRead | kPermWrite | kPermExec).ok());
  expect_bump(1, 2);
  ASSERT_TRUE(as.Write(kA, 2, 8).ok());
  expect_bump(1, 2);
  ASSERT_TRUE(as.HostWrite(kA, {&byte, 1}).ok());
  expect_bump(1, 2);
  // A write straddling into a data page records only the exec page.
  ASSERT_TRUE(as.Map(kB, kPageSize, kPermRead | kPermWrite).ok());
  EXPECT_EQ(as.mutation_generation(), g);
  ASSERT_TRUE(as.Write(kB - 4, 3, 8).ok());
  expect_bump(1, 2);
  ASSERT_TRUE(as.Protect(kA, kPageSize, kPermRead).ok());  // drops exec
  expect_bump(1, 2);
  ASSERT_TRUE(as.InstallPage(kA, payload, kPermRead | kPermExec).ok());
  expect_bump(1, 2);
  ASSERT_TRUE(as.InstallPage(kA, payload, kPermRead | kPermWrite).ok());
  expect_bump(1, 2);
  ASSERT_TRUE(as.Map(kA, 2 * kPageSize, kPermRead | kPermExec,
                     MapMode::kFixed)
                  .ok());
  expect_bump(1, 3);
  ASSERT_TRUE(as.Protect(kB, kPageSize, kPermRead | kPermWrite).ok());
  expect_bump(2, 3);
  // Unmapping code and data together records just the code page.
  ASSERT_TRUE(as.Unmap(kA, 2 * kPageSize).ok());
  expect_bump(1, 2);
}

TEST(Machine, ArithmeticLoop) {
  // Sum 1..10 into x0.
  TestVm vm(R"(
    mov x0, #0
    mov x1, #10
  loop:
    add x0, x0, x1
    subs x1, x1, #1
    b.ne loop
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 55u);
}

TEST(Machine, GuardForcesTopBits) {
  // The core LFI property: add x18, x21, wN, uxtw replaces the top 32 bits
  // of an arbitrary value with the sandbox base.
  TestVm vm(R"(
    movz x21, #0xdead, lsl #32
    movz x1, #0x4141, lsl #48
    movk x1, #0x1234
    add x18, x21, w1, uxtw
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(18), 0xdead00001234u);
}

TEST(Machine, GuardedAddressingModeSemantics) {
  // ldr rt, [x21, wN, uxtw] ignores the index's top 32 bits.
  TestVm vm(R"(
    movz x21, #0x20, lsl #16   // x21 = kData
    movz x2, #0x77
    str x2, [x21, #64]
    movz x3, #0xffff, lsl #48  // garbage top bits
    movk x3, #64               // low 32 = 64
    ldr x0, [x21, w3, uxtw]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 0x77u);
}

TEST(Machine, FlagsAndConditionalSelect) {
  TestVm vm(R"(
    mov x1, #5
    mov x2, #9
    cmp x1, x2
    csel x0, x1, x2, lt    // min -> 5
    cset w3, lt
    csinc x4, xzr, xzr, eq // not equal -> 0 + 1
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 5u);
  EXPECT_EQ(vm.X(3), 1u);
  EXPECT_EQ(vm.X(4), 1u);
}

TEST(Machine, BitfieldAliases) {
  TestVm vm(R"(
    movz x1, #0xff00
    lsl x2, x1, #8
    lsr x3, x1, #8
    movn x4, #0            // x4 = all ones
    asr x5, x4, #63
    sxtw x6, w4
    uxth w7, w1
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(2), 0xff0000u);
  EXPECT_EQ(vm.X(3), 0xffu);
  EXPECT_EQ(vm.X(5), ~uint64_t{0});
  EXPECT_EQ(vm.X(6), ~uint64_t{0});
  EXPECT_EQ(vm.X(7), 0xff00u);
}

TEST(Machine, MulDivRemainderIdiom) {
  TestVm vm(R"(
    mov x1, #37
    mov x2, #5
    udiv x3, x1, x2
    msub x4, x3, x2, x1    // remainder = 37 - 7*5
    sdiv x5, xzr, xzr      // divide by zero -> 0
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 7u);
  EXPECT_EQ(vm.X(4), 2u);
  EXPECT_EQ(vm.X(5), 0u);
}

TEST(Machine, LoadStoreVariantsAndSignExtension) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16   // kData
    movn w1, #0                // 0xffffffff
    str w1, [x10]
    ldrsb x2, [x10]
    ldrh w3, [x10]
    ldrsw x4, [x10]
    strb w1, [x10, #100]
    ldrb w5, [x10, #100]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(2), ~uint64_t{0});
  EXPECT_EQ(vm.X(3), 0xffffu);
  EXPECT_EQ(vm.X(4), ~uint64_t{0});
  EXPECT_EQ(vm.X(5), 0xffu);
}

TEST(Machine, PairAndPrePostIndex) {
  TestVm vm(R"(
    movz x10, #0x21, lsl #16
    mov x1, #111
    mov x2, #222
    stp x1, x2, [x10, #-16]!
    ldp x3, x4, [x10], #16
    str x1, [x10, #8]!
    ldr x5, [x10], #-8
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 111u);
  EXPECT_EQ(vm.X(4), 222u);
  EXPECT_EQ(vm.X(5), 111u);
  EXPECT_EQ(vm.X(10), 0x210000u);
}

TEST(Machine, ExclusivePairSucceedsAndFails) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    mov x1, #5
    str x1, [x10]
    ldxr x2, [x10]
    add x2, x2, #1
    stxr w3, x2, [x10]      // should succeed: w3 = 0
    stxr w4, x2, [x10]      // monitor cleared: w4 = 1
    ldr x5, [x10]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 0u);
  EXPECT_EQ(vm.X(4), 1u);
  EXPECT_EQ(vm.X(5), 6u);
}

TEST(Machine, FloatingPoint) {
  TestVm vm(R"(
    mov x1, #3
    mov x2, #4
    scvtf d0, x1
    scvtf d1, x2
    fmul d2, d0, d1
    fadd d2, d2, d1        // 16
    fsqrt d3, d2           // 4
    fcvtzs x0, d3
    fcmp d3, d1
    cset w4, eq
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 4u);
  EXPECT_EQ(vm.X(4), 1u);
}

TEST(Machine, VectorAdd) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    mov x1, #1
    mov x2, #2
    str x1, [x10]
    str x2, [x10, #8]
    str x2, [x10, #16]
    str x1, [x10, #24]
    ldr q0, [x10]
    ldr q1, [x10, #16]
    add v2.2d, v0.2d, v1.2d
    str q2, [x10, #32]
    ldr x3, [x10, #32]
    ldr x4, [x10, #40]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(3), 3u);
  EXPECT_EQ(vm.X(4), 3u);
}

TEST(Machine, JumpTableViaBr) {
  TestVm vm(R"(
    adr x1, case1
    br x1
    mov x0, #1
    brk #0
  case1:
    mov x0, #42
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 42u);
}

TEST(Machine, CallAndReturn) {
  TestVm vm(R"(
    bl func
    mov x1, #7
    brk #0
  func:
    mov x0, #9
    ret
  )");
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 9u);
  EXPECT_EQ(vm.X(1), 7u);
}

TEST(Machine, StoreToUnmappedFaults) {
  TestVm vm(R"(
    movz x1, #0x7f, lsl #32
    str x1, [x1]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kMemory);
  EXPECT_EQ(vm.machine.fault().mem.kind, MemFault::Kind::kUnmapped);
}

TEST(Machine, StoreToReadOnlyCodeFaults) {
  TestVm vm(R"(
    movz x1, #0x10, lsl #16   // kCode
    str x1, [x1]
    brk #0
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().mem.kind, MemFault::Kind::kPermission);
}

TEST(Machine, ExecuteDataFaults) {
  TestVm vm(R"(
    movz x1, #0x20, lsl #16   // kData: mapped RW, not X
    br x1
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kFetch);
}

TEST(Machine, MisalignedBranchFaults) {
  TestVm vm(R"(
    movz x1, #0x10, lsl #16
    add x1, x1, #2
    br x1
  )");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kPcAlign);
}

TEST(Machine, SvcIsIllegal) {
  TestVm vm("svc #0\n");
  EXPECT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kIllegal);
}

TEST(Machine, RuntimeRegionStopsExecution) {
  TestVm vm(R"(
    movz x1, #0x7000, lsl #16
    br x1
  )");
  vm.machine.SetRuntimeRegion(0x70000000, 0x10000);
  EXPECT_EQ(vm.Run(), StopReason::kRuntimeEntry);
  EXPECT_EQ(vm.machine.state().pc, 0x70000000u);
}

// Regression: after the code region is remapped with different bytes, the
// machine must execute the new code, not a stale decoded copy. (The
// original per-page decode cache kept serving the old instructions here.)
TEST(Machine, RemapInvalidatesDecodedCode) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 1u);
  // Remap the code region (fresh zero pages) and install different code.
  ASSERT_TRUE(
      vm.space.Map(kCode, 0x40000, kPermRead | kPermExec, MapMode::kFixed)
          .ok());
  const asmtext::Image img = AssembleAt("  mov x0, #2\n  brk #0\n");
  ASSERT_TRUE(
      vm.space.HostWrite(img.text_addr, {img.text.data(), img.text.size()})
          .ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 2u);  // a stale cache would still deliver #1
}

// Same property for in-place code patching through HostWrite (no remap).
TEST(Machine, HostWriteToExecPageInvalidatesDecodedCode) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 1u);
  const asmtext::Image img = AssembleAt("  mov x0, #3\n  brk #0\n");
  ASSERT_TRUE(
      vm.space.HostWrite(img.text_addr, {img.text.data(), img.text.size()})
          .ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(0), 3u);
}

// Removing exec permission must also invalidate: re-running previously
// decoded code faults at fetch instead of executing from the cache.
TEST(Machine, ProtectDropsExecAndRerunFetchFaults) {
  TestVm vm("  mov x0, #1\n  brk #0\n");
  const uint64_t entry = vm.machine.state().pc;
  ASSERT_EQ(vm.Run(), StopReason::kBrk);
  ASSERT_TRUE(vm.space.Protect(kCode, 0x40000, kPermRead).ok());
  vm.machine.state().pc = entry;
  ASSERT_EQ(vm.Run(), StopReason::kFault);
  EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kFetch);
}

// --- Block-chaining invalidation (Dispatch::kChained, docs/DISPATCH.md) ---

// A guest store into the executing page bumps the mutation generation
// mid-flight: the chained backend must sever its block->block links at the
// very next edge, redecode, and execute the patched code — and do all of
// that on the same simulated schedule as the reference backends. The store
// lands on an instruction *after* the loop, so a stale chain would deliver
// the pre-patch "mov x0, #1".
TEST(Machine, ChainedSelfModifyingStoreSeversChainsMidLoop) {
  const char* src =
      "  movz x9, #5\n"
      "  movz x1, #0x0040\n"
      "  movk x1, #0xd280, lsl #16\n"  // 0xd2800040 = "mov x0, #2"
      "loop:\n"
      "  subs x9, x9, #1\n"
      "  str w1, [x3]\n"  // patches the exec page every iteration
      "  b.ne loop\n"
      "  mov x0, #1\n"  // patch site: becomes "mov x0, #2"
      "  brk #0\n";
  uint64_t want_retired = 0, want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock, Dispatch::kStep}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(src);
    ASSERT_TRUE(vm.space
                    .Protect(kCode, 0x40000,
                             kPermRead | kPermWrite | kPermExec)
                    .ok());
    vm.machine.set_dispatch(d);
    vm.machine.state().x[3] = vm.machine.state().pc + 24;  // the patch site
    ASSERT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(0), 2u);  // a live chain would still deliver #1
    if (d == Dispatch::kChained) {
      want_retired = vm.machine.timing().Retired();
      want_cycles = vm.machine.timing().Cycles();
      EXPECT_GT(want_retired, 0u);
    } else {
      EXPECT_EQ(vm.machine.timing().Retired(), want_retired);
      EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    }
  }
}

// Host-side mutations between runs — HostWrite code patching, a Protect
// permission cycle, and a full remap — must each leave the chained backend
// executing fresh code on the reference backend's exact simulated
// schedule. Every phase reuses the same machine, so chains built in one
// phase are live bait for the next.
TEST(Machine, ChainedHostMutationsMatchReferenceAcrossRuns) {
  const char* kLoop1 =
      "  movz x9, #100\n"
      "l1:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l1\n"
      "  mov x0, #1\n"
      "  brk #0\n";
  const char* kLoop2 =
      "  movz x9, #60\n"
      "l2:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l2\n"
      "  mov x0, #2\n"
      "  brk #0\n";
  const char* kLoop3 =
      "  movz x9, #30\n"
      "l3:\n"
      "  subs x9, x9, #1\n"
      "  b.ne l3\n"
      "  mov x0, #3\n"
      "  brk #0\n";
  auto run_seq = [&](Dispatch d) {
    std::vector<uint64_t> log;
    TestVm vm(kLoop1);
    vm.machine.set_dispatch(d);
    const uint64_t entry = vm.machine.state().pc;
    auto record = [&](StopReason stop) {
      EXPECT_EQ(stop, StopReason::kBrk);
      log.push_back(vm.X(0));
      log.push_back(vm.machine.timing().Retired());
      log.push_back(vm.machine.timing().Cycles());
    };
    record(vm.Run());  // phase 1: builds chains for the loop

    // Phase 2: HostWrite patches the loop in place.
    const asmtext::Image img2 = AssembleAt(kLoop2);
    EXPECT_TRUE(
        vm.space.HostWrite(img2.text_addr, {img2.text.data(), img2.text.size()})
            .ok());
    vm.machine.state().pc = entry;
    record(vm.Run());

    // Phase 3: a Protect round-trip (perms unchanged in the end) still
    // bumps the generation; the rerun must redecode, not trust chains.
    EXPECT_TRUE(vm.space.Protect(kCode, 0x40000, kPermRead).ok());
    EXPECT_TRUE(
        vm.space.Protect(kCode, 0x40000, kPermRead | kPermExec).ok());
    vm.machine.state().pc = entry;
    record(vm.Run());

    // Phase 4: full remap with different code.
    EXPECT_TRUE(
        vm.space.Map(kCode, 0x40000, kPermRead | kPermExec, MapMode::kFixed)
            .ok());
    const asmtext::Image img3 = AssembleAt(kLoop3);
    EXPECT_TRUE(
        vm.space.HostWrite(img3.text_addr, {img3.text.data(), img3.text.size()})
            .ok());
    vm.machine.state().pc = entry;
    record(vm.Run());
    return log;
  };
  const std::vector<uint64_t> chained = run_seq(Dispatch::kChained);
  const std::vector<uint64_t> block = run_seq(Dispatch::kBlock);
  const std::vector<uint64_t> step = run_seq(Dispatch::kStep);
  ASSERT_EQ(chained.size(), 12u);
  EXPECT_EQ(chained[0], 1u);
  EXPECT_EQ(chained[3], 2u);
  EXPECT_EQ(chained[6], 2u);  // phase 3 reruns the phase-2 code
  EXPECT_EQ(chained[9], 3u);
  EXPECT_EQ(block, chained);
  EXPECT_EQ(step, chained);
}

// --- Page-scoped invalidation (docs/ABI.md, docs/DISPATCH.md) ---

// Page A (kCode) loops three times through a direct branch into page B
// (kCode + kPageSize) and back, so the chained backend links A->B and
// B->A; x1 ends as B's `mov` immediate. Five blocks: entry, loop, back
// and brk on A, fn on B.
std::string TwoPageProg(int b_imm) {
  return "  movz x9, #3\n"
         "loop:\n"
         "  b fn\n"
         "back:\n"
         "  subs x9, x9, #1\n"
         "  b.ne loop\n"
         "  brk #0\n"
         "  .balign 16384\n"
         "fn:\n"
         "  mov x1, #" + std::to_string(b_imm) + "\n"
         "  b back\n";
}

constexpr uint64_t kPageB = kCode + kPageSize;

// Page B's bytes of TwoPageProg(b_imm), as a fresh payload.
std::shared_ptr<AddressSpace::PageData> PageBOf(int b_imm) {
  const asmtext::Image img = AssembleAt(TwoPageProg(b_imm));
  EXPECT_EQ(img.text.size(), kPageSize + 8);
  auto page = std::make_shared<AddressSpace::PageData>();
  page->fill(0);
  std::copy(img.text.begin() + kPageSize, img.text.end(), page->begin());
  return page;
}

// What one run of the two-page program saw.
struct RunLog {
  StopReason stop;
  uint64_t x1, retired, cycles, misses, invalidations;
};

// Runs TwoPageProg(1) once under `d`, applies `mutate`, then reruns from
// the entry and returns the rerun's log.
template <typename Mutate>
RunLog RerunAfter(Dispatch d, Mutate mutate) {
  TestVm vm(TwoPageProg(1));
  trace::ExecCounters c;
  vm.machine.set_dispatch(d);
  vm.machine.set_counters(&c);
  const uint64_t entry = vm.machine.state().pc;
  EXPECT_EQ(vm.Run(), StopReason::kBrk);
  EXPECT_EQ(vm.X(1), 1u);
  mutate(vm.space);
  vm.machine.state().pc = entry;
  vm.machine.state().x[1] = 0;
  const trace::ExecCounters before = c;
  const uint64_t retired0 = vm.machine.timing().Retired();
  const uint64_t cycles0 = vm.machine.timing().Cycles();
  const StopReason stop = vm.Run();
  return {stop,
          vm.X(1),
          vm.machine.timing().Retired() - retired0,
          vm.machine.timing().Cycles() - cycles0,
          c.block_misses - before.block_misses,
          c.block_invalidations - before.block_invalidations};
}

// The mutation on all three backends: same result, retired count and
// cycles everywhere; returns the chained backend's log.
template <typename Mutate>
RunLog RerunOnAllBackends(Mutate mutate) {
  const RunLog chained = RerunAfter(Dispatch::kChained, mutate);
  for (Dispatch d : {Dispatch::kBlock, Dispatch::kStep}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    const RunLog ref = RerunAfter(d, mutate);
    EXPECT_EQ(ref.stop, chained.stop);
    EXPECT_EQ(ref.x1, chained.x1);
    EXPECT_EQ(ref.retired, chained.retired);
    EXPECT_EQ(ref.cycles, chained.cycles);
    EXPECT_EQ(ref.invalidations, chained.invalidations);
    if (d == Dispatch::kBlock) {
      EXPECT_EQ(ref.misses, chained.misses);
    }
  }
  return chained;
}

// Installing new code on page B (what a snapshot spawn into a reused slot
// does) keeps page A's four blocks cached: the rerun decodes only B's.
TEST(Machine, ReplacingOnePageKeepsOtherPagesDecoded) {
  const RunLog log = RerunOnAllBackends([](AddressSpace& as) {
    ASSERT_TRUE(as.InstallPage(kPageB, PageBOf(2), kPermRead | kPermExec)
                    .ok());
  });
  EXPECT_EQ(log.stop, StopReason::kBrk);
  EXPECT_EQ(log.x1, 2u);
  EXPECT_EQ(log.misses, 1u);
  EXPECT_EQ(log.invalidations, 1u);
}

// The A->B chain links were installed by the first run; remapping B and
// writing new code there must sever them, so the branch runs the new
// bytes (a surviving link would run the old block, or freed memory).
TEST(Machine, ChainedBranchIntoReplacedPageRunsNewCode) {
  const RunLog log = RerunOnAllBackends([](AddressSpace& as) {
    ASSERT_TRUE(as.Map(kPageB, kPageSize, kPermRead | kPermExec,
                       MapMode::kFixed)
                    .ok());
    const auto page = PageBOf(3);
    ASSERT_TRUE(as.HostWrite(kPageB, {page->data(), page->size()}).ok());
  });
  EXPECT_EQ(log.stop, StopReason::kBrk);
  EXPECT_EQ(log.x1, 3u);
  EXPECT_EQ(log.misses, 1u);
}

// More code changes than the ring remembers: B's replacement scrolls out
// of it behind 70 writes to an unrelated exec page, so the machine must
// fall back to dropping everything and still run only current code.
TEST(Machine, RingOverrunDropsAllDecodedCode) {
  const RunLog log = RerunOnAllBackends([](AddressSpace& as) {
    ASSERT_TRUE(as.InstallPage(kPageB, PageBOf(4), kPermRead | kPermExec)
                    .ok());
    const uint8_t byte = 0;
    for (uint64_t k = 0; k < AddressSpace::kCodeChangeRing + 6; ++k) {
      ASSERT_TRUE(as.HostWrite(kCode + 4 * kPageSize, {&byte, 1}).ok());
    }
  });
  EXPECT_EQ(log.stop, StopReason::kBrk);
  EXPECT_EQ(log.x1, 4u);
  EXPECT_EQ(log.misses, 5u);  // every block re-decoded
}

// Dropping exec on page B alone: A's blocks stay cached, but the branch
// into B (chained in the first run) must fault at fetch.
TEST(Machine, ProtectDroppingExecOnOnePageFaultsTheNextFetch) {
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock, Dispatch::kStep}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(TwoPageProg(1));
    vm.machine.set_dispatch(d);
    const uint64_t entry = vm.machine.state().pc;
    ASSERT_EQ(vm.Run(), StopReason::kBrk);
    ASSERT_TRUE(vm.space.Protect(kPageB, kPageSize, kPermRead).ok());
    vm.machine.state().pc = entry;
    ASSERT_EQ(vm.Run(), StopReason::kFault);
    EXPECT_EQ(vm.machine.fault().kind, CpuFault::Kind::kFetch);
    EXPECT_EQ(vm.machine.fault().pc, kPageB);
  }
}

// ldp with xzr in either destination slot, plain and post-indexed: the
// discarded load's scoreboard entry must go nowhere (it used to write
// one entry before the scoreboard), and every backend must agree on the
// cycles.
TEST(Machine, LdpWithZeroRegisterDestinations) {
  const char* src =
      "  movz x10, #0x21, lsl #16\n"
      "  mov x1, #11\n"
      "  mov x2, #22\n"
      "  stp x1, x2, [x10]\n"
      "  stp x1, x2, [x10, #16]\n"
      "  ldp xzr, x3, [x10]\n"
      "  ldp x4, xzr, [x10]\n"
      "  ldp xzr, x5, [x10], #16\n"
      "  ldp x6, xzr, [x10], #-16\n"
      "  add x7, x3, x4\n"
      "  brk #0\n";
  uint64_t want_cycles = 0;
  for (Dispatch d : {Dispatch::kChained, Dispatch::kBlock, Dispatch::kStep}) {
    SCOPED_TRACE("dispatch " + std::to_string(int(d)));
    TestVm vm(src);
    vm.machine.set_dispatch(d);
    ASSERT_EQ(vm.Run(), StopReason::kBrk);
    EXPECT_EQ(vm.X(3), 22u);
    EXPECT_EQ(vm.X(4), 11u);
    EXPECT_EQ(vm.X(5), 22u);
    EXPECT_EQ(vm.X(6), 11u);
    EXPECT_EQ(vm.X(7), 33u);
    EXPECT_EQ(vm.X(10), 0x210000u);
    if (d == Dispatch::kChained) {
      want_cycles = vm.machine.timing().Cycles();
    } else {
      EXPECT_EQ(vm.machine.timing().Cycles(), want_cycles);
    }
  }
}

// --- Timing model properties ---

// Runs `body` inside a counted loop and returns total cycles.
uint64_t CyclesFor(const std::string& body, int iters = 1000) {
  TestVm vm("  movz x10, #0x20, lsl #16\n  mov x9, #" +
            std::to_string(iters) +
            "\nloop:\n" + body +
            "  subs x9, x9, #1\n  b.ne loop\n  brk #0\n");
  EXPECT_EQ(vm.Run(10000000), StopReason::kBrk);
  return vm.machine.timing().Cycles();
}

TEST(Timing, GuardLatencyOrdering) {
  // A dependent chain through the 2-cycle extended-add guard must cost
  // more than the same chain through plain adds (Section 4's motivation).
  const uint64_t plain = CyclesFor(R"(
    add x1, x1, x2
    add x1, x1, x2
    add x1, x1, x2
  )");
  const uint64_t guarded = CyclesFor(R"(
    add x1, x1, w2, uxtw
    add x1, x1, w2, uxtw
    add x1, x1, w2, uxtw
  )");
  EXPECT_GT(guarded, plain + plain / 2);
}

TEST(Timing, EmbeddedGuardIsFree) {
  // ldr via [base, wN, uxtw] costs the same as ldr via [xN] - the
  // zero-instruction guard of Section 4.1. Both loops perform the same
  // dependent-load chain; the second simply uses the guarded addressing
  // mode with a zero index register (x11 stays 0).
  const uint64_t plain = CyclesFor("  ldr x1, [x10]\n  ldr x1, [x10]\n");
  const uint64_t embedded =
      CyclesFor("  ldr x1, [x10, w11, uxtw]\n  ldr x1, [x10, w11, uxtw]\n");
  EXPECT_EQ(embedded, plain);
}

TEST(Timing, MispredictionCostsCycles) {
  // A data-dependent unpredictable branch pattern should cost more than a
  // perfectly predictable one.
  const uint64_t predictable = CyclesFor(R"(
    add x1, x1, #1
    tbz x9, #20, skip1
    add x2, x2, #1
  skip1:
  )");
  const uint64_t alternating = CyclesFor(R"(
    add x1, x1, #1
    tbz x9, #0, skip2
    add x2, x2, #1
  skip2:
  )");
  // Alternating taken/not-taken defeats a 2-bit counter about half the
  // time; require a clear gap.
  EXPECT_GT(alternating, predictable + 1000);
}

// A loop striding by 64 bytes over a large region (cold) vs hammering one
// line (hot). The data area is only 256KiB so wrap with a register mask.
uint64_t StrideCycles(bool nested) {
  TestVm vm(R"(
    movz x10, #0x20, lsl #16
    movz x9, #20000
    mov x11, #0
    movz x12, #0xffc0         // mask: 256KiB, 64-byte aligned
    movk x12, #0x3, lsl #16
  loop:
    add x11, x11, #4032       // a prime-ish stride of cache lines
    and x11, x11, x12
    add x13, x10, x11
    ldr x1, [x13]
    subs x9, x9, #1
    b.ne loop
    brk #0
  )");
  vm.machine.timing().set_nested_pagetables(nested);
  EXPECT_EQ(vm.Run(10000000), StopReason::kBrk);
  return vm.machine.timing().Cycles();
}

TEST(Timing, CacheMissesCost) {
  const uint64_t hot = CyclesFor("  ldr x1, [x10]\n", 20000);
  const uint64_t cold = StrideCycles(false);
  // The cold loop has more instructions so compare very loosely: striding
  // beyond L1 must be at least 2x a hot line.
  EXPECT_GT(cold, hot * 2);
}

TEST(Timing, NestedPagetablesIncreaseWalkCost) {
  // Same strided loop with nested page tables must not be cheaper, and a
  // TLB-thrashing pattern should actually get slower.
  EXPECT_GE(StrideCycles(true), StrideCycles(false));
}

}  // namespace
}  // namespace lfi::emu
