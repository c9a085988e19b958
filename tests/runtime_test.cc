// Runtime tests: loading, runtime calls, scheduling, fork/wait/pipe,
// isolation between sandboxes, and the fast yield.

#include <gtest/gtest.h>

#include "pipeline_util.h"
#include "runtime/runtime.h"

namespace lfi::runtime {
namespace {

RuntimeConfig TestConfig() {
  RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  return cfg;
}

// Loads `src` through the full pipeline and runs it to completion.
struct TestRun {
  Runtime rt;
  int pid = -1;

  explicit TestRun(const std::string& src, bool rewrite = true,
                   RuntimeConfig cfg = TestConfig())
      : rt(cfg) {
    auto elf_bytes = test::BuildElf(src, rewrite);
    EXPECT_TRUE(elf_bytes.ok()) << (elf_bytes.ok() ? "" : elf_bytes.error());
    if (!elf_bytes.ok()) return;
    auto p = rt.Load({elf_bytes->data(), elf_bytes->size()});
    EXPECT_TRUE(p.ok()) << (p.ok() ? "" : p.error());
    if (p.ok()) pid = *p;
  }

  Proc* P() { return rt.proc(pid); }
};

// A tiny "libc": exit with the value in x0.
constexpr const char* kExit = R"(
  rtcall #0        // exit(x0)
)";

TEST(Runtime, LoadRunExit) {
  TestRun t(std::string("mov x0, #42\n") + kExit);
  ASSERT_GE(t.pid, 0);
  EXPECT_EQ(t.rt.RunUntilIdle(), 0);
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 42);
}

TEST(Runtime, WriteToStdout) {
  TestRun t(R"(
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x0, #1         // fd
    mov x2, #14        // len
    rtcall #1          // write
    mov x0, #0
    rtcall #0
  .data
  msg:
    .asciz "hello, sandbox"
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->out, "hello, sandbox");
  EXPECT_EQ(t.P()->exit_status, 0);
}

TEST(Runtime, OpenReadFile) {
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0         // O_RDONLY
    rtcall #3          // open -> fd in x0
    mov x9, x0
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #64
    mov x0, x9
    rtcall #2          // read
    mov x9, x0         // bytes read
    mov x0, #1
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, x9
    rtcall #1          // write to stdout
    mov x0, #0
    rtcall #0
  .data
  path:
    .asciz "/etc/motd"
  .bss
  buf:
    .zero 64
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/etc/motd", std::string("welcome"));
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->out, "welcome");
}

TEST(Runtime, PathPolicyDeniesHostTree) {
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3
    rtcall #0          // exit(open result)
  .data
  path:
    .asciz "/host/secret"
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/host/secret", std::string("no"));
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, -13);  // EACCES
}

TEST(Runtime, WriteToCreatedFile) {
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0101      // O_WRONLY|O_CREAT (here: write|create)
    movz x1, #0x41
    rtcall #3
    mov x9, x0
    mov x0, x9
    adrp x1, msg
    add x1, x1, :lo12:msg
    mov x2, #3
    rtcall #1
    mov x0, x9
    rtcall #4          // close
    mov x0, #0
    rtcall #0
  .data
  path:
    .asciz "/tmp/out"
  msg:
    .asciz "abc"
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  const VfsNode* node = t.rt.vfs().Lookup("/tmp/out");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(std::string(node->data.begin(), node->data.end()), "abc");
}

TEST(Runtime, MmapAndUse) {
  TestRun t(R"(
    mov x0, #0
    movz x1, #0x8000    // 32KiB
    rtcall #6           // mmap
    mov x9, x0
    mov x1, #123
    str x1, [x9, #64]
    ldr x2, [x9, #64]
    mov x0, x2
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 123);
}

TEST(Runtime, BrkGrowsHeap) {
  TestRun t(R"(
    mov x0, #0
    rtcall #5           // brk(0) -> current
    movz x1, #0x2, lsl #16
    add x0, x0, x1      // +128KiB
    mov x9, x0
    rtcall #5           // brk(new)
    sub x2, x9, #8
    mov x3, #77
    str x3, [x2]
    ldr x0, [x2]
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 77);
}

TEST(Runtime, ForkReturnsTwiceAndWaitReaps) {
  TestRun t(R"(
    rtcall #8           // fork
    cbz x0, child
    // parent: wait for the child, then exit with child's pid == x0
    mov x9, x0          // child pid
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9           // wait -> child pid
    sub x0, x0, x9      // 0 if the right child was reaped
    rtcall #0
  child:
    mov x0, #7
    rtcall #0
  .bss
  status:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0);
  // Both slots reclaimed: the child's at wait(), the parent's at exit.
  EXPECT_EQ(t.rt.slots_in_use(), 0u);
}

TEST(Runtime, ForkChildSeesCopyOnWriteMemory) {
  TestRun t(R"(
    adrp x9, value
    add x9, x9, :lo12:value
    mov x1, #5
    str x1, [x9]
    rtcall #8           // fork
    cbz x0, child
    // parent: wait, then read value (must still be 5 = child's write
    // invisible); exit(value + child_exit=..)
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9
    ldr x0, [x9]        // parent's copy: still 5
    rtcall #0
  child:
    mov x1, #99
    str x1, [x9]        // child's copy only
    ldr x0, [x9]
    rtcall #0           // child exits 99
  .bss
  status:
    .zero 8
  .data
  value:
    .quad 0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 5);
}

TEST(Runtime, PipeBetweenParentAndChild) {
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    rtcall #8           // fork
    cbz x0, child
    // parent: read one byte, exit with it.
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]        // read fd
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read (blocks until child writes)
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]
    rtcall #0
  child:
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]    // write fd
    adrp x1, byte
    add x1, x1, :lo12:byte
    mov x2, #1
    rtcall #1           // write
    mov x0, #0
    rtcall #0
  .data
  byte:
    .byte 65
  .bss
  fds:
    .zero 8
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 65);
}

TEST(Runtime, PipeWriteWithNoReadersFails) {
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9]        // read fd
    rtcall #4           // close the only reader
    ldr w0, [x9, #4]    // write fd
    adrp x1, fds
    add x1, x1, :lo12:fds
    mov x2, #1
    rtcall #1           // write -> no readers left
    rtcall #0           // exit(write result)
  .bss
  fds:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, -22);  // EINVAL-style broken pipe
}

TEST(Runtime, PipeReadAfterWriterCloseDrainsThenEofs) {
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]    // write fd
    adrp x1, byte
    add x1, x1, :lo12:byte
    mov x2, #1
    rtcall #1           // write one byte
    ldr w0, [x9, #4]
    rtcall #4           // close the writer
    // Buffered data must still be readable after the writer is gone.
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read -> 1
    mov x10, x0
    // The next read must be EOF (0), not a hang.
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read -> 0
    cmp x10, #1
    b.ne bad
    cbnz x0, bad
    mov x0, #7
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .data
  byte:
    .byte 65
  .bss
  fds:
    .zero 8
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 7);
}

TEST(Runtime, PipeWritePartialAtCapacityBoundary) {
  // Fill the pipe to one byte short of capacity, then write two bytes:
  // exactly one must be accepted.
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]    // write fd
    adrp x1, buf
    add x1, x1, :lo12:buf
    movz x2, #0xffff    // capacity - 1
    rtcall #1
    movz x10, #0xffff
    cmp x0, x10
    b.ne bad
    ldr w0, [x9, #4]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #2
    rtcall #1           // only 1 byte of space left
    add x0, x0, #100    // exit(100 + partial count)
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .bss
  fds:
    .zero 8
  buf:
    .zero 65536
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 101);
}

TEST(Runtime, PipeWriteBlocksWhenFull) {
  // A write to a completely full pipe with a live reader must block; with
  // nobody draining, the process deadlocks and RunUntilIdle reports it
  // still alive in kBlockedWrite.
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]    // write fd
    adrp x1, buf
    add x1, x1, :lo12:buf
    movz x2, #1, lsl #16  // 65536 = full capacity
    rtcall #1
    ldr w0, [x9, #4]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #1           // blocks forever
    mov x0, #0
    rtcall #0
  .bss
  fds:
    .zero 8
  buf:
    .zero 65536
  )");
  ASSERT_GE(t.pid, 0);
  EXPECT_EQ(t.rt.RunUntilIdle(), 1);  // one live, deadlocked process
  EXPECT_EQ(t.P()->state, ProcState::kBlockedWrite);
}

TEST(Runtime, GetpidAndYield) {
  TestRun t(R"(
    rtcall #12          // getpid
    mov x9, x0
    rtcall #11          // yield
    mov x0, x9
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, t.pid);
}

TEST(Runtime, PreemptionInterleavesTwoSandboxes) {
  // Two independent infinite-ish loops must both make progress under the
  // preemptive scheduler.
  const std::string looper = R"(
    movz x9, #2000
  loop:
    subs x9, x9, #1
    b.ne loop
    rtcall #12
    rtcall #0
  )";
  RuntimeConfig cfg = TestConfig();
  cfg.timeslice_insts = 100;  // force many preemptions
  Runtime rt(cfg);
  auto elf_bytes = test::BuildElf(looper);
  ASSERT_TRUE(elf_bytes.ok());
  auto p1 = rt.Load({elf_bytes->data(), elf_bytes->size()});
  auto p2 = rt.Load({elf_bytes->data(), elf_bytes->size()});
  ASSERT_TRUE(p1.ok() && p2.ok());
  rt.RunUntilIdle();
  EXPECT_EQ(rt.proc(*p1)->exit_status, *p1);
  EXPECT_EQ(rt.proc(*p2)->exit_status, *p2);
}

TEST(Runtime, SandboxCannotTouchNeighbor) {
  // Program 2 writes a secret; program 1 tries to read/write program 2's
  // slot by constructing an out-of-slot pointer. All its accesses get
  // forced back into its own slot by the guards, so the secret is intact
  // and the attacker reads its own memory.
  const std::string victim = R"(
    adrp x9, secret
    add x9, x9, :lo12:secret
    movz x1, #0xbeef
    str x1, [x9]
    rtcall #11
    rtcall #11
    mov x0, #0
    rtcall #0
  .data
  secret:
    .quad 0
  )";
  // The attacker builds a pointer into "slot+1" (its own base + 4GiB).
  const std::string attacker = R"(
    movz x1, #0x1, lsl #32   // 4GiB - but the top 32 bits get masked
    adrp x2, probe
    add x2, x2, :lo12:probe
    add x1, x1, x2
    movz x3, #0x4141
    str x3, [x1]             // lands in OUR probe, not the neighbor
    ldr x0, [x2]
    rtcall #0
  .data
  probe:
    .quad 0
  )";
  Runtime rt(TestConfig());
  auto velf = test::BuildElf(victim);
  auto aelf = test::BuildElf(attacker);
  ASSERT_TRUE(velf.ok() && aelf.ok());
  auto vp = rt.Load({velf->data(), velf->size()});
  auto ap = rt.Load({aelf->data(), aelf->size()});
  ASSERT_TRUE(vp.ok() && ap.ok());
  rt.RunUntilIdle();
  // The attacker saw its own write (0x4141), proving the store was
  // redirected into its own sandbox.
  EXPECT_EQ(rt.proc(*ap)->exit_status, 0x4141);
  EXPECT_EQ(rt.proc(*vp)->exit_kind, ExitKind::kExited);
}

TEST(Runtime, UnverifiableProgramRejectedAtLoad) {
  auto elf_bytes = test::BuildElf("ldr x0, [x1]\nret\n",
                                  /*rewrite=*/false);
  ASSERT_TRUE(elf_bytes.ok());
  Runtime rt(TestConfig());
  auto p = rt.Load({elf_bytes->data(), elf_bytes->size()});
  EXPECT_FALSE(p.ok());
}

TEST(Runtime, FaultingSandboxIsKilledNotRuntime) {
  // A verified program can still fault (e.g. jumping into a guard region);
  // the runtime must contain it.
  // Hand-guarded code (no rewriter), with a hand-written exit sequence.
  TestRun t(R"(
    movz x1, #0x4000        // guard-region offset (16KiB): unmapped
    add x18, x21, w1, uxtw
    ldr x0, [x18]
    ldr x30, [x21]          // call-table entry 0 = exit
    blr x30
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kKilled);
  // The supervisor records what happened and where for post-mortems.
  EXPECT_EQ(t.P()->disposition, Disposition::kKilled);
  EXPECT_EQ(t.P()->term_signal, kSigSegv);
  EXPECT_NE(t.P()->fault_detail.find("pc="), std::string::npos)
      << t.P()->fault_detail;
}

TEST(Runtime, WaitStatusEncodesChildTermination) {
  // A parent waiting on a faulting child must observe a wait status that
  // distinguishes "killed by signal N" (0x100|N) from a plain exit code.
  TestRun t(R"(
    ldr x30, [x21, #64]     // call-table entry 8 = fork
    blr x30
    cbz x0, child
    mov x0, sp              // parent: wait(&status) on the stack
    ldr x30, [x21, #72]     // entry 9 = wait
    blr x30
    ldr w0, [sp]
    ldr x30, [x21]          // entry 0 = exit(status word)
    blr x30
  child:
    movz x1, #0x4000        // guard-region offset: unmapped, faults
    add x18, x21, w1, uxtw
    ldr x0, [x18]
  )",
            /*rewrite=*/false);
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  ASSERT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 0x100 | kSigSegv);
}

TEST(Runtime, FastYieldSwitchesDirectly) {
  // Proc A yields directly to proc B; B must run next and A's state is
  // preserved.
  const std::string a = R"(
    mov x19, #0
    rtcall #12          // getpid -> x0 (say 1); partner pid is pid+1
    add x0, x0, #1
    rtcall #14          // yield_to(partner)
    mov x0, #11
    rtcall #0
  )";
  const std::string b = R"(
    mov x0, #22
    rtcall #0
  )";
  Runtime rt(TestConfig());
  auto ea = test::BuildElf(a);
  auto eb = test::BuildElf(b);
  ASSERT_TRUE(ea.ok() && eb.ok());
  auto pa = rt.Load({ea->data(), ea->size()});
  auto pb = rt.Load({eb->data(), eb->size()});
  ASSERT_TRUE(pa.ok() && pb.ok());
  rt.RunUntilIdle();
  EXPECT_EQ(rt.proc(*pa)->exit_status, 11);
  EXPECT_EQ(rt.proc(*pb)->exit_status, 22);
}

// ---- ELF segment placement ----
//
// Every placement rule refuses the image before a slot is taken, so a
// rejected load leaves no slot and no page behind.

elf::ElfImage ExitImage() {
  auto bytes = test::BuildElf(std::string("mov x0, #0\n") + kExit);
  EXPECT_TRUE(bytes.ok());
  auto img = elf::Read(*bytes);
  EXPECT_TRUE(img.ok());
  EXPECT_EQ(img->segments.size(), 1u);
  return *img;
}

void ExpectLoadRejected(const elf::ElfImage& img, const std::string& why) {
  Runtime rt(TestConfig());
  ASSERT_TRUE(rt.LoadImage(ExitImage()).ok());  // one live sandbox
  const uint64_t slots = rt.slots_in_use();
  const size_t pages = rt.space().MappedPages();
  auto pid = rt.LoadImage(img);
  ASSERT_FALSE(pid.ok());
  EXPECT_NE(pid.error().find(why), std::string::npos) << pid.error();
  EXPECT_EQ(rt.slots_in_use(), slots);
  EXPECT_EQ(rt.space().MappedPages(), pages);
}

TEST(Runtime, LoadRejectsSegmentOutsideLoadableArea) {
  elf::ElfImage low = ExitImage();
  low.segments[0].vaddr = kPage;  // call table + leading guard
  ExpectLoadRejected(low, "outside the loadable sandbox area");
  elf::ElfImage high = ExitImage();
  high.segments[0].exec = false;
  high.segments[0].vaddr = kProgramEnd - kStackSize;  // the stack
  ExpectLoadRejected(high, "outside the loadable sandbox area");
}

TEST(Runtime, LoadRejectsExecSegmentNearSlotEnd) {
  elf::ElfImage img = ExitImage();
  img.segments[0].vaddr = kCodeEnd - 4;
  ExpectLoadRejected(img, "within 128MiB of the slot end");
}

TEST(Runtime, LoadRejectsWritableExecSegment) {
  elf::ElfImage img = ExitImage();
  img.segments[0].write = true;
  ExpectLoadRejected(img, "W^X violation");
}

TEST(Runtime, LoadRejectsSegmentsSharingAPage) {
  elf::ElfImage img = ExitImage();
  elf::Segment data;
  data.vaddr = img.segments[0].vaddr + img.segments[0].data.size();
  data.data = {1, 2, 3};
  data.memsz = 3;
  data.write = true;
  img.segments.push_back(data);
  ExpectLoadRejected(img, "segments share a page");
}

// An exited sandbox keeps nothing of its image alive: the slot's pages
// and the load checkpoint both let go of the payloads.
TEST(Runtime, ExitReleasesLoadedPayloads) {
  TestRun t(std::string("mov x0, #0\n") + kExit + R"(
  .data
  v:
    .quad 7
  )");
  ASSERT_GE(t.pid, 0);
  std::weak_ptr<emu::AddressSpace::PageData> data;
  for (const auto& rec : t.P()->snapshot->pages) {
    if (rec.perms == (emu::kPermRead | emu::kPermWrite) &&
        rec.offset < kProgramEnd - kStackSize) {
      data = rec.data;
    }
  }
  ASSERT_FALSE(data.expired());
  EXPECT_EQ(t.rt.RunUntilIdle(), 0);
  EXPECT_EQ(t.P()->state, ProcState::kDead);
  EXPECT_EQ(t.P()->snapshot, nullptr);
  EXPECT_TRUE(data.expired());
  EXPECT_EQ(t.rt.space().MappedPages(), 0u);
}

TEST(Runtime, ManySlotsAccounting) {
  // Load a batch of sandboxes and ensure slot accounting scales; the
  // design supports ~65k slots but tests stay modest.
  const std::string prog = "mov x0, #1\nrtcall #0\n";
  Runtime rt(TestConfig());
  auto e = test::BuildElf(prog);
  ASSERT_TRUE(e.ok());
  std::vector<int> pids;
  for (int k = 0; k < 32; ++k) {
    auto p = rt.Load({e->data(), e->size()});
    ASSERT_TRUE(p.ok()) << p.error();
    pids.push_back(*p);
  }
  EXPECT_EQ(rt.slots_in_use(), 32u);
  rt.RunUntilIdle();
  for (int pid : pids) {
    EXPECT_EQ(rt.proc(pid)->exit_status, 1);
  }
}

TEST(Runtime, SlotReservationCapEnforced) {
  Runtime rt(TestConfig());
  // Reserving up to the cap must work in principle; we spot-check the
  // arithmetic rather than allocating 65k real slots.
  auto s1 = rt.ReserveSlot();
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(SlotBase(*s1), uint64_t{1} << 32);
  EXPECT_LE(SlotBase(kMaxSlots) + kSlotSize, uint64_t{1} << 48);
}

TEST(Runtime, LseekOnFile) {
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3
    mov x9, x0
    mov x0, x9
    mov x1, #4
    mov x2, #0          // SEEK_SET
    rtcall #15
    mov x0, x9
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read 1 byte at offset 4
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]
    rtcall #0
  .data
  path:
    .asciz "/f"
  .bss
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/f", std::string("abcdEf"));
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 'E');
}

TEST(Runtime, ClosedFdGivesEbadfEverywhere) {
  // After close, the descriptor must be dead for every call: a second
  // close, a write, and a read all return EBADF (-9).
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3           // open -> fd
    mov x9, x0
    mov x0, x9
    rtcall #4           // close -> 0
    cbnz x0, bad
    mov x0, x9
    rtcall #4           // double close -> EBADF
    add x10, x0, #9     // 0 if EBADF
    mov x0, x9
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #1           // write to closed fd -> EBADF
    add x11, x0, #9
    mov x0, x9
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read from closed fd -> EBADF
    add x12, x0, #9
    orr x10, x10, x11
    orr x10, x10, x12
    cbnz x10, bad
    mov x0, #7
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  .data
  path:
    .asciz "/f"
  .bss
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/f", std::string("x"));
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 7);
}

TEST(Runtime, OutOfRangeFdGivesEbadf) {
  TestRun t(R"(
    movz x0, #999
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #1           // write to never-allocated fd
    rtcall #0
  .bss
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, -9);
}

TEST(Runtime, ForkInheritsFileFdAndWaitReaps) {
  // The child reads through a descriptor the parent opened before the
  // fork; the parent waits, checks the child's status word, and exits
  // with it. Both slots must be reclaimed.
  TestRun t(R"(
    adrp x0, path
    add x0, x0, :lo12:path
    mov x1, #0
    rtcall #3           // open -> fd (inherited below)
    mov x19, x0
    rtcall #8           // fork
    cbz x0, child
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9           // wait -> child pid
    adrp x1, status
    add x1, x1, :lo12:status
    ldr w0, [x1]        // child's exit status
    rtcall #0
  child:
    mov x0, x19         // inherited fd
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read via inherited fd
    adrp x1, buf
    add x1, x1, :lo12:buf
    ldrb w0, [x1]       // exit with the byte read
    rtcall #0
  .data
  path:
    .asciz "/f"
  .bss
  status:
    .zero 8
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.vfs().Install("/f", std::string("Z"));
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_kind, ExitKind::kExited);
  EXPECT_EQ(t.P()->exit_status, 'Z');
  // wait() reaped the child's slot; the parent's went at exit.
  EXPECT_EQ(t.rt.slots_in_use(), 0u);
}

TEST(Runtime, BrkShrinkAndRegrow) {
  // Grow the heap, store a value; shrink below it; brk(0) must report the
  // shrunk break. Regrow and the fresh allocation must read back as
  // zeros: the pages stay mapped (high-water-mark contract) but the
  // shrink scrubs the freed range, so no stale bytes leak across a
  // shrink/regrow cycle.
  TestRun t(R"(
    mov x0, #0
    rtcall #5           // brk(0) -> base break
    mov x19, x0
    movz x1, #0x2, lsl #16
    add x0, x19, x1
    rtcall #5           // grow +128KiB
    sub x9, x0, #8
    movz x3, #0x5ca1
    str x3, [x9]        // plant a value near the top
    mov x0, x19
    rtcall #5           // shrink back to the original break
    mov x0, #0
    rtcall #5           // brk(0) must equal the shrunk break
    cmp x0, x19
    b.ne bad
    movz x1, #0x2, lsl #16
    add x0, x19, x1
    rtcall #5           // regrow over the same range
    ldr x0, [x9]        // freed-then-regrown memory must read as zero
    cmp x0, #0
    b.ne bad
    movz x0, #0x60d
    rtcall #0
  bad:
    mov x0, #1
    rtcall #0
  )");
  ASSERT_GE(t.pid, 0);
  t.rt.RunUntilIdle();
  EXPECT_EQ(t.P()->exit_status, 0x60d);
}

TEST(Runtime, ExitClosesPipeFdsNoLeak) {
  // The child exits without closing its pipe descriptors. Exit must close
  // them (DoExit walks the fd table): once the parent drops its own write
  // end, a read on the drained pipe must see EOF, not block on a writer
  // count leaked by the dead child.
  TestRun t(R"(
    adrp x0, fds
    add x0, x0, :lo12:fds
    rtcall #10          // pipe
    rtcall #8           // fork
    cbz x0, child
    adrp x9, fds
    add x9, x9, :lo12:fds
    ldr w0, [x9, #4]
    rtcall #4           // parent closes its write end
    adrp x0, status
    add x0, x0, :lo12:status
    rtcall #9           // wait for the child (its fds close at exit)
    ldr w0, [x9]
    adrp x1, buf
    add x1, x1, :lo12:buf
    mov x2, #1
    rtcall #2           // read -> must be EOF (0), not a deadlock
    cbnz x0, bad
    mov x0, #7
    rtcall #0
  child:
    mov x0, #0
    rtcall #0           // exits with both pipe fds still open
  bad:
    mov x0, #1
    rtcall #0
  .bss
  fds:
    .zero 8
  status:
    .zero 8
  buf:
    .zero 8
  )");
  ASSERT_GE(t.pid, 0);
  EXPECT_EQ(t.rt.RunUntilIdle(), 0) << "leaked pipe writer caused deadlock";
  EXPECT_EQ(t.P()->exit_status, 7);
}

}  // namespace
}  // namespace lfi::runtime
