// ELF writer/reader tests.

#include <gtest/gtest.h>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "elf/elf.h"
#include "rewriter/rewriter.h"
#include "workloads/workloads.h"

namespace lfi::elf {
namespace {

ElfImage SampleImage() {
  ElfImage img;
  img.entry = 0x10000;
  img.segments.push_back(
      {0x10000, {0x1f, 0x20, 0x03, 0xd5}, 4, true, false, true});
  img.segments.push_back({0x20000, {1, 2, 3}, 3, true, false, false});
  Segment data;
  data.vaddr = 0x30000;
  data.data = {9, 8, 7, 6};
  data.memsz = 4096;  // trailing bss
  data.write = true;
  img.segments.push_back(data);
  return img;
}

TEST(Elf, WriteReadRoundTrip) {
  const ElfImage in = SampleImage();
  const std::vector<uint8_t> bytes = Write(in);
  auto out = Read({bytes.data(), bytes.size()});
  ASSERT_TRUE(out.ok()) << out.error();
  EXPECT_EQ(out->entry, in.entry);
  ASSERT_EQ(out->segments.size(), 3u);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(out->segments[k].vaddr, in.segments[k].vaddr);
    EXPECT_EQ(out->segments[k].data, in.segments[k].data);
    EXPECT_EQ(out->segments[k].memsz, in.segments[k].memsz);
    EXPECT_EQ(out->segments[k].exec, in.segments[k].exec);
    EXPECT_EQ(out->segments[k].write, in.segments[k].write);
  }
}

TEST(Elf, RejectsCorruptInput) {
  const ElfImage in = SampleImage();
  std::vector<uint8_t> bytes = Write(in);
  // Bad magic.
  {
    auto bad = bytes;
    bad[0] = 0;
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
  // Wrong machine.
  {
    auto bad = bytes;
    bad[18] = 0x3e;  // x86-64
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
  // Truncated.
  EXPECT_FALSE(Read({bytes.data(), 32}).ok());
  // Segment pointing out of bounds.
  {
    auto bad = bytes;
    // p_offset of first phdr at 64 + 8.
    bad[64 + 8] = 0xff;
    bad[64 + 9] = 0xff;
    bad[64 + 10] = 0xff;
    EXPECT_FALSE(Read({bad.data(), bad.size()}).ok());
  }
}

TEST(Elf, FromAssembledBuildsExpectedSegments) {
  auto f = asmtext::Parse(R"(
.text
_start:
  nop
  ret
.data
v:
  .quad 42
.bss
buf:
  .zero 100
)");
  ASSERT_TRUE(f.ok());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  ASSERT_TRUE(img.ok());
  const ElfView e = FromAssembled(*img);
  ASSERT_EQ(e.segments.size(), 2u);  // text + data(+bss)
  EXPECT_TRUE(e.segments[0].exec);
  EXPECT_FALSE(e.segments[0].write);
  EXPECT_TRUE(e.segments[1].write);
  // data+bss memsz spans through the end of bss.
  EXPECT_GE(e.segments[1].memsz, 8u + 100u);
}

// ----- Toolchain byte identity -----
//
// FNV-1a of the ELF file the whole cold-build toolchain emits
// (Parse -> Rewrite -> Assemble -> FromAssembled -> Write). Pinned so any
// change to how a stage lays out or copies bytes must produce the same
// file.

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t ToolchainHash(const std::string& src, rewriter::OptLevel level) {
  auto parsed = asmtext::Parse(src);
  EXPECT_TRUE(parsed.ok()) << parsed.error();
  if (!parsed.ok()) return 0;
  rewriter::RewriteOptions opts;
  opts.level = level;
  auto rewritten = rewriter::Rewrite(*parsed, opts);
  EXPECT_TRUE(rewritten.ok()) << rewritten.error();
  if (!rewritten.ok()) return 0;
  auto img = asmtext::Assemble(*rewritten, asmtext::LayoutSpec{});
  EXPECT_TRUE(img.ok()) << img.error();
  if (!img.ok()) return 0;
  return Fnv1a(Write(FromAssembled(*img)));
}

TEST(ToolchainGolden, WorkloadStandIns) {
  struct Want {
    const char* name;
    uint64_t o0, o2;
  };
  const Want kWant[] = {
      {"502.gcc", 0x4daac23c211f44bcULL, 0xd1c19fa49206d3c8ULL},
      {"505.mcf", 0x4783cf8fd838de20ULL, 0x7b6abf5c12b41caeULL},
      {"508.namd", 0x813a3b96cf59c6a0ULL, 0x1ca43c313c29789eULL},
      {"510.parest", 0xa3adaffe2d6f6500ULL, 0x8eb7a9358b80131dULL},
      {"511.povray", 0xacbfff67d177a0adULL, 0xacbfff67d177a0adULL},
      {"519.lbm", 0xe6d13920c0db666eULL, 0x80cfc385da840412ULL},
      {"520.omnetpp", 0x06b8c4e13e92d0e1ULL, 0xf7ad25e23d6b3105ULL},
      {"523.xalancbmk", 0xc85d4bbea99f588fULL, 0x63e2c5b0918ffeceULL},
      {"525.x264", 0x823fadc2270542f7ULL, 0x61adcbf7fc95354eULL},
      {"531.deepsjeng", 0xdd55d62508dc8617ULL, 0x90844103bd425b4fULL},
      {"538.imagick", 0x6f95c3fe9532e5c0ULL, 0x40597974310d8dc3ULL},
      {"541.leela", 0x9d6335382fdf15a8ULL, 0x6aaa47bc7e12089fULL},
      {"544.nab", 0xbd06adb7709b0292ULL, 0x1dfd5f14e3f67b56ULL},
      {"557.xz", 0x093689fa4b205ab0ULL, 0xdea33198462cb5e6ULL},
      {"coremark", 0xf00572c0ee18c012ULL, 0x6e27e486f5ca3ff7ULL},
  };
  ASSERT_EQ(std::size(kWant), workloads::AllWorkloads().size());
  for (const Want& w : kWant) {
    const std::string src = workloads::Generate(w.name, 2000);
    ASSERT_FALSE(src.empty()) << w.name;
    EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO0), w.o0)
        << w.name << " O0";
    EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO2), w.o2)
        << w.name << " O2";
  }
}

TEST(ToolchainGolden, MebibyteZeroInData) {
  const char* src = R"(
.text
_start:
  adrp x0, buf
  add x0, x0, :lo12:buf
  ldr x1, [x0, #8]
  rtcall #0
.data
tbl:
  .quad 1, -2, _start
buf:
  .zero 1048576
tail:
  .byte 7
)";
  EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO2),
            0x0f4d903f19a52807ULL);
}

TEST(ToolchainGolden, AlignmentPaddingInTextAndRodata) {
  const char* src = R"(
.text
_start:
  nop
  .balign 64
f:
  bl g
  .p2align 4
g:
  ret
.rodata
a:
  .byte 1, 2, 3
  .balign 16
b:
  .word 0x11223344, f
  .p2align 5
c:
  .quad g
  .asciz "pad\n"
  .balign 8
)";
  EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO0),
            0x1204255859d4f5a3ULL);
  EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO2),
            0x1204255859d4f5a3ULL);
}

TEST(ToolchainGolden, BssOnly) {
  const char* src = R"(
.text
_start:
  rtcall #0
.bss
buf:
  .zero 65536
  .balign 4096
more:
  .zero 12
)";
  EXPECT_EQ(ToolchainHash(src, rewriter::OptLevel::kO2),
            0x5abc844799413bd3ULL);
}

}  // namespace
}  // namespace lfi::elf
