// Depth tests: instruction-classification helpers (the predicates the
// verifier's security argument rests on), extra interpreter semantics,
// rewriter fallback paths, and verifier boundary sweeps.

#include <gtest/gtest.h>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "emu/machine.h"
#include "rewriter/rewriter.h"
#include "verifier/verifier.h"

namespace lfi {
namespace {

using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Width;

Inst ParseI(const std::string& s) {
  auto r = asmtext::ParseInst(s);
  EXPECT_TRUE(r.ok()) << s << ": " << r.error();
  return r.ok() ? r->inst : Inst{};
}

// --- Classification predicates (security-load-bearing) ---

TEST(Classify, WritesGprCoversAllChannels) {
  // Destination.
  EXPECT_TRUE(arch::WritesGpr(ParseI("add x5, x1, #1"), Reg::X(5)));
  EXPECT_FALSE(arch::WritesGpr(ParseI("add x5, x1, #1"), Reg::X(1)));
  // Load target(s).
  EXPECT_TRUE(arch::WritesGpr(ParseI("ldr x7, [sp]"), Reg::X(7)));
  EXPECT_TRUE(arch::WritesGpr(ParseI("ldp x7, x8, [sp]"), Reg::X(8)));
  // Writeback.
  EXPECT_TRUE(arch::WritesGpr(ParseI("ldr x0, [x3], #8"), Reg::X(3)));
  EXPECT_TRUE(arch::WritesGpr(ParseI("str x0, [sp, #-16]!"), Reg::Sp()));
  // stxr status register.
  EXPECT_TRUE(arch::WritesGpr(ParseI("stxr w4, x1, [sp]"), Reg::X(4)));
  // Implicit link-register writes.
  EXPECT_TRUE(arch::WritesGpr(ParseI("bl somewhere"), Reg::X(30)));
  EXPECT_TRUE(arch::WritesGpr(ParseI("blr x3"), Reg::X(30)));
  EXPECT_FALSE(arch::WritesGpr(ParseI("br x3"), Reg::X(30)));
  // Stores write nothing (without writeback).
  EXPECT_FALSE(arch::WritesGpr(ParseI("str x0, [sp]"), Reg::X(0)));
  // Writes to the zero register are discarded.
  EXPECT_FALSE(arch::WritesGpr(ParseI("subs xzr, x1, #1"), Reg::Zr()));
}

TEST(Classify, WriteZeroExtendsIsExactlyThe32BitWrites) {
  const Reg x22 = Reg::X(22);
  // W-width ALU destinations zero-extend.
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("add w22, w1, #1"), x22));
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("orr w22, wzr, w3"), x22));
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("movz w22, #9"), x22));
  // X-width do not.
  EXPECT_FALSE(arch::WriteZeroExtends(ParseI("add x22, x1, #1"), x22));
  EXPECT_FALSE(arch::WriteZeroExtends(ParseI("movz x22, #9"), x22));
  // W loads zero-extend; sub-word unsigned loads zero-extend; sign-
  // extending loads to X width do NOT.
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("ldr w22, [sp]"), x22));
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("ldrb w22, [sp]"), x22));
  EXPECT_FALSE(arch::WriteZeroExtends(ParseI("ldrsw x22, [sp]"), x22));
  EXPECT_FALSE(arch::WriteZeroExtends(ParseI("ldr x22, [sp]"), x22));
  // Writeback is a full 64-bit write.
  EXPECT_FALSE(
      arch::WriteZeroExtends(ParseI("ldr w0, [x22], #8"), x22));
  // adr produces a 64-bit address even though width is X-by-default.
  Inst adr = ParseI("adr x22, label");
  adr.width = Width::kW;  // hostile width tag must not fool the check
  EXPECT_FALSE(arch::WriteZeroExtends(adr, x22));
  // stxr status is a 32-bit value.
  EXPECT_TRUE(arch::WriteZeroExtends(ParseI("stxr w22, x1, [sp]"), x22));
}

TEST(Classify, GuardPredicateIsExact) {
  EXPECT_TRUE(arch::IsGuardFor(ParseI("add x18, x21, w4, uxtw"), Reg::X(18)));
  // Every near-miss must fail.
  EXPECT_FALSE(arch::IsGuardFor(ParseI("add x18, x21, w4, uxtw"), Reg::X(23)));
  EXPECT_FALSE(arch::IsGuardFor(ParseI("add x18, x21, w4, sxtw"), Reg::X(18)));
  EXPECT_FALSE(
      arch::IsGuardFor(ParseI("add x18, x21, w4, uxtw #1"), Reg::X(18)));
  EXPECT_FALSE(arch::IsGuardFor(ParseI("add x18, x20, w4, uxtw"), Reg::X(18)));
  EXPECT_FALSE(arch::IsGuardFor(ParseI("add w18, w21, w4, uxtw"), Reg::X(18)));
  EXPECT_FALSE(arch::IsGuardFor(ParseI("sub x18, x21, w4, uxtw"), Reg::X(18)));
}

// --- Extra interpreter semantics ---

struct ExecCase {
  const char* name;
  const char* src;    // ends with brk #0
  int reg;            // register to inspect
  uint64_t expected;
};

void PrintTo(const ExecCase& c, std::ostream* os) { *os << c.name; }

class ExecTest : public ::testing::TestWithParam<ExecCase> {};

TEST_P(ExecTest, ComputesExpectedValue) {
  emu::AddressSpace space;
  emu::Machine machine(&space, arch::AppleM1LikeParams());
  auto file = asmtext::Parse(GetParam().src);
  ASSERT_TRUE(file.ok()) << file.error();
  asmtext::LayoutSpec spec;
  spec.text_offset = 0x100000;
  auto img = asmtext::Assemble(*file, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  ASSERT_TRUE(space.Map(0x100000, 0x40000,
                        emu::kPermRead | emu::kPermExec).ok());
  ASSERT_TRUE(space.Map(0x200000, 0x40000,
                        emu::kPermRead | emu::kPermWrite).ok());
  ASSERT_TRUE(space.HostWrite(img->text_addr,
                              {img->text.data(), img->text.size()}).ok());
  if (!img->data.empty()) {
    ASSERT_TRUE(space.HostWrite(img->data_addr,
                                {img->data.data(), img->data.size()}).ok());
  }
  machine.state().pc = img->entry;
  machine.state().sp = 0x220000;
  ASSERT_EQ(machine.Run(100000), emu::StopReason::kBrk)
      << machine.fault().detail;
  EXPECT_EQ(machine.state().x[GetParam().reg], GetParam().expected)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExecTest,
    ::testing::Values(
        ExecCase{"csinv", "mov x1, #1\ncmp x1, #2\ncsinv x0, x1, xzr, eq\n"
                          "brk #0", 0, ~uint64_t{0}},
        ExecCase{"csneg", "mov x1, #5\ncmp x1, #5\ncsneg x0, xzr, x1, ne\n"
                          "brk #0", 0, static_cast<uint64_t>(-5)},
        ExecCase{"clz_w", "movz w1, #0x8000\nclz w0, w1\nbrk #0", 0, 16},
        ExecCase{"rbit", "mov x1, #1\nrbit x0, x1\nbrk #0", 0,
                 uint64_t{1} << 63},
        ExecCase{"rev", "movz x1, #0x1234\nrev x0, x1\nbrk #0", 0,
                 uint64_t{0x3412} << 48},
        ExecCase{"rev_w", "movz w1, #0x1234\nrev w0, w1\nbrk #0", 0,
                 uint64_t{0x34120000}},
        ExecCase{"movk_patch",
                 "movz x0, #1, lsl #48\nmovk x0, #0xbeef\nbrk #0", 0,
                 (uint64_t{1} << 48) | 0xbeef},
        ExecCase{"madd_w", "mov w1, #7\nmov w2, #6\nmov w3, #1\n"
                           "madd w0, w1, w2, w3\nbrk #0", 0, 43},
        ExecCase{"msub", "mov x1, #7\nmov x2, #6\nmov x3, #100\n"
                         "msub x0, x1, x2, x3\nbrk #0", 0, 58},
        ExecCase{"sdiv_neg", "movn x1, #6\nmov x2, #2\nsdiv x0, x1, x2\n"
                             "brk #0", 0, static_cast<uint64_t>(-3)},
        ExecCase{"udiv_w", "movn w1, #0\nmov w2, #16\nudiv w0, w1, w2\n"
                           "brk #0", 0, 0xffffffffu / 16},
        ExecCase{"fmadd", "mov x1, #3\nmov x2, #4\nmov x3, #5\n"
                          "scvtf d0, x1\nscvtf d1, x2\nscvtf d2, x3\n"
                          "fmadd d3, d0, d1, d2\nfcvtzs x0, d3\nbrk #0",
                 0, 17},
        ExecCase{"fdiv_s", "mov w1, #7\nmov w2, #2\nscvtf s0, w1\n"
                           "scvtf s1, w2\nfdiv s2, s0, s1\nfcvtzs w0, s2\n"
                           "brk #0", 0, 3},
        ExecCase{"fmov_gpr", "mov x1, #9\nscvtf d0, x1\nfmov x0, d0\n"
                             "fmov d1, x0\nfcvtzs x0, d1\nbrk #0", 0, 9},
        ExecCase{"fcvtzs_sat",
                 "movz x1, #0x43F0, lsl #48\nfmov d0, x1\n"  // 2^64 as f64
                 "fcvtzs x0, d0\nbrk #0", 0,
                 static_cast<uint64_t>(std::numeric_limits<int64_t>::max())},
        ExecCase{"vfmul",
                 "mov x1, #3\nscvtf s0, w1\nfmov s1, s0\n"
                 "mov x2, #4\nscvtf s2, w2\n"
                 // build v3 = [3,3,..] via two 64-bit fmov paths is beyond
                 // the subset; just multiply scalar lanes 0.
                 "fmul s4, s0, s2\nfcvtzs w0, s4\nbrk #0", 0, 12},
        ExecCase{"ror_shifted_or",
                 "mov x1, #1\norr x0, xzr, x1, ror #1\nbrk #0", 0,
                 uint64_t{1} << 63},
        ExecCase{"adds_carry",
                 "movn x1, #0\nadds x2, x1, #1\ncset w0, hs\nbrk #0", 0, 1},
        ExecCase{"subs_borrow",
                 "mov x1, #1\nsubs x2, x1, #2\ncset w0, lo\nbrk #0", 0, 1},
        ExecCase{"tbz_bit63",
                 "movn x1, #0\nmov x0, #0\ntbz x1, #63, skip\nmov x0, #1\n"
                 "skip:\nbrk #0", 0, 1}),
    [](const ::testing::TestParamInfo<ExecCase>& info) {
      return info.param.name;
    });

// --- Rewriter fallback paths ---

TEST(RewriterFallback, LargeImmediateUsesBasicGuardAtO1) {
  auto f = asmtext::Parse("ldr x0, [x1, #8008]\n");
  ASSERT_TRUE(f.ok());
  rewriter::RewriteOptions opts;
  opts.level = rewriter::OptLevel::kO1;
  auto out = rewriter::Rewrite(*f, opts);
  ASSERT_TRUE(out.ok()) << out.error();
  // 8008 is not encodable in a single w-add: expect the x18 basic guard
  // with the offset kept on the access.
  const std::string text = asmtext::Print(*out);
  EXPECT_NE(text.find("add x18, x21, w1, uxtw"), std::string::npos) << text;
  EXPECT_NE(text.find("[x18, #8008]"), std::string::npos) << text;
  // And it must verify (the offset stays inside the guard region).
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*out, spec);
  ASSERT_TRUE(img.ok());
  EXPECT_TRUE(
      verifier::Verify({img->text.data(), img->text.size()}).ok);
}

TEST(RewriterFallback, SpRegisterOffsetAccessIsStaged) {
  auto f = asmtext::Parse("ldr x0, [sp, x2, lsl #3]\n");
  ASSERT_TRUE(f.ok());
  auto out = rewriter::Rewrite(*f, rewriter::RewriteOptions{});
  ASSERT_TRUE(out.ok()) << out.error();
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*out, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  EXPECT_TRUE(verifier::Verify({img->text.data(), img->text.size()}).ok);
}

TEST(RewriterFallback, QRegisterLargeOffsetStaysInGuardRegion) {
  // 16-byte accesses can encode scaled offsets up to 65520, beyond the
  // guard region; the rewriter must produce something the verifier
  // accepts anyway.
  auto f = asmtext::Parse("ldr q0, [x1, #65520]\n");
  ASSERT_TRUE(f.ok());
  auto out = rewriter::Rewrite(*f, rewriter::RewriteOptions{});
  ASSERT_TRUE(out.ok()) << out.error();
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*out, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  auto res = verifier::Verify({img->text.data(), img->text.size()});
  EXPECT_TRUE(res.ok) << res.reason;
}

// --- Verifier offset boundary sweep ---

struct BoundCase {
  unsigned size;     // access bytes
  int64_t imm;       // offset
  bool accept;
};

void PrintTo(const BoundCase& c, std::ostream* os) {
  *os << c.size << "-byte access at #" << c.imm
      << (c.accept ? " accepted" : " rejected");
}

class GuardBoundary : public ::testing::TestWithParam<BoundCase> {};

TEST_P(GuardBoundary, OffsetLimitEnforced) {
  const auto& c = GetParam();
  const char* rt = c.size == 16 ? "q0" : (c.size == 8 ? "x0" : "w0");
  const char* op = c.size == 1 ? "ldrb" : c.size == 2 ? "ldrh" : "ldr";
  std::string src = "add x18, x21, w1, uxtw\n";
  src += std::string(op) + " " + rt + ", [x18, #" + std::to_string(c.imm) +
         "]\n";
  auto f = asmtext::Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  if (!img.ok()) {
    // Offsets that don't even encode are vacuously rejected.
    EXPECT_FALSE(c.accept);
    return;
  }
  auto res = verifier::Verify({img->text.data(), img->text.size()});
  EXPECT_EQ(res.ok, c.accept) << res.reason;
}

INSTANTIATE_TEST_SUITE_P(
    Offsets, GuardBoundary,
    ::testing::Values(
        // 48KiB guard region: anything whose end fits inside is safe.
        BoundCase{8, 32760, true},           // max scaled 8-byte offset
        BoundCase{4, 16380, true},
        BoundCase{1, 4095, true},
        BoundCase{8, -256, true},            // unscaled negative
        BoundCase{16, 49136, true},          // 49136+16 == 49152 exactly
        BoundCase{16, 49152, false},         // first byte past the guard
        BoundCase{16, 65520, false}));       // encodable but way out

}  // namespace
}  // namespace lfi
