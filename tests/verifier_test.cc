// Adversarial verifier tests: every forbidden pattern from Section 5.2
// must be rejected, legal guard patterns accepted, and random word streams
// must never crash the verifier.

#include <gtest/gtest.h>

#include "arch/encode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "verifier/verifier.h"

namespace lfi::verifier {
namespace {

// Assembles raw statements (no rewriting!) so tests can hand-craft both
// legal and hostile instruction sequences.
std::vector<uint8_t> AssembleRaw(const std::string& src) {
  auto f = asmtext::Parse(src);
  EXPECT_TRUE(f.ok()) << (f.ok() ? "" : f.error());
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(*f, spec);
  EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error());
  return img.ok() ? img->text : std::vector<uint8_t>{};
}

VerifyResult Check(const std::string& src, VerifyOptions opts = {}) {
  auto text = AssembleRaw(src);
  return Verify({text.data(), text.size()}, opts);
}

TEST(Verifier, AcceptsMinimalSafeProgram) {
  auto r = Check(R"(
    add x18, x21, w1, uxtw
    ldr x0, [x18]
    str x0, [x21, w2, uxtw]
    ret
  )");
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.kind, FailKind::kNone);
  EXPECT_EQ(r.insts_checked, 4u);
}

TEST(Verifier, AcceptsGuardedPatterns) {
  // Everything the rewriter emits must be accepted.
  EXPECT_TRUE(Check("add x18, x21, w5, uxtw\nbr x18\n").ok);
  EXPECT_TRUE(Check("add x30, x21, w5, uxtw\nret\n").ok);
  EXPECT_TRUE(Check("add x23, x21, w1, uxtw\nstp x2, x3, [x23, #16]\n").ok);
  EXPECT_TRUE(Check("add w22, w1, #16\nldr x0, [x21, w22, uxtw]\n").ok);
  EXPECT_TRUE(Check("mov w22, wsp\nadd sp, x21, x22\n").ok);
  EXPECT_TRUE(Check("str x0, [sp, #-16]!\nldr x0, [sp], #16\n").ok);
  EXPECT_TRUE(
      Check("ldp x29, x30, [sp], #32\nadd x30, x21, w30, uxtw\nret\n").ok);
  EXPECT_TRUE(Check("add x18, x21, w0, uxtw\nldxr x1, [x18]\n"
                    "stxr w2, x1, [x18]\n").ok);
}

TEST(Verifier, AcceptsRuntimeCallSequence) {
  EXPECT_TRUE(Check(R"(
    str x30, [sp, #-16]!
    ldr x30, [x21, #24]
    blr x30
    ldr x30, [sp], #16
    add x30, x21, w30, uxtw
  )").ok);
}

struct RejectCase {
  const char* name;
  const char* src;
  FailKind kind;
};

void PrintTo(const RejectCase& c, std::ostream* os) { *os << c.name; }

class RejectTest : public ::testing::TestWithParam<RejectCase> {};

TEST_P(RejectTest, HostilePatternRejected) {
  auto r = Check(GetParam().src);
  EXPECT_FALSE(r.ok) << GetParam().name << " was accepted";
  EXPECT_EQ(r.kind, GetParam().kind)
      << GetParam().name << " rejected as " << FailKindName(r.kind) << " ("
      << r.reason << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Hostile, RejectTest,
    ::testing::Values(
        // Unguarded memory accesses.
        RejectCase{"raw load", "ldr x0, [x1]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"raw store", "str x0, [x1]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"raw store imm", "str x0, [x1, #8]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"raw pair", "ldp x0, x1, [x2]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"raw exclusive", "ldxr x0, [x1]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"raw atomic release", "stlr x0, [x1]\n",
                   FailKind::kBadAddressingMode},
        // Bad register-offset modes.
        RejectCase{"lsl reg offset", "ldr x0, [x21, x1, lsl #3]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"sxtw reg offset", "ldr x0, [x21, w1, sxtw]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"uxtw off x18", "ldr x0, [x18, w1, uxtw]\n",
                   FailKind::kBadAddressingMode},
        RejectCase{"uxtw with shift", "ldr x0, [x21, w1, uxtw #3]\n",
                   FailKind::kBadAddressingMode},
        // Writes to reserved registers.
        RejectCase{"write x21", "add x21, x21, #1\n",
                   FailKind::kBaseRegWrite},
        RejectCase{"mov into x21", "mov x21, x0\n", FailKind::kBaseRegWrite},
        RejectCase{"load into x21", "ldr x21, [sp]\n",
                   FailKind::kBaseRegWrite},
        RejectCase{"write x18 plain", "add x18, x18, #1\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"mov into x18", "mov x18, x0\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"w-write to x18", "mov w18, w0\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"load into x18", "ldr x18, [sp]\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"guard-like sxtw", "add x18, x21, w0, sxtw\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"guard-like shifted", "add x18, x21, w0, uxtw #2\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"guard wrong base", "add x18, x0, w1, uxtw\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"write x23", "mov x23, x0\n", FailKind::kAddressRegWrite},
        RejectCase{"write x24", "add x24, x24, #8\n",
                   FailKind::kAddressRegWrite},
        RejectCase{"64-bit write x22", "mov x22, x0\n",
                   FailKind::kScratchRegWrite},
        RejectCase{"load x22 64-bit", "ldr x22, [sp]\n",
                   FailKind::kScratchRegWrite},
        RejectCase{"sxtw into w22... as x", "sxtw x22, w0\n",
                   FailKind::kScratchRegWrite},
        // x30 violations.
        RejectCase{"mov into x30", "mov x30, x0\n",
                   FailKind::kLinkRegProtocol},
        RejectCase{"x30 load no guard", "ldr x30, [sp]\nret\n",
                   FailKind::kLinkRegProtocol},
        RejectCase{"x30 pair load no guard", "ldp x29, x30, [sp], #16\nret\n",
                   FailKind::kLinkRegProtocol},
        RejectCase{"table load no blr", "ldr x30, [x21, #24]\nret\n",
                   FailKind::kLinkRegProtocol},
        RejectCase{"table load too far", "ldr x30, [x21, #8192]\nblr x30\n",
                   FailKind::kLinkRegProtocol},
        // sp violations.
        RejectCase{"mov sp", "mov sp, x0\n", FailKind::kSpProtocol},
        RejectCase{"big sp sub", "sub sp, sp, #4096\nstr x0, [sp]\n",
                   FailKind::kSpProtocol},
        RejectCase{"sp sub no access", "sub sp, sp, #16\nret\n",
                   FailKind::kSpProtocol},
        RejectCase{"sp sub then branch", "sub sp, sp, #16\nb l\nl:\n"
                                         "str x0, [sp]\n",
                   FailKind::kSpProtocol},
        RejectCase{"sp guard wrong reg", "add sp, x21, x0\n",
                   FailKind::kSpProtocol},
        RejectCase{"sp from x21 imm", "add sp, x21, #8\n",
                   FailKind::kSpProtocol},
        // Indirect branches through arbitrary registers.
        RejectCase{"br raw", "br x0\n", FailKind::kUnguardedIndirectBranch},
        RejectCase{"blr raw", "blr x1\n",
                   FailKind::kUnguardedIndirectBranch},
        RejectCase{"ret raw", "ret x2\n",
                   FailKind::kUnguardedIndirectBranch},
        // System instructions.
        RejectCase{"svc", "svc #0\n", FailKind::kSystemInstruction},
        // Writeback on reserved base.
        RejectCase{"writeback x18", "add x18, x21, w0, uxtw\n"
                                    "ldr x0, [x18], #8\n",
                   FailKind::kReservedWriteback},
        RejectCase{"pre-index x23", "add x23, x21, w0, uxtw\n"
                                    "str x0, [x23, #16]!\n",
                   FailKind::kReservedWriteback}));

TEST(Verifier, RejectsUndecodableWords) {
  const std::vector<uint8_t> junk = {0xff, 0xff, 0xff, 0xff};
  auto r = Verify({junk.data(), junk.size()});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fail_offset, 0u);
  EXPECT_EQ(r.kind, FailKind::kUndecodable);
}

TEST(Verifier, RejectsUnalignedTextSize) {
  const std::vector<uint8_t> bytes = {0x1f, 0x20, 0x03};
  auto r = Verify({bytes.data(), bytes.size()});
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kTextSize);
}

TEST(Verifier, LlscRejectionHasStableKind) {
  VerifyOptions opts;
  opts.allow_llsc = false;
  auto r = Check("add x18, x21, w0, uxtw\nldxr x1, [x18]\n", opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kLlscDisallowed);
}

TEST(Verifier, QRegisterOffsetCannotEscapeGuardRegion) {
  // ldr q0, [x18, #65520]: the scaled-imm12 encoding reaches past the
  // 48KiB guard region on 16-byte accesses; must be rejected.
  auto r = Check("add x18, x21, w0, uxtw\nldr q0, [x18, #65520]\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.kind, FailKind::kGuardRangeOverflow);
  // But a q access within the guard region is fine.
  EXPECT_TRUE(Check("add x18, x21, w0, uxtw\nldr q0, [x18, #32752]\n").ok);
}

TEST(Verifier, NoLoadsModeSkipsLoadChecksOnly) {
  VerifyOptions opts;
  opts.check_loads = false;
  // Raw loads pass; raw stores still fail.
  EXPECT_TRUE(Check("ldr x0, [x1]\n", opts).ok);
  EXPECT_TRUE(Check("ldp x0, x1, [x2, #16]\n", opts).ok);
  EXPECT_FALSE(Check("str x0, [x1]\n", opts).ok);
  // Loads into reserved registers still fail even without load checks.
  EXPECT_FALSE(Check("ldr x18, [x1]\n", opts).ok);
  EXPECT_FALSE(Check("ldr x30, [x1]\nret\n", opts).ok);
  // Load writeback that would corrupt a reserved base still fails.
  EXPECT_FALSE(Check("add x18, x21, w0, uxtw\nldr x0, [x18], #8\n",
                     opts).ok);
}

TEST(Verifier, SpAdjustFollowedByWritebackAccessIsAccepted) {
  // The access proves sp is in bounds regardless of which sp-based form
  // it uses.
  EXPECT_TRUE(Check("sub sp, sp, #64\nstr x0, [sp, #-16]!\n").ok);
}

TEST(Verifier, FuzzNeverCrashesAndAcceptedStreamsAreClean) {
  // Random word streams: the verifier must never crash; and any stream it
  // accepts must contain no undecodable words and no system instructions
  // (spot-check of the allowlist property).
  uint64_t state = 0xfeedface;
  int accepted = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<uint8_t> bytes;
    for (int k = 0; k < 16; ++k) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint32_t w = static_cast<uint32_t>(state >> 32);
      bytes.push_back(w & 0xff);
      bytes.push_back((w >> 8) & 0xff);
      bytes.push_back((w >> 16) & 0xff);
      bytes.push_back((w >> 24) & 0xff);
    }
    auto r = Verify({bytes.data(), bytes.size()});
    if (r.ok) ++accepted;
  }
  // Random 32-bit words essentially never form a fully verifiable
  // 16-instruction program.
  EXPECT_EQ(accepted, 0);
}

TEST(Verifier, ThroughputIsMeasurable) {
  // Build a large legal program and make sure verification completes and
  // reports the right instruction count (used by the Section 5.2 bench).
  std::string src;
  for (int k = 0; k < 5000; ++k) {
    src += "add x18, x21, w1, uxtw\nldr x0, [x18]\nadd x0, x0, #1\n";
  }
  src += "ret\n";
  auto r = Check(src);
  EXPECT_TRUE(r.ok) << r.reason;
  EXPECT_EQ(r.insts_checked, 15001u);
}

}  // namespace
}  // namespace lfi::verifier
