// Parser / printer / assembler tests for the assembly-text layer.

#include <gtest/gtest.h>

#include "arch/decode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"

namespace lfi::asmtext {
namespace {

using arch::AddrMode;
using arch::Cond;
using arch::Extend;
using arch::Mn;
using arch::Reg;
using arch::Width;

arch::Inst MustParse(const std::string& line) {
  auto s = ParseInst(line);
  EXPECT_TRUE(s.ok()) << line << ": " << (s.ok() ? "" : s.error());
  return s.ok() ? s->inst : arch::Inst{};
}

TEST(Parser, BasicAlu) {
  auto add = MustParse("add x0, x1, #16");
  EXPECT_EQ(add.mn, Mn::kAddImm);
  EXPECT_EQ(add.rd, Reg::X(0));
  EXPECT_EQ(add.rn, Reg::X(1));
  EXPECT_EQ(add.imm, 16);

  auto sub = MustParse("sub w2, w3, w4, lsl #2");
  EXPECT_EQ(sub.mn, Mn::kSubReg);
  EXPECT_EQ(sub.width, Width::kW);
  EXPECT_EQ(sub.shift_amount, 2);

  // Negative add immediate flips to sub.
  auto neg = MustParse("add x0, x1, #-8");
  EXPECT_EQ(neg.mn, Mn::kSubImm);
  EXPECT_EQ(neg.imm, 8);
}

TEST(Parser, GuardInstruction) {
  auto g = MustParse("add x18, x21, w7, uxtw");
  EXPECT_EQ(g.mn, Mn::kAddExt);
  EXPECT_EQ(g.ext, Extend::kUxtw);
  EXPECT_EQ(g.rm, Reg::X(7));
  EXPECT_TRUE(arch::IsGuardFor(g, Reg::X(18)));
}

TEST(Parser, SpGuardSequence) {
  // The two-instruction SP guard from Section 4.2.
  auto mv = MustParse("mov w22, wsp");
  EXPECT_EQ(mv.mn, Mn::kAddImm);
  EXPECT_EQ(mv.width, Width::kW);
  EXPECT_EQ(mv.rd, Reg::X(22));
  EXPECT_EQ(mv.rn, Reg::Sp());
  auto g = MustParse("add sp, x21, x22");
  EXPECT_TRUE(arch::IsSpGuard(g));
}

TEST(Parser, MovAliases) {
  auto movr = MustParse("mov x0, x1");
  EXPECT_EQ(movr.mn, Mn::kOrrReg);
  EXPECT_TRUE(movr.rn.IsZr());
  auto movsp = MustParse("mov x0, sp");
  EXPECT_EQ(movsp.mn, Mn::kAddImm);
  auto movi = MustParse("mov x0, #42");
  EXPECT_EQ(movi.mn, Mn::kMovz);
  EXPECT_EQ(movi.imm, 42);
  auto movn = MustParse("mov x0, #-1");
  EXPECT_EQ(movn.mn, Mn::kMovn);
  EXPECT_EQ(movn.imm, 0);
}

TEST(Parser, CmpAndShiftsAndCset) {
  auto cmp = MustParse("cmp x1, #0");
  EXPECT_EQ(cmp.mn, Mn::kSubsImm);
  EXPECT_TRUE(cmp.rd.IsZr());
  auto lsl = MustParse("lsl x0, x1, #3");
  EXPECT_EQ(lsl.mn, Mn::kUbfm);
  EXPECT_EQ(lsl.immr, 61);
  EXPECT_EQ(lsl.imms, 60);
  auto asr = MustParse("asr w0, w1, #5");
  EXPECT_EQ(asr.mn, Mn::kSbfm);
  EXPECT_EQ(asr.immr, 5);
  EXPECT_EQ(asr.imms, 31);
  auto cset = MustParse("cset w0, eq");
  EXPECT_EQ(cset.mn, Mn::kCsinc);
  EXPECT_EQ(cset.cond, Cond::kNe);
  auto mul = MustParse("mul x0, x1, x2");
  EXPECT_EQ(mul.mn, Mn::kMadd);
  EXPECT_TRUE(mul.ra.IsZr());
}

TEST(Parser, AddressingModes) {
  auto base = MustParse("ldr x0, [x1]");
  EXPECT_EQ(base.mem.mode, AddrMode::kImm);
  EXPECT_EQ(base.mem.imm, 0);
  auto imm = MustParse("ldr x0, [x1, #24]");
  EXPECT_EQ(imm.mem.imm, 24);
  auto pre = MustParse("str x0, [sp, #-16]!");
  EXPECT_EQ(pre.mem.mode, AddrMode::kPreIndex);
  EXPECT_EQ(pre.mem.imm, -16);
  EXPECT_TRUE(pre.mem.base.IsSp());
  auto post = MustParse("ldr x0, [sp], #16");
  EXPECT_EQ(post.mem.mode, AddrMode::kPostIndex);
  EXPECT_EQ(post.mem.imm, 16);
  auto lsl = MustParse("ldr x0, [x1, x2, lsl #3]");
  EXPECT_EQ(lsl.mem.mode, AddrMode::kRegLsl);
  EXPECT_EQ(lsl.mem.shift, 3);
  auto uxtw = MustParse("ldr x0, [x21, w2, uxtw]");
  EXPECT_EQ(uxtw.mem.mode, AddrMode::kRegUxtw);
  EXPECT_EQ(uxtw.mem.shift, 0);
  auto sxtw = MustParse("ldrb w0, [x1, w2, sxtw]");
  EXPECT_EQ(sxtw.mem.mode, AddrMode::kRegSxtw);
  EXPECT_EQ(sxtw.msize, 1);
}

TEST(Parser, LoadStoreVariants) {
  EXPECT_EQ(MustParse("ldrb w0, [x1]").msize, 1);
  EXPECT_EQ(MustParse("ldrh w0, [x1]").msize, 2);
  EXPECT_EQ(MustParse("ldr w0, [x1]").msize, 4);
  auto sw = MustParse("ldrsw x0, [x1]");
  EXPECT_EQ(sw.msize, 4);
  EXPECT_TRUE(sw.msigned);
  auto ldp = MustParse("ldp x29, x30, [sp], #32");
  EXPECT_EQ(ldp.mn, Mn::kLdp);
  EXPECT_EQ(ldp.mem.mode, AddrMode::kPostIndex);
  auto fp = MustParse("ldr d0, [x1, #8]");
  EXPECT_EQ(fp.mn, Mn::kLdrF);
  EXPECT_EQ(fp.msize, 8);
  auto q = MustParse("str q3, [x2]");
  EXPECT_EQ(q.mn, Mn::kStrF);
  EXPECT_EQ(q.msize, 16);
}

TEST(Parser, BranchesAndLabels) {
  auto b = ParseInst("b .Lloop");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->target, ".Lloop");
  auto bc = ParseInst("b.ne .Lexit");
  ASSERT_TRUE(bc.ok());
  EXPECT_EQ(bc->inst.cond, Cond::kNe);
  auto cbz = ParseInst("cbz w0, done");
  ASSERT_TRUE(cbz.ok());
  EXPECT_EQ(cbz->inst.rt, Reg::X(0));
  auto tbz = ParseInst("tbz x3, #63, skip");
  ASSERT_TRUE(tbz.ok());
  EXPECT_EQ(tbz->inst.bit, 63);
  auto ret = MustParse("ret");
  EXPECT_EQ(ret.rn, Reg::X(30));
}

TEST(Parser, RtcallPseudo) {
  auto s = ParseInst("rtcall #3");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->kind, AsmStmt::Kind::kRtcall);
  EXPECT_EQ(s->inst.imm, 3);
}

TEST(Parser, RejectsBadInput) {
  EXPECT_FALSE(ParseInst("frobnicate x0, x1").ok());
  EXPECT_FALSE(ParseInst("add x0").ok());
  EXPECT_FALSE(ParseInst("ldr x0, [x99]").ok());
  EXPECT_FALSE(ParseInst("mov x0, #1000000000000").ok());
  EXPECT_FALSE(ParseInst("add x0, x1, w2").ok());  // missing extend
}

TEST(Parser, FullFileWithSections) {
  const char* src = R"(
// comment
.globl _start
.text
_start:
  adrp x0, msg
  add x0, x0, :lo12:msg
  mov w1, #14
loop:
  subs w1, w1, #1
  b.ne loop
  ret
.data
msg:
  .asciz "hello, world\n"
counter:
  .quad 0
table:
  .quad loop, _start
.bss
buf:
  .zero 4096
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  int labels = 0, insts = 0, dirs = 0;
  for (const auto& s : f->stmts) {
    switch (s.kind) {
      case AsmStmt::Kind::kLabel: ++labels; break;
      case AsmStmt::Kind::kInst: ++insts; break;
      case AsmStmt::Kind::kDirective: ++dirs; break;
      default: break;
    }
  }
  EXPECT_EQ(labels, 6);
  EXPECT_EQ(insts, 6);
  EXPECT_GE(dirs, 7);
}

// ----- Tokenizer edge cases: case folding, aliases, operand shapes -----

TEST(Parser, CaseInsensitiveMnemonicsRegistersAndConditions) {
  auto ldr = MustParse("LDR X0, [SP]");
  EXPECT_EQ(ldr.mn, Mn::kLdr);
  EXPECT_EQ(ldr.rt, Reg::X(0));
  EXPECT_EQ(ldr.width, Width::kX);
  EXPECT_TRUE(ldr.mem.base.IsSp());
  EXPECT_EQ(ldr.mem.mode, AddrMode::kImm);
  auto g = MustParse("Add X18, x21, W7, UXTW");
  EXPECT_EQ(g.mn, Mn::kAddExt);
  EXPECT_EQ(g.ext, Extend::kUxtw);
  EXPECT_EQ(g.rm, Reg::X(7));
  auto sh = MustParse("SUB w2, W3, w4, LSL #2");
  EXPECT_EQ(sh.mn, Mn::kSubReg);
  EXPECT_EQ(sh.width, Width::kW);
  EXPECT_EQ(sh.shift_amount, 2);
  auto csel = MustParse("CSel x0, X1, x2, Ge");
  EXPECT_EQ(csel.mn, Mn::kCsel);
  EXPECT_EQ(csel.cond, Cond::kGe);
  auto fp = MustParse("FADD V0.4S, v1.4s, V2.4s");
  EXPECT_EQ(fp.mn, Mn::kVFadd);
  auto bhs = ParseInst("b.HS out");
  ASSERT_TRUE(bhs.ok()) << bhs.error();
  EXPECT_EQ(bhs->inst.cond, Cond::kHs);
  EXPECT_EQ(bhs->target, "out");
  // Symbols keep their case.
  auto bl = ParseInst("BL Mixed_Case.Sym");
  ASSERT_TRUE(bl.ok()) << bl.error();
  EXPECT_EQ(bl->inst.mn, Mn::kBl);
  EXPECT_EQ(bl->target, "Mixed_Case.Sym");
}

TEST(Parser, CarryConditionAliases) {
  auto cs = ParseInst("b.cs a");
  ASSERT_TRUE(cs.ok()) << cs.error();
  EXPECT_EQ(cs->inst.cond, Cond::kHs);
  auto cc = ParseInst("b.cc a");
  ASSERT_TRUE(cc.ok()) << cc.error();
  EXPECT_EQ(cc->inst.cond, Cond::kLo);
  EXPECT_EQ(MustParse("csel x0, x1, x2, cs").cond, Cond::kHs);
  EXPECT_EQ(MustParse("csinc w0, w1, w2, CC").cond, Cond::kLo);
  // cset inverts its condition.
  EXPECT_EQ(MustParse("cset w0, cs").cond, Cond::kLo);
  EXPECT_EQ(MustParse("ccmp x0, #3, #4, cc").cond, Cond::kLo);
}

TEST(Parser, PostPreIndexAndExtendedRegisterOffsets) {
  auto post = MustParse("ldr x1, [x0], #8");
  EXPECT_EQ(post.mem.mode, AddrMode::kPostIndex);
  EXPECT_EQ(post.mem.base, Reg::X(0));
  EXPECT_EQ(post.mem.imm, 8);
  auto pre = MustParse("str x1, [x0, #-16]!");
  EXPECT_EQ(pre.mem.mode, AddrMode::kPreIndex);
  EXPECT_EQ(pre.mem.imm, -16);
  auto sxtw = MustParse("ldr w3, [x1, w2, sxtw #2]");
  EXPECT_EQ(sxtw.mem.mode, AddrMode::kRegSxtw);
  EXPECT_EQ(sxtw.mem.base, Reg::X(1));
  EXPECT_EQ(sxtw.mem.index, Reg::X(2));
  EXPECT_EQ(sxtw.mem.shift, 2);
  EXPECT_EQ(sxtw.msize, 4);
}

TEST(Parser, Lo12Relocation) {
  auto s = ParseInst("add x0, x0, :lo12:msg");
  ASSERT_TRUE(s.ok()) << s.error();
  EXPECT_EQ(s->inst.mn, Mn::kAddImm);
  EXPECT_EQ(s->reloc, Reloc::kLo12);
  EXPECT_EQ(s->target, "msg");
}

TEST(Parser, LabelsCommentsAndQuadSymbols) {
  auto f = Parse(
      "// leading comment\n"
      "a: b:c: nop // trailing comment\n"
      "  // indented comment\n"
      "d:\n"
      ".data\n"
      "t: .quad sym, 5, other\n");
  ASSERT_TRUE(f.ok()) << f.error();
  const auto& st = f->stmts;
  ASSERT_EQ(st.size(), 8u);
  const char* kLabels[] = {"a", "b", "c"};
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(st[k].kind, AsmStmt::Kind::kLabel);
    EXPECT_EQ(st[k].label, kLabels[k]);
    EXPECT_EQ(st[k].line, 2);
  }
  EXPECT_EQ(st[3].kind, AsmStmt::Kind::kInst);
  EXPECT_EQ(st[3].inst.mn, Mn::kNop);
  EXPECT_EQ(st[3].line, 2);
  EXPECT_EQ(st[4].label, "d");
  EXPECT_EQ(st[4].line, 4);
  EXPECT_EQ(st[5].dir.kind, Directive::Kind::kSection);
  EXPECT_EQ(st[5].dir.section, Section::kData);
  EXPECT_EQ(st[6].label, "t");
  const Directive& q = st[7].dir;
  EXPECT_EQ(q.kind, Directive::Kind::kQuad);
  EXPECT_EQ(q.values, (std::vector<int64_t>{0, 5, 0}));
  EXPECT_EQ(q.syms, (std::vector<std::string>{"sym", "", "other"}));
  EXPECT_EQ(st[7].line, 6);
}

TEST(Parser, ErrorTextNamesTheLine) {
  struct Case {
    const char* src;
    const char* error;
  };
  const Case kCases[] = {
      {"nop\nFROBNICATE X0, x1\n",
       "line 2: unknown mnemonic: frobnicate in `FROBNICATE X0, x1`"},
      {".text\n\n  ldr x0, [x99] // base\n",
       "line 3: bad base register: x99 in `ldr x0, [x99]`"},
      {"add x0, x1, #zz\n", "line 1: bad immediate: #zz in `add x0, x1, #zz`"},
      {".data\nv: .zero -4\n", "line 2: bad .zero size"},
  };
  for (const Case& c : kCases) {
    auto f = Parse(c.src);
    ASSERT_FALSE(f.ok()) << c.src;
    EXPECT_EQ(f.error(), c.error);
  }
}

TEST(Printer, RoundTripsThroughParser) {
  const std::vector<std::string> lines = {
      "add x0, x1, #16",
      "add x18, x21, w7, uxtw",
      "add sp, x21, x22",
      "subs w2, w3, w4, lsr #5",
      "movz x9, #48879, lsl #16",
      "madd x1, x2, x3, x4",
      "csel x0, x1, x2, lt",
      "ldr x0, [x21, w2, uxtw]",
      "ldrsh x5, [sp, #18]",
      "str q1, [x23, #32]",
      "stp x29, x30, [sp, #-32]!",
      "ldp x29, x30, [sp], #32",
      "ldxr x0, [x18]",
      "stxr w1, x2, [x24]",
      "fmadd d0, d1, d2, d3",
      "fadd v0.4s, v1.4s, v2.4s",
      "scvtf d1, x2",
      "ret",
  };
  for (const auto& line : lines) {
    auto s1 = ParseInst(line);
    ASSERT_TRUE(s1.ok()) << line << ": " << s1.error();
    const std::string printed = PrintStmt(*s1);
    auto s2 = ParseInst(printed);
    ASSERT_TRUE(s2.ok()) << printed << ": " << s2.error();
    EXPECT_EQ(s1->inst, s2->inst) << line << " vs " << printed;
  }
}

TEST(Assemble, SimpleProgramLayout) {
  const char* src = R"(
.text
_start:
  adrp x0, msg
  add x0, x0, :lo12:msg
  b next
  nop
next:
  ret
.data
msg:
  .asciz "hi"
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  LayoutSpec spec;
  spec.text_offset = 0x20000;
  auto img = Assemble(*f, spec);
  ASSERT_TRUE(img.ok()) << img.error();
  EXPECT_EQ(img->text_addr, 0x20000u);
  EXPECT_EQ(img->text.size(), 20u);
  EXPECT_EQ(img->entry, 0x20000u);
  ASSERT_TRUE(img->symbols.count("msg"));
  EXPECT_EQ(img->symbols.at("msg"), img->data_addr);
  // The b should skip one instruction: offset +8.
  auto insts = arch::DecodeAll(img->text);
  ASSERT_TRUE(insts.ok()) << insts.error();
  EXPECT_EQ((*insts)[2].mn, Mn::kB);
  EXPECT_EQ((*insts)[2].imm, 8);
  // adrp's page offset must reach the data page.
  EXPECT_EQ((*insts)[0].mn, Mn::kAdrp);
  EXPECT_EQ(static_cast<uint64_t>((*insts)[0].imm),
            (img->data_addr & ~uint64_t{0xfff}) - 0x20000);
  // lo12 of msg.
  EXPECT_EQ((*insts)[1].imm,
            static_cast<int64_t>(img->data_addr & 0xfff));
}

TEST(Assemble, JumpTableSymbols) {
  const char* src = R"(
.text
a:
  nop
b:
  ret
.rodata
table:
  .quad a, b
  .word a
)";
  auto f = Parse(src);
  ASSERT_TRUE(f.ok()) << f.error();
  auto img = Assemble(*f, LayoutSpec{});
  ASSERT_TRUE(img.ok()) << img.error();
  ASSERT_EQ(img->rodata.size(), 20u);
  uint64_t e0 = 0, e1 = 0;
  for (int k = 0; k < 8; ++k) e0 |= uint64_t{img->rodata[k]} << (8 * k);
  for (int k = 0; k < 8; ++k) e1 |= uint64_t{img->rodata[8 + k]} << (8 * k);
  EXPECT_EQ(e0, img->symbols.at("a"));
  EXPECT_EQ(e1, img->symbols.at("b"));
}

TEST(Assemble, ErrorsOnUndefinedLabel) {
  auto f = Parse(".text\nb nowhere\n");
  ASSERT_TRUE(f.ok());
  auto img = Assemble(*f, LayoutSpec{});
  EXPECT_FALSE(img.ok());
}

TEST(Assemble, ErrorsOnUnexpandedRtcall) {
  auto f = Parse(".text\nrtcall #1\n");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(Assemble(*f, LayoutSpec{}).ok());
}

TEST(Assemble, ErrorsOnDataInText) {
  auto f = Parse(".data\nnop\n");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(Assemble(*f, LayoutSpec{}).ok());
}

}  // namespace
}  // namespace lfi::asmtext
