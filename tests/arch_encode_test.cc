// Encode/decode roundtrip tests for the ARM64 subset.
//
// The binary encoding layer is load-bearing for the whole system: the
// verifier sees only decoded words, so any encode/decode disagreement would
// let the rewriter and verifier reason about different programs. These
// tests sweep every instruction class through an encode -> decode -> compare
// cycle and pin a few words against their architecturally defined values.

#include <gtest/gtest.h>

#include "arch/decode.h"
#include "arch/encode.h"

namespace lfi::arch {
namespace {

// Encodes, decodes, and expects the decoded Inst to equal the input.
void ExpectRoundTrip(const Inst& in) {
  auto word = Encode(in);
  ASSERT_TRUE(word.ok()) << MnName(in) << ": " << word.error();
  auto back = Decode(*word);
  ASSERT_TRUE(back.ok()) << MnName(in) << ": " << back.error();
  EXPECT_EQ(*back, in) << MnName(in) << " word=" << std::hex << *word;
}

Inst AddImm(Width w, Reg rd, Reg rn, int64_t imm) {
  Inst i;
  i.mn = Mn::kAddImm;
  i.width = w;
  i.rd = rd;
  i.rn = rn;
  i.imm = imm;
  return i;
}

TEST(Encode, KnownWords) {
  // Cross-checked against a reference assembler.
  // add x0, x1, #4      -> 0x91001020
  EXPECT_EQ(*Encode(AddImm(Width::kX, Reg::X(0), Reg::X(1), 4)), 0x91001020u);
  // nop
  Inst nop;
  nop.mn = Mn::kNop;
  EXPECT_EQ(*Encode(nop), 0xD503201Fu);
  // ret (x30)
  Inst ret;
  ret.mn = Mn::kRet;
  ret.rn = Reg::X(30);
  EXPECT_EQ(*Encode(ret), 0xD65F03C0u);
  // ldr x0, [x1]        -> 0xF9400020
  Inst ldr;
  ldr.mn = Mn::kLdr;
  ldr.width = Width::kX;
  ldr.msize = 8;
  ldr.rt = Reg::X(0);
  ldr.mem.base = Reg::X(1);
  EXPECT_EQ(*Encode(ldr), 0xF9400020u);
  // The LFI guard: add x18, x21, w0, uxtw.
  // sf=1 op=0 S=0 01011 00 1 Rm=0 option=010 imm3=0 Rn=21 Rd=18
  Inst guard;
  guard.mn = Mn::kAddExt;
  guard.width = Width::kX;
  guard.rd = Reg::X(18);
  guard.rn = Reg::X(21);
  guard.rm = Reg::X(0);
  guard.ext = Extend::kUxtw;
  EXPECT_EQ(*Encode(guard), 0x8B2042B2u);
  EXPECT_TRUE(IsGuardFor(*Decode(0x8B2042B2u), Reg::X(18)));
}

TEST(Encode, AddSubImmediateSweep) {
  for (uint8_t rd : {0, 5, 29, 30}) {
    for (int64_t imm : {0L, 1L, 4095L, 4096L, 0xfff000L}) {
      ExpectRoundTrip(AddImm(Width::kX, Reg::X(rd), Reg::X(rd), imm));
      ExpectRoundTrip(AddImm(Width::kW, Reg::X(rd), Reg::Sp(), imm));
    }
  }
  // Out-of-range immediates must fail to encode.
  EXPECT_FALSE(Encode(AddImm(Width::kX, Reg::X(0), Reg::X(1), -1)).ok());
  EXPECT_FALSE(Encode(AddImm(Width::kX, Reg::X(0), Reg::X(1), 4097)).ok());
  EXPECT_FALSE(
      Encode(AddImm(Width::kX, Reg::X(0), Reg::X(1), 1 << 24)).ok());
}

TEST(Encode, AddSubSpForms) {
  // add sp, sp, #16 and sub sp, sp, #16 are the common prologue forms.
  ExpectRoundTrip(AddImm(Width::kX, Reg::Sp(), Reg::Sp(), 16));
  Inst sub = AddImm(Width::kX, Reg::Sp(), Reg::Sp(), 16);
  sub.mn = Mn::kSubImm;
  ExpectRoundTrip(sub);
  // adds cannot target sp.
  Inst adds = AddImm(Width::kX, Reg::Sp(), Reg::X(0), 1);
  adds.mn = Mn::kAddsImm;
  EXPECT_FALSE(Encode(adds).ok());
}

TEST(Encode, ShiftedRegisterSweep) {
  for (Mn mn : {Mn::kAddReg, Mn::kSubReg, Mn::kAddsReg, Mn::kSubsReg,
                Mn::kAndReg, Mn::kAndsReg, Mn::kOrrReg, Mn::kEorReg,
                Mn::kBicReg}) {
    for (Shift sh : {Shift::kLsl, Shift::kLsr, Shift::kAsr}) {
      for (uint8_t amt : {0, 1, 31}) {
        Inst i;
        i.mn = mn;
        i.width = Width::kX;
        i.rd = Reg::X(3);
        i.rn = Reg::X(4);
        i.rm = Reg::X(5);
        i.shift = sh;
        i.shift_amount = amt;
        ExpectRoundTrip(i);
      }
    }
  }
}

TEST(Encode, ExtendedRegisterSweep) {
  for (Extend e : {Extend::kUxtb, Extend::kUxth, Extend::kUxtw, Extend::kUxtx,
                   Extend::kSxtb, Extend::kSxth, Extend::kSxtw,
                   Extend::kSxtx}) {
    for (uint8_t amt : {0, 2, 4}) {
      Inst i;
      i.mn = Mn::kAddExt;
      i.width = Width::kX;
      i.rd = Reg::X(18);
      i.rn = Reg::X(21);
      i.rm = Reg::X(7);
      i.ext = e;
      i.shift_amount = amt;
      ExpectRoundTrip(i);
    }
  }
}

TEST(Encode, MovWideSweep) {
  for (Mn mn : {Mn::kMovz, Mn::kMovn, Mn::kMovk}) {
    for (uint8_t hw : {0, 16, 32, 48}) {
      Inst i;
      i.mn = mn;
      i.width = Width::kX;
      i.rd = Reg::X(9);
      i.imm = 0xbeef;
      i.shift_amount = hw;
      ExpectRoundTrip(i);
    }
  }
  Inst w;
  w.mn = Mn::kMovz;
  w.width = Width::kW;
  w.rd = Reg::X(1);
  w.imm = 7;
  w.shift_amount = 32;  // invalid for 32-bit form
  EXPECT_FALSE(Encode(w).ok());
}

TEST(Encode, BitfieldAliases) {
  // lsl x0, x1, #3 == ubfm x0, x1, #61, #60
  Inst i;
  i.mn = Mn::kUbfm;
  i.width = Width::kX;
  i.rd = Reg::X(0);
  i.rn = Reg::X(1);
  i.immr = 61;
  i.imms = 60;
  ExpectRoundTrip(i);
  i.mn = Mn::kSbfm;  // asr-family
  i.immr = 3;
  i.imms = 63;
  ExpectRoundTrip(i);
}

TEST(Encode, MulDivSweep) {
  for (Mn mn : {Mn::kMadd, Mn::kMsub}) {
    Inst i;
    i.mn = mn;
    i.width = Width::kX;
    i.rd = Reg::X(0);
    i.rn = Reg::X(1);
    i.rm = Reg::X(2);
    i.ra = Reg::X(3);
    ExpectRoundTrip(i);
  }
  for (Mn mn : {Mn::kSdiv, Mn::kUdiv}) {
    Inst i;
    i.mn = mn;
    i.width = Width::kW;
    i.rd = Reg::X(0);
    i.rn = Reg::X(1);
    i.rm = Reg::X(2);
    ExpectRoundTrip(i);
  }
}

TEST(Encode, CondSelSweep) {
  for (Mn mn : {Mn::kCsel, Mn::kCsinc, Mn::kCsinv, Mn::kCsneg}) {
    for (Cond c : {Cond::kEq, Cond::kLt, Cond::kHi}) {
      Inst i;
      i.mn = mn;
      i.width = Width::kX;
      i.rd = Reg::X(0);
      i.rn = Reg::X(1);
      i.rm = Reg::X(2);
      i.cond = c;
      ExpectRoundTrip(i);
    }
  }
}

TEST(Encode, AdrForms) {
  for (int64_t off : {0L, 4L, -4L, 1048572L, -1048576L}) {
    Inst i;
    i.mn = Mn::kAdr;
    i.rd = Reg::X(0);
    i.imm = off;
    ExpectRoundTrip(i);
  }
  for (int64_t off : {0L, 4096L, -4096L, int64_t{1} << 30}) {
    Inst i;
    i.mn = Mn::kAdrp;
    i.rd = Reg::X(0);
    i.imm = off;
    ExpectRoundTrip(i);
  }
}

struct LsCase {
  AddrMode mode;
  int64_t imm;
  uint8_t shift;
};

void PrintTo(const LsCase& c, std::ostream* os) {
  static const char* const kModes[] = {"imm",     "pre-index", "post-index",
                                       "reg-lsl", "reg-uxtw",  "reg-sxtw"};
  *os << kModes[static_cast<int>(c.mode)] << " #" << c.imm << " shift "
      << static_cast<int>(c.shift);
}

class LoadStoreTest : public ::testing::TestWithParam<LsCase> {};

TEST_P(LoadStoreTest, IntRoundTrip) {
  const LsCase& c = GetParam();
  for (unsigned size : {1u, 2u, 4u, 8u}) {
    Inst i;
    i.mn = Mn::kLdr;
    i.msize = static_cast<uint8_t>(size);
    i.width = size == 8 ? Width::kX : Width::kW;
    i.rt = Reg::X(0);
    i.mem.base = Reg::X(1);
    i.mem.mode = c.mode;
    if (c.mode == AddrMode::kImm) {
      i.mem.imm = c.imm * size;  // keep scaled offsets aligned
    } else {
      i.mem.imm = c.imm;
    }
    if (i.mem.IsRegOffset()) {
      i.mem.index = Reg::X(2);
      i.mem.shift =
          c.shift ? static_cast<uint8_t>(std::countr_zero(size)) : 0;
    }
    ExpectRoundTrip(i);
    i.mn = Mn::kStr;
    ExpectRoundTrip(i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, LoadStoreTest,
    ::testing::Values(LsCase{AddrMode::kImm, 0, 0},
                      LsCase{AddrMode::kImm, 16, 0},
                      LsCase{AddrMode::kImm, -1, 0},    // ldur form
                      LsCase{AddrMode::kPreIndex, -16, 0},
                      LsCase{AddrMode::kPostIndex, 16, 0},
                      LsCase{AddrMode::kRegLsl, 0, 0},
                      LsCase{AddrMode::kRegLsl, 0, 1},
                      LsCase{AddrMode::kRegUxtw, 0, 0},
                      LsCase{AddrMode::kRegUxtw, 0, 1},
                      LsCase{AddrMode::kRegSxtw, 0, 0}));

TEST(Encode, SignExtendingLoads) {
  for (unsigned size : {1u, 2u, 4u}) {
    Inst i;
    i.mn = Mn::kLdr;
    i.msigned = true;
    i.msize = static_cast<uint8_t>(size);
    i.width = Width::kX;
    i.rt = Reg::X(3);
    i.mem.base = Reg::Sp();
    i.mem.imm = 8;
    ExpectRoundTrip(i);
  }
  // ldrsb/ldrsh to a w register.
  for (unsigned size : {1u, 2u}) {
    Inst i;
    i.mn = Mn::kLdr;
    i.msigned = true;
    i.msize = static_cast<uint8_t>(size);
    i.width = Width::kW;
    i.rt = Reg::X(3);
    i.mem.base = Reg::X(4);
    ExpectRoundTrip(i);
  }
}

TEST(Encode, PairSweep) {
  for (Mn mn : {Mn::kLdp, Mn::kStp}) {
    for (AddrMode m :
         {AddrMode::kImm, AddrMode::kPreIndex, AddrMode::kPostIndex}) {
      for (int64_t imm : {-512L, -16L, 0L, 16L, 504L}) {
        Inst i;
        i.mn = mn;
        i.width = Width::kX;
        i.msize = 8;
        i.rt = Reg::X(29);
        i.rt2 = Reg::X(30);
        i.mem.base = Reg::Sp();
        i.mem.mode = m;
        i.mem.imm = imm;
        ExpectRoundTrip(i);
      }
    }
  }
}

TEST(Encode, ExclusiveAndAcquireRelease) {
  for (Mn mn : {Mn::kLdxr, Mn::kLdar, Mn::kStlr}) {
    for (unsigned size : {4u, 8u}) {
      Inst i;
      i.mn = mn;
      i.msize = static_cast<uint8_t>(size);
      i.width = size == 8 ? Width::kX : Width::kW;
      i.rt = Reg::X(0);
      i.mem.base = Reg::X(18);
      ExpectRoundTrip(i);
    }
  }
  Inst stxr;
  stxr.mn = Mn::kStxr;
  stxr.msize = 8;
  stxr.width = Width::kX;
  stxr.rt = Reg::X(1);
  stxr.rs = Reg::X(2);
  stxr.mem.base = Reg::X(18);
  ExpectRoundTrip(stxr);
}

TEST(Encode, BranchSweep) {
  for (Mn mn : {Mn::kB, Mn::kBl}) {
    for (int64_t off : {0L, 4L, -4L, 134217724L, -134217728L}) {
      Inst i;
      i.mn = mn;
      i.imm = off;
      ExpectRoundTrip(i);
    }
    Inst far;
    far.mn = mn;
    far.imm = int64_t{1} << 28;  // beyond 128MiB
    EXPECT_FALSE(Encode(far).ok());
  }
  for (Cond c : {Cond::kEq, Cond::kNe, Cond::kGe, Cond::kLs}) {
    Inst i;
    i.mn = Mn::kBCond;
    i.cond = c;
    i.imm = -64;
    ExpectRoundTrip(i);
  }
  for (Mn mn : {Mn::kCbz, Mn::kCbnz}) {
    Inst i;
    i.mn = mn;
    i.width = Width::kW;
    i.rt = Reg::X(3);
    i.imm = 1024;
    ExpectRoundTrip(i);
  }
  for (uint8_t bit : {0, 5, 31, 32, 63}) {
    Inst i;
    i.mn = Mn::kTbnz;
    i.bit = bit;
    i.width = bit >= 32 ? Width::kX : Width::kW;
    i.rt = Reg::X(4);
    i.imm = 32764;  // max tbz range
    ExpectRoundTrip(i);
    i.imm = 32768;  // out of the 14-bit range
    EXPECT_FALSE(Encode(i).ok());
  }
  for (Mn mn : {Mn::kBr, Mn::kBlr, Mn::kRet}) {
    Inst i;
    i.mn = mn;
    i.rn = Reg::X(18);
    ExpectRoundTrip(i);
  }
}

TEST(Encode, FpSweep) {
  for (Mn mn : {Mn::kFadd, Mn::kFsub, Mn::kFmul, Mn::kFdiv}) {
    for (FpSize s : {FpSize::kS, FpSize::kD}) {
      Inst i;
      i.mn = mn;
      i.fsize = s;
      i.vd = VReg::V(0);
      i.vn = VReg::V(1);
      i.vm = VReg::V(2);
      ExpectRoundTrip(i);
    }
  }
  Inst fmadd;
  fmadd.mn = Mn::kFmadd;
  fmadd.fsize = FpSize::kD;
  fmadd.vd = VReg::V(0);
  fmadd.vn = VReg::V(1);
  fmadd.vm = VReg::V(2);
  fmadd.va = VReg::V(3);
  ExpectRoundTrip(fmadd);
  Inst fcmp;
  fcmp.mn = Mn::kFcmp;
  fcmp.fsize = FpSize::kS;
  fcmp.vn = VReg::V(4);
  fcmp.vm = VReg::V(5);
  ExpectRoundTrip(fcmp);
  Inst fsqrt;
  fsqrt.mn = Mn::kFsqrt;
  fsqrt.fsize = FpSize::kD;
  fsqrt.vd = VReg::V(1);
  fsqrt.vn = VReg::V(2);
  ExpectRoundTrip(fsqrt);
}

TEST(Encode, FpConversionsAndMoves) {
  Inst scvtf;
  scvtf.mn = Mn::kScvtf;
  scvtf.width = Width::kX;
  scvtf.fsize = FpSize::kD;
  scvtf.rn = Reg::X(0);
  scvtf.vd = VReg::V(1);
  ExpectRoundTrip(scvtf);
  Inst fcvtzs;
  fcvtzs.mn = Mn::kFcvtzs;
  fcvtzs.width = Width::kX;
  fcvtzs.fsize = FpSize::kD;
  fcvtzs.vn = VReg::V(1);
  fcvtzs.rd = Reg::X(0);
  ExpectRoundTrip(fcvtzs);
  Inst toGpr;
  toGpr.mn = Mn::kFmov;
  toGpr.width = Width::kX;
  toGpr.fsize = FpSize::kD;
  toGpr.vn = VReg::V(3);
  toGpr.rd = Reg::X(5);
  ExpectRoundTrip(toGpr);
  Inst toFp;
  toFp.mn = Mn::kFmov;
  toFp.width = Width::kX;
  toFp.fsize = FpSize::kD;
  toFp.rn = Reg::X(5);
  toFp.vd = VReg::V(3);
  ExpectRoundTrip(toFp);
  Inst fpfp;
  fpfp.mn = Mn::kFmov;
  fpfp.fsize = FpSize::kS;
  fpfp.vd = VReg::V(1);
  fpfp.vn = VReg::V(2);
  ExpectRoundTrip(fpfp);
}

TEST(Encode, VectorSweep) {
  for (Mn mn : {Mn::kVAdd, Mn::kVFadd, Mn::kVFmul}) {
    for (FpSize s : {FpSize::kV4S, FpSize::kV2D}) {
      Inst i;
      i.mn = mn;
      i.fsize = s;
      i.vd = VReg::V(0);
      i.vn = VReg::V(1);
      i.vm = VReg::V(2);
      ExpectRoundTrip(i);
    }
  }
  // SIMD q-register loads/stores.
  Inst q;
  q.mn = Mn::kLdrF;
  q.fsize = FpSize::kQ;
  q.msize = 16;
  q.vt = VReg::V(7);
  q.mem.base = Reg::X(21);
  q.mem.mode = AddrMode::kRegUxtw;
  q.mem.index = Reg::X(3);
  ExpectRoundTrip(q);
}

TEST(Encode, SystemInsts) {
  Inst svc;
  svc.mn = Mn::kSvc;
  svc.imm = 0;
  ExpectRoundTrip(svc);
  svc.imm = 0x1234;
  ExpectRoundTrip(svc);
  Inst brk;
  brk.mn = Mn::kBrk;
  brk.imm = 1;
  ExpectRoundTrip(brk);
  Inst nop;
  nop.mn = Mn::kNop;
  ExpectRoundTrip(nop);
}

TEST(Decode, RejectsGarbage) {
  // Words that are not in the supported subset must decode to errors, not
  // to bogus instructions. (A sample across major encoding holes.)
  for (uint32_t w : {0x00000000u, 0xFFFFFFFFu, 0x9BFF0000u, 0xD5033FDFu,
                     0x4CDF7060u /* SVE-ish / multi-struct load */}) {
    EXPECT_FALSE(Decode(w).ok()) << std::hex << w;
  }
}

TEST(Decode, AllWordsEitherDecodeOrError) {
  // Pseudo-random fuzz: Decode must never crash and must roundtrip through
  // Encode whenever it succeeds (decode(w) re-encodes to an equivalent
  // instruction).
  uint64_t state = 0x12345678abcdefULL;
  int decoded = 0;
  for (int k = 0; k < 200000; ++k) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t w = static_cast<uint32_t>(state >> 32);
    auto inst = Decode(w);
    if (!inst.ok()) continue;
    ++decoded;
    auto re = Encode(*inst);
    ASSERT_TRUE(re.ok()) << std::hex << w << " " << MnName(*inst) << ": "
                         << re.error();
    auto again = Decode(*re);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, *inst) << std::hex << w << " -> " << *re;
  }
  // Sanity: the fuzz actually exercised the decoder.
  EXPECT_GT(decoded, 100);
}

TEST(EncodeAll, ProducesLittleEndianStream) {
  std::vector<Inst> prog(2);
  prog[0].mn = Mn::kNop;
  prog[1].mn = Mn::kRet;
  prog[1].rn = Reg::X(30);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(EncodeAll(prog, &bytes).ok());
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(ReadWordLE(bytes, 0), 0xD503201Fu);
  EXPECT_EQ(ReadWordLE(bytes, 4), 0xD65F03C0u);
  auto back = DecodeAll(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), 2u);
}

}  // namespace
}  // namespace lfi::arch
