#include "asmtext/parser.h"

#include <algorithm>
#include <array>
#include <optional>

namespace lfi::asmtext {

namespace {

using arch::AddrMode;
using arch::Cond;
using arch::Extend;
using arch::FpSize;
using arch::Inst;
using arch::Mn;
using arch::Reg;
using arch::Shift;
using arch::VReg;
using arch::Width;

// ----- Operand-level token model -----
//
// A line is classified in place: every name, symbol and number below is a
// string_view into the source line, case is folded character by character,
// and a symbol becomes a std::string only when it lands in an AsmStmt.

// A parsed operand, classified.
struct Operand {
  enum class Kind {
    kReg,      // x0 / w3 / sp / wsp / xzr / wzr
    kVReg,     // s0 / d4 / q2 / v1.4s / v1.2d
    kImm,      // #123 / 123 / #-8 / #0x10
    kMem,      // [ ... ] possibly with ! ; post-index imm handled by caller
    kShift,    // lsl #3 / lsr #1 / asr #2 / ror #4
    kExtend,   // uxtw / sxtw #2 / ...
    kLo12,     // :lo12:sym
    kLabel,    // bare identifier
    kCond,     // eq/ne/... (only in csel-family operand position)
  };
  Kind kind;
  Reg reg;
  Width reg_width = Width::kX;
  VReg vreg;
  FpSize fsize = FpSize::kD;
  int64_t imm = 0;
  // Memory sub-operands (flattened; Kind::kMem only).
  Reg mem_base;
  enum class OffKind { kNone, kImm, kReg, kLo12 } off_kind = OffKind::kNone;
  int64_t off_imm = 0;
  Reg off_reg;
  Width off_width = Width::kX;
  enum class ExtKind { kNone, kShift, kExtend } ext_kind = ExtKind::kNone;
  bool writeback = false;
  // Shift/extend payload.
  Shift shift = Shift::kLsl;
  Extend ext = Extend::kUxtx;
  std::optional<int64_t> amount;
  // Symbol payload (kLabel / kLo12), as written.
  std::string_view sym;
  Cond cond = Cond::kAl;
};

// The most operands an instruction line may carry.
constexpr size_t kMaxOperands = 8;

// A line's operands, stored in place. One spare slot in front lets the
// cmp/cmn/tst aliases prepend their zero register without copying the
// line.
class OperandList {
 public:
  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  const Operand& operator[](size_t k) const { return slots_[first_ + k]; }
  void push_back(const Operand& op) { slots_[first_ + n_++] = op; }
  void push_front(const Operand& op) {  // at most once per line
    slots_[--first_] = op;
    ++n_;
  }

 private:
  std::array<Operand, kMaxOperands + 1> slots_;
  size_t first_ = 1;
  size_t n_ = 0;
};

struct ParsedLine {
  std::string_view mnemonic;  // as written
  OperandList ops;
  // Post-index immediate appearing after a memory operand: `[x0], #8`.
  std::optional<int64_t> post_imm;
};

// ASCII character classes: the "C" locale's, without a library call per
// character.
char LowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsXDigit(char c) {
  return IsDigit(c) || (LowerChar(c) >= 'a' && LowerChar(c) <= 'f');
}
bool IsIdentChar(char c) {
  return IsDigit(c) || (LowerChar(c) >= 'a' && LowerChar(c) <= 'z') ||
         c == '_' || c == '.' || c == '$';
}

// True if `s` equals the lower-case `lower`, ignoring the case of `s`.
bool EqualsLower(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (size_t k = 0; k < s.size(); ++k) {
    if (LowerChar(s[k]) != lower[k]) return false;
  }
  return true;
}

// Lower-cases `s` into `buf`; empty if it does not fit.
template <size_t N>
std::string_view LowerInto(std::string_view s, std::array<char, N>* buf) {
  if (s.size() > N) return {};
  for (size_t k = 0; k < s.size(); ++k) (*buf)[k] = LowerChar(s[k]);
  return {buf->data(), s.size()};
}

// Off the per-operand path: diagnostics and `.section` arguments.
std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = LowerChar(c);
  return out;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && IsSpace(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && IsSpace(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

bool AllDigits(std::string_view s) {
  for (char c : s) {
    if (!IsDigit(c)) return false;
  }
  return true;
}

// The value std::atoi gives for `s`: leading blanks, an optional sign,
// then the longest run of digits. Values past `cap` saturate to cap + 1,
// so callers range-check the result as before.
int64_t AtoiPrefix(std::string_view s, int64_t cap) {
  size_t k = 0;
  while (k < s.size() && IsSpace(s[k])) ++k;
  bool neg = false;
  if (k < s.size() && (s[k] == '-' || s[k] == '+')) neg = s[k++] == '-';
  int64_t v = 0;
  for (; k < s.size() && IsDigit(s[k]); ++k) {
    v = std::min(v * 10 + (s[k] - '0'), cap + 1);
  }
  return neg ? -v : v;
}

struct CondName {
  std::string_view name;
  Cond cond;
};
constexpr CondName kConds[] = {
    {"eq", Cond::kEq}, {"ne", Cond::kNe}, {"hs", Cond::kHs},
    {"cs", Cond::kHs}, {"lo", Cond::kLo}, {"cc", Cond::kLo},
    {"mi", Cond::kMi}, {"pl", Cond::kPl}, {"vs", Cond::kVs},
    {"vc", Cond::kVc}, {"hi", Cond::kHi}, {"ls", Cond::kLs},
    {"ge", Cond::kGe}, {"lt", Cond::kLt}, {"gt", Cond::kGt},
    {"le", Cond::kLe}, {"al", Cond::kAl}};

std::optional<Cond> ParseCond(std::string_view s) {
  for (const CondName& c : kConds) {
    if (EqualsLower(s, c.name)) return c.cond;
  }
  return std::nullopt;
}

Cond Invert(Cond c) {
  return static_cast<Cond>(static_cast<uint8_t>(c) ^ 1);
}

// Parses a register name. Returns nullopt if `s` is not a register.
std::optional<std::pair<Reg, Width>> ParseGpr(std::string_view s) {
  if (EqualsLower(s, "sp")) return {{Reg::Sp(), Width::kX}};
  if (EqualsLower(s, "wsp")) return {{Reg::Sp(), Width::kW}};
  if (EqualsLower(s, "xzr")) return {{Reg::Zr(), Width::kX}};
  if (EqualsLower(s, "wzr")) return {{Reg::Zr(), Width::kW}};
  if (s.size() < 2) return std::nullopt;
  const char c = LowerChar(s[0]);
  if ((c != 'x' && c != 'w') || !AllDigits(s.substr(1))) return std::nullopt;
  const int64_t n = AtoiPrefix(s.substr(1), 30);
  if (n < 0 || n > 30) return std::nullopt;
  return {{Reg::X(static_cast<uint8_t>(n)), c == 'x' ? Width::kX
                                                     : Width::kW}};
}

std::optional<std::pair<VReg, FpSize>> ParseVReg(std::string_view s) {
  if (s.size() < 2) return std::nullopt;
  const char c = LowerChar(s[0]);
  if (c == 'v') {
    const auto dot = s.find('.');
    if (dot == std::string_view::npos) return std::nullopt;
    const int64_t n = AtoiPrefix(s.substr(1, dot - 1), 31);
    if (n < 0 || n > 31) return std::nullopt;
    const std::string_view arr = s.substr(dot + 1);
    if (EqualsLower(arr, "4s")) {
      return {{VReg::V(static_cast<uint8_t>(n)), FpSize::kV4S}};
    }
    if (EqualsLower(arr, "2d")) {
      return {{VReg::V(static_cast<uint8_t>(n)), FpSize::kV2D}};
    }
    return std::nullopt;
  }
  if (c != 's' && c != 'd' && c != 'q') return std::nullopt;
  if (!AllDigits(s.substr(1))) return std::nullopt;
  const int64_t n = AtoiPrefix(s.substr(1), 31);
  if (n < 0 || n > 31) return std::nullopt;
  const FpSize fs =
      c == 's' ? FpSize::kS : (c == 'd' ? FpSize::kD : FpSize::kQ);
  return {{VReg::V(static_cast<uint8_t>(n)), fs}};
}

std::optional<int64_t> ParseNumber(std::string_view s) {
  s = Trim(s);
  if (!s.empty() && s.front() == '#') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  bool neg = false;
  if (s.front() == '-') {
    neg = true;
    s.remove_prefix(1);
  } else if (s.front() == '+') {
    s.remove_prefix(1);
  }
  if (s.empty()) return std::nullopt;
  uint64_t v = 0;
  if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    for (char c : s.substr(2)) {
      if (!IsXDigit(c)) return std::nullopt;
      v = v * 16 + static_cast<uint64_t>(IsDigit(c) ? c - '0'
                                                    : LowerChar(c) - 'a' + 10);
    }
  } else {
    for (char c : s) {
      if (!IsDigit(c)) return std::nullopt;
      v = v * 10 + static_cast<uint64_t>(c - '0');
    }
  }
  return neg ? -static_cast<int64_t>(v) : static_cast<int64_t>(v);
}

std::optional<Shift> ParseShiftName(std::string_view s) {
  if (EqualsLower(s, "lsl")) return Shift::kLsl;
  if (EqualsLower(s, "lsr")) return Shift::kLsr;
  if (EqualsLower(s, "asr")) return Shift::kAsr;
  if (EqualsLower(s, "ror")) return Shift::kRor;
  return std::nullopt;
}

std::optional<Extend> ParseExtendName(std::string_view s) {
  if (s.size() != 4) return std::nullopt;
  constexpr std::pair<std::string_view, Extend> kExtends[] = {
      {"uxtb", Extend::kUxtb}, {"uxth", Extend::kUxth},
      {"uxtw", Extend::kUxtw}, {"uxtx", Extend::kUxtx},
      {"sxtb", Extend::kSxtb}, {"sxth", Extend::kSxth},
      {"sxtw", Extend::kSxtw}, {"sxtx", Extend::kSxtx}};
  for (const auto& [name, ext] : kExtends) {
    if (EqualsLower(s, name)) return ext;
  }
  return std::nullopt;
}

// Calls `f` on each of `s`'s top-level comma-separated tokens (commas
// inside [...] don't split), trimmed; an empty last token is dropped.
// Stops, returning false, as soon as `f` returns false.
template <typename F>
bool ForEachOperand(std::string_view s, F&& f) {
  int depth = 0;
  size_t start = 0;
  for (size_t k = 0; k < s.size(); ++k) {
    if (s[k] == '[') ++depth;
    else if (s[k] == ']') --depth;
    else if (s[k] == ',' && depth == 0) {
      if (!f(Trim(s.substr(start, k - start)))) return false;
      start = k + 1;
    }
  }
  const auto last = Trim(s.substr(start));
  return last.empty() || f(last);
}

// ForEachOperand into a fixed array; returns the token count, or N + 1
// when there are more than N tokens.
template <size_t N>
size_t SplitOperands(std::string_view s, std::array<std::string_view, N>* out) {
  size_t n = 0;
  const bool fits = ForEachOperand(s, [&](std::string_view tok) {
    if (n == N) return false;
    (*out)[n++] = tok;
    return true;
  });
  return fits ? n : N + 1;
}

bool StartsImmediate(std::string_view tok) {
  return !tok.empty() &&
         (tok.front() == '#' || tok.front() == '-' || IsDigit(tok.front()));
}

// Parses a non-memory operand token.
Result<Operand> ParseSimpleOperand(std::string_view tok) {
  Operand op;
  tok = Trim(tok);
  if (tok.empty()) return Error{"empty operand"};
  if (auto g = ParseGpr(tok)) {
    op.kind = Operand::Kind::kReg;
    op.reg = g->first;
    op.reg_width = g->second;
    return op;
  }
  if (auto v = ParseVReg(tok)) {
    op.kind = Operand::Kind::kVReg;
    op.vreg = v->first;
    op.fsize = v->second;
    return op;
  }
  if (StartsImmediate(tok)) {
    if (auto n = ParseNumber(tok)) {
      op.kind = Operand::Kind::kImm;
      op.imm = *n;
      return op;
    }
    return Error{"bad immediate: " + std::string(tok)};
  }
  if (tok.substr(0, 6) == ":lo12:") {
    op.kind = Operand::Kind::kLo12;
    op.sym = tok.substr(6);
    return op;
  }
  // shift/extend with optional amount: "lsl #3", "uxtw", "sxtw #2"
  {
    const auto space = tok.find_first_of(" \t");
    const std::string_view head =
        space == std::string_view::npos ? tok : tok.substr(0, space);
    const std::string_view rest =
        space == std::string_view::npos ? std::string_view{}
                                        : Trim(tok.substr(space));
    if (auto sh = ParseShiftName(head)) {
      auto n = ParseNumber(rest);
      if (!n) return Error{"shift needs amount: " + std::string(tok)};
      op.kind = Operand::Kind::kShift;
      op.shift = *sh;
      op.amount = *n;
      return op;
    }
    if (auto ex = ParseExtendName(head)) {
      op.kind = Operand::Kind::kExtend;
      op.ext = *ex;
      if (!rest.empty()) {
        auto n = ParseNumber(rest);
        if (!n) return Error{"bad extend amount: " + std::string(tok)};
        op.amount = *n;
      }
      return op;
    }
  }
  // Condition code or label: context decides; report as label and let the
  // mnemonic handler reinterpret when it expects a condition.
  op.kind = Operand::Kind::kLabel;
  op.sym = tok;
  return op;
}

// Parses a [ ... ] memory operand (without any post-index part).
Result<Operand> ParseMemOperand(std::string_view tok) {
  Operand op;
  op.kind = Operand::Kind::kMem;
  tok = Trim(tok);
  if (tok.back() == '!') {
    op.writeback = true;
    tok = Trim(tok.substr(0, tok.size() - 1));
  }
  if (tok.size() < 2 || tok.front() != '[' || tok.back() != ']') {
    return Error{"bad memory operand: " + std::string(tok)};
  }
  std::array<std::string_view, 3> parts;
  const size_t nparts = SplitOperands(Trim(tok.substr(1, tok.size() - 2)),
                                      &parts);
  if (nparts == 0 || nparts > 3) {
    return Error{"bad memory operand arity"};
  }
  auto base = ParseGpr(parts[0]);
  if (!base || base->first.IsZr()) {
    return Error{"bad base register: " + std::string(parts[0])};
  }
  op.mem_base = base->first;
  if (nparts >= 2) {
    auto sub = ParseSimpleOperand(parts[1]);
    if (!sub) return Error{sub.error()};
    switch (sub->kind) {
      case Operand::Kind::kImm:
        op.off_kind = Operand::OffKind::kImm;
        op.off_imm = sub->imm;
        break;
      case Operand::Kind::kReg:
        op.off_kind = Operand::OffKind::kReg;
        op.off_reg = sub->reg;
        op.off_width = sub->reg_width;
        break;
      case Operand::Kind::kLo12:
        op.off_kind = Operand::OffKind::kLo12;
        break;
      default:
        return Error{"bad memory offset"};
    }
  }
  if (nparts == 3) {
    auto sub = ParseSimpleOperand(parts[2]);
    if (!sub) return Error{sub.error()};
    if (sub->kind == Operand::Kind::kShift) {
      op.ext_kind = Operand::ExtKind::kShift;
      op.shift = sub->shift;
      op.amount = sub->amount;
    } else if (sub->kind == Operand::Kind::kExtend) {
      op.ext_kind = Operand::ExtKind::kExtend;
      op.ext = sub->ext;
      op.amount = sub->amount;
    } else {
      return Error{"bad memory extend"};
    }
  }
  return op;
}

Status Tokenize(std::string_view line, ParsedLine* out) {
  line = Trim(line);
  const auto sp = line.find_first_of(" \t");
  out->mnemonic = sp == std::string_view::npos ? line : line.substr(0, sp);
  if (sp == std::string_view::npos) return Status::Ok();
  std::array<std::string_view, kMaxOperands> toks;
  const size_t ntoks = SplitOperands(Trim(line.substr(sp)), &toks);
  if (ntoks > kMaxOperands) return Status::Fail("too many operands");
  for (size_t k = 0; k < ntoks; ++k) {
    if (!toks[k].empty() && toks[k].front() == '[') {
      auto mem = ParseMemOperand(toks[k]);
      if (!mem) return Status::Fail(mem.error());
      // Post-index: `[xN], #i` arrives as a following immediate token.
      if (k + 1 < ntoks && !mem->writeback &&
          mem->off_kind == Operand::OffKind::kNone &&
          StartsImmediate(toks[k + 1])) {
        auto n = ParseNumber(toks[k + 1]);
        if (!n) return Status::Fail("bad post-index immediate");
        out->post_imm = *n;
        ++k;
      }
      out->ops.push_back(*mem);
      continue;
    }
    auto op = ParseSimpleOperand(toks[k]);
    if (!op) return Status::Fail(op.error());
    out->ops.push_back(*op);
  }
  return Status::Ok();
}

// ----- Mnemonic assembly: build Inst values from operand lists -----

// How a mnemonic's operands become an instruction: one builder per
// family, each fed the family member's arch mnemonic.
enum class Family : uint8_t {
  kAddSub,     // add/adds/sub/subs (register-form Mn)
  kZrAlias,    // cmp/cmn/tst: the add/sub/ands family with rd = zr
  kLogical,    // and/ands/orr/eor/bic
  kNeg,
  kMov,
  kMovWide,    // movz/movn/movk
  kShift,      // lsl/lsr/asr aliases of ubfm/sbfm
  kExtendAlias,  // sxtw/sxtb/sxth/uxtb/uxth
  kBfm,        // ubfm/sbfm
  kMul,        // mul/madd/msub/mneg
  kReg3,       // sdiv/udiv/umulh/smulh
  kCondCmp,    // ccmp/ccmn
  kExtr,
  kRor,
  kCondSel,    // csel/csinc/csinv/csneg
  kCset,
  kUnary,      // clz/rbit/rev
  kAdr,        // adr/adrp
  kLoadStore,  // ldr/str and their sized/unscaled forms
  kPair,       // ldp/stp
  kExclusive,  // ldxr/ldar/stlr
  kStxr,
  kBranch,     // b/bl/cbz/cbnz/tbz/tbnz
  kBranchReg,  // br/blr
  kRet,
  kFp3,        // fadd/fsub/fmul/fdiv
  kFsqrt,
  kFmadd,
  kFcmp,
  kScvtf,
  kFcvtzs,
  kFmov,
  kNop,
  kImm16,      // svc/brk
  kRtcall,
  kHostcall,
};

struct Mnemonic {
  std::string_view name;  // lower case
  Family family;
  Mn mn;  // the instruction (or, for aliases, the form) it builds
};

// Every mnemonic the parser accepts (b.<cond> aside), sorted by name for
// binary search.
constexpr Mnemonic kMnemonics[] = {
    {"add", Family::kAddSub, Mn::kAddReg},
    {"adds", Family::kAddSub, Mn::kAddsReg},
    {"adr", Family::kAdr, Mn::kAdr},
    {"adrp", Family::kAdr, Mn::kAdrp},
    {"and", Family::kLogical, Mn::kAndReg},
    {"ands", Family::kLogical, Mn::kAndsReg},
    {"asr", Family::kShift, Mn::kSbfm},
    {"b", Family::kBranch, Mn::kB},
    {"bic", Family::kLogical, Mn::kBicReg},
    {"bl", Family::kBranch, Mn::kBl},
    {"blr", Family::kBranchReg, Mn::kBlr},
    {"br", Family::kBranchReg, Mn::kBr},
    {"brk", Family::kImm16, Mn::kBrk},
    {"cbnz", Family::kBranch, Mn::kCbnz},
    {"cbz", Family::kBranch, Mn::kCbz},
    {"ccmn", Family::kCondCmp, Mn::kCcmn},
    {"ccmp", Family::kCondCmp, Mn::kCcmp},
    {"clz", Family::kUnary, Mn::kClz},
    {"cmn", Family::kZrAlias, Mn::kAddsReg},
    {"cmp", Family::kZrAlias, Mn::kSubsReg},
    {"csel", Family::kCondSel, Mn::kCsel},
    {"cset", Family::kCset, Mn::kCsinc},
    {"csinc", Family::kCondSel, Mn::kCsinc},
    {"csinv", Family::kCondSel, Mn::kCsinv},
    {"csneg", Family::kCondSel, Mn::kCsneg},
    {"eor", Family::kLogical, Mn::kEorReg},
    {"extr", Family::kExtr, Mn::kExtr},
    {"fadd", Family::kFp3, Mn::kFadd},
    {"fcmp", Family::kFcmp, Mn::kFcmp},
    {"fcvtzs", Family::kFcvtzs, Mn::kFcvtzs},
    {"fdiv", Family::kFp3, Mn::kFdiv},
    {"fmadd", Family::kFmadd, Mn::kFmadd},
    {"fmov", Family::kFmov, Mn::kFmov},
    {"fmul", Family::kFp3, Mn::kFmul},
    {"fsqrt", Family::kFsqrt, Mn::kFsqrt},
    {"fsub", Family::kFp3, Mn::kFsub},
    {"hostcall", Family::kHostcall, Mn::kNop},
    {"ldar", Family::kExclusive, Mn::kLdar},
    {"ldp", Family::kPair, Mn::kLdp},
    {"ldr", Family::kLoadStore, Mn::kLdr},
    {"ldrb", Family::kLoadStore, Mn::kLdr},
    {"ldrh", Family::kLoadStore, Mn::kLdr},
    {"ldrsb", Family::kLoadStore, Mn::kLdr},
    {"ldrsh", Family::kLoadStore, Mn::kLdr},
    {"ldrsw", Family::kLoadStore, Mn::kLdr},
    {"ldur", Family::kLoadStore, Mn::kLdr},
    {"ldxr", Family::kExclusive, Mn::kLdxr},
    {"lsl", Family::kShift, Mn::kUbfm},
    {"lsr", Family::kShift, Mn::kUbfm},
    {"madd", Family::kMul, Mn::kMadd},
    {"mneg", Family::kMul, Mn::kMsub},
    {"mov", Family::kMov, Mn::kOrrReg},
    {"movk", Family::kMovWide, Mn::kMovk},
    {"movn", Family::kMovWide, Mn::kMovn},
    {"movz", Family::kMovWide, Mn::kMovz},
    {"msub", Family::kMul, Mn::kMsub},
    {"mul", Family::kMul, Mn::kMadd},
    {"neg", Family::kNeg, Mn::kSubReg},
    {"nop", Family::kNop, Mn::kNop},
    {"orr", Family::kLogical, Mn::kOrrReg},
    {"rbit", Family::kUnary, Mn::kRbit},
    {"ret", Family::kRet, Mn::kRet},
    {"rev", Family::kUnary, Mn::kRev},
    {"ror", Family::kRor, Mn::kExtr},
    {"rtcall", Family::kRtcall, Mn::kNop},
    {"sbfm", Family::kBfm, Mn::kSbfm},
    {"scvtf", Family::kScvtf, Mn::kScvtf},
    {"sdiv", Family::kReg3, Mn::kSdiv},
    {"smulh", Family::kReg3, Mn::kSmulh},
    {"stlr", Family::kExclusive, Mn::kStlr},
    {"stp", Family::kPair, Mn::kStp},
    {"str", Family::kLoadStore, Mn::kStr},
    {"strb", Family::kLoadStore, Mn::kStr},
    {"strh", Family::kLoadStore, Mn::kStr},
    {"stur", Family::kLoadStore, Mn::kStr},
    {"stxr", Family::kStxr, Mn::kStxr},
    {"sub", Family::kAddSub, Mn::kSubReg},
    {"subs", Family::kAddSub, Mn::kSubsReg},
    {"svc", Family::kImm16, Mn::kSvc},
    {"sxtb", Family::kExtendAlias, Mn::kSbfm},
    {"sxth", Family::kExtendAlias, Mn::kSbfm},
    {"sxtw", Family::kExtendAlias, Mn::kSbfm},
    {"tbnz", Family::kBranch, Mn::kTbnz},
    {"tbz", Family::kBranch, Mn::kTbz},
    {"tst", Family::kZrAlias, Mn::kAndsReg},
    {"ubfm", Family::kBfm, Mn::kUbfm},
    {"udiv", Family::kReg3, Mn::kUdiv},
    {"umulh", Family::kReg3, Mn::kUmulh},
    {"uxtb", Family::kExtendAlias, Mn::kUbfm},
    {"uxth", Family::kExtendAlias, Mn::kUbfm},
};
static_assert(std::is_sorted(std::begin(kMnemonics), std::end(kMnemonics),
                             [](const Mnemonic& a, const Mnemonic& b) {
                               return a.name < b.name;
                             }));

const Mnemonic* FindMnemonic(std::string_view lower) {
  const auto it = std::lower_bound(
      std::begin(kMnemonics), std::end(kMnemonics), lower,
      [](const Mnemonic& m, std::string_view n) { return m.name < n; });
  return it != std::end(kMnemonics) && it->name == lower ? it : nullptr;
}

Error ErrLine(const std::string& m) { return Error{m}; }

// Fills `inst.mem` from a kMem operand plus optional post-index immediate.
Status FillMem(const Operand& m, std::optional<int64_t> post, Inst* inst) {
  inst->mem.base = m.mem_base;
  if (post.has_value()) {
    inst->mem.mode = AddrMode::kPostIndex;
    inst->mem.imm = *post;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kNone) {
    inst->mem.mode = m.writeback ? AddrMode::kPreIndex : AddrMode::kImm;
    inst->mem.imm = 0;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kImm) {
    inst->mem.mode = m.writeback ? AddrMode::kPreIndex : AddrMode::kImm;
    inst->mem.imm = m.off_imm;
    return Status::Ok();
  }
  if (m.off_kind == Operand::OffKind::kLo12) {
    return Status::Fail(":lo12: in memory operands unsupported; "
                        "materialize the address with add first");
  }
  // Register offset.
  if (m.writeback) return Status::Fail("writeback with register offset");
  inst->mem.index = m.off_reg;
  uint8_t shift = 0;
  AddrMode mode;
  if (m.ext_kind == Operand::ExtKind::kNone) {
    if (m.off_width != Width::kX) {
      return Status::Fail("register offset without extend must be an x reg");
    }
    mode = AddrMode::kRegLsl;
  } else if (m.ext_kind == Operand::ExtKind::kShift) {
    if (m.shift != Shift::kLsl) {
      return Status::Fail("only lsl shifts in addressing modes");
    }
    mode = AddrMode::kRegLsl;
    shift = static_cast<uint8_t>(m.amount.value_or(0));
  } else {
    switch (m.ext) {
      case Extend::kUxtw: mode = AddrMode::kRegUxtw; break;
      case Extend::kSxtw: mode = AddrMode::kRegSxtw; break;
      case Extend::kSxtx: case Extend::kUxtx: mode = AddrMode::kRegLsl; break;
      default: return Status::Fail("bad addressing-mode extend");
    }
    if (mode != AddrMode::kRegLsl && m.off_width != Width::kW) {
      return Status::Fail("uxtw/sxtw offset must be a w register");
    }
    shift = static_cast<uint8_t>(m.amount.value_or(0));
  }
  inst->mem.mode = mode;
  inst->mem.shift = shift;
  return Status::Ok();
}

bool IsReg(const Operand& o) { return o.kind == Operand::Kind::kReg; }
bool IsImm(const Operand& o) { return o.kind == Operand::Kind::kImm; }
bool IsMem(const Operand& o) { return o.kind == Operand::Kind::kMem; }
bool IsVReg(const Operand& o) { return o.kind == Operand::Kind::kVReg; }

// Builds an add/sub-family instruction from `rd, rn, <imm|reg>` operands
// with optional shift/extend. Handles the imm/shifted/extended split.
Result<AsmStmt> BuildAddSub(bool sub, bool setflags, const ParsedLine& l) {
  if (l.ops.size() < 3) return ErrLine("add/sub needs 3 operands");
  const Operand& rd = l.ops[0];
  const Operand& rn = l.ops[1];
  const Operand& src = l.ops[2];
  if (!IsReg(rd) || !IsReg(rn)) return ErrLine("add/sub operand types");
  Inst i;
  i.width = rd.reg_width;
  i.rd = rd.reg;
  i.rn = rn.reg;
  if (IsImm(src)) {
    i.mn = sub ? (setflags ? Mn::kSubsImm : Mn::kSubImm)
               : (setflags ? Mn::kAddsImm : Mn::kAddImm);
    i.imm = src.imm;
    if (l.ops.size() > 3) return ErrLine("junk after add imm");
    // Negative immediates flip add<->sub.
    if (i.imm < 0) {
      i.imm = -i.imm;
      i.mn = sub ? (setflags ? Mn::kAddsImm : Mn::kAddImm)
                 : (setflags ? Mn::kSubsImm : Mn::kSubImm);
    }
    return AsmStmt::OfInst(i);
  }
  if (src.kind == Operand::Kind::kLo12) {
    if (sub || setflags) return ErrLine(":lo12: only valid on add");
    i.mn = Mn::kAddImm;
    AsmStmt s = AsmStmt::OfInst(i);
    s.reloc = Reloc::kLo12;
    s.target = std::string(src.sym);
    return s;
  }
  if (!IsReg(src)) return ErrLine("add/sub source");
  i.rm = src.reg;
  const bool has_mod = l.ops.size() > 3;
  if (has_mod && l.ops[3].kind == Operand::Kind::kExtend) {
    const Operand& e = l.ops[3];
    if (setflags) return ErrLine("adds/subs ext unsupported");
    i.mn = sub ? Mn::kSubExt : Mn::kAddExt;
    i.ext = e.ext;
    i.shift_amount = static_cast<uint8_t>(e.amount.value_or(0));
    return AsmStmt::OfInst(i);
  }
  // Mixed register widths (add xD, xN, wM, uxtw) imply the extended form
  // even without a trailing modifier token.
  if (rd.reg_width == Width::kX && src.reg_width == Width::kW) {
    return ErrLine("w source in x add requires an extend specifier");
  }
  // SP in rd/rn requires extended or immediate form; the encoder handles
  // the uxtx conversion for plain adds.
  i.mn = sub ? (setflags ? Mn::kSubsReg : Mn::kSubReg)
             : (setflags ? Mn::kAddsReg : Mn::kAddReg);
  if (has_mod) {
    const Operand& sh = l.ops[3];
    if (sh.kind != Operand::Kind::kShift) return ErrLine("bad add modifier");
    i.shift = sh.shift;
    i.shift_amount = static_cast<uint8_t>(sh.amount.value_or(0));
    if (l.ops.size() > 4) return ErrLine("junk after add");
  }
  return AsmStmt::OfInst(i);
}

Result<AsmStmt> BuildLogical(Mn mn, const ParsedLine& l) {
  if (l.ops.size() < 3) return ErrLine("logical needs 3 operands");
  if (!IsReg(l.ops[0]) || !IsReg(l.ops[1])) return ErrLine("logical operands");
  if (IsImm(l.ops[2])) {
    // Bitmask-immediate form.
    Inst i;
    switch (mn) {
      case Mn::kAndReg: i.mn = Mn::kAndImm; break;
      case Mn::kAndsReg: i.mn = Mn::kAndsImm; break;
      case Mn::kOrrReg: i.mn = Mn::kOrrImm; break;
      case Mn::kEorReg: i.mn = Mn::kEorImm; break;
      default: return ErrLine("no immediate form for this logical op");
    }
    i.width = l.ops[0].reg_width;
    i.rd = l.ops[0].reg;
    i.rn = l.ops[1].reg;
    i.imm = l.ops[2].imm;
    if (i.width == Width::kW) i.imm &= 0xffffffff;
    return AsmStmt::OfInst(i);
  }
  if (!IsReg(l.ops[2])) {
    return ErrLine("logical operand types");
  }
  Inst i;
  i.mn = mn;
  i.width = l.ops[0].reg_width;
  i.rd = l.ops[0].reg;
  i.rn = l.ops[1].reg;
  i.rm = l.ops[2].reg;
  if (l.ops.size() == 4) {
    if (l.ops[3].kind != Operand::Kind::kShift) return ErrLine("bad shift");
    i.shift = l.ops[3].shift;
    i.shift_amount = static_cast<uint8_t>(l.ops[3].amount.value_or(0));
  }
  return AsmStmt::OfInst(i);
}

Result<AsmStmt> BuildLoadStore(const Mnemonic& mn, const ParsedLine& l) {
  Inst i;
  const bool load = mn.mn == Mn::kLdr;
  const std::string_view n = mn.name;
  if (n == "ldr" || n == "str" || n == "ldur" || n == "stur") {
    i.msize = 0;  // from register width below
  } else if (n == "ldrb" || n == "strb") {
    i.msize = 1;
  } else if (n == "ldrh" || n == "strh") {
    i.msize = 2;
  } else if (n == "ldrsb") {
    i.msize = 1;
    i.msigned = true;
  } else if (n == "ldrsh") {
    i.msize = 2;
    i.msigned = true;
  } else if (n == "ldrsw") {
    i.msize = 4;
    i.msigned = true;
  } else {
    return ErrLine("bad load/store mnemonic");
  }
  if (l.ops.size() != 2 || !IsMem(l.ops[1])) {
    return ErrLine(std::string(mn.name) + " needs `rt, [mem]`");
  }
  if (IsVReg(l.ops[0])) {
    if (i.msize != 0 || i.msigned) return ErrLine("fp ld/st variant");
    i.mn = load ? Mn::kLdrF : Mn::kStrF;
    i.vt = l.ops[0].vreg;
    i.fsize = l.ops[0].fsize;
    switch (i.fsize) {
      case FpSize::kS: i.msize = 4; break;
      case FpSize::kD: i.msize = 8; break;
      case FpSize::kQ: i.msize = 16; break;
      default: return ErrLine("bad fp transfer register");
    }
  } else if (IsReg(l.ops[0])) {
    i.mn = load ? Mn::kLdr : Mn::kStr;
    i.rt = l.ops[0].reg;
    i.width = l.ops[0].reg_width;
    if (i.msize == 0) i.msize = i.width == Width::kX ? 8 : 4;
    if (i.msigned && i.msize == 4 && i.width != Width::kX) {
      return ErrLine("ldrsw must target an x register");
    }
    if (!i.msigned && i.msize < 4 && i.width != Width::kW) {
      return ErrLine("ldrb/ldrh target must be a w register");
    }
  } else {
    return ErrLine("bad transfer register");
  }
  auto st = FillMem(l.ops[1], l.post_imm, &i);
  if (!st.ok()) return Error{st.error()};
  return AsmStmt::OfInst(i);
}

Result<AsmStmt> BuildPair(bool load, const ParsedLine& l) {
  if (l.ops.size() != 3 || !IsReg(l.ops[0]) || !IsReg(l.ops[1]) ||
      !IsMem(l.ops[2])) {
    return ErrLine("ldp/stp needs `rt, rt2, [mem]`");
  }
  Inst i;
  i.mn = load ? Mn::kLdp : Mn::kStp;
  i.rt = l.ops[0].reg;
  i.rt2 = l.ops[1].reg;
  i.width = l.ops[0].reg_width;
  i.msize = i.width == Width::kX ? 8 : 4;
  auto st = FillMem(l.ops[2], l.post_imm, &i);
  if (!st.ok()) return Error{st.error()};
  return AsmStmt::OfInst(i);
}

Result<AsmStmt> BuildFp2(Mn mn, const ParsedLine& l) {
  if (l.ops.size() != 3 || !IsVReg(l.ops[0]) || !IsVReg(l.ops[1]) ||
      !IsVReg(l.ops[2])) {
    return ErrLine("fp op needs 3 fp registers");
  }
  Inst i;
  i.fsize = l.ops[0].fsize;
  if (i.fsize == FpSize::kV4S || i.fsize == FpSize::kV2D) {
    switch (mn) {
      case Mn::kFadd: i.mn = Mn::kVFadd; break;
      case Mn::kFmul: i.mn = Mn::kVFmul; break;
      default: return ErrLine("vector op unsupported");
    }
  } else {
    i.mn = mn;
  }
  i.vd = l.ops[0].vreg;
  i.vn = l.ops[1].vreg;
  i.vm = l.ops[2].vreg;
  return AsmStmt::OfInst(i);
}

Result<AsmStmt> BuildBranch(Mn mn, const ParsedLine& l, Cond cond) {
  Inst i;
  i.mn = mn;
  i.cond = cond;
  size_t lab = 0;
  if (mn == Mn::kCbz || mn == Mn::kCbnz) {
    if (l.ops.size() != 2 || !IsReg(l.ops[0])) return ErrLine("cbz operands");
    i.rt = l.ops[0].reg;
    i.width = l.ops[0].reg_width;
    lab = 1;
  } else if (mn == Mn::kTbz || mn == Mn::kTbnz) {
    if (l.ops.size() != 3 || !IsReg(l.ops[0]) || !IsImm(l.ops[1])) {
      return ErrLine("tbz operands");
    }
    i.rt = l.ops[0].reg;
    i.bit = static_cast<uint8_t>(l.ops[1].imm);
    i.width = i.bit >= 32 ? Width::kX : Width::kW;
    lab = 2;
  } else if (l.ops.size() != 1) {
    return ErrLine("branch needs a target");
  }
  if (l.ops[lab].kind != Operand::Kind::kLabel) return ErrLine("bad target");
  return AsmStmt::Branch(i, std::string(l.ops[lab].sym));
}

Result<AsmStmt> BuildInst(ParsedLine& l) {
  const auto& ops = l.ops;

  // b.cond
  if (l.mnemonic.size() > 2 && LowerChar(l.mnemonic[0]) == 'b' &&
      l.mnemonic[1] == '.') {
    auto c = ParseCond(l.mnemonic.substr(2));
    if (!c || *c == Cond::kAl) return ErrLine("bad branch condition");
    return BuildBranch(Mn::kBCond, l, *c);
  }

  std::array<char, 8> buf;  // the longest mnemonic is "hostcall"
  const Mnemonic* m = FindMnemonic(LowerInto(l.mnemonic, &buf));
  if (m == nullptr) return ErrLine("unknown mnemonic: " + Lower(l.mnemonic));
  Inst i;
  i.mn = m->mn;
  switch (m->family) {
    case Family::kAddSub:
      if (m->mn == Mn::kAddReg && !ops.empty() && IsVReg(ops[0])) {
        // Vector integer add: add vD.4s, vN.4s, vM.4s
        if (ops.size() != 3 || !IsVReg(ops[1]) || !IsVReg(ops[2])) {
          return ErrLine("vector add operands");
        }
        i.mn = Mn::kVAdd;
        i.fsize = ops[0].fsize;
        if (i.fsize != FpSize::kV4S && i.fsize != FpSize::kV2D) {
          return ErrLine("vector add arrangement");
        }
        i.vd = ops[0].vreg;
        i.vn = ops[1].vreg;
        i.vm = ops[2].vreg;
        return AsmStmt::OfInst(i);
      }
      return BuildAddSub(m->mn == Mn::kSubReg || m->mn == Mn::kSubsReg,
                         m->mn == Mn::kAddsReg || m->mn == Mn::kSubsReg, l);
    case Family::kZrAlias: {
      // cmp a, b == subs zr, a, b; cmn likewise adds; tst == ands.
      Operand zr;
      zr.kind = Operand::Kind::kReg;
      zr.reg = Reg::Zr();
      zr.reg_width = ops.empty() ? Width::kX : ops[0].reg_width;
      l.ops.push_front(zr);
      if (m->mn == Mn::kAndsReg) return BuildLogical(Mn::kAndsReg, l);
      return BuildAddSub(m->mn == Mn::kSubsReg, true, l);
    }
    case Family::kLogical:
      return BuildLogical(m->mn, l);
    case Family::kNeg:
      if (ops.size() != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return ErrLine("neg operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return AsmStmt::OfInst(i);
    case Family::kMov:
      if (ops.size() != 2 || !IsReg(ops[0])) return ErrLine("mov operands");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      if (IsImm(ops[1])) {
        const int64_t v = ops[1].imm;
        // movz/movn with a single 16-bit payload; wider constants must be
        // written as explicit movz/movk pairs.
        if (v >= 0 && v <= 0xffff) {
          i.mn = Mn::kMovz;
          i.imm = v;
        } else if (v < 0 && -v - 1 <= 0xffff) {
          i.mn = Mn::kMovn;
          i.imm = -v - 1;
        } else {
          return ErrLine("mov immediate too wide; use movz/movk");
        }
        return AsmStmt::OfInst(i);
      }
      if (!IsReg(ops[1])) return ErrLine("mov source");
      // mov to/from sp uses add #0; otherwise orr zr.
      if (ops[0].reg.IsSp() || ops[1].reg.IsSp()) {
        i.mn = Mn::kAddImm;
        i.rn = ops[1].reg;
        i.imm = 0;
        return AsmStmt::OfInst(i);
      }
      i.rn = Reg::Zr();
      i.rm = ops[1].reg;
      return AsmStmt::OfInst(i);
    case Family::kMovWide:
      if (ops.size() < 2 || !IsReg(ops[0]) || !IsImm(ops[1])) {
        return ErrLine("movz operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.imm = ops[1].imm;
      if (ops.size() == 3) {
        if (ops[2].kind != Operand::Kind::kShift ||
            ops[2].shift != Shift::kLsl) {
          return ErrLine("movz shift");
        }
        i.shift_amount = static_cast<uint8_t>(ops[2].amount.value_or(0));
      }
      return AsmStmt::OfInst(i);
    case Family::kShift: {
      if (ops.size() != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsImm(ops[2])) {
        return ErrLine("register-shift forms unsupported");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      const uint8_t bits = i.width == Width::kX ? 64 : 32;
      const uint8_t s = static_cast<uint8_t>(ops[2].imm);
      if (s >= bits) return ErrLine("shift amount too large");
      if (m->name == "lsl") {
        i.immr = static_cast<uint8_t>((bits - s) % bits);
        i.imms = static_cast<uint8_t>(bits - 1 - s);
      } else {
        i.immr = s;
        i.imms = bits - 1;
      }
      return AsmStmt::OfInst(i);
    }
    case Family::kExtendAlias:
      if (ops.size() != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return ErrLine("extend alias operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.immr = 0;
      // The source width is the name's last letter: w, h or b.
      i.imms = m->name[3] == 'w' ? 31 : (m->name[3] == 'h' ? 15 : 7);
      return AsmStmt::OfInst(i);
    case Family::kBfm:
      if (ops.size() != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsImm(ops[2]) || !IsImm(ops[3])) {
        return ErrLine("bfm operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.immr = static_cast<uint8_t>(ops[2].imm);
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return AsmStmt::OfInst(i);
    case Family::kMul: {
      // mul/mneg are madd/msub with ra = zr.
      const size_t need = m->name == "mul" || m->name == "mneg" ? 3 : 4;
      if (ops.size() != need) return ErrLine("mul operands");
      for (size_t k = 0; k < need; ++k) {
        if (!IsReg(ops[k])) return ErrLine("mul operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.ra = need == 4 ? ops[3].reg : Reg::Zr();
      return AsmStmt::OfInst(i);
    }
    case Family::kReg3:
      if (ops.size() != 3) return ErrLine("3-reg op operands");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      return AsmStmt::OfInst(i);
    case Family::kCondCmp: {
      // ccmp rn, rm|#imm5, #nzcv, cond
      if (ops.size() != 4 || !IsReg(ops[0]) || !IsImm(ops[2]) ||
          ops[3].kind != Operand::Kind::kLabel) {
        return ErrLine("ccmp operands");
      }
      auto c = ParseCond(ops[3].sym);
      if (!c) return ErrLine("bad ccmp condition");
      i.width = ops[0].reg_width;
      i.rn = ops[0].reg;
      i.nzcv = static_cast<uint8_t>(ops[2].imm);
      i.cond = *c;
      if (IsImm(ops[1])) {
        i.mn = m->mn == Mn::kCcmp ? Mn::kCcmpImm : Mn::kCcmnImm;
        i.imm = ops[1].imm;
      } else if (IsReg(ops[1])) {
        i.rm = ops[1].reg;
      } else {
        return ErrLine("ccmp second operand");
      }
      return AsmStmt::OfInst(i);
    }
    case Family::kExtr:
      // extr rd, rn, rm, #lsb
      if (ops.size() != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsReg(ops[2]) || !IsImm(ops[3])) {
        return ErrLine("extr operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.imms = static_cast<uint8_t>(ops[3].imm);
      return AsmStmt::OfInst(i);
    case Family::kRor:
      // ror rd, rs, #shift == extr rd, rs, rs, #shift
      if (ops.size() != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsImm(ops[2])) {
        return ErrLine("ror operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[1].reg;
      i.imms = static_cast<uint8_t>(ops[2].imm);
      return AsmStmt::OfInst(i);
    case Family::kCondSel: {
      if (ops.size() != 4 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsReg(ops[2]) || ops[3].kind != Operand::Kind::kLabel) {
        return ErrLine("csel operands");
      }
      auto c = ParseCond(ops[3].sym);
      if (!c) return ErrLine("bad condition: " + std::string(ops[3].sym));
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      i.rm = ops[2].reg;
      i.cond = *c;
      return AsmStmt::OfInst(i);
    }
    case Family::kCset: {
      if (ops.size() != 2 || !IsReg(ops[0]) ||
          ops[1].kind != Operand::Kind::kLabel) {
        return ErrLine("cset operands");
      }
      auto c = ParseCond(ops[1].sym);
      if (!c) return ErrLine("bad condition");
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = Reg::Zr();
      i.rm = Reg::Zr();
      i.cond = Invert(*c);
      return AsmStmt::OfInst(i);
    }
    case Family::kUnary:
      if (ops.size() != 2 || !IsReg(ops[0]) || !IsReg(ops[1])) {
        return ErrLine("unary operands");
      }
      i.width = ops[0].reg_width;
      i.rd = ops[0].reg;
      i.rn = ops[1].reg;
      return AsmStmt::OfInst(i);
    case Family::kAdr:
      if (ops.size() != 2 || !IsReg(ops[0]) ||
          ops[1].kind != Operand::Kind::kLabel) {
        return ErrLine("adr operands");
      }
      i.rd = ops[0].reg;
      return AsmStmt::Branch(i, std::string(ops[1].sym));
    case Family::kLoadStore:
      return BuildLoadStore(*m, l);
    case Family::kPair:
      return BuildPair(m->mn == Mn::kLdp, l);
    case Family::kExclusive: {
      if (ops.size() != 2 || !IsReg(ops[0]) || !IsMem(ops[1])) {
        return ErrLine("exclusive operands");
      }
      i.rt = ops[0].reg;
      i.width = ops[0].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      auto st = FillMem(ops[1], l.post_imm, &i);
      if (!st.ok()) return Error{st.error()};
      return AsmStmt::OfInst(i);
    }
    case Family::kStxr: {
      if (ops.size() != 3 || !IsReg(ops[0]) || !IsReg(ops[1]) ||
          !IsMem(ops[2])) {
        return ErrLine("stxr operands");
      }
      i.rs = ops[0].reg;
      i.rt = ops[1].reg;
      i.width = ops[1].reg_width;
      i.msize = i.width == Width::kX ? 8 : 4;
      auto st = FillMem(ops[2], l.post_imm, &i);
      if (!st.ok()) return Error{st.error()};
      return AsmStmt::OfInst(i);
    }
    case Family::kBranch:
      return BuildBranch(m->mn, l, Cond::kAl);
    case Family::kBranchReg:
      if (ops.size() != 1 || !IsReg(ops[0])) return ErrLine("br operands");
      i.rn = ops[0].reg;
      return AsmStmt::OfInst(i);
    case Family::kRet:
      i.rn = ops.empty() ? Reg::X(30) : ops[0].reg;
      return AsmStmt::OfInst(i);
    case Family::kFp3:
      return BuildFp2(m->mn, l);
    case Family::kFsqrt:
      if (ops.size() != 2 || !IsVReg(ops[0]) || !IsVReg(ops[1])) {
        return ErrLine("fsqrt operands");
      }
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      return AsmStmt::OfInst(i);
    case Family::kFmadd:
      if (ops.size() != 4) return ErrLine("fmadd operands");
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.vn = ops[1].vreg;
      i.vm = ops[2].vreg;
      i.va = ops[3].vreg;
      return AsmStmt::OfInst(i);
    case Family::kFcmp:
      if (ops.size() != 2 || !IsVReg(ops[0]) || !IsVReg(ops[1])) {
        return ErrLine("fcmp operands");
      }
      i.fsize = ops[0].fsize;
      i.vn = ops[0].vreg;
      i.vm = ops[1].vreg;
      return AsmStmt::OfInst(i);
    case Family::kScvtf:
      if (ops.size() != 2 || !IsVReg(ops[0]) || !IsReg(ops[1])) {
        return ErrLine("scvtf operands");
      }
      i.fsize = ops[0].fsize;
      i.vd = ops[0].vreg;
      i.rn = ops[1].reg;
      i.width = ops[1].reg_width;
      return AsmStmt::OfInst(i);
    case Family::kFcvtzs:
      if (ops.size() != 2 || !IsReg(ops[0]) || !IsVReg(ops[1])) {
        return ErrLine("fcvtzs operands");
      }
      i.fsize = ops[1].fsize;
      i.vn = ops[1].vreg;
      i.rd = ops[0].reg;
      i.width = ops[0].reg_width;
      return AsmStmt::OfInst(i);
    case Family::kFmov:
      if (ops.size() != 2) return ErrLine("fmov operands");
      if (IsVReg(ops[0]) && IsVReg(ops[1])) {
        i.fsize = ops[0].fsize;
        i.vd = ops[0].vreg;
        i.vn = ops[1].vreg;
      } else if (IsReg(ops[0]) && IsVReg(ops[1])) {
        i.rd = ops[0].reg;
        i.width = ops[0].reg_width;
        i.vn = ops[1].vreg;
        i.fsize = ops[1].fsize;
      } else if (IsVReg(ops[0]) && IsReg(ops[1])) {
        i.vd = ops[0].vreg;
        i.fsize = ops[0].fsize;
        i.rn = ops[1].reg;
        i.width = ops[1].reg_width;
      } else {
        return ErrLine("fmov operand kinds");
      }
      return AsmStmt::OfInst(i);
    case Family::kNop:
      return AsmStmt::OfInst(i);
    case Family::kImm16:
      i.imm = (ops.size() == 1 && IsImm(ops[0])) ? ops[0].imm : 0;
      return AsmStmt::OfInst(i);
    case Family::kRtcall:
    case Family::kHostcall: {
      const bool rtcall = m->family == Family::kRtcall;
      if (ops.size() != 1 || !IsImm(ops[0])) {
        return ErrLine(rtcall ? "rtcall #n" : "hostcall #i");
      }
      AsmStmt s;
      s.kind = rtcall ? AsmStmt::Kind::kRtcall : AsmStmt::Kind::kHostcall;
      s.inst.imm = ops[0].imm;
      return s;
    }
  }
  return ErrLine("unknown mnemonic: " + Lower(l.mnemonic));
}

Result<AsmStmt> BuildDirective(std::string_view raw_name,
                               std::string_view rest) {
  std::array<char, 24> buf;  // the longest directive is ".cfi_def_cfa_offset"
  const std::string_view name = LowerInto(raw_name, &buf);
  Directive d;
  if (name == ".text") {
    d.kind = Directive::Kind::kSection;
    d.section = Section::kText;
  } else if (name == ".data") {
    d.kind = Directive::Kind::kSection;
    d.section = Section::kData;
  } else if (name == ".rodata" || name == ".section") {
    d.kind = Directive::Kind::kSection;
    // `.section .rodata` etc.
    const std::string arg = Lower(Trim(rest));
    if (name == ".rodata" || arg.find("rodata") != std::string::npos) {
      d.section = Section::kRodata;
    } else if (arg.find("bss") != std::string::npos) {
      d.section = Section::kBss;
    } else if (arg.find("data") != std::string::npos) {
      d.section = Section::kData;
    } else {
      d.section = Section::kText;
    }
  } else if (name == ".bss") {
    d.kind = Directive::Kind::kSection;
    d.section = Section::kBss;
  } else if (name == ".globl" || name == ".global") {
    d.kind = Directive::Kind::kGlobl;
    d.text = std::string(Trim(rest));
  } else if (name == ".balign" || name == ".align" || name == ".p2align") {
    d.kind = Directive::Kind::kBalign;
    auto n = ParseNumber(Trim(rest));
    if (!n || *n <= 0) return Error{"bad alignment"};
    // .p2align/.align take a power, .balign takes bytes.
    d.values.push_back(name == ".balign" ? *n : (int64_t{1} << *n));
  } else if (name == ".byte" || name == ".word" || name == ".quad" ||
             name == ".xword") {
    d.kind = name == ".byte" ? Directive::Kind::kByte
                             : (name == ".word" ? Directive::Kind::kWord
                                                : Directive::Kind::kQuad);
    ForEachOperand(rest, [&d](std::string_view tok) {
      if (auto v = ParseNumber(tok)) {
        d.values.push_back(*v);
        d.syms.emplace_back();
      } else {
        d.values.push_back(0);
        d.syms.emplace_back(tok);
      }
      return true;
    });
  } else if (name == ".asciz" || name == ".string") {
    d.kind = Directive::Kind::kAsciz;
    auto t = Trim(rest);
    if (t.size() < 2 || t.front() != '"' || t.back() != '"') {
      return Error{"bad string literal"};
    }
    std::string out;
    for (size_t k = 1; k + 1 < t.size(); ++k) {
      if (t[k] == '\\' && k + 2 < t.size()) {
        ++k;
        switch (t[k]) {
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case '0': out.push_back('\0'); break;
          case '\\': out.push_back('\\'); break;
          case '"': out.push_back('"'); break;
          default: out.push_back(t[k]);
        }
      } else {
        out.push_back(t[k]);
      }
    }
    d.text = std::move(out);
  } else if (name == ".zero" || name == ".space" || name == ".skip") {
    d.kind = Directive::Kind::kZero;
    auto n = ParseNumber(Trim(rest));
    if (!n || *n < 0) return Error{"bad .zero size"};
    d.values.push_back(*n);
  } else if (name == ".type" || name == ".size" || name == ".file" ||
             name == ".ident" || name == ".arch" || name == ".cfi_startproc" ||
             name == ".cfi_endproc" || name == ".cfi_def_cfa_offset" ||
             name == ".cfi_offset" || name == ".cfi_restore") {
    // Metadata we can safely ignore; represent as a no-op .balign 1.
    d.kind = Directive::Kind::kBalign;
    d.values.push_back(1);
  } else {
    return Error{"unknown directive: " + Lower(raw_name)};
  }
  AsmStmt s;
  s.kind = AsmStmt::Kind::kDirective;
  s.dir = std::move(d);
  return s;
}

}  // namespace

Result<AsmStmt> ParseInst(std::string_view line) {
  ParsedLine l;
  if (auto st = Tokenize(line, &l); !st.ok()) return Error{st.error()};
  return BuildInst(l);
}

Result<AsmFile> Parse(std::string_view source) {
  AsmFile file;
  file.stmts.reserve(
      static_cast<size_t>(std::count(source.begin(), source.end(), '\n')) +
      1);
  int lineno = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    const auto nl = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, nl == std::string_view::npos ? source.size() - pos : nl - pos);
    pos = nl == std::string_view::npos ? source.size() + 1 : nl + 1;
    ++lineno;
    // Strip // comments.
    if (const auto c = line.find("//"); c != std::string_view::npos) {
      line = line.substr(0, c);
    }
    line = Trim(line);
    if (line.empty()) continue;
    // Labels (possibly several on a line, then an optional statement).
    while (true) {
      size_t k = 0;
      while (k < line.size() && IsIdentChar(line[k])) ++k;
      if (k > 0 && k < line.size() && line[k] == ':') {
        AsmStmt s = AsmStmt::Label(std::string(line.substr(0, k)));
        s.line = lineno;
        file.stmts.push_back(std::move(s));
        line = Trim(line.substr(k + 1));
        if (line.empty()) break;
        continue;
      }
      break;
    }
    if (line.empty()) continue;
    if (line.front() == '.') {
      const auto sp = line.find_first_of(" \t");
      const std::string_view name =
          sp == std::string_view::npos ? line : line.substr(0, sp);
      const std::string_view rest =
          sp == std::string_view::npos ? std::string_view{} : line.substr(sp);
      auto s = BuildDirective(name, rest);
      if (!s) {
        return Error{"line " + std::to_string(lineno) + ": " + s.error()};
      }
      s->line = lineno;
      file.stmts.push_back(*std::move(s));
      continue;
    }
    auto s = ParseInst(line);
    if (!s) {
      return Error{"line " + std::to_string(lineno) + ": " + s.error() +
                   " in `" + std::string(line) + "`"};
    }
    s->line = lineno;
    file.stmts.push_back(*std::move(s));
  }
  return file;
}

}  // namespace lfi::asmtext
