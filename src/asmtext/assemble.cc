#include "asmtext/assemble.h"

#include <cstring>

#include "arch/encode.h"
#include "asmtext/printer.h"

namespace lfi::asmtext {

namespace {

using arch::Inst;
using arch::Mn;

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

// Size in bytes a directive contributes to its section. `addr` is the
// current offset, needed for alignment.
uint64_t DirectiveSize(const Directive& d, uint64_t addr) {
  switch (d.kind) {
    case Directive::Kind::kSection:
    case Directive::Kind::kGlobl:
      return 0;
    case Directive::Kind::kBalign:
      return AlignUp(addr, static_cast<uint64_t>(d.values.at(0))) - addr;
    case Directive::Kind::kByte:
      return d.values.size();
    case Directive::Kind::kWord:
      return d.values.size() * 4;
    case Directive::Kind::kQuad:
      return d.values.size() * 8;
    case Directive::Kind::kAsciz:
      return d.text.size() + 1;
    case Directive::Kind::kZero:
      return static_cast<uint64_t>(d.values.at(0));
  }
  return 0;
}

// Stores the low `bytes` bytes of `v` at `p`, little-endian.
void PutLE(uint8_t* p, uint64_t v, unsigned bytes) {
  for (unsigned k = 0; k < bytes; ++k) {
    p[k] = static_cast<uint8_t>(v >> (8 * k));
  }
}

}  // namespace

Result<Image> Assemble(const AsmFile& file, const LayoutSpec& spec) {
  // Pass 1: compute section sizes and label addresses (section-relative,
  // converted to absolute once section bases are known).
  struct LabelPos {
    Section section;
    uint64_t offset;
  };
  std::map<std::string, LabelPos> labels;
  uint64_t sizes[4] = {0, 0, 0, 0};
  Section cur = Section::kText;
  for (const auto& s : file.stmts) {
    auto& sz = sizes[static_cast<int>(cur)];
    switch (s.kind) {
      case AsmStmt::Kind::kLabel:
        if (labels.count(s.label)) {
          return Error{"assemble: duplicate label " + s.label};
        }
        labels[s.label] = {cur, sz};
        break;
      case AsmStmt::Kind::kDirective:
        if (s.dir.kind == Directive::Kind::kSection) {
          cur = s.dir.section;
        } else {
          if (cur == Section::kBss && s.dir.kind != Directive::Kind::kZero &&
              s.dir.kind != Directive::Kind::kBalign) {
            return Error{"assemble: initialized data in .bss"};
          }
          sz += DirectiveSize(s.dir, sz);
        }
        break;
      case AsmStmt::Kind::kRtcall:
        return Error{"assemble: unexpanded rtcall (run the rewriter first)"};
      case AsmStmt::Kind::kHostcall:
        return Error{"assemble: unexpanded hostcall (run the rewriter first)"};
      case AsmStmt::Kind::kInst:
        if (cur != Section::kText) {
          return Error{"assemble: instruction outside .text at line " +
                       std::to_string(s.line)};
        }
        sz += 4;
        break;
    }
  }

  Image img;
  img.text_addr = spec.text_offset;
  img.rodata_addr =
      AlignUp(img.text_addr + sizes[int(Section::kText)], spec.align);
  img.data_addr =
      AlignUp(img.rodata_addr + sizes[int(Section::kRodata)], spec.align);
  img.bss_addr =
      AlignUp(img.data_addr + sizes[int(Section::kData)], spec.align);
  img.bss_size = sizes[int(Section::kBss)];

  const uint64_t bases[4] = {img.text_addr, img.rodata_addr, img.data_addr,
                             img.bss_addr};
  for (auto& [name, pos] : labels) {
    img.symbols[name] = bases[static_cast<int>(pos.section)] + pos.offset;
  }
  auto resolve = [&](const std::string& sym) -> Result<uint64_t> {
    auto it = img.symbols.find(sym);
    if (it == img.symbols.end()) {
      return Error{"assemble: undefined symbol " + sym};
    }
    return it->second;
  };

  // Pass 2: emit bytes. Each section is sized once from pass 1 and
  // zero-filled by that one resize, so .zero and .balign padding are
  // already in place and every other statement stores at its offset.
  img.text.resize(sizes[int(Section::kText)]);
  img.rodata.resize(sizes[int(Section::kRodata)]);
  img.data.resize(sizes[int(Section::kData)]);
  cur = Section::kText;
  uint64_t offsets[4] = {0, 0, 0, 0};
  std::vector<uint8_t>* streams[4] = {&img.text, &img.rodata, &img.data,
                                      nullptr};
  for (const auto& s : file.stmts) {
    auto& off = offsets[static_cast<int>(cur)];
    std::vector<uint8_t>* out = streams[static_cast<int>(cur)];
    switch (s.kind) {
      case AsmStmt::Kind::kLabel:
        break;
      case AsmStmt::Kind::kDirective: {
        const Directive& d = s.dir;
        if (d.kind == Directive::Kind::kSection) {
          cur = d.section;
          break;
        }
        const uint64_t n = DirectiveSize(d, off);
        if (cur == Section::kBss) {
          off += n;
          break;
        }
        uint8_t* at = out->data() + off;
        switch (d.kind) {
          case Directive::Kind::kByte:
          case Directive::Kind::kWord:
          case Directive::Kind::kQuad: {
            const unsigned bytes = d.kind == Directive::Kind::kByte
                                       ? 1
                                       : d.kind == Directive::Kind::kWord ? 4
                                                                          : 8;
            for (size_t k = 0; k < d.values.size(); ++k) {
              uint64_t v = static_cast<uint64_t>(d.values[k]);
              if (!d.syms[k].empty()) {
                auto addr = resolve(d.syms[k]);
                if (!addr) return Error{addr.error()};
                v = *addr;
              }
              PutLE(at + k * bytes, v, bytes);
            }
            break;
          }
          case Directive::Kind::kAsciz:
            std::memcpy(at, d.text.data(), d.text.size());  // NUL already 0
            break;
          default:  // .zero / .balign: already zero
            break;
        }
        off += n;
        break;
      }
      case AsmStmt::Kind::kRtcall:
        return Error{"assemble: unexpanded rtcall"};
      case AsmStmt::Kind::kHostcall:
        return Error{"assemble: unexpanded hostcall"};
      case AsmStmt::Kind::kInst: {
        Inst inst = s.inst;
        const uint64_t addr = img.text_addr + off;
        if (s.reloc == Reloc::kBranch) {
          auto target = resolve(s.target);
          if (!target) return Error{target.error()};
          if (inst.mn == Mn::kAdrp) {
            inst.imm = static_cast<int64_t>((*target & ~uint64_t{0xfff}) -
                                            (addr & ~uint64_t{0xfff}));
          } else {
            inst.imm = static_cast<int64_t>(*target - addr);
          }
        } else if (s.reloc == Reloc::kLo12) {
          auto target = resolve(s.target);
          if (!target) return Error{target.error()};
          inst.imm = static_cast<int64_t>(*target & 0xfff);
        }
        auto word = arch::Encode(inst);
        if (!word) {
          return Error{"assemble: line " + std::to_string(s.line) + " `" +
                       PrintStmt(s) + "`: " + word.error()};
        }
        PutLE(out->data() + off, *word, 4);
        off += 4;
        break;
      }
    }
  }

  img.entry = img.symbols.count("_start") ? img.symbols["_start"]
                                          : img.text_addr;
  return img;
}

}  // namespace lfi::asmtext
