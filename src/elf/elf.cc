#include "elf/elf.h"

#include <cstring>

namespace lfi::elf {

namespace {

// ELF constants we need (no <elf.h> dependency so the format is explicit).
constexpr uint8_t kMagic[4] = {0x7f, 'E', 'L', 'F'};
constexpr uint8_t kClass64 = 2;
constexpr uint8_t kDataLE = 1;
constexpr uint16_t kTypeExec = 2;
constexpr uint16_t kMachineAarch64 = 183;
constexpr uint32_t kPtLoad = 1;
constexpr uint32_t kPfX = 1, kPfW = 2, kPfR = 4;
constexpr size_t kEhdrSize = 64;
constexpr size_t kPhdrSize = 56;

void Put16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(v & 0xff);
  out->push_back(v >> 8);
}
void Put32(std::vector<uint8_t>* out, uint32_t v) {
  for (int k = 0; k < 4; ++k) out->push_back((v >> (8 * k)) & 0xff);
}
void Put64(std::vector<uint8_t>* out, uint64_t v) {
  for (int k = 0; k < 8; ++k) out->push_back((v >> (8 * k)) & 0xff);
}

uint16_t Get16(std::span<const uint8_t> b, size_t off) {
  return static_cast<uint16_t>(b[off] | (b[off + 1] << 8));
}
uint32_t Get32(std::span<const uint8_t> b, size_t off) {
  return uint32_t{b[off]} | (uint32_t{b[off + 1]} << 8) |
         (uint32_t{b[off + 2]} << 16) | (uint32_t{b[off + 3]} << 24);
}
uint64_t Get64(std::span<const uint8_t> b, size_t off) {
  uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= uint64_t{b[off + k]} << (8 * k);
  return v;
}

}  // namespace

std::vector<uint8_t> Write(const ElfView& image) {
  const size_t phnum = image.segments.size();
  const size_t header_bytes = kEhdrSize + phnum * kPhdrSize;
  size_t file_bytes = header_bytes;
  for (const auto& seg : image.segments) file_bytes += seg.data.size();

  std::vector<uint8_t> out;
  out.reserve(file_bytes);
  // ELF header. (Inserting kMagic as a range here draws a spurious GCC 12
  // -Wstringop-overflow warning once the buffer is reserved.)
  for (uint8_t b : kMagic) out.push_back(b);
  out.push_back(kClass64);
  out.push_back(kDataLE);
  out.push_back(1);  // EV_CURRENT
  while (out.size() < 16) out.push_back(0);
  Put16(&out, kTypeExec);
  Put16(&out, kMachineAarch64);
  Put32(&out, 1);                 // version
  Put64(&out, image.entry);       // e_entry
  Put64(&out, kEhdrSize);         // e_phoff
  Put64(&out, 0);                 // e_shoff
  Put32(&out, 0);                 // e_flags
  Put16(&out, kEhdrSize);         // e_ehsize
  Put16(&out, kPhdrSize);         // e_phentsize
  Put16(&out, static_cast<uint16_t>(phnum));
  Put16(&out, 0);                 // e_shentsize
  Put16(&out, 0);                 // e_shnum
  Put16(&out, 0);                 // e_shstrndx

  // Program headers; file contents follow the header block contiguously.
  uint64_t offset = header_bytes;
  for (const auto& seg : image.segments) {
    Put32(&out, kPtLoad);
    uint32_t flags = 0;
    if (seg.read) flags |= kPfR;
    if (seg.write) flags |= kPfW;
    if (seg.exec) flags |= kPfX;
    Put32(&out, flags);
    Put64(&out, offset);            // p_offset
    Put64(&out, seg.vaddr);         // p_vaddr
    Put64(&out, seg.vaddr);         // p_paddr
    Put64(&out, seg.data.size());   // p_filesz
    Put64(&out, seg.memsz);         // p_memsz
    Put64(&out, 16384);             // p_align
    offset += seg.data.size();
  }
  // One memcpy per segment into the reserved tail.
  for (const auto& seg : image.segments) {
    out.insert(out.end(), seg.data.begin(), seg.data.end());
  }
  return out;
}

std::vector<uint8_t> Write(const ElfImage& image) {
  return Write(ViewOf(image));
}

Result<ElfView> ReadView(std::span<const uint8_t> bytes) {
  if (bytes.size() < kEhdrSize) return Error{"elf: truncated header"};
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return Error{"elf: bad magic"};
  }
  if (bytes[4] != kClass64 || bytes[5] != kDataLE) {
    return Error{"elf: not ELF64 little-endian"};
  }
  if (Get16(bytes, 18) != kMachineAarch64) {
    return Error{"elf: not an aarch64 executable"};
  }
  ElfView view;
  view.entry = Get64(bytes, 24);
  const uint64_t phoff = Get64(bytes, 32);
  const uint16_t phentsize = Get16(bytes, 54);
  const uint16_t phnum = Get16(bytes, 56);
  if (phentsize != kPhdrSize) return Error{"elf: bad phentsize"};
  if (phnum > 64) return Error{"elf: too many program headers"};
  for (uint16_t k = 0; k < phnum; ++k) {
    const uint64_t off = phoff + uint64_t{k} * kPhdrSize;
    if (off + kPhdrSize > bytes.size()) {
      return Error{"elf: program header out of bounds"};
    }
    if (Get32(bytes, off) != kPtLoad) continue;
    SegmentView seg;
    const uint32_t flags = Get32(bytes, off + 4);
    seg.read = flags & kPfR;
    seg.write = flags & kPfW;
    seg.exec = flags & kPfX;
    const uint64_t foff = Get64(bytes, off + 8);
    seg.vaddr = Get64(bytes, off + 16);
    const uint64_t filesz = Get64(bytes, off + 32);
    seg.memsz = Get64(bytes, off + 40);
    if (filesz > bytes.size() || foff > bytes.size() - filesz) {
      return Error{"elf: segment data out of bounds"};
    }
    if (seg.memsz < filesz) return Error{"elf: memsz < filesz"};
    if (seg.memsz > (uint64_t{1} << 32)) {
      return Error{"elf: segment larger than a sandbox"};
    }
    seg.data = bytes.subspan(foff, filesz);
    view.segments.push_back(seg);
  }
  return view;
}

Result<ElfImage> Read(std::span<const uint8_t> bytes) {
  auto view = ReadView(bytes);
  if (!view) return Error{view.error()};
  ElfImage img;
  img.entry = view->entry;
  img.segments.reserve(view->segments.size());
  for (const SegmentView& v : view->segments) {
    img.segments.push_back({v.vaddr, {v.data.begin(), v.data.end()}, v.memsz,
                            v.read, v.write, v.exec});
  }
  return img;
}

ElfView ViewOf(const ElfImage& image) {
  ElfView view;
  view.entry = image.entry;
  view.segments.reserve(image.segments.size());
  for (const Segment& s : image.segments) {
    view.segments.push_back({s.vaddr, s.data, s.memsz, s.read, s.write,
                             s.exec});
  }
  return view;
}

ElfView FromAssembled(const asmtext::Image& a) {
  ElfView img;
  img.entry = a.entry;
  if (!a.text.empty()) {
    img.segments.push_back(
        {a.text_addr, a.text, a.text.size(), true, false, true});
  }
  if (!a.rodata.empty()) {
    img.segments.push_back(
        {a.rodata_addr, a.rodata, a.rodata.size(), true, false, false});
  }
  if (!a.data.empty() || a.bss_size > 0) {
    SegmentView d;
    d.vaddr = a.data.empty() ? a.bss_addr : a.data_addr;
    d.data = a.data;
    // data and bss are contiguous (bss_addr >= data end), so one RW
    // segment spans both.
    const uint64_t end = a.bss_addr + a.bss_size;
    d.memsz = end > d.vaddr ? end - d.vaddr : d.data.size();
    if (d.memsz < d.data.size()) d.memsz = d.data.size();
    d.write = true;
    img.segments.push_back(d);
  }
  return img;
}

}  // namespace lfi::elf
