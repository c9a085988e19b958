// Minimal ELF64 (little-endian, AArch64) writer and reader.
//
// LFI executables travel as ordinary ELF files: the runtime's loader reads
// the program headers, verifies the executable segment with the static
// verifier, and maps each segment into the sandbox slot (Section 5.3).
// Virtual addresses in these files are sandbox-relative.
#ifndef LFI_ELF_ELF_H_
#define LFI_ELF_ELF_H_

#include <cstdint>
#include <span>
#include <vector>

#include "asmtext/assemble.h"
#include "support/result.h"

namespace lfi::elf {

// One loadable segment.
struct Segment {
  uint64_t vaddr = 0;
  std::vector<uint8_t> data;  // file contents
  uint64_t memsz = 0;         // >= data.size(); excess is zero-filled (bss)
  bool read = true, write = false, exec = false;
};

// A parsed executable.
struct ElfImage {
  uint64_t entry = 0;
  std::vector<Segment> segments;
};

// One loadable segment as a view over bytes owned elsewhere: the ELF
// file it was parsed from, or an ElfImage's segment.
struct SegmentView {
  uint64_t vaddr = 0;
  std::span<const uint8_t> data;  // file contents
  uint64_t memsz = 0;             // >= data.size()
  bool read = true, write = false, exec = false;
};

// An executable as segment views; valid while the viewed bytes live.
struct ElfView {
  uint64_t entry = 0;
  std::vector<SegmentView> segments;
};

// Serializes an image to ELF64 bytes.
std::vector<uint8_t> Write(const ElfImage& image);

// Parses an ELF64 executable's program headers into views over `bytes`,
// copying no segment data. Untrusted input: every offset is
// bounds-checked; never throws.
Result<ElfView> ReadView(std::span<const uint8_t> bytes);

// ReadView, then copies each segment into an owning image.
Result<ElfImage> Read(std::span<const uint8_t> bytes);

// Views of `image`'s segments.
ElfView ViewOf(const ElfImage& image);

// Converts an assembled program into loadable segments: text (R+X),
// rodata (R), data (RW), bss (RW, zero-filled).
ElfImage FromAssembled(const asmtext::Image& img);

}  // namespace lfi::elf

#endif  // LFI_ELF_ELF_H_
