// Cross-layer integration properties exercised on the full workload
// corpus: printer/parser round-trips of rewritten programs, encoder/
// decoder agreement on whole binaries, and end-to-end text-format
// stability (rewrite -> print -> parse -> assemble == rewrite ->
// assemble).

#include <gtest/gtest.h>

#include "arch/decode.h"
#include "arch/encode.h"
#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "asmtext/printer.h"
#include "pipeline_util.h"
#include "rewriter/rewriter.h"
#include "workloads/workloads.h"

namespace lfi {
namespace workloads {
void PrintTo(const WorkloadInfo& w, std::ostream* os) { *os << w.name; }
}  // namespace workloads

namespace {

class CorpusTest : public ::testing::TestWithParam<workloads::WorkloadInfo> {
 protected:
  asmtext::AsmFile Rewritten() {
    auto file = asmtext::Parse(workloads::Generate(GetParam().name, 50000));
    EXPECT_TRUE(file.ok());
    auto rewritten = rewriter::Rewrite(*file, rewriter::RewriteOptions{});
    EXPECT_TRUE(rewritten.ok()) << rewritten.error();
    return rewritten.ok() ? *rewritten : asmtext::AsmFile{};
  }
};

TEST_P(CorpusTest, PrintParseRoundTripPreservesAssembledBytes) {
  // Printing the rewritten program and re-parsing it must assemble to
  // byte-identical text segments: the text format loses nothing. This is
  // the property that lets the rewriter live outside the compiler
  // (Section 5.1): assembly text is a complete interchange format.
  const asmtext::AsmFile prog = Rewritten();
  asmtext::LayoutSpec spec;
  auto direct = asmtext::Assemble(prog, spec);
  ASSERT_TRUE(direct.ok()) << direct.error();
  auto reparsed = asmtext::Parse(asmtext::Print(prog));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error();
  auto via_text = asmtext::Assemble(*reparsed, spec);
  ASSERT_TRUE(via_text.ok()) << via_text.error();
  EXPECT_EQ(direct->text, via_text->text);
  EXPECT_EQ(direct->data, via_text->data);
  EXPECT_EQ(direct->rodata, via_text->rodata);
  EXPECT_EQ(direct->entry, via_text->entry);
}

TEST_P(CorpusTest, AssembledTextDecodesAndReencodesIdentically) {
  // Every word of every rewritten binary must round-trip through the
  // decoder and encoder: the verifier (which sees decoded instructions)
  // and the hardware (which sees words) agree about the whole corpus.
  const asmtext::AsmFile prog = Rewritten();
  asmtext::LayoutSpec spec;
  auto img = asmtext::Assemble(prog, spec);
  ASSERT_TRUE(img.ok());
  ASSERT_EQ(img->text.size() % 4, 0u);
  for (size_t off = 0; off < img->text.size(); off += 4) {
    const uint32_t word =
        arch::ReadWordLE({img->text.data(), img->text.size()}, off);
    auto inst = arch::Decode(word);
    ASSERT_TRUE(inst.ok()) << "offset " << off << ": " << inst.error();
    auto re = arch::Encode(*inst);
    ASSERT_TRUE(re.ok()) << arch::MnName(*inst) << ": " << re.error();
    EXPECT_EQ(*re, word) << "offset " << off << " " << arch::MnName(*inst);
  }
}

TEST_P(CorpusTest, RewriteIsDeterministic) {
  const std::string src = workloads::Generate(GetParam().name, 50000);
  auto f1 = asmtext::Parse(src);
  auto f2 = asmtext::Parse(src);
  ASSERT_TRUE(f1.ok() && f2.ok());
  auto r1 = rewriter::Rewrite(*f1, rewriter::RewriteOptions{});
  auto r2 = rewriter::Rewrite(*f2, rewriter::RewriteOptions{});
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(asmtext::Print(*r1), asmtext::Print(*r2));
}

INSTANTIATE_TEST_SUITE_P(
    All, CorpusTest, ::testing::ValuesIn(workloads::AllWorkloads()),
    [](const ::testing::TestParamInfo<workloads::WorkloadInfo>& info) {
      std::string n = info.param.name;
      for (char& c : n) {
        if (c == '.') c = '_';
      }
      return n;
    });

TEST(Integration, ElfRoundTripOfRewrittenWorkload) {
  auto elf_bytes = test::BuildElf(workloads::Generate("505.mcf", 50000));
  ASSERT_TRUE(elf_bytes.ok());
  auto img = elf::Read({elf_bytes->data(), elf_bytes->size()});
  ASSERT_TRUE(img.ok()) << img.error();
  // Re-serialize and re-read: identical segment contents.
  auto bytes2 = elf::Write(*img);
  auto img2 = elf::Read({bytes2.data(), bytes2.size()});
  ASSERT_TRUE(img2.ok());
  ASSERT_EQ(img->segments.size(), img2->segments.size());
  for (size_t k = 0; k < img->segments.size(); ++k) {
    EXPECT_EQ(img->segments[k].data, img2->segments[k].data);
  }
}

}  // namespace
}  // namespace lfi
