// Helpers shared by the workloads: image building, the runtime
// configuration every workload uses, and process memory figures.

#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <fstream>

#include "asmtext/assemble.h"
#include "asmtext/parser.h"
#include "bench.h"
#include "elf/elf.h"
#include "rewriter/rewriter.h"

namespace perfbench {

std::string BuildElf(const std::string& src, bool guards,
                     std::vector<uint8_t>* elf) {
  auto file = lfi::asmtext::Parse(src);
  if (!file.ok()) return "parse: " + file.error();
  lfi::rewriter::RewriteOptions opts;
  opts.level = lfi::rewriter::OptLevel::kO2;
  opts.insert_guards = guards;
  auto rw = lfi::rewriter::Rewrite(*file, opts);
  if (!rw.ok()) return "rewrite: " + rw.error();
  lfi::asmtext::LayoutSpec spec;
  spec.text_offset = lfi::runtime::kProgramStart;
  auto img = lfi::asmtext::Assemble(*rw, spec);
  if (!img.ok()) return "assemble: " + img.error();
  *elf = lfi::elf::Write(lfi::elf::FromAssembled(*img));
  return "";
}

lfi::runtime::RuntimeConfig BenchConfig() {
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = lfi::arch::AppleM1LikeParams();  // lfi-run's default core
  return cfg;
}

namespace {

double ReadStatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::atof(line.c_str() + n);
  }
  return 0;
}

}  // namespace

double PeakRssMb() { return ReadStatusKb("VmHWM:") * 1024 / 1e6; }
double CurrentRssMb() { return ReadStatusKb("VmRSS:") * 1024 / 1e6; }
uint64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

}  // namespace perfbench
