// Snapshot instantiation benchmarks (docs/SNAPSHOTS.md).
//
//   elf-load        cold instantiation: parse + verify + zero + copy every
//                   page of the image (the modeled per-page load cost)
//   snapshot-spawn  warm instantiation from a captured image: COW page
//                   install only, nothing copied
//   restart-restore supervisor restart via snapshot restore: only pages
//                   the crashed run actually dirtied are re-installed
//
// Every `.cycles` figure, `snapshot.elf-load.cycles` included, is a
// MODELED cost (RuntimeConfig's instantiation cost model), not a
// host-time measurement. A restart is compared against what replacing the
// crashed sandbox with a cold load would cost.
//
// The cold build of the same image is also MEASURED on the host clock:
// the median wall time of asmtext::Parse, asmtext::Assemble, elf::Write
// (of FromAssembled) and Runtime::Load (ELF read, verify, snapshot build,
// page install) over kColdReps repetitions, reported as
// `snapshot.elf-load.{parse,assemble,elf-write}.host_ns` and
// `snapshot.elf-load.host_ns`. They depend on the host, so they are
// report-only: only `.cycles`/`.bytes`/`.exact` metrics gate.
//
// Gates (checked here and in BENCH_BASELINE.json): snapshot spawn >= 10x
// cheaper than ELF load; snapshot restart >= 5x cheaper than ELF load.

#include <algorithm>

#include "harness.h"

namespace lfi::bench {
namespace {

constexpr int kColdReps = 31;

// Hand-guarded build (the guard-region fault must survive to execution).
Built BuildRaw(const std::string& src) {
  Built b;
  auto file = asmtext::Parse(src);
  if (!file) {
    b.error = file.error();
    return b;
  }
  asmtext::LayoutSpec spec;
  spec.text_offset = runtime::kProgramStart;
  auto img = asmtext::Assemble(*file, spec);
  if (!img) {
    b.error = img.error();
    return b;
  }
  b.text_bytes = img->text.size();
  b.elf = elf::Write(elf::FromAssembled(*img));
  b.file_bytes = b.elf.size();
  b.ok = true;
  return b;
}

// A service-sized image (~1MiB of data, 64+ pages) that dirties one data
// page and then faults — the shape that makes restart interesting: the
// image is large, the delta is small.
std::string ServiceProg() {
  return R"(
    adrp x1, table
    add x1, x1, :lo12:table
    add x18, x21, w1, uxtw
    mov x2, #1
    str x2, [x18]           // dirty one data page
    movz x1, #0x4000
    add x18, x21, w1, uxtw
    ldr x0, [x18]           // guard-region fault
  .data
  table:
    .zero 1048576
  )";
}

// Median host wall time, in ns, of each cold-build stage of `src`.
struct ColdBuildNs {
  double parse = 0, assemble = 0, elf_write = 0, load = 0;
};

Result<ColdBuildNs> MeasureColdBuild(const std::string& src,
                                     const runtime::RuntimeConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  auto ns = [](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
  };
  // One long-lived runtime takes every load, as a cold-serving host's does.
  runtime::Runtime rt(cfg);
  std::vector<double> parse, assemble, elf_write, load;
  for (int rep = 0; rep < kColdReps; ++rep) {
    auto t = Clock::now();
    auto file = asmtext::Parse(src);
    parse.push_back(ns(t));
    if (!file) return Error{file.error()};

    asmtext::LayoutSpec spec;
    spec.text_offset = runtime::kProgramStart;
    t = Clock::now();
    auto img = asmtext::Assemble(*file, spec);
    assemble.push_back(ns(t));
    if (!img) return Error{img.error()};

    t = Clock::now();
    const std::vector<uint8_t> bytes = elf::Write(elf::FromAssembled(*img));
    elf_write.push_back(ns(t));

    t = Clock::now();
    auto pid = rt.Load({bytes.data(), bytes.size()});
    load.push_back(ns(t));
    if (!pid) return Error{pid.error()};
  }
  auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  return ColdBuildNs{median(parse), median(assemble), median(elf_write),
                     median(load)};
}

// Runs the service program under the restart policy until `budget`
// restarts are spent; returns the modeled cost of the last restore.
Result<uint64_t> RestoreCycles(const Built& b, int budget) {
  runtime::RuntimeConfig cfg;
  cfg.core = arch::AppleM1LikeParams();
  runtime::Runtime rt(cfg);
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) return Error{pid.error()};
  runtime::SupervisorPolicy pol;
  pol.on_fault = runtime::FaultAction::kRestart;
  pol.restart_budget = static_cast<uint32_t>(budget);
  pol.restart_backoff_base_cycles = 0;
  rt.set_policy(*pid, pol);
  rt.RunUntilIdle(uint64_t{200} * 1000 * 1000);
  if (rt.proc(*pid)->restarts != static_cast<uint32_t>(budget)) {
    return Error{"restart budget not consumed"};
  }
  return rt.last_instantiation().cycles;
}

}  // namespace
}  // namespace lfi::bench

int main(int argc, char** argv) {
  using namespace lfi::bench;
  JsonReport report = JsonReport::FromArgs(argc, argv);
  const lfi::arch::CoreParams core = lfi::arch::AppleM1LikeParams();

  const Built b = BuildRaw(ServiceProg());
  if (!b.ok) {
    std::fprintf(stderr, "error: build: %s\n", b.error.c_str());
    return 1;
  }

  // ---- Instantiation: ELF load vs snapshot spawn -------------------------
  lfi::runtime::RuntimeConfig cfg;
  cfg.core = core;
  lfi::runtime::Runtime rt(cfg);
  auto pid = rt.Load({b.elf.data(), b.elf.size()});
  if (!pid.ok()) {
    std::fprintf(stderr, "error: load: %s\n", pid.error().c_str());
    return 1;
  }
  const double load_cycles = static_cast<double>(rt.last_instantiation().cycles);
  const double image_pages = static_cast<double>(rt.last_instantiation().pages);

  auto cap = rt.CaptureSnapshot(*pid);
  if (!cap.ok()) {
    std::fprintf(stderr, "error: capture: %s\n", cap.error().c_str());
    return 1;
  }
  auto snap =
      std::make_shared<lfi::snapshot::Snapshot>(*std::move(cap));
  auto spawned = rt.SpawnFromSnapshot(snap, /*start=*/false);
  if (!spawned.ok()) {
    std::fprintf(stderr, "error: spawn: %s\n", spawned.error().c_str());
    return 1;
  }
  const double spawn_cycles =
      static_cast<double>(rt.last_instantiation().cycles);
  const double spawn_speedup = load_cycles / spawn_cycles;

  // ---- Restart: snapshot restore vs a cold reload ------------------------
  const auto restore = RestoreCycles(b, /*budget=*/100);
  if (!restore.ok()) {
    std::fprintf(stderr, "error: restart loop: %s\n",
                 restore.error().c_str());
    return 1;
  }
  const double restore_cycles = static_cast<double>(*restore);
  const double restart_speedup = load_cycles / restore_cycles;

  // ---- Cold build on the host clock (measured, report-only) --------------
  const auto cold = MeasureColdBuild(ServiceProg(), cfg);
  if (!cold.ok()) {
    std::fprintf(stderr, "error: cold build: %s\n", cold.error().c_str());
    return 1;
  }

  std::printf("Snapshot instantiation (%s, simulated cycles; image %.0f "
              "pages)\n",
              core.name.c_str(), image_pages);
  std::printf("%-18s %12s %10s\n", "path", "cycles", "speedup");
  std::printf("%-18s %12.1f %10s\n", "elf-load", load_cycles, "1.0x");
  std::printf("%-18s %12.1f %9.1fx\n", "snapshot-spawn", spawn_cycles,
              spawn_speedup);
  std::printf("%-18s %12.1f %9.1fx\n", "restart-restore", restore_cycles,
              restart_speedup);

  std::printf("\nCold build of the same image (measured host time, median "
              "of %d)\n", kColdReps);
  std::printf("%-18s %12.0f ns\n", "parse", cold->parse);
  std::printf("%-18s %12.0f ns\n", "assemble", cold->assemble);
  std::printf("%-18s %12.0f ns\n", "elf-write", cold->elf_write);
  std::printf("%-18s %12.0f ns\n", "Runtime::Load", cold->load);

  report.Add("snapshot.elf-load.cycles", load_cycles);
  report.Add("snapshot.elf-load.parse.host_ns", cold->parse);
  report.Add("snapshot.elf-load.assemble.host_ns", cold->assemble);
  report.Add("snapshot.elf-load.elf-write.host_ns", cold->elf_write);
  report.Add("snapshot.elf-load.host_ns", cold->load);
  report.Add("snapshot.spawn.cycles", spawn_cycles);
  report.Add("snapshot.spawn.speedup", spawn_speedup);
  report.Add("snapshot.restart-restore.cycles", restore_cycles);
  report.Add("snapshot.restart.speedup", restart_speedup);
  if (!report.Write()) return 1;

  // Self-gating: the headline claims of docs/SNAPSHOTS.md.
  if (spawn_speedup < 10.0) {
    std::fprintf(stderr, "FAIL: snapshot spawn only %.1fx cheaper than ELF "
                 "load (need >= 10x)\n", spawn_speedup);
    return 1;
  }
  if (restart_speedup < 5.0) {
    std::fprintf(stderr, "FAIL: snapshot restart only %.1fx cheaper than "
                 "ELF load (need >= 5x)\n", restart_speedup);
    return 1;
  }
  return 0;
}
