// Fault containment and recovery policies (the robustness layer on top of
// Section 5.3's runtime).
//
// Today a CpuFault flows straight into KillProc. The supervisor makes that
// path policy-driven, per sandbox:
//
//   kill     terminate the sandbox (previous behavior; always the fallback)
//   signal   deliver a Unix-style signal (SIGSEGV/SIGILL/SIGBUS) to a
//            handler the sandbox registered via the sigaction runtime call;
//            a fault while the handler runs (double fault) kills
//   restart  keep the proc's pid and 4GiB slot and roll it back to its
//            post-instantiation snapshot, with capped exponential backoff,
//            up to a budget
//
// The signal ABI: on delivery the supervisor pushes a 320-byte frame onto
// the sandbox stack (16-byte aligned, below sp), then enters the handler
// with x0 = signo, x1 = frame address, sp = frame address. The frame is
//
//   +0    magic   "LFISIGFR" (0x4C46495349474652)
//   +8    cookie  per-delivery nonce; checked by sigreturn so a sandbox
//                 cannot forge or replay a frame
//   +16   signo
//   +24   fault address (data faults) or 0
//   +32   interrupted pc   (writable: handlers may redirect the resume)
//   +40   interrupted sp
//   +48   nzcv (bits 31..28)
//   +56   x0..x30 (31 * 8 bytes)
//
// The handler must leave via the sigreturn runtime call with x0 = frame
// address; the supervisor validates magic + cookie + address, restores the
// frame's register state (re-canonicalizing every reserved register, so a
// tampered frame still cannot escape the slot), and resumes. Any
// validation failure kills the sandbox. Vector registers are not saved:
// handlers that use them clobber the interrupted context's.
//
// Resource limits (graceful degradation, not kills — except the cpu
// quota, which is a watchdog): see ResourceLimits.
#ifndef LFI_RUNTIME_SUPERVISOR_H_
#define LFI_RUNTIME_SUPERVISOR_H_

#include <array>
#include <cstdint>
#include <string>

#include "emu/machine.h"

namespace lfi::runtime {

class Runtime;
struct Proc;

// What to do when a sandbox faults.
enum class FaultAction : uint8_t { kKill, kSignal, kRestart };

// How a fault was ultimately resolved (recorded on the Proc; surfaced by
// lfi-run on nonzero exit).
enum class Disposition : uint8_t { kNone, kKilled, kSignaled, kRestarted };

const char* FaultActionName(FaultAction a);
const char* DispositionName(Disposition d);

// Unix-style signal numbers used by the delivery ABI.
inline constexpr int kSigIll = 4;    // kDecode, kIllegal
inline constexpr int kSigTrap = 5;   // brk debug trap
inline constexpr int kSigBus = 7;    // kPcAlign
inline constexpr int kSigKill = 9;   // generic runtime kill
inline constexpr int kSigSegv = 11;  // kMemory, kFetch
inline constexpr int kSigXcpu = 24;  // cpu-quota watchdog
inline constexpr int kSigSys = 31;   // bad runtime call
inline constexpr int kNumSignals = 32;

// Maps a fault kind to the signal it raises.
int FaultSignal(emu::CpuFault::Kind kind);

// Per-sandbox resource ceilings. 0 = unlimited. Every limit except the
// cpu quota degrades gracefully: the offending call returns an errno and
// the sandbox keeps running; no host-side allocation happens first.
struct ResourceLimits {
  uint64_t max_cpu_cycles = 0;    // watchdog: kill past this (SIGXCPU);
                                  // overshoot is at most one timeslice
  uint64_t max_heap_bytes = 0;    // brk above brk_start+N -> ENOMEM
  uint64_t max_mmap_bytes = 0;    // total live mmap bytes -> ENOMEM
  uint64_t max_fds = 0;           // fd-table size cap -> EMFILE
  uint64_t max_pipe_buffer_bytes = 0;  // per-pipe cap; full -> EAGAIN
                                       // instead of blocking
};

// Which limit fired (arg0 of the kLimitHit trace event).
enum class LimitKind : uint8_t { kCpu = 0, kHeap, kMmap, kFds, kPipeBuf };

// The per-sandbox policy. Applied at Load from RuntimeConfig's default,
// inherited across fork, overridable via Runtime::set_policy.
struct SupervisorPolicy {
  FaultAction on_fault = FaultAction::kKill;
  uint32_t restart_budget = 3;  // restarts before the policy degrades to kill
  uint64_t restart_backoff_base_cycles = 20000;     // doubles per restart
  uint64_t restart_backoff_cap_cycles = 10000000;   // backoff ceiling
  // Crash-loop decay: if the sandbox ran at least this many cycles since
  // its last restart, the restart count (and with it the backoff
  // exponent and the budget) resets before the next fault is judged. A
  // tenant that faults once a day is then indistinguishable from one
  // that never faulted, while a crash loop (short incarnations) still
  // burns through the budget. 0 disables the decay (legacy behavior:
  // budget and backoff only ever grow).
  uint64_t restart_reset_after_cycles = 1000000;
  ResourceLimits limits;
};

// Signal-delivery state carried by each Proc.
struct SignalState {
  std::array<uint64_t, kNumSignals> handlers{};  // canonical addr; 0 = none
  bool in_handler = false;
  uint64_t cookie = 0;      // expected by the next sigreturn
  uint64_t frame_addr = 0;  // canonical address of the live frame
  uint32_t delivered = 0;   // total deliveries (reporting)
};

// Signal-frame layout constants (documented in the file comment and
// docs/FAULTS.md; tests build frames from these).
inline constexpr uint64_t kSigFrameMagic = 0x4C46495349474652ull;
inline constexpr uint64_t kSigFrameBytes = 320;
inline constexpr uint64_t kSigOffMagic = 0;
inline constexpr uint64_t kSigOffCookie = 8;
inline constexpr uint64_t kSigOffSigno = 16;
inline constexpr uint64_t kSigOffFaultAddr = 24;
inline constexpr uint64_t kSigOffPc = 32;
inline constexpr uint64_t kSigOffSp = 40;
inline constexpr uint64_t kSigOffNzcv = 48;
inline constexpr uint64_t kSigOffRegs = 56;  // x0..x30

// The fault router. Owned by the Runtime; every CpuFault and limit check
// flows through here so policy application lives in one place.
class Supervisor {
 public:
  explicit Supervisor(Runtime* rt) : rt_(rt) {}

  // Applies p's policy to a fault. `injected` marks chaos-engine faults
  // (annotated in the kill detail). Returns what was done; on kKilled the
  // proc is a zombie afterwards.
  Disposition HandleFault(Proc* p, const emu::CpuFault& f, bool injected);

  // Watchdog: kills p (SIGXCPU) if its cycle quota is exhausted. Returns
  // true if it killed. Called by the scheduler after every timeslice, so
  // a runaway loop dies within one quantum of the quota.
  bool EnforceCpuQuota(Proc* p);

  // Runtime-call backends (dispatched from HandleRuntimeEntry).
  // sigaction(signo, handler): registers/clears a handler; returns 0 or
  // -EINVAL. handler must be 4-aligned; 0 clears.
  uint64_t SysSigaction(Proc* p, uint64_t signo, uint64_t handler);
  // sigreturn(frame): validates and restores the frame, or kills. The
  // proc's full register state (including pc and x0) is overwritten, so
  // the dispatcher must not write a return value afterwards.
  void SysSigreturn(Proc* p, uint64_t frame);

 private:
  bool DeliverSignal(Proc* p, const emu::CpuFault& f, int signo,
                     std::string* why_not);
  bool Restart(Proc* p);
  uint64_t NextCookie();

  Runtime* rt_;
  uint64_t cookie_state_ = 0x5eedc0de5eedc0deull;
};

}  // namespace lfi::runtime

#endif  // LFI_RUNTIME_SUPERVISOR_H_
