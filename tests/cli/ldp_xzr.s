// ldp with xzr as its second destination. The verifier accepts it; the
// emulator must discard the second load without touching anything outside
// its scoreboard (the ASan build flags a stray write).
.text
.globl _start
_start:
  sub sp, sp, #16
  stp x0, x1, [sp]
  ldp x0, xzr, [sp]
  add sp, sp, #16
  rtcall #0
