// Request handler for the serving soaks: a short spin, then "ok\n".
.text
.globl _start
_start:
  movz x19, #2000
loop:
  sub x19, x19, #1
  cbnz x19, loop
  adr x1, msg
  mov w0, #1
  mov w2, #3
  rtcall #1
  mov w0, #0
  rtcall #0
.data
msg:
  .asciz "ok\n"
