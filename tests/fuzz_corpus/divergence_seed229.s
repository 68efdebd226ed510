; repro fuzz case — checkpoint 1: codegen registers differs — codegen=(24594, 8678, 257, 0, 56331, 34807, 17703, 22361, 64765, 38758, 10084, 58125, 36, 36985, 9990, 0) step=(24594, 8678, 1, 0, 56331, 34807, 17703, 22361, 64765, 38758, 10084, 29575, 36, 36985, 9990, 0)
; replay: repro fuzz --replay divergence_seed229.s
; seed: 0xE5
; sp: 0x21E6
; mem-seed: 0x11D53A99
; mpu-segb1: 0x600
; mpu-segb2: 0x900
; mpu-sam: 0x777
; mpu-ctl0: 0x1
; r4: 0xDC0B
; r5: 0x87F7
; r6: 0x6BD8
; r7: 0x5759
; r8: 0xFCFD
; r9: 0x9766
; r10: 0x2764
; r11: 0x401
; r12: 0x5991
; r13: 0x7821
; r14: 0x2706
; r15: 0x0
    .text
A0:
A1:
A2:
A3:
A4:
A5:
A6:
A7:
A8:
A9:
    JEQ A12
A10:
    MOV #0x9079, R13
    MOV.B @R13, R12
A11:
    SUBC R13, R11
A12:
    DADD #29673, R6
A13:
A14:
A15:
A16:
A17:
A18:
A19:
A20:
A21:
A22:
A23:
A24:
A25:
A26:
A27:
A28:
A29:
A30:
A31:
A32:
A33:
A34:
A35:
    MOV #1, &0x01F2
