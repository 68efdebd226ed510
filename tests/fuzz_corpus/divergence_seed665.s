; repro fuzz case — checkpoint 1: codegen registers differs — codegen=(24594, 8964, 0, 0, 10760, 48972, 29686, 64605, 36943, 10688, 56545, 33381, 21140, 26661, 12611, 0) step=(24594, 8964, 0, 0, 1769, 48972, 29686, 64605, 36943, 10688, 56545, 33381, 21140, 26662, 12611, 0)
; replay: repro fuzz --replay divergence_seed665.s
; seed: 0x299
; sp: 0x2304
; mem-seed: 0x1D07D61A
; mpu-segb1: 0x440
; mpu-segb2: 0x1000
; mpu-sam: 0xF777
; mpu-ctl0: 0x1
; r4: 0xE3CA
; r5: 0xBF4C
; r6: 0x73F6
; r7: 0xFC5D
; r8: 0x837C
; r9: 0x29C0
; r10: 0xDCE1
; r11: 0x8265
; r12: 0x5294
; r13: 0x6825
; r14: 0x3143
; r15: 0x0
    .text
A0:
    MOV #0x904F, R8
    MOV R4, 0(R8)
A1:
    JL A3
A2:
    SUB R10, R4
A3:
    DADD #0, R13
A4:
A5:
A6:
A7:
A8:
A9:
A10:
A11:
A12:
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
A36:
A37:
A38:
A39:
    MOV #1, &0x01F2
