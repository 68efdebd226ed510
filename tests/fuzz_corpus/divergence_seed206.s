; repro fuzz case — checkpoint 1: codegen registers differs — codegen=(24598, 8528, 1, 0, 39988, 29370, 52427, 37276, 32474, 24236, 44026, 34056, 17426, 25300, 49, 0) step=(24598, 8528, 1, 0, 39988, 29370, 1807, 37276, 32474, 24236, 44026, 34056, 17426, 25300, 50, 0)
; replay: repro fuzz --replay divergence_seed206.s
; seed: 0xCE
; sp: 0x2150
; mem-seed: 0x11B5F5B
; mpu-segb1: 0x600
; mpu-segb2: 0x1000
; mpu-sam: 0x9777
; mpu-ctl0: 0x1
; r4: 0x9C34
; r5: 0x72BA
; r6: 0x4154
; r7: 0x7038
; r8: 0x7EDA
; r9: 0x5EAC
; r10: 0xABFA
; r11: 0x8508
; r12: 0x4412
; r13: 0x62D4
; r14: 0x4585
; r15: 0x0
    .text
A0:
    MOV #0x919C, R7
    MOV 0(R7), R14
A1:
    JEQ A3
A2:
    ADDC #50619, R6
A3:
    DADD.B #255, R14
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
    MOV #1, &0x01F2
