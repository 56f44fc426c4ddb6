"""32-bit fixed-width instruction set: bit-exact encoder/decoder.

The ISA is the RV32I base subset below, with the standard encodings.
Instructions are always 32 bits and live at 4-byte-aligned addresses;
the word is the unit of encryption, so decode legality over random
words is what turns wrong-key execution into faults.

Formats (bit layout is normative for tests, see also docs/isa.md):

    R: funct7[31:25] rs2[24:20] rs1[19:15] funct3[14:12] rd[11:7] opcode[6:0]
    I: imm[11:0][31:20]         rs1[19:15] funct3[14:12] rd[11:7] opcode[6:0]
    S: imm[11:5][31:25] rs2[24:20] rs1[19:15] funct3[14:12] imm[4:0][11:7] opcode[6:0]
    B: imm[12|10:5][31:25] rs2[24:20] rs1[19:15] funct3[14:12] imm[4:1|11][11:7] opcode[6:0]
    U: imm[31:12][31:12]                                       rd[11:7] opcode[6:0]
    J: imm[20|10:1|11|19:12][31:12]                            rd[11:7] opcode[6:0]

Supported operations:

    opcode 0x33 (OP):     add sub and or xor slt     (funct7 0x00, sub 0x20)
    opcode 0x13 (OP-IMM): addi andi ori xori slti
    opcode 0x37 (LUI):    lui
    opcode 0x03 (LOAD):   lw                          (funct3 0x2)
    opcode 0x23 (STORE):  sw                          (funct3 0x2)
    opcode 0x63 (BRANCH): beq bne blt bge
    opcode 0x6F (JAL):    jal
    opcode 0x67 (JALR):   jalr                        (funct3 0x0)
    opcode 0x73 (SYSTEM): ecall (exact word 0x00000073; halt convention)

The all-zero and all-ones words are defined illegal so the two most
likely degenerate ciphertexts always fault.

Exact legal-word census (walked over the opcode/funct structure by
`exact_valid_decode_count`, cross-checked by Monte Carlo sampling):

    OP      6 (funct7, funct3) pairs x 2^15 free bits =    196,608
    OP-IMM  5 funct3 values          x 2^22           = 20,971,520
    LUI     all rd/imm20 free          2^25           = 33,554,432
    LOAD    1 funct3 value           x 2^22           =  4,194,304
    STORE   1 funct3 value           x 2^22           =  4,194,304
    BRANCH  4 funct3 values          x 2^22           = 16,777,216
    JAL     all rd/imm20 free          2^25           = 33,554,432
    JALR    1 funct3 value           x 2^22           =  4,194,304
    SYSTEM  the single ecall word                     =          1
    total                                             117,637,121

so the valid-decode probability of a uniformly random 32-bit word is
p = 117,637,121 / 2^32 ~= 0.0273895.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MASK32 = 0xFFFFFFFF
WORD_ALL_ZERO = 0x00000000
WORD_ALL_ONES = 0xFFFFFFFF

# DecodeError reasons.
UNKNOWN_OPCODE = "unknown-opcode"
RESERVED_FIELD = "reserved-field"
ILLEGAL_ALL_ZERO = "illegal-all-zero"
ILLEGAL_ALL_ONES = "illegal-all-ones"

OP = 0x33
OP_IMM = 0x13
LUI = 0x37
LOAD = 0x03
STORE = 0x23
BRANCH = 0x63
JAL = 0x6F
JALR = 0x67
SYSTEM = 0x73

ECALL_WORD = 0x00000073

# mnemonic -> (format, opcode, funct3, funct7); None where the format has no such field
ISA_TABLE: dict[str, tuple[str, int, int | None, int | None]] = {
    "add":  ("R", OP, 0x0, 0x00),
    "sub":  ("R", OP, 0x0, 0x20),
    "and":  ("R", OP, 0x7, 0x00),
    "or":   ("R", OP, 0x6, 0x00),
    "xor":  ("R", OP, 0x4, 0x00),
    "slt":  ("R", OP, 0x2, 0x00),
    "addi": ("I", OP_IMM, 0x0, None),
    "andi": ("I", OP_IMM, 0x7, None),
    "ori":  ("I", OP_IMM, 0x6, None),
    "xori": ("I", OP_IMM, 0x4, None),
    "slti": ("I", OP_IMM, 0x2, None),
    "lui":  ("U", LUI, None, None),
    "lw":   ("I", LOAD, 0x2, None),
    "sw":   ("S", STORE, 0x2, None),
    "beq":  ("B", BRANCH, 0x0, None),
    "bne":  ("B", BRANCH, 0x1, None),
    "blt":  ("B", BRANCH, 0x4, None),
    "bge":  ("B", BRANCH, 0x5, None),
    "jal":  ("J", JAL, None, None),
    "jalr": ("I", JALR, 0x0, None),
    "ecall": ("SYS", SYSTEM, 0x0, None),
}

MNEMONICS = tuple(ISA_TABLE)

_R_BY_KEY = {(f3, f7): m for m, (fmt, _, f3, f7) in ISA_TABLE.items() if fmt == "R"}
_I_ALU_BY_F3 = {f3: m for m, (fmt, op, f3, _) in ISA_TABLE.items()
                if fmt == "I" and op == OP_IMM}
_B_BY_F3 = {f3: m for m, (fmt, _, f3, _) in ISA_TABLE.items() if fmt == "B"}


@dataclass(frozen=True)
class Instruction:
    """One decoded operation; unused operand fields stay None."""

    op: str
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    imm: int | None = None

    def __str__(self) -> str:
        parts = [self.op]
        operands = []
        if self.rd is not None:
            operands.append(f"x{self.rd}")
        if self.rs1 is not None:
            operands.append(f"x{self.rs1}")
        if self.rs2 is not None:
            operands.append(f"x{self.rs2}")
        if self.imm is not None:
            operands.append(str(self.imm))
        return parts[0] + (" " + ", ".join(operands) if operands else "")


@dataclass(frozen=True)
class DecodeError:
    """Decode failure as a value: the word matched no legal encoding."""

    word: int
    reason: str


class EncodingError(ValueError):
    """Instruction operands violate the format's field ranges."""


def _check_reg(name: str, value: int | None) -> int:
    if value is None or not 0 <= value <= 31:
        raise EncodingError(f"{name} must be a register index 0..31, got {value}")
    return value


def _check_imm_signed(value: int | None, bits: int, what: str) -> int:
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if value is None or not lo <= value <= hi:
        raise EncodingError(f"{what} out of {bits}-bit signed range [{lo}, {hi}]: {value}")
    return value


def _check_offset(value: int | None, bits: int, what: str) -> int:
    # bits counts the encoded immediate incl. the implicit low zero bit
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 2
    if value is None or not lo <= value <= hi:
        raise EncodingError(f"{what} out of range [{lo}, {hi}]: {value}")
    if value % 2:
        # encodings carry no bit 0; misaligned targets fault at fetch instead
        raise EncodingError(f"{what} must be even, got {value}")
    return value


def sign_extend(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        return value - (1 << bits)
    return value


def encode(instr: Instruction) -> int:
    """Encode to the unique 32-bit word; raises EncodingError on bad operands."""
    if instr.op not in ISA_TABLE:
        raise EncodingError(f"unknown mnemonic {instr.op!r}")
    fmt, opcode, f3, f7 = ISA_TABLE[instr.op]

    if fmt == "R":
        rd = _check_reg("rd", instr.rd)
        rs1 = _check_reg("rs1", instr.rs1)
        rs2 = _check_reg("rs2", instr.rs2)
        return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode

    if fmt == "I":
        rd = _check_reg("rd", instr.rd)
        rs1 = _check_reg("rs1", instr.rs1)
        imm = _check_imm_signed(instr.imm, 12, f"{instr.op} immediate") & 0xFFF
        return (imm << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opcode

    if fmt == "S":
        rs1 = _check_reg("rs1", instr.rs1)
        rs2 = _check_reg("rs2", instr.rs2)
        imm = _check_imm_signed(instr.imm, 12, "store offset") & 0xFFF
        return (((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15) \
            | (f3 << 12) | ((imm & 0x1F) << 7) | opcode

    if fmt == "B":
        rs1 = _check_reg("rs1", instr.rs1)
        rs2 = _check_reg("rs2", instr.rs2)
        off = _check_offset(instr.imm, 13, "branch offset") & 0x1FFF
        return (((off >> 12) & 0x1) << 31) | (((off >> 5) & 0x3F) << 25) \
            | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
            | (((off >> 1) & 0xF) << 8) | (((off >> 11) & 0x1) << 7) | opcode

    if fmt == "U":
        rd = _check_reg("rd", instr.rd)
        imm = instr.imm
        if imm is None or not 0 <= imm <= 0xFFFFF:
            raise EncodingError(f"lui immediate out of 20-bit range: {imm}")
        return (imm << 12) | (rd << 7) | opcode

    if fmt == "J":
        rd = _check_reg("rd", instr.rd)
        off = _check_offset(instr.imm, 21, "jump offset") & 0x1FFFFF
        return (((off >> 20) & 0x1) << 31) | (((off >> 1) & 0x3FF) << 21) \
            | (((off >> 11) & 0x1) << 20) | (((off >> 12) & 0xFF) << 12) \
            | (rd << 7) | opcode

    # SYS: ecall carries no operands
    for field in (instr.rd, instr.rs1, instr.rs2, instr.imm):
        if field is not None:
            raise EncodingError("ecall takes no operands")
    return ECALL_WORD


def decode(word: int) -> Instruction | DecodeError:
    """Inverse of encode; returns a DecodeError value for illegal words."""
    word &= MASK32
    if word == WORD_ALL_ZERO:
        return DecodeError(word, ILLEGAL_ALL_ZERO)
    if word == WORD_ALL_ONES:
        return DecodeError(word, ILLEGAL_ALL_ONES)

    opcode = word & 0x7F
    f3 = (word >> 12) & 0x7
    rd = (word >> 7) & 0x1F
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F

    if opcode == OP:
        f7 = (word >> 25) & 0x7F
        op = _R_BY_KEY.get((f3, f7))
        if op is None:
            return DecodeError(word, RESERVED_FIELD)
        return Instruction(op, rd=rd, rs1=rs1, rs2=rs2)

    if opcode == OP_IMM:
        op = _I_ALU_BY_F3.get(f3)
        if op is None:
            return DecodeError(word, RESERVED_FIELD)
        return Instruction(op, rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))

    if opcode == LUI:
        return Instruction("lui", rd=rd, imm=word >> 12)

    if opcode == LOAD:
        if f3 != 0x2:
            return DecodeError(word, RESERVED_FIELD)
        return Instruction("lw", rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))

    if opcode == STORE:
        if f3 != 0x2:
            return DecodeError(word, RESERVED_FIELD)
        imm = ((word >> 25) << 5) | rd
        return Instruction("sw", rs1=rs1, rs2=rs2, imm=sign_extend(imm, 12))

    if opcode == BRANCH:
        op = _B_BY_F3.get(f3)
        if op is None:
            return DecodeError(word, RESERVED_FIELD)
        imm = (((word >> 31) & 0x1) << 12) | (((word >> 7) & 0x1) << 11) \
            | (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        return Instruction(op, rs1=rs1, rs2=rs2, imm=sign_extend(imm, 13))

    if opcode == JAL:
        imm = (((word >> 31) & 0x1) << 20) | (((word >> 12) & 0xFF) << 12) \
            | (((word >> 20) & 0x1) << 11) | (((word >> 21) & 0x3FF) << 1)
        return Instruction("jal", rd=rd, imm=sign_extend(imm, 21))

    if opcode == JALR:
        if f3 != 0x0:
            return DecodeError(word, RESERVED_FIELD)
        return Instruction("jalr", rd=rd, rs1=rs1, imm=sign_extend(word >> 20, 12))

    if opcode == SYSTEM:
        if word != ECALL_WORD:
            return DecodeError(word, RESERVED_FIELD)
        return Instruction("ecall")

    return DecodeError(word, UNKNOWN_OPCODE)


def exact_valid_decode_count() -> int:
    """Census of legal 32-bit words, by walking the opcode/funct structure.

    Counts combinatorially, never through decode(): for each opcode the
    constrained funct fields are enumerated and the remaining operand
    bits (registers, immediates) are free.
    """
    free_regs_r = 1 << 15        # rd, rs1, rs2 free in R format
    free_i = 1 << 22             # rd/imm-slot (17 bits) + rs1 (5) free with funct3 fixed
    free_u = 1 << 25             # rd + imm20 free

    n_op = len(_R_BY_KEY) * free_regs_r
    n_op_imm = len(_I_ALU_BY_F3) * free_i
    n_lui = free_u
    n_load = 1 * free_i          # lw only
    n_store = 1 * free_i         # sw only
    n_branch = len(_B_BY_F3) * free_i
    n_jal = free_u
    n_jalr = 1 * free_i
    n_system = 1                 # the ecall word

    # The all-zero and all-ones words fall under opcodes 0x00/0x7F, which
    # are not in the table, so the special-case rejections subtract nothing.
    return (n_op + n_op_imm + n_lui + n_load + n_store
            + n_branch + n_jal + n_jalr + n_system)


def exact_valid_decode_fraction() -> float:
    return exact_valid_decode_count() / float(1 << 32)


def valid_decode_fraction(sample_count: int, seed: int, decoder=decode) -> float:
    """Monte Carlo estimate of the legal-decode probability of random words.

    Deterministic for a fixed seed. `decoder` is swappable so degenerate
    decoders (accept-none, accept-all) can be sampled in tests.
    """
    if sample_count < 10 ** 5:
        raise ValueError(f"sample_count must be >= 1e5, got {sample_count}")
    rng = random.Random(seed)
    hits = 0
    for _ in range(sample_count):
        if isinstance(decoder(rng.getrandbits(32)), Instruction):
            hits += 1
    return hits / sample_count
