import hashlib
import math
import random
from pathlib import Path

import pytest

from scylla import engine, isa
from scylla.asm import parse_assembly
from scylla.isa import DecodeError, EncodingError, Instruction, decode, encode


# Cross-checked against a reference RV32I assembler.
KNOWN_WORDS = [
    (Instruction("addi", rd=1, rs1=0, imm=5), 0x00500093),
    (Instruction("add", rd=3, rs1=1, rs2=2), 0x002081B3),
    (Instruction("sub", rd=10, rs1=11, rs2=12), 0x40C58533),
    (Instruction("and", rd=5, rs1=6, rs2=7), 0x007372B3),
    (Instruction("or", rd=5, rs1=6, rs2=7), 0x007362B3),
    (Instruction("xor", rd=5, rs1=6, rs2=7), 0x007342B3),
    (Instruction("slt", rd=5, rs1=6, rs2=7), 0x007322B3),
    (Instruction("andi", rd=1, rs1=2, imm=-1), 0xFFF17093),
    (Instruction("ori", rd=1, rs1=2, imm=0x7F), 0x07F16093),
    (Instruction("xori", rd=1, rs1=2, imm=16), 0x01014093),
    (Instruction("slti", rd=1, rs1=2, imm=-2048), 0x80012093),
    (Instruction("lui", rd=2, imm=16), 0x00010137),
    (Instruction("lw", rd=11, rs1=2, imm=0), 0x00012583),
    (Instruction("sw", rs1=2, rs2=10, imm=0), 0x00A12023),
    (Instruction("sw", rs1=8, rs2=9, imm=-4), 0xFE942E23),
    (Instruction("beq", rs1=10, rs2=0, imm=8), 0x00050463),
    (Instruction("bne", rs1=10, rs2=0, imm=-20), 0xFE0516E3),
    (Instruction("blt", rs1=3, rs2=4, imm=16), 0x0041C863),
    (Instruction("bge", rs1=3, rs2=4, imm=-16), 0xFE41D8E3),
    (Instruction("jal", rd=1, imm=16), 0x010000EF),
    (Instruction("jal", rd=0, imm=-8), 0xFF9FF06F),
    (Instruction("jalr", rd=0, rs1=1, imm=0), 0x00008067),
    (Instruction("ecall"), 0x00000073),
]


@pytest.mark.parametrize("instr,word", KNOWN_WORDS, ids=lambda v: str(v))
def test_encode_known_words(instr, word):
    assert encode(instr) == word


@pytest.mark.parametrize("instr,word", KNOWN_WORDS, ids=lambda v: str(v))
def test_decode_known_words(instr, word):
    assert decode(word) == instr


def test_decode_all_zero_and_all_ones():
    assert decode(0x00000000) == DecodeError(0, isa.ILLEGAL_ALL_ZERO)
    assert decode(0xFFFFFFFF) == DecodeError(0xFFFFFFFF, isa.ILLEGAL_ALL_ONES)


def test_decode_unknown_opcode():
    err = decode(0x00000001)
    assert isinstance(err, DecodeError)
    assert err.reason == isa.UNKNOWN_OPCODE


def test_decode_reserved_fields():
    # OP with funct7 not in {0x00, 0x20}
    assert decode(0x022081B3) == DecodeError(0x022081B3, isa.RESERVED_FIELD)
    # OP funct7=0x20 with funct3 != 0 (would be SRA-like, unsupported)
    assert decode(0x4020D1B3) == DecodeError(0x4020D1B3, isa.RESERVED_FIELD)
    # OP-IMM funct3=1 (shift, unsupported)
    assert decode(0x00111093) == DecodeError(0x00111093, isa.RESERVED_FIELD)
    # LOAD funct3 != 2 (lb)
    assert decode(0x00010083) == DecodeError(0x00010083, isa.RESERVED_FIELD)
    # SYSTEM that is not exactly ecall (ebreak)
    assert decode(0x00100073) == DecodeError(0x00100073, isa.RESERVED_FIELD)
    # a funct3 no row has: STORE other than sw, BRANCH 2 and 3, JALR and SYSTEM other than 0
    for word, legal_f3 in ((0x00A12023, {0x2}), (0x00050463, {0x0, 0x1, 0x4, 0x5}),
                           (0x00008067, {0x0}), (0x00000073, {0x0})):
        for f3 in set(range(8)) - legal_f3:
            other = word & ~(0x7 << 12) | f3 << 12
            assert decode(other) == DecodeError(other, isa.RESERVED_FIELD), hex(other)


def test_encode_range_errors():
    with pytest.raises(EncodingError):
        encode(Instruction("addi", rd=1, rs1=0, imm=4096))
    with pytest.raises(EncodingError):
        encode(Instruction("addi", rd=1, rs1=0, imm=-2049))
    with pytest.raises(EncodingError):
        encode(Instruction("add", rd=32, rs1=0, rs2=0))
    with pytest.raises(EncodingError):
        encode(Instruction("beq", rs1=0, rs2=0, imm=3))
    with pytest.raises(EncodingError):
        encode(Instruction("jal", rd=0, imm=1 << 20))
    with pytest.raises(EncodingError):
        encode(Instruction("lui", rd=1, imm=1 << 20))
    with pytest.raises(EncodingError):
        encode(Instruction("ecall", rd=1))


def random_instruction(rng: random.Random) -> Instruction:
    op = rng.choice(isa.MNEMONICS)
    fmt = isa.ISA_TABLE[op][0]
    reg = lambda: rng.randrange(32)
    if fmt == "R":
        return Instruction(op, rd=reg(), rs1=reg(), rs2=reg())
    if fmt == "I":
        return Instruction(op, rd=reg(), rs1=reg(), imm=rng.randrange(-2048, 2048))
    if fmt == "S":
        return Instruction(op, rs1=reg(), rs2=reg(), imm=rng.randrange(-2048, 2048))
    if fmt == "B":
        return Instruction(op, rs1=reg(), rs2=reg(), imm=rng.randrange(-2048, 2048) * 2)
    if fmt == "U":
        return Instruction(op, rd=reg(), imm=rng.randrange(1 << 20))
    if fmt == "J":
        return Instruction(op, rd=reg(), imm=rng.randrange(-(1 << 19), 1 << 19) * 2)
    return Instruction("ecall")


def test_round_trip_random_instructions():
    rng = random.Random(1)
    for _ in range(20_000):
        instr = random_instruction(rng)
        assert decode(encode(instr)) == instr


def test_injectivity_random_instructions():
    rng = random.Random(2)
    seen: dict[int, Instruction] = {}
    for _ in range(20_000):
        instr = random_instruction(rng)
        word = encode(instr)
        if word in seen:
            assert seen[word] == instr
        seen[word] = instr


def test_decode_total_on_random_words():
    rng = random.Random(3)
    for _ in range(50_000):
        word = rng.getrandbits(32)
        out = decode(word)
        assert isinstance(out, (Instruction, DecodeError))
        if isinstance(out, Instruction):
            assert encode(out) == word


# sha256 of decode over DECODE_SWEEP_WORDS, recorded before decode was
# rewritten to read ISA_TABLE; any change to a decoded field or reason shows
DECODE_SWEEP_SHA256 = "8e2c50df99f5589cab822542d40fc9fec55866f9948833396d490df62b9d838d"


def decode_sweep_words() -> list[int]:
    """Every opcode x funct3 x funct7 with fixed operand bits, the two
    degenerate words, and seeded random words."""
    operands = (0b10110 << 20) | (0b01011 << 15) | (0b10101 << 7)
    words = [(f7 << 25) | operands | (f3 << 12) | opcode
             for opcode in range(128) for f3 in range(8) for f7 in range(128)]
    rng = random.Random(14)
    return words + [0x00000000, 0xFFFFFFFF] + [rng.getrandbits(32) for _ in range(50_000)]


def test_decode_sweep_matches_golden_digest():
    digest = hashlib.sha256()
    for word in decode_sweep_words():
        digest.update(f"{word:08x} {decode(word)!r}\n".encode())
    assert digest.hexdigest() == DECODE_SWEEP_SHA256


def test_exact_count_value():
    # census spelled out in the module docstring
    assert isa.exact_valid_decode_count() == 117_637_121
    p = isa.exact_valid_decode_fraction()
    assert 0.027 < p < 0.028


def test_valid_decode_fraction_degenerate_decoders():
    reject = lambda word: DecodeError(word, isa.UNKNOWN_OPCODE)
    accept = lambda word: Instruction("ecall")
    assert isa.valid_decode_fraction(100_000, seed=7, decoder=reject) == 0.0
    assert isa.valid_decode_fraction(100_000, seed=7, decoder=accept) == 1.0


def test_valid_decode_fraction_requires_large_sample():
    with pytest.raises(ValueError):
        isa.valid_decode_fraction(10, seed=0)


def test_monte_carlo_matches_enumeration():
    n = 200_000
    p_exact = isa.exact_valid_decode_fraction()
    p_mc = isa.valid_decode_fraction(n, seed=42)
    stderr = math.sqrt(p_exact * (1 - p_exact) / n)
    assert abs(p_mc - p_exact) <= 3 * stderr


def test_valid_decode_fraction_deterministic():
    assert isa.valid_decode_fraction(100_000, seed=9) == isa.valid_decode_fraction(100_000, seed=9)


def test_census_never_calls_decode(monkeypatch):
    def refuse(word):
        raise AssertionError("the census walked through decode()")
    monkeypatch.setattr(isa, "decode", refuse)
    assert isa.exact_valid_decode_count.__wrapped__() == 117_637_121


def _doc_operations() -> dict[str, tuple]:
    """The rows of docs/isa.md's Operations table, in ISA_TABLE's shape."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "isa.md").read_text()
    section = text.split("## Operations", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or cells[0] == "mnemonic" or set(cells[0]) == {"-"}:
            continue
        mnemonic, fmt, opcode, f3, f7 = cells
        rows[mnemonic] = (fmt, int(opcode, 16),
                          int(f3, 16) if f3 else None, int(f7, 16) if f7 else None)
    return rows


def test_docs_operations_table_is_the_isa_table():
    assert _doc_operations() == isa.ISA_TABLE


def _source_line(mnemonic: str) -> str:
    """A statement of the dialect for `mnemonic`, written by its row's format;
    pc-relative operands name the label `top` one instruction back."""
    fmt, opcode, _, _ = isa.ISA_TABLE[mnemonic]
    if fmt == "I" and opcode == isa.LOAD:
        return f"{mnemonic} x5, -8(x6)"
    return {
        "R": f"{mnemonic} x5, x6, x7",
        "I": f"{mnemonic} x5, x6, -7",
        "U": f"{mnemonic} x5, 0xABCDE",
        "S": f"{mnemonic} x7, 12(x6)",
        "B": f"{mnemonic} x6, x7, top",
        "J": f"{mnemonic} x1, top",
        "SYS": mnemonic,
    }[fmt]


def test_every_row_assembles_round_trips_and_has_a_handler():
    for mnemonic in isa.MNEMONICS:
        program = parse_assembly(f"top: addi x0, x0, 0\n{_source_line(mnemonic)}\n")
        instr = program.instructions[1]
        assert instr.op == mnemonic
        assert decode(encode(instr)) == instr, mnemonic
    assert set(engine._HANDLERS) == set(isa.MNEMONICS)


def test_every_row_but_ecall_has_a_block_template():
    # a decoded block's words stop before an ecall, so it is never generated
    assert set(engine._TEMPLATES) == set(isa.MNEMONICS) - {"ecall"}


def _codec_inputs():
    rng = random.Random(19)
    edges = (0).to_bytes(4, "little") + isa.MASK32.to_bytes(4, "little")
    yield b""
    yield (0x00500093).to_bytes(4, "little")
    yield edges
    for _ in range(4):
        yield rng.randbytes(4096) + edges


def test_word_codec_round_trips_and_reads_little_endian():
    for data in _codec_inputs():
        words = isa.le_words(data)
        assert list(words) == [int.from_bytes(data[i:i + 4], "little")
                               for i in range(0, len(data), 4)]
        assert isa.le_bytes(words) == data
        assert isa.le_words(isa.le_bytes(words)) == words


def test_word_codec_returns_new_objects():
    data = bytes(range(16))
    words = isa.le_words(data)
    assert isa.le_words(data) is not words
    encoded = isa.le_bytes(words)
    words[0] = 0
    assert encoded == data


@pytest.mark.parametrize("size", [1, 2, 3, 5, 4099])
def test_word_codec_refuses_a_partial_word(size):
    with pytest.raises(ValueError):
        isa.le_words(bytes(size))


def test_word_codec_swaps_on_a_big_endian_host(monkeypatch):
    # the codec reads the host's byte order from one constant; claiming the
    # other order makes it swap where it should not, so the words it reads
    # are the big-endian ones on either host
    other = "big" if isa.HOST_BYTE_ORDER == "little" else "little"
    monkeypatch.setattr(isa, "HOST_BYTE_ORDER", other)
    for data in _codec_inputs():
        words = isa.le_words(data)
        assert list(words) == [int.from_bytes(data[i:i + 4], "big")
                               for i in range(0, len(data), 4)]
        assert isa.le_bytes(words) == data
        source = words[:]
        isa.le_bytes(words)
        assert words == source   # the swap is made on a copy


def test_only_the_isa_module_reads_the_byte_order():
    package = Path(isa.__file__).parent
    readers = sorted(path.name for path in package.rglob("*.py")
                     if "byteorder" in path.read_text())
    assert readers == ["isa.py"]
