import json
import re
import struct

import pytest

from scylla.asm import AsmError, parse_assembly
from scylla.cfg import AnalysisError, build_cfg
from scylla.image import (
    ImageFormatError,
    LayoutError,
    dump_image,
    layout_image,
    load_image_bytes,
)
from scylla.isa import Instruction


def test_parse_single_line():
    program = parse_assembly("addi x1, x0, 5")
    assert program.instructions == (Instruction("addi", rd=1, rs1=0, imm=5),)


def test_parse_register_aliases():
    program = parse_assembly("add a0, ra, sp")
    assert program.instructions[0] == Instruction("add", rd=10, rs1=1, rs2=2)


def test_parse_comments_and_blanks():
    program = parse_assembly("# header\n\n  addi x1, x0, 1  # trailing\n")
    assert len(program.instructions) == 1


def test_parse_memory_operands():
    program = parse_assembly("lw x5, -8(sp)\nsw x6, 0x10(x7)")
    assert program.instructions[0] == Instruction("lw", rd=5, rs1=2, imm=-8)
    assert program.instructions[1] == Instruction("sw", rs1=7, rs2=6, imm=16)


def test_parse_branch_label_becomes_relative_offset():
    program = parse_assembly("start:\n addi x1, x0, 1\n beq x1, x0, start\n ecall")
    assert program.instructions[1].imm == -4


def test_parse_unresolved_label_named():
    with pytest.raises(AsmError, match="'loop'"):
        parse_assembly("beq x1, x0, loop\necall")


def test_parse_duplicate_label():
    with pytest.raises(AsmError, match="duplicate label 'a'"):
        parse_assembly("a:\n addi x1, x0, 1\na:\n ecall")


def test_parse_syntax_error_reports_line():
    with pytest.raises(AsmError, match="line 3"):
        parse_assembly("addi x1, x0, 1\naddi x2, x0, 2\naddi x3 x0 3")


def test_parse_immediate_out_of_range_reports_line():
    with pytest.raises(AsmError, match="line 1"):
        parse_assembly("addi x1, x0, 4096")


def test_parse_targets_requires_preceding_jalr():
    with pytest.raises(AsmError, match="follow a jalr"):
        parse_assembly("addi x1, x0, 1\n.targets foo")


def test_parse_data_segment():
    program = parse_assembly(
        ".text\n ecall\n.data 0x2000\n .word 1, 2\n .byte 7\n .space 3")
    assert program.data_base == 0x2000
    assert program.data == bytes([1, 0, 0, 0, 2, 0, 0, 0, 7, 0, 0, 0])


def test_parse_fib_instruction_count(corpus_sources):
    assert len(parse_assembly(corpus_sources["fib"]).instructions) == 17


def test_cfg_straightline_single_block():
    cfg = build_cfg(parse_assembly("addi x1, x0, 1\naddi x2, x0, 2\necall"))
    assert cfg.blocks == ((0, 3),)
    assert cfg.edges == ()


def _cfg_fixture(fixtures_dir, name):
    with open(fixtures_dir / f"{name}_cfg.json") as fh:
        doc = json.load(fh)
    blocks = tuple((e, n) for e, n in doc["blocks"])
    edges = tuple(sorted((s, t, k) for s, t, k in doc["edges"]))
    return blocks, edges


@pytest.mark.parametrize("name", ["diamond", "fib"])
def test_cfg_matches_hand_fixture(corpus_sources, fixtures_dir, name):
    cfg = build_cfg(parse_assembly(corpus_sources[name]))
    blocks, edges = _cfg_fixture(fixtures_dir, name)
    assert cfg.blocks == blocks
    assert cfg.edges == edges


def test_cfg_counts_match_manifest(corpus_sources, manifest):
    for name, record in manifest.items():
        cfg = build_cfg(parse_assembly(corpus_sources[name]))
        assert len(cfg.blocks) == record["blocks"], name
        assert len(cfg.edges) == record["edges"], name


def test_cfg_blocks_tile_text(corpus_sources):
    for name, source in corpus_sources.items():
        program = parse_assembly(source)
        cfg = build_cfg(program)
        assert sum(length for _, length in cfg.blocks) == len(program.instructions), name
        addr = 0
        for entry, length in cfg.blocks:
            assert entry == addr, name
            addr += 4 * length


def test_cfg_jalr_without_targets_rejected():
    with pytest.raises(AnalysisError, match="0x4"):
        build_cfg(parse_assembly("addi x1, x0, 8\njalr x0, x6, 0\necall"))


def test_cfg_return_without_callers_rejected():
    with pytest.raises(AnalysisError, match="no known call sites"):
        build_cfg(parse_assembly("jalr x0, x1, 0"))


def test_cfg_falling_off_end_rejected():
    with pytest.raises(AnalysisError, match="falls off"):
        build_cfg(parse_assembly("addi x1, x0, 1\naddi x2, x0, 2"))


def test_cfg_every_nonhalting_block_has_successor(corpus_sources):
    for name, source in corpus_sources.items():
        program = parse_assembly(source)
        cfg = build_cfg(program)
        sources = {s for s, _, _ in cfg.edges}
        for block_id, (entry, length) in enumerate(cfg.blocks):
            last = program.instructions[entry // 4 + length - 1]
            if last.op != "ecall":
                assert block_id in sources, (name, block_id)


def test_layout_requires_aligned_base():
    program = parse_assembly("ecall")
    with pytest.raises(LayoutError):
        layout_image(program, text_base=2)


def test_layout_empty_data():
    image = layout_image(parse_assembly("addi x1, x0, 1\necall"), text_base=0x1000)
    assert image.data == b""
    assert image.entry == 0x1000
    assert len(image.text) == 8


def test_layout_overlap_rejected():
    program = parse_assembly(".text\n ecall\n.data 0x0\n .word 5")
    with pytest.raises(LayoutError, match="overlaps"):
        layout_image(program, text_base=0)


@pytest.mark.parametrize("source, text_base, message", [
    ("ecall", -4, "text [-0x4, 0x0)"),
    ("addi x1, x0, 1\necall", 0xFFFFFFFC, "text [0xfffffffc, 0x100000004)"),
    (".data -8\n .word 5\n.text\n ecall", 0, "data [-0x8, -0x4)"),
    (".data 0xFFFFFFFC\n .word 5, 6\n.text\n ecall", 0, "data [0xfffffffc, 0x100000004)"),
    (".data 0x100000000\n.text\n ecall", 0, "data [0x100000000, 0x100000000)"),
])
def test_layout_outside_address_space_rejected(source, text_base, message):
    with pytest.raises(LayoutError, match=re.escape(message)):
        layout_image(parse_assembly(source), text_base=text_base)


def test_layout_up_to_the_top_of_the_address_space():
    program = parse_assembly("addi x1, x0, 1\necall\n.data 0xFFFFFFF8\n .word 5, 6")
    image = layout_image(program, text_base=0xFFFFFFF0)
    assert load_image_bytes(dump_image(image)) == image


def test_layout_deterministic(corpus_sources):
    for source in corpus_sources.values():
        a = dump_image(layout_image(parse_assembly(source)))
        b = dump_image(layout_image(parse_assembly(source)))
        assert a == b


def test_layout_fib_digest_stable(corpus_sources, fixtures_dir):
    # frozen once from the verified encoder; guards against layout drift
    expected = (fixtures_dir / "fib_image_digest.txt").read_text().strip()
    assert layout_image(parse_assembly(corpus_sources["fib"])).digest() == expected


def test_container_round_trip(corpus_sources):
    for source in corpus_sources.values():
        image = layout_image(parse_assembly(source), text_base=0x400)
        assert load_image_bytes(dump_image(image)) == image


def test_container_rejects_garbage():
    with pytest.raises(ImageFormatError):
        load_image_bytes(b"NOPE" + bytes(64))
    with pytest.raises(ImageFormatError):
        load_image_bytes(b"SCY1")


def test_container_rejects_trailing_bytes(corpus_sources):
    blob = dump_image(layout_image(parse_assembly(corpus_sources["fib"])))
    with pytest.raises(ImageFormatError, match="3 bytes trail the data segment"):
        load_image_bytes(blob + b"\0" * 3)


# fib's block records (0, 3) (12, 3) (24, 4) (40, 5) (60, 2) sit at byte
# offsets 40-79 and cover its 68 text bytes; its first edge record
# (0 -> 2, call) starts at offset 80.
@pytest.mark.parametrize("field, value, message", [
    (16, 4, "entry 0x4 is not a block entry"),
    (40, 4, "block 0 starts at 0x4, not at 0x0"),
    (44, 0, "block 0 is empty"),
    (44, 4, "block 1 starts at 0xc, not at 0x10"),
    (76, 1, "blocks end at 0x40, the text at 0x44"),
    (80, 5, "edge 5 -> 2 names a block past the last id 4"),
    (84, 7, "edge 0 -> 7 names a block past the last id 4"),
])
def test_container_rejects_broken_tables(corpus_sources, field, value, message):
    blob = bytearray(dump_image(layout_image(parse_assembly(corpus_sources["fib"]))))
    struct.pack_into("<I", blob, field, value)
    with pytest.raises(ImageFormatError, match=re.escape(message)):
        load_image_bytes(bytes(blob))


def test_block_addresses_shift_with_base(corpus_sources):
    image0 = layout_image(parse_assembly(corpus_sources["fib"]), text_base=0)
    image4k = layout_image(parse_assembly(corpus_sources["fib"]), text_base=0x1000)
    assert [e + 0x1000 for e, _ in image0.blocks] == [e for e, _ in image4k.blocks]
    assert image0.text == image4k.text  # encodings are position-independent
