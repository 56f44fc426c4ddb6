import dataclasses
import gc
import json
import re
import struct
import sys
from array import array
from dataclasses import replace

import pytest

from scylla import image as image_module
from scylla.asm import AsmError, Program, parse_assembly
from scylla.cfg import EDGE_KIND_CODES, AnalysisError, build_cfg
from scylla.crypto import dump_encrypted_image, encrypt_pipeline, load_encrypted_image_bytes
from scylla.image import (
    EdgeTable,
    ImageFormatError,
    LayoutError,
    dump_image,
    layout_image,
    load_image_bytes,
)
from scylla.isa import Instruction, decode, encode


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


@pytest.mark.parametrize("register", ["x01", "x\u0661", "x32", "X1", "a8"])
def test_parse_rejects_names_outside_the_register_grammar(register):
    # x01 and x1 in Arabic-Indic digits are not x1: the grammar is x0..x31 and the ABI aliases
    with pytest.raises(AsmError, match=re.escape(f"line 2: bad register {register!r}")):
        parse_assembly(f"ecall\nadd x1, {register}, x2")
    with pytest.raises(AsmError, match="line 1: bad register"):
        parse_assembly(f"lw x1, 0({register})")


def test_repeated_statements_parse_as_each_parsed_alone():
    alone = ["addi x1, x0, 5", "add a0, ra, sp", "lw x5, -8(sp)", "sw x6, 0x10(x7)",
             "lui t0, 0xFFFFF", "jalr x0, ra, 0"]
    lines, expected = [], []
    for round_ in range(3):
        lines.append(f"top{round_}:")
        for k, statement in enumerate(alone):
            lines.append(f"l{round_}_{k}: {statement}" if k % 2 else statement)
            expected.append(parse_assembly(statement).instructions[0])
        # the same branch text at each round's own index: offsets are per occurrence
        lines += ["jal x0, top0", f"beq x1, x0, top{round_}"]
        here = len(expected)
        expected += [Instruction("jal", rd=0, imm=-4 * here),
                     Instruction("beq", rs1=1, rs2=0, imm=-4 * len(alone) - 4)]
    lines.append("ecall")
    expected.append(Instruction("ecall"))
    program = parse_assembly("\n".join(lines))
    assert program.instructions == tuple(expected)
    assert program.instructions[0] is program.instructions[len(alone) + 2]


def test_branches_to_different_labels_at_one_offset_share_one_instruction():
    program = parse_assembly("beq x1, x0, a\na: beq x1, x0, b\nb: jal x0, c\n"
                             "c: jal x0, d\nd: ecall")
    beq, beq_again, jal, jal_again, _ = program.instructions
    assert beq == Instruction("beq", rs1=1, rs2=0, imm=4) and beq is beq_again
    assert jal == Instruction("jal", rd=0, imm=4) and jal is jal_again


def test_one_branch_head_at_two_offsets_gives_two_instructions():
    program = parse_assembly("top: beq x1, x0, top\nbeq x1, x0, top\necall")
    first, second, _ = program.instructions
    assert (first.imm, second.imm) == (0, -4)


def test_label_named_like_a_register_is_no_branch_target():
    # labels t0 and a0 each lie one word past an add that names them as registers
    program = parse_assembly("add x1, x2, t0\nt0: add x1, x2, a0\na0: ecall")
    assert program.instructions[:2] == (Instruction("add", rd=1, rs1=2, rs2=5),
                                        Instruction("add", rd=1, rs1=2, rs2=10))


def test_branch_out_of_range_reports_its_own_line():
    # the head `beq x1, x0` resolves first at a near label, then at one 4 KiB away
    source = "\n".join(["beq x1, x0, near", "near: beq x1, x0, far",
                        *["addi x1, x1, 1"] * 1100, "far: ecall"])
    with pytest.raises(AsmError, match=r"^line 2: "):
        parse_assembly(source)


def test_unresolved_branch_label_reports_its_own_line():
    with pytest.raises(AsmError, match=r"^line 2: unresolved label 'nowhere'$"):
        parse_assembly("a: beq x1, x0, a\nbeq x1, x0, nowhere\necall")


def test_repeated_bad_statement_reports_its_first_line():
    source = ("addi x1, x0, 1\nloop:\naddi x1, x0, 4096\naddi x1, x0, 1\n"
              "next: addi x1, x0, 4096\nbeq x1, x0, loop")
    with pytest.raises(AsmError, match=r"^line 3: "):
        parse_assembly(source)
    # nothing carries over from one parse to the next
    with pytest.raises(AsmError, match=r"^line 1: "):
        parse_assembly("addi x1, x0, 4096\naddi x1, x0, 1")
    assert parse_assembly("addi x1, x0, 1").instructions == (
        Instruction("addi", rd=1, rs1=0, imm=1),)


@pytest.mark.parametrize("source, line", [
    (".data\n .space 1000000000000000", 2),
    (".data\n .space 0xFFFF0001", 2),                 # default base 0x10000
    (".data 0xFFFFFFFC\n .word 5, 6\n.text\n ecall", 2),
    (".data 0xFFFFFFFF\n .byte 1, 2", 2),
    (".data\n .word 1\n.data 0xFFFFFFFE", 3),
])
def test_data_past_the_address_space_rejected(source, line):
    with pytest.raises(AsmError, match=rf"^line {line}: data \[.*32-bit address space"):
        parse_assembly(source)


@pytest.mark.parametrize("source", [
    ".data -8\n .space 0x100000000",        # 2^32 bytes from a base clamped to 0 used to pass
    ".data -8\n .space 1000000000000000",
    ".data -8\n .word 5\n.text\n ecall",
    ".data\n .word 1\n.data -4",
])
def test_negative_data_base_rejected_at_the_directive(source):
    line = source.count("\n", 0, source.index("-")) + 1
    with pytest.raises(AsmError, match=rf"^line {line}: data base -0x[48] lies outside "
                                       "the 32-bit address space"):
        parse_assembly(source)


@pytest.mark.parametrize("value", ["0x100000000", "-2147483649", "4294967296"])
def test_word_value_out_of_range_rejected(value):
    with pytest.raises(AsmError, match="line 2: word value out of range"):
        parse_assembly(f".data\n .word 1, {value}")


def test_word_values_at_the_range_ends():
    program = parse_assembly(".data\n .word -2147483648, 0xFFFFFFFF")
    assert program.data == bytes([0, 0, 0, 0x80, 0xFF, 0xFF, 0xFF, 0xFF])


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


def test_cfg_indirect_target_past_the_text_rejected():
    # a label after the last instruction names no block
    program = parse_assembly("top: jalr x0, x6, 0\n.targets top, end\necall\nend:")
    with pytest.raises(AnalysisError, match=r"jalr at address 0x0 targets 0x8, outside"):
        build_cfg(program)


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
    (".data 0x100000000\n.text\n ecall", 0, "data [0x100000000, 0x100000000)"),
])
def test_layout_outside_address_space_rejected(source, text_base, message):
    with pytest.raises(LayoutError, match=re.escape(message)):
        layout_image(parse_assembly(source), text_base=text_base)


def test_layout_rejects_data_past_the_address_space():
    # the assembler rejects such data first (see test_data_past_the_address_space_rejected)
    program = Program(instructions=(Instruction("ecall"),), labels={},
                      data=bytes(8), data_base=0xFFFFFFFC)
    with pytest.raises(LayoutError, match=re.escape("data [0xfffffffc, 0x100000004)")):
        layout_image(program)


def test_layout_rejects_data_below_the_address_space():
    # the assembler rejects such a base first (see test_negative_data_base_rejected_at_the_directive)
    program = Program(instructions=(Instruction("ecall"),), labels={},
                      data=bytes(8), data_base=-8)
    with pytest.raises(LayoutError, match=re.escape("data [-0x8, 0x0)")):
        layout_image(program)


def test_layout_up_to_the_top_of_the_address_space():
    program = parse_assembly("addi x1, x0, 1\necall\n.data 0xFFFFFFF8\n .word 5, 6")
    image = layout_image(program, text_base=0xFFFFFFF0)
    assert load_image_bytes(dump_image(image)) == image


def test_layout_deterministic(corpus_sources):
    for source in corpus_sources.values():
        a = dump_image(layout_image(parse_assembly(source)))
        b = dump_image(layout_image(parse_assembly(source)))
        assert a == b


def test_layout_of_equal_but_distinct_instructions(corpus_sources, monkeypatch):
    # layout calls encode and build_cfg by their names in scylla.image, which
    # the benchmark's tracer wraps
    calls = {"encode": [], "build_cfg": []}
    for name in calls:
        original = getattr(image_module, name)
        monkeypatch.setattr(image_module, name, lambda arg, name=name, original=original: (
            calls[name].append(arg) or original(arg)))
    for name, source in corpus_sources.items():
        parsed = parse_assembly(source)
        redecoded = replace(parsed, instructions=tuple(
            decode(encode(instr)) for instr in parsed.instructions))
        assert redecoded.instructions == parsed.instructions, name
        assert set(map(id, redecoded.instructions)).isdisjoint(map(id, parsed.instructions))
        images = []
        for program in (parsed, redecoded):
            calls["encode"].clear()
            images.append(layout_image(program))
            # one encode per distinct Instruction object
            assert (sorted(map(id, calls["encode"]))
                    == sorted(set(map(id, program.instructions)))), name
        assert images[0] == images[1], name
        assert dump_image(images[0]) == dump_image(images[1]), name
    assert len(calls["build_cfg"]) == 2 * len(corpus_sources)


def test_layout_fib_digest_stable(corpus_sources, fixtures_dir):
    # frozen once from the verified encoder; guards against layout drift
    expected = (fixtures_dir / "fib_image_digest.txt").read_text().strip()
    assert layout_image(parse_assembly(corpus_sources["fib"])).digest() == expected


def test_container_round_trip(corpus_sources, large_image):
    images = [layout_image(parse_assembly(source), text_base=0x400)
              for source in corpus_sources.values()]
    for image in (*images, large_image):
        blob = dump_image(image)
        assert load_image_bytes(blob) == image
        assert dump_image(load_image_bytes(blob)) == blob


def test_edge_table_is_the_graphs_edges_as_container_words(corpus_sources):
    for name, source in corpus_sources.items():
        program = parse_assembly(source)
        edges, image = build_cfg(program).edges, layout_image(program)
        assert len(image.edges) == len(edges) and tuple(image.edges) == edges, name
        assert image.edges.records == b"".join(
            struct.pack("<III", src, tgt, EDGE_KIND_CODES[kind]) for src, tgt, kind in edges)
    # a table is immutable bytes of whole records
    with pytest.raises(dataclasses.FrozenInstanceError):
        image.edges.records = b""
    for records in (bytearray(12), array("I", [0, 0, 0]), bytes(13)):
        with pytest.raises(LayoutError, match="whole 12-byte records"):
            EdgeTable(records)


def _allocated_by_load(blob: bytes) -> int:
    """Memory blocks still allocated after `load_image_bytes(blob)`, while
    the image lives, with the collector off."""
    load_image_bytes(blob)   # warm every cache the loader touches
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        image = load_image_bytes(blob)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    del image
    return grown


def test_loading_allocates_nothing_per_edge(large_image):
    # 10,000 parallel edges of other kinds between the image's own block pairs
    extra = [(src, tgt, kind) for src, tgt, own in large_image.edges
             for kind in EDGE_KIND_CODES if kind != own]
    more = replace(large_image, edges=EdgeTable.of([*large_image.edges, *extra]))
    assert len(more.edges) == 6 * len(large_image.edges) == 12_000
    assert (_allocated_by_load(dump_image(more))
            <= _allocated_by_load(dump_image(large_image)) + 8)


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
BROKEN_TABLES = [
    (16, 4, "entry 0x4 is not a block entry"),
    (40, 4, "block 0 starts at 0x4, not at 0x0"),
    (44, 0, "block 0 is empty"),
    (44, 4, "block 1 starts at 0xc, not at 0x10"),
    (76, 1, "blocks end at 0x40, the text at 0x44"),
    (80, 5, "edge 5 -> 2 names a block past the last id 4"),
    (84, 7, "edge 0 -> 7 names a block past the last id 4"),
    (88, 6, "edge 0 -> 2 has unknown kind 6"),
    (12, 2, "text base and text length must be multiples of 4"),
    (24, 0, "text [0x0, 0x44) overlaps data [0x0, 0x40)"),
]


@pytest.mark.parametrize("field, value, message", BROKEN_TABLES)
def test_container_rejects_broken_tables(corpus_sources, field, value, message):
    image = layout_image(parse_assembly(corpus_sources["fib"]))
    # an encrypted container's SCY1 part lies as a plaintext one's
    for blob, load in ((dump_image(image), load_image_bytes),
                       (dump_encrypted_image(encrypt_pipeline(image, 42)),
                        load_encrypted_image_bytes)):
        blob = bytearray(blob)
        struct.pack_into("<I", blob, field, value)
        with pytest.raises(ImageFormatError, match=re.escape(message)):
            load(bytes(blob))


def _changed_field(image, field, value):
    """The Image field holding container byte offset `field` of `image`
    (see BROKEN_TABLES), with that u32 set to `value`."""
    if field < 40:
        return {12: "text_base", 16: "entry", 24: "data_base"}[field], value
    if field >= 80:   # the edge table is the container's edge records
        records = bytearray(image.edges.records)
        struct.pack_into("<I", records, field - 80, value)
        return "edges", EdgeTable(bytes(records))
    records = [list(record) for record in image.blocks]
    records[(field - 40) // 8][(field - 40) % 8 // 4] = value
    return "blocks", tuple(map(tuple, records))


@pytest.mark.parametrize("field, value, message", BROKEN_TABLES)
def test_image_built_by_hand_obeys_the_container_rules(corpus_sources, field, value, message):
    # the rules bind every image, not only a loaded one: `replace` constructs anew
    image = layout_image(parse_assembly(corpus_sources["fib"]))
    name, forged = _changed_field(image, field, value)
    with pytest.raises(LayoutError, match=re.escape(message)):
        replace(image, **{name: forged})


def test_block_addresses_shift_with_base(corpus_sources):
    image0 = layout_image(parse_assembly(corpus_sources["fib"]), text_base=0)
    image4k = layout_image(parse_assembly(corpus_sources["fib"]), text_base=0x1000)
    assert [e + 0x1000 for e, _ in image0.blocks] == [e for e, _ in image4k.blocks]
    assert image0.text == image4k.text  # encodings are position-independent
