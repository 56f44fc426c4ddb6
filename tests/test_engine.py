import gc
import json
import random
import weakref
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from reference import Reference

from scylla import cli, crypto, isa
from scylla import engine as eng
from scylla.asm import parse_assembly
from scylla.attacks import AttackScenario, hijack_payload, run_attack, run_trials
from scylla.crypto import (
    dump_encrypted_image,
    encrypt_pipeline,
    load_encrypted_image_bytes,
)
from scylla.engine import (
    HALT,
    INTEGRITY_FAULT,
    MEMORY_FAULT,
    STEP_LIMIT,
    Engine,
    ReportError,
    overhead_report,
    trace,
)
from scylla.image import EdgeTable, Image, ImageFormatError, LayoutError, layout_image
from scylla.isa import MASK32, Instruction, decode, encode


def _image(source):
    return layout_image(parse_assembly(source))


def _budget(steps: int) -> int:
    """The step limit for a single-stepped run known to retire `steps`
    instructions. One `advance` per instruction takes microseconds, so an
    engine defect that keeps a program running would step on to
    DEFAULT_STEP_LIMIT for seconds per call; twice the known length stops it
    at once, and the cut-off run then differs from the one it is held to."""
    return 2 * steps


def dynamic_edge_traversals(image, pcs):
    """Independent oracle: count block entries visited after the first fetch."""
    entries = {entry for entry, _ in image.blocks}
    return sum(1 for pc in pcs[1:] if pc in entries)


def block_of_pc(image):
    spans = {}
    for block_id, (entry, length) in enumerate(image.blocks):
        for off in range(length):
            spans[entry + 4 * off] = block_id
    return spans


def test_plaintext_trivial_halt():
    engine = Engine(_image("addi x1, x0, 5\necall"))
    report = engine.run()
    assert report.outcome == HALT
    assert engine.state.regs[1] == 5
    assert report.counters.instructions_retired == 2


def test_zero_step_budget():
    report = Engine(_image("addi x1, x0, 5\necall")).run(0)
    assert report.outcome == STEP_LIMIT
    assert report.counters.instructions_retired == 0


def test_fib_result(corpus_images):
    engine = Engine(corpus_images["fib"])
    assert engine.run().outcome == HALT
    assert engine.state.regs[10] == 55


def test_corpus_results_match_manifest(corpus_images, manifest):
    for name, image in corpus_images.items():
        engine = Engine(image)
        report = engine.run()
        assert report.outcome == HALT, name
        assert report.counters.instructions_retired == manifest[name]["retired"], name
        for reg, expected in manifest[name]["regs"].items():
            assert engine.state.regs[int(reg[1:])] == expected, (name, reg)


def test_x0_hardwired():
    engine = Engine(_image("addi x0, x0, 5\nadd x1, x0, x0\necall"))
    engine.run()
    assert engine.state.regs[0] == 0
    assert engine.state.regs[1] == 0


def test_signed_compares():
    engine = Engine(_image(
        "addi x5, x0, -1\nslt x6, x5, x0\nslti x7, x5, -2\necall"))
    engine.run()
    assert engine.state.regs[6] == 1  # -1 < 0 signed
    assert engine.state.regs[7] == 0  # -1 < -2 is false


def test_memory_fault_on_unmapped_load():
    report = Engine(_image("lui x5, 32\nlw x1, 0(x5)\necall")).run()
    assert report.outcome == MEMORY_FAULT
    assert report.instructions_until_fault == 2
    assert report.fault_pc is None  # only integrity faults carry fault fields


def test_memory_fault_on_misaligned_store():
    source = ".text\n lui x2, 16\n addi x2, x2, 2\n sw x0, 0(x2)\n ecall\n.data\n .space 8"
    assert Engine(_image(source)).run().outcome == MEMORY_FAULT


# `.data 0x1002` holds 7 bytes, 0x1002..0x1008. The one word an access can
# reach is the aligned word at 0x1004 (bytes 0x44 0x33 0x22 0x11); the word
# at 0x1008 is one past it, since only its first byte is mapped.
_UNALIGNED_DATA = """
    lui x5, 1
    {}
end:
    ecall
.data 0x1002
    .byte 0x11, 0x22, 0x44, 0x33, 0x22, 0x11, 0x99
"""


@pytest.mark.parametrize("body, outcome, x6", [
    ("lw x6, 4(x5)", HALT, 0x11223344),     # the last legal word
    ("lw x6, 8(x5)", MEMORY_FAULT, 0),      # one word past it
    ("lw x6, 0(x5)", MEMORY_FAULT, 0),      # below the base
    ("sw x5, 8(x5)", MEMORY_FAULT, 0),
    ("jalr x0, x5, 8\n.targets end", MEMORY_FAULT, 0),   # a fetch one word past
    # store ecall into the last legal word, then fetch it from data
    ("addi x6, x0, 0x73\nsw x6, 4(x5)\njalr x0, x5, 4\n.targets end", HALT, 0x73),
])
def test_word_access_on_an_unaligned_data_segment(body, outcome, x6):
    image = _image(_UNALIGNED_DATA.format(body))
    assert (image.data_base, len(image.data)) == (0x1002, 7)
    engine = Engine(image)
    report = engine.run()
    assert (report.outcome, engine.state.regs[6]) == (outcome, x6)
    assert report.to_json_dict() == Reference(image).run(eng.DEFAULT_STEP_LIMIT)
    if "sw x6" in body:
        assert engine.state.mem.dirty == {0x1004}
        assert engine.state.mem.load_word(0x1004) == 0x73
        assert report.final_state_digest == (
            "da2b72b65136d14a7f31a485a554ae305b3aa7047b2b8f56ab292bcdd552ce5f")

    eimage = encrypt_pipeline(image, 42)
    encrypted = Engine(eimage).run()
    assert encrypted.to_json_dict() == Reference(eimage).run(eng.DEFAULT_STEP_LIMIT)
    if "jalr" not in body:   # data is never encrypted
        assert encrypted.final_state_digest == report.final_state_digest
        assert encrypted.outcome == outcome


def test_encrypted_trivial_single_block():
    eimage = encrypt_pipeline(_image("addi x1, x0, 5\necall"), 42)
    engine = Engine(eimage)
    report = engine.run()
    assert report.outcome == HALT
    assert engine.state.regs[1] == 5
    assert report.counters.key_switches == 0
    assert report.counters.keystream_invocations == 2


def test_encrypted_diamond_digest_matches_plaintext(corpus_images, corpus_encrypted):
    plain = Engine(corpus_images["diamond"]).run()
    enc = Engine(corpus_encrypted["diamond"]).run()
    assert enc.outcome == HALT
    assert enc.final_state_digest == plain.final_state_digest


def test_encrypted_corpus_transparency(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        plain = Engine(corpus_images[name]).run()
        enc = Engine(corpus_encrypted[name]).run()
        assert enc.outcome == HALT, name
        assert enc.final_state_digest == plain.final_state_digest, name
        assert enc.counters.key_switches == manifest[name]["key_switches"], name


def test_key_switches_equal_independent_edge_count(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        pcs = trace(corpus_images[name], _budget(manifest[name]["retired"]))
        expected = dynamic_edge_traversals(corpus_images[name], pcs)
        enc = Engine(corpus_encrypted[name]).run()
        assert enc.counters.key_switches == expected, name


def test_counter_ordering_invariant(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        budget = _budget(manifest[name]["retired"])
        for report in (Engine(corpus_images[name]).run(budget),
                       Engine(corpus_encrypted[name]).run(budget)):
            assert report.outcome == HALT, name
            c = report.counters
            assert c.key_switches <= c.control_transfers <= c.instructions_retired, name


def test_trace_straightline_length():
    assert len(trace(_image("addi x1, x0, 1\necall"), _budget(2))) == 2


def test_trace_diamond_skips_fallthrough_block(corpus_images):
    pcs = trace(corpus_images["diamond"], _budget(3))
    assert pcs == [0, 8, 12]  # branch taken; block at 4 never runs


def test_trace_only_walks_cfg_edges(corpus_images, manifest):
    # every concrete transition is an edge of the static graph
    for name, image in corpus_images.items():
        spans = block_of_pc(image)
        entries = {entry for entry, _ in image.blocks}
        pairs = {(s, t) for s, t, _ in image.edges}
        pcs = trace(image, _budget(manifest[name]["retired"]))
        assert len(pcs) == manifest[name]["retired"], name
        for prev, here in zip(pcs, pcs[1:]):
            if here in entries:
                assert (spans[prev], spans[here]) in pairs, (name, hex(prev), hex(here))


def test_integrity_fault_on_wrong_entry_key(corpus_encrypted):
    eimage = corpus_encrypted["fib"]
    bad = replace(eimage, entry_key=bytes(16))
    report = Engine(bad).run()
    assert report.outcome == INTEGRITY_FAULT
    assert report.fault_pc is not None
    assert report.fault_word is not None
    assert report.instructions_until_fault >= 1


def test_report_fault_fields_absent_on_halt(corpus_encrypted):
    report = Engine(corpus_encrypted["fib"]).run()
    assert report.outcome == HALT
    assert report.fault_pc is None
    assert report.fault_word is None
    assert report.instructions_until_fault is None


def test_overhead_zero_costs(corpus_images, corpus_encrypted):
    plain = Engine(corpus_images["fib"]).run()
    enc = Engine(corpus_encrypted["fib"]).run()
    assert overhead_report(plain, enc, 0, 0) == 0.0


def test_overhead_straightline_unit_decrypt_cost(corpus_images, corpus_encrypted):
    plain = Engine(corpus_images["straightline"]).run()
    enc = Engine(corpus_encrypted["straightline"]).run()
    assert overhead_report(plain, enc, 1, 0) == 1.0  # one keystream word per fetch


def test_overhead_fib_fixed_by_counters(corpus_images, corpus_encrypted):
    plain = Engine(corpus_images["fib"]).run()
    enc = Engine(corpus_encrypted["fib"]).run()
    # 62 retired, 62 keystream invocations, 13 key switches (manifest values)
    assert overhead_report(plain, enc, 1, 4) == pytest.approx((62 + 52) / 62)


def test_overhead_mismatched_programs_rejected(corpus_images, corpus_encrypted):
    plain = Engine(corpus_images["diamond"]).run()
    enc = Engine(corpus_encrypted["fib"]).run()
    with pytest.raises(ReportError):
        overhead_report(plain, enc, 1, 1)


def test_report_json_shape(corpus_encrypted):
    doc = Engine(corpus_encrypted["fib"]).run().to_json_dict()
    assert set(doc) == {"outcome", "fault_pc", "fault_word",
                        "instructions_until_fault", "digest", "counters"}
    assert set(doc["counters"]) == {
        "instructions_retired", "control_transfers", "key_switches",
        "patch_lookups", "keystream_invocations", "cycles"}


def test_cycles_model(corpus_encrypted):
    report = Engine(corpus_encrypted["fib"]).run()
    c = report.counters
    assert c.cycles == (c.instructions_retired
                        + eng.DEFAULT_DECRYPT_COST * c.keystream_invocations
                        + eng.DEFAULT_SWITCH_COST * c.key_switches)


def test_advance_to_a_step_already_retired_leaves_the_engine_as_it_is(corpus_encrypted):
    # An attack trial advances a fork that already stands at its trigger;
    # such a call does not enter the fetch loop.
    def no_fetch_loop(limit):
        raise AssertionError(f"fetch loop entered for {limit} steps")

    def snapshot(engine):
        state = engine.state
        return (state.pc, engine.prev_pc, state.counters.copy(), state.cur_key,
                state.cur_block_base, state.regs[:], state.mem.dirty.copy(), engine._end)

    for steps, alive in ((10, True), (eng.DEFAULT_STEP_LIMIT, False)):
        engine = Engine(corpus_encrypted["fib"])
        assert engine.advance(steps) == alive
        before = snapshot(engine)
        engine._fetch_loop = no_fetch_loop
        for k in (0, 1, 9, 10):
            assert engine.advance(k) == alive
            assert snapshot(engine) == before
    assert before[-1] == (HALT, None, None)   # the sticky end of the finished run


def test_fork_leaves_checkpoint_untouched(corpus_encrypted):
    fib = corpus_encrypted["fib"]
    whole = Engine(fib).run()
    checkpoint = Engine(fib)
    checkpoint.advance(10)              # inside the loop, block 3
    digest = checkpoint.state.digest()
    mem = checkpoint.state.mem
    text_addr, data_addr = checkpoint.state.pc, fib.image.data_base   # next fetch, a data word
    words = mem.load_word(text_addr), mem.load_word(data_addr)

    fork = checkpoint.fork()
    fork.state.mem.store_word(text_addr, 0xDEADBEEF)
    fork.state.mem.store_word(data_addr, 0x12345678)
    fork.state.regs[5] = 77
    fork.replay_patch(fib.patch_map[(4, 12)], 12)
    fork.state.counters.instructions_retired += 7
    forked = fork.run()
    assert forked.final_state_digest != whole.final_state_digest
    assert forked.counters != whole.counters

    assert (mem.load_word(text_addr), mem.load_word(data_addr)) == words
    assert checkpoint.state.digest() == digest
    assert checkpoint.current_block() == 3
    assert checkpoint.run() == whole



@pytest.mark.parametrize("target", [16, 13, 0x10000, -4])
def test_replay_patch_refuses_a_target_off_a_block_entry(corpus_encrypted, target):
    fib = corpus_encrypted["fib"]
    checkpoint = Engine(fib)
    checkpoint.advance(10)              # inside the loop, block 3
    state = checkpoint.state
    before = (state.pc, checkpoint.prev_pc, state.cur_key, state.cur_block_base,
              state.counters.copy(), state.digest())
    with pytest.raises(ValueError, match="not a block entry"):
        checkpoint.replay_patch(fib.patch_map[(4, 12)], target)
    assert (state.pc, checkpoint.prev_pc, state.cur_key, state.cur_block_base,
            state.counters, state.digest()) == before
    assert checkpoint.run() == Engine(fib).run()


def test_replay_patch_refuses_a_plaintext_engine(corpus_images):
    fib = corpus_images["fib"]
    checkpoint = Engine(fib)
    checkpoint.advance(5)
    state = checkpoint.state
    before = (state.pc, checkpoint.prev_pc, state.cur_key, state.cur_block_base,
              state.counters.copy(), state.digest())
    with pytest.raises(ValueError, match="plaintext engine has no key register"):
        checkpoint.replay_patch(bytes(16), 0)
    assert (state.pc, checkpoint.prev_pc, state.cur_key, state.cur_block_base,
            state.counters, state.digest()) == before
    assert checkpoint.run() == Engine(fib).run()


def test_fetch_cache_follows_stores_into_text(corpus_sources):
    # loop_sum's loop block starts at 12 and its data cell is at 0x10000.
    # After 25 retired instructions the loop has run four times and its
    # words sit in the fetch cache; the payload then overwrites the
    # loop body and the pc re-enters it. The expected values were computed
    # with the engine as it was before it had a fetch cache.
    image = _image(corpus_sources["loop_sum"])
    scenario = AttackScenario(
        "code-injection", 25, target=12, payload=hijack_payload(0x10000, 0xC0FFEE42),
        sentinel_addr=0x10000, sentinel_value=0xC0FFEE42)

    plain = Engine(image)
    assert plain.advance(scenario.trigger_step)
    for i in range(0, len(scenario.payload), 4):
        assert plain.state.mem.store_word(
            scenario.target + i, int.from_bytes(scenario.payload[i:i + 4], "little"))
    plain.state.pc = scenario.target
    report = plain.run(4096)
    assert report.outcome == HALT
    assert report.instructions_until_fault is None
    assert report.counters.instructions_retired == 31
    assert report.final_state_digest == (
        "11e783438f350892b999988958b02e3eae4fae5a47fb73ca6f337c2d5cbe4a1b")
    assert plain.state.mem.load_word(scenario.sentinel_addr) == scenario.sentinel_value

    outcome = run_attack(encrypt_pipeline(image, 42), scenario, step_limit=4096)
    assert outcome.report.outcome == INTEGRITY_FAULT
    assert outcome.detected and not outcome.hijack_succeeded
    assert outcome.instructions_until_fault == 1
    assert outcome.report.instructions_until_fault == 26
    assert outcome.report.final_state_digest == (
        "966a7d1d63a6b3b0fc38ba518fb95d9f966f0b4d19cc48f5ec61f4f1ced8a118")


def test_fetch_cache_holds_words_and_streams_only(corpus_sources):
    eimages = {name: encrypt_pipeline(_image(source), 42)
               for name, source in corpus_sources.items()}
    for eimage in eimages.values():
        assert Engine(eimage).run().outcome == HALT
    run_trials(eimages["fib"], "rogue-edge", 40, seed=5, step_limit=4096)
    for name, eimage in eimages.items():
        cache = eimage.image.fetch_cache
        assert any(type(key) is int for key in cache), name
        assert any(type(key) is bytes for key in cache), name
        for key, value in cache.items():
            if type(key) is int:
                assert value == eng.decode(key), (name, key)
            else:
                assert type(key) is bytes and len(key) == 16, (name, key)
                assert type(value) is array
                assert value == eng.block_keystream(key, len(value)), (name, key)


def test_fetch_misses_decode_and_decrypt_through_module_globals(corpus_sources, monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(eng, "decode", counting("decode", eng.decode))
    monkeypatch.setattr(eng, "block_keystream", counting("keystream", eng.block_keystream))
    report = Engine(encrypt_pipeline(_image(corpus_sources["loop_sum"]), 42)).run()
    assert report.outcome == HALT
    fetches = report.counters.instructions_retired   # a halted run retires every fetch
    assert report.counters.keystream_invocations == fetches == 105
    assert 1 <= calls["decode"] < fetches
    assert 1 <= calls["keystream"] < fetches


# -- decoded blocks ------------------------------------------------------------
#
# How the engine matches `tests/reference.py` is held in test_differential.py;
# the tests here check what the reference cannot see.

def _decoded_blocks(target):
    """The decoded blocks of a target's image."""
    return (target.image if isinstance(target, crypto.EncryptedImage) else target).decoded_blocks


def _decoded_ids(target):
    """Ids of the blocks decoded for a target's image."""
    return set(_decoded_blocks(target))


# One block that branches back to its own entry: the back edge's patch is
def test_block_longer_than_the_offset_range_is_rejected(monkeypatch):
    # A fetch's offset wraps at MAX_WORD_OFFSET words, so no longer block may
    # be encrypted or loaded; shrink the range so a 9-word block is too long.
    image = _image("jal x0, body\nbody:\naddi x10, x0, 1\n" + "addi x10, x10, 1\n" * 7 + "ecall")
    assert [length for _, length in image.blocks] == [1, 9]
    blob = dump_encrypted_image(encrypt_pipeline(image, 42))
    monkeypatch.setattr(crypto, "MAX_WORD_OFFSET", 8)
    with pytest.raises(LayoutError, match="a block of 9 words exceeds the 8-word offset range"):
        encrypt_pipeline(image, 42)
    with pytest.raises(ImageFormatError, match="offset range"):
        load_encrypted_image_bytes(blob)
    monkeypatch.setattr(crypto, "MAX_WORD_OFFSET", 9)   # a block as long as the range fits
    assert load_encrypted_image_bytes(blob) == encrypt_pipeline(image, 42)


def test_entries_are_counted_per_run():
    # A loop of two blocks: the loop block is entered by the fallthrough into
    # it, then by the jal that ends the block after it, never by a transfer
    # to its own entry, so only its entries count. Entered HOT_BLOCK_VISITS
    # times in every run, but no more, it is never decoded, however many
    # runs there are; one entry more decodes it.
    loop = ("addi x9, x0, {}\nloop:\naddi x9, x9, -1\nbeq x9, x0, done\n"
            "addi x10, x10, 1\njal x0, loop\ndone:\necall")
    for iterations, decoded in ((eng.HOT_BLOCK_VISITS, set()), (eng.HOT_BLOCK_VISITS + 1, {1})):
        image = _image(loop.format(iterations))
        assert len(image.blocks) == 4
        for target in (image, encrypt_pipeline(image, 42)):
            for _ in range(10):
                assert Engine(target).run().outcome == HALT
            assert _decoded_ids(target) == decoded


def test_a_self_loop_is_hot_at_its_first_back_edge():
    # A block that branches back to its own entry is decoded at that back
    # edge, whatever its count; a run that never takes the back edge decodes
    # nothing.
    loop = "addi x9, x0, {}\nloop:\naddi x9, x9, -1\naddi x10, x10, 3\nbne x9, x0, loop\necall"
    for iterations, decoded in ((1, set()), (2, {1})):
        image = _image(loop.format(iterations))
        for target in (image, encrypt_pipeline(image, 42)):
            engine = Engine(target)
            assert engine.run().outcome == HALT
            assert engine.state.regs[10] == 3 * iterations
            assert _decoded_ids(target) == decoded


def test_a_replayed_patch_does_not_make_its_landing_block_hot(corpus_sources):
    # A replay moves the key register's block and the pc to the patch's
    # target, so the next fetch lands on that block's entry, but from outside
    # the block: no back edge, so one entry leaves fib's loop block undecoded.
    eimage = encrypt_pipeline(_image(corpus_sources["fib"]), 42)
    engine = Engine(eimage)
    engine.advance(3)
    engine.replay_patch(eimage.patch_map[(2, 0x28)], 0x28)
    engine.advance(4)
    assert _decoded_ids(eimage) == set()


def test_trace_calls_a_one_word_self_loop_at_its_back_edges(monkeypatch):
    # One instruction per call: only a one-word body fits under the step
    # limit, so the fallthrough into the loop runs per word, and each fetch at
    # its back edge calls the function. The pcs and the run equal the reference's.
    calls = []

    def counted(instrs, compiled=eng._compiled):
        function = compiled(instrs)
        return lambda *args: calls.append(args[2]) or function(*args)

    monkeypatch.setattr(eng, "_compiled", counted)
    image = _image("addi x9, x0, 1\nloop:\njal x5, loop\necall")
    for target in (image, encrypt_pipeline(image, 42)):
        del calls[:]
        ref, pcs = Reference(target), []
        for k in range(1, 11):
            pcs.append(ref.pc)
            ref.advance(k)
        assert trace(target, 10) == pcs == [0] + [4] * 9
        assert calls == [4] * 8
        engine = Engine(target)
        for k in range(1, 11):
            engine.advance(k)
        assert engine.run(10).to_json_dict() == ref.run(10)


# -- generated block functions ---------------------------------------------------

# Eight text words at 0 and four data words at 0x1000. A lw or sw is aimed
# at a data or text word, at the word just past or below a segment, at an
# unaligned address or at the top of the address space.
_DIFF_IMAGE = Image(text_base=0, entry=0, text=bytes(range(32)), data_base=0x1000,
                    data=bytes(range(100, 116)), blocks=((0, 8),), edges=EdgeTable(b""))
_DIFF_ADDRS = (0x1000, 0x100C, 0x1010, 0xFFC, 0, 28, 32, 0x1002, 6, 0xFFFFFFFC)
_DIFF_VALUES = (0, 1, 4, 0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFF, 0xFFFFF800)
_DIFF_IMMS = {   # by format: the range's ends, -1, 0, the next word (4) and a random one
    "I": lambda rng: rng.choice((-2048, -1, 0, 1, 4, 2047, rng.randrange(-2048, 2048))),
    "B": lambda rng: rng.choice((-4096, -4, 0, 4, 4, 8, 4094, 2 * rng.randrange(-2048, 2047))),
    "J": lambda rng: rng.choice((-(1 << 20), -4, 0, 4, 4, 8, (1 << 20) - 2,
                                 2 * rng.randrange(-(1 << 19), 1 << 19))),
    "U": lambda rng: rng.choice((0, 1, 0x7FFFF, 0x80000, 0xFFFFF, rng.randrange(1 << 20))),
}
_DIFF_IMMS["S"] = _DIFF_IMMS["I"]
_FIELDS = {"R": ("rd", "rs1", "rs2"), "I": ("rd", "rs1", "imm"), "S": ("rs1", "rs2", "imm"),
           "B": ("rs1", "rs2", "imm"), "U": ("rd", "imm"), "J": ("rd", "imm")}


def _draw(rng, op):
    """A legal `op` instruction and registers for it: rd 0 a third of the
    time, rd == rs1 for jalr a third of the time, and a lw's or sw's rs1
    aimed at one of `_DIFF_ADDRS` unless it is x0."""
    fmt = isa.ISA_TABLE[op][0]
    fields = {"rd": rng.choice((0, rng.randrange(1, 32), rng.randrange(1, 32))),
              "rs1": rng.randrange(32), "rs2": rng.randrange(32), "imm": _DIFF_IMMS.get(fmt)}
    fields = {name: fields[name] for name in _FIELDS[fmt]}
    if "imm" in fields:
        fields["imm"] = fields["imm"](rng)
    if op == "jalr" and rng.random() < 1 / 3:
        fields["rd"] = fields["rs1"]
    instr = decode(encode(Instruction(op, **fields)))
    regs = [0] + [rng.choice(_DIFF_VALUES + (rng.getrandbits(32),)) for _ in range(31)]
    if op in ("lw", "sw") and instr.rs1:
        regs[instr.rs1] = (rng.choice(_DIFF_ADDRS) - instr.imm) & MASK32
    return instr, regs


def _memory_of(mem):
    return list(mem.words), list(mem.data_words), mem.dirty, mem.text_written


def _reference_memory(ref, image):
    """The reference's memory as `_memory_of` gives an engine's: the text
    words, the data segment's aligned words, the dirty set and whether a
    store went into the text."""
    text_end, data_end = image.text_base + len(image.text), image.data_base + len(image.data)
    return ([ref.load_word(a) for a in range(image.text_base, text_end, 4)],
            [ref.load_word(a) for a in range(-(-image.data_base // 4) * 4, data_end - 3, 4)],
            ref.dirty, any(image.text_base <= a < text_end for a in ref.dirty))


def _reference_execute(image, regs, instr, pc):
    """One step of the reference interpreter: it and the next pc, None on a memory fault."""
    ref = Reference(image)
    ref.regs = regs[:]
    return ref, ref.execute(instr, pc)


def _masked(pc):
    return None if pc is None else pc & MASK32


@pytest.mark.parametrize("op", [op for op in isa.MNEMONICS if op != "ecall"])
def test_generated_word_runs_as_its_handler(op):
    # The op's per-word handler and its generated function against one step
    # of the reference interpreter. An ecall ends a block's decoded words,
    # so it has no template.
    rng = random.Random(f"generated {op}")
    seen = Counter()
    for _ in range(300):
        instr, regs = _draw(rng, op)
        base = rng.choice((0, 4 * rng.randrange(1, 8), 0x1000, 0xFFFFFFFC))
        ref, expected = _reference_execute(_DIFF_IMAGE, regs, instr, base)
        state = eng.MachineState(mem=eng.Memory(_DIFF_IMAGE), pc=base, regs=regs[:])
        assert _masked(eng._HANDLERS[op](state.regs, instr, base, state.mem)) == expected, instr
        mem, got_regs = eng.Memory(_DIFF_IMAGE), regs[:]
        got = eng._compiled((instr,))(got_regs, mem, base, 0)
        assert (_masked(got[0]), got[1:]) == (expected, (0, 0)), instr
        assert got_regs == state.regs == ref.regs, instr
        assert _memory_of(mem) == _memory_of(state.mem) == _reference_memory(ref, _DIFF_IMAGE), \
            instr
        seen["rd0" if instr.rd == 0 else "rd"] += 1
        seen["fault" if expected is None else "text" if mem.text_written else "ok"] += 1
        seen["next word" if instr.imm == 4 else "other"] += 1
        if op == "sw":   # a store into the text ends the run before the next word
            mem, got_regs = eng.Memory(_DIFF_IMAGE), regs[:]
            addi = Instruction("addi", 31, 31, None, 1)
            got = eng._compiled((instr, addi))(got_regs, mem, base, 0)
            if expected is None:
                assert got == (None, 0, 0)
            elif mem.text_written:
                assert got == (base + 4, 0, 0) and got_regs == ref.regs
            else:
                assert got == (base + 8, 1, 0)
                assert ref.execute(addi, base + 4) == (base + 8) & MASK32
                assert got_regs == ref.regs
    fmt = isa.ISA_TABLE[op][0]
    assert seen["rd0"] and seen["rd"] or fmt in ("S", "B"), seen
    assert seen["next word"] or fmt not in ("B", "J"), seen
    if op in ("lw", "sw"):
        assert seen["fault"] and seen["ok"] and (op == "lw" or seen["text"]), seen


# Every address class a lw or sw can meet, by image: its data words, reached
# without a `Memory` call, and text words, unmapped and unaligned addresses,
# which go through `Memory.load_word` and `store_word`. The second image is
# `_UNALIGNED_DATA`'s, whose one reachable data word is at 0x1004.
_UNALIGNED_IMAGE = _image(_UNALIGNED_DATA.format("addi x0, x0, 0"))
_ADDRESS_CLASSES = [
    (_DIFF_IMAGE, 0x1000, "data"), (_DIFF_IMAGE, 0x100C, "data"),
    (_DIFF_IMAGE, 0, "text"), (_DIFF_IMAGE, 28, "text"),
    (_DIFF_IMAGE, 0x1010, "unmapped"), (_DIFF_IMAGE, 0xFFC, "unmapped"),
    (_DIFF_IMAGE, 32, "unmapped"), (_DIFF_IMAGE, 0xFFFFFFFC, "unmapped"),
    (_DIFF_IMAGE, 0x1002, "unaligned"), (_DIFF_IMAGE, 6, "unaligned"),
    (_UNALIGNED_IMAGE, 0x1004, "data"),        # the last legal word
    (_UNALIGNED_IMAGE, 0x1008, "unmapped"),    # one word past it
    (_UNALIGNED_IMAGE, 0x1000, "unmapped"),    # below the base
    (_UNALIGNED_IMAGE, 0x1002, "unaligned"),   # the base itself
]


@pytest.mark.parametrize("op", ["lw", "sw"])
@pytest.mark.parametrize("image, addr, kind", _ADDRESS_CLASSES)
def test_generated_word_access_runs_as_its_handler(op, image, addr, kind):
    # The per-word handler and the generated function against one step of
    # the reference; both reach data words without a `Memory` call.
    calls = []

    def counted(mem):
        for name in ("load_word", "store_word"):
            method = getattr(mem, name)
            setattr(mem, name, lambda *args, method=method: calls.append(args) or method(*args))
        return mem

    for rd, imm in ((5, 0), (0, -4), (31, 2047)):
        instr = decode(encode(Instruction(op, rd=rd if op == "lw" else None, rs1=7,
                                          rs2=None if op == "lw" else 6, imm=imm)))
        regs = [0] * 32
        regs[5], regs[6], regs[7], regs[31] = 0x1234, 0xDEADBEEF, (addr - imm) & MASK32, 1
        ref, expected = _reference_execute(image, regs, instr, 8)
        state = eng.MachineState(mem=counted(eng.Memory(image)), pc=8, regs=regs[:])
        del calls[:]
        assert eng._HANDLERS[op](state.regs, instr, 8, state.mem) == expected
        assert len(calls) == (kind != "data")
        mem, got_regs = counted(eng.Memory(image)), regs[:]
        del calls[:]
        assert eng._compiled((instr,))(got_regs, mem, 8, 0) == (expected, 0, 0)
        assert len(calls) == (kind != "data")
        assert got_regs == state.regs == ref.regs
        assert _memory_of(mem) == _memory_of(state.mem) == _reference_memory(ref, image)
        assert (expected is not None) == (kind in ("data", "text"))
        assert mem.text_written == (op == "sw" and kind == "text")
        assert mem.dirty == ({addr} if op == "sw" and expected else set())


# A self-loop whose words no other test decodes
_MEMO_LOOP = """
    addi x9, x0, 200
loop:
    addi x10, x10, {}
    xor x11, x11, x10
    addi x9, x9, -1
    bne x9, x0, loop
    ecall
"""


def test_plaintext_and_encrypted_runs_share_one_generated_function():
    image = _image(_MEMO_LOOP.format(1701))
    eimage = encrypt_pipeline(image, 42)
    before = eng._compiled.cache_info()
    for target in (image, eimage):
        assert Engine(target).run().outcome == HALT
    after = eng._compiled.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert image.decoded_blocks[1][2] is eimage.image.decoded_blocks[1][2]
    assert image.decoded_blocks[1][0] is None != eimage.image.decoded_blocks[1][0]


def test_attack_calls_on_one_image_share_its_generated_functions(tmp_path, capsys):
    # Each call loads a fresh EncryptedImage and decodes the loop again in its
    # 500-step prefix; only the first generates the loop's function.
    (tmp_path / "loop.s").write_text(_MEMO_LOOP.format(1702))
    assert cli.main(["assemble", str(tmp_path / "loop.s")]) == 0
    assert cli.main(["encrypt", str(tmp_path / "loop.img"), "--seed", "42" * 16]) == 0
    (tmp_path / "rogue.json").write_text(
        json.dumps({"kind": "rogue-edge", "trigger_step": 500, "target": 0}))
    argv = ["attack", str(tmp_path / "loop.eimg"), str(tmp_path / "rogue.json")]
    calls = []
    for _ in range(2):
        before = eng._compiled.cache_info()
        assert cli.main(argv) == 0
        after = eng._compiled.cache_info()
        calls.append((after.misses - before.misses, after.hits > before.hits))
    assert calls == [(1, False), (0, True)]
    outputs = capsys.readouterr().out.split("\n}\n")
    assert outputs[-2] == outputs[-3]   # the two attack reports


def test_a_run_leaves_no_cycle_holding_its_target():
    # Decoded blocks and their generated functions hold no reference back to
    # the target, and a function's globals are the shared dict it was
    # generated under, so reference counting frees the target.
    image = _image(_MEMO_LOOP.format(3))
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (lambda: _image(_MEMO_LOOP.format(3)), lambda: encrypt_pipeline(image, 42)):
            target = make()
            engine = Engine(target)
            assert engine.run().outcome == HALT
            run = _decoded_blocks(target)[1][2]
            assert run.__globals__ is eng._BLOCK_GLOBALS == {"__builtins__": {}}
            ref = weakref.ref(target)
            del engine, target
            assert ref() is None
    finally:
        if enabled:
            gc.enable()
