import gc
import hashlib
import itertools
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
    keystream_word,
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
from scylla.image import Image, ImageFormatError, LayoutError, layout_image
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
    assert report.final_state_digest == _per_word_digest(engine.state)
    if "sw x6" in body:
        assert engine.state.mem.dirty == {0x1004}
        assert engine.state.mem.load_word(0x1004) == 0x73
        assert report.final_state_digest == (
            "da2b72b65136d14a7f31a485a554ae305b3aa7047b2b8f56ab292bcdd552ce5f")

    eimage = encrypt_pipeline(image, 42)
    encrypted = Engine(eimage).run()
    assert encrypted == _stepped(eimage, _budget(6))[0]   # lui, up to 3 words, ecall
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


def test_traces_identical_plain_vs_encrypted(corpus_images, corpus_encrypted, manifest):
    # step both runs side by side: every step leaves the same architectural state
    for name in corpus_images:
        budget = _budget(manifest[name]["retired"])
        plain, enc = Engine(corpus_images[name]), Engine(corpus_encrypted[name])
        k, alive = 0, True
        while alive:
            k += 1
            assert k <= budget, name
            alive = plain.advance(k)
            assert enc.advance(k) == alive, (name, k)
            assert ((plain.state.pc, plain.prev_pc, plain.state.regs,
                     plain.state.counters.instructions_retired)
                    == (enc.state.pc, enc.prev_pc, enc.state.regs,
                        enc.state.counters.instructions_retired)), (name, k)
        assert plain.run().outcome == enc.run().outcome == HALT, name
        assert len(trace(corpus_images[name], budget)) == k, name


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


def test_run_reports_deterministic(corpus_encrypted):
    assert Engine(corpus_encrypted["xorshift"]).run() == Engine(
        corpus_encrypted["xorshift"]).run()


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


def test_advance_then_run_equals_single_run(corpus_images, corpus_encrypted):
    for name in corpus_images:
        for target in (corpus_images[name], corpus_encrypted[name]):
            whole = Engine(target).run()
            retired = whole.counters.instructions_retired
            for k in sorted({0, 1, retired // 2, retired - 1, retired, retired + 3}):
                engine = Engine(target)
                assert engine.advance(k) == (k < retired), (name, k)
                assert engine.run() == whole, (name, k)


def test_advance_to_a_step_already_retired_leaves_the_engine_as_it_is(corpus_encrypted):
    # An attack trial advances a fork that already stands at its trigger;
    # such a call does not enter the fetch loop.
    def no_fetch_loop(limit):
        raise AssertionError(f"fetch loop entered for {limit} steps")

    for steps, alive in ((10, True), (eng.DEFAULT_STEP_LIMIT, False)):
        engine = Engine(corpus_encrypted["fib"])
        assert engine.advance(steps) == alive
        before = _fetch_state(engine), engine.state.mem.dirty.copy(), engine._end
        engine._fetch_loop = no_fetch_loop
        for k in (0, 1, 9, 10):
            assert engine.advance(k) == alive
            assert (_fetch_state(engine), engine.state.mem.dirty, engine._end) == before
    assert before[2] == (HALT, None, None)   # the sticky end of the finished run


def test_fork_continues_like_a_fresh_engine(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        for target in (corpus_images[name], corpus_encrypted[name]):
            whole = Engine(target).run()
            retired = whole.counters.instructions_retired
            assert retired == manifest[name]["retired"], name   # one fork per step
            checkpoint = Engine(target)
            for k in range(retired + 1):
                checkpoint.advance(k)
                fresh = Engine(target)
                fresh.advance(k)
                assert checkpoint.fork().run() == fresh.run(), (name, k)
            assert checkpoint.run() == whole, name


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


def _per_word_digest(state):
    """Reference digest: registers, then (address, word) per dirty address."""
    h = hashlib.sha256()
    for value in state.regs:
        h.update(value.to_bytes(4, "little"))
    for addr in sorted(state.mem.dirty):
        h.update(addr.to_bytes(4, "little"))
        h.update((state.mem.load_word(addr) or 0).to_bytes(4, "little"))
    return h.hexdigest()


def test_digest_matches_per_word_formula(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        for engine in (Engine(corpus_images[name]), Engine(corpus_encrypted[name])):
            report = engine.run(_budget(manifest[name]["retired"]))
            assert report.outcome == HALT, name
            assert report.final_state_digest == _per_word_digest(engine.state), name

    # a payload written over loop_sum's loop body dirties text; the
    # program's own stores have already dirtied its data cell
    image = corpus_images["loop_sum"]
    payload = hijack_payload(image.data_base, 0xC0FFEE42)
    for target in (image, corpus_encrypted["loop_sum"]):
        engine = Engine(target)
        engine.advance(25)
        for i in range(0, len(payload), 4):
            engine.state.mem.store_word(12 + i, int.from_bytes(payload[i:i + 4], "little"))
        engine.state.pc = 12
        report = engine.run(4096)
        dirty = engine.state.mem.dirty
        assert any(addr < image.data_base for addr in dirty)
        assert image.data_base in dirty
        assert report.final_state_digest == _per_word_digest(engine.state)


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


def _corpus_fetch_results(sources, manifest):
    """Every corpus run report, plain and encrypted, plus a fib rogue-edge campaign."""
    reports = []
    for name, source in sources.items():
        image, budget = _image(source), _budget(manifest[name]["retired"])
        reports += [Engine(image).run(budget), Engine(encrypt_pipeline(image, 42)).run(budget)]
    fib = encrypt_pipeline(_image(sources["fib"]), 42)
    trials = [{**o.to_json_dict(), "digest": o.report.final_state_digest}
              for o in run_trials(fib, "rogue-edge", 40, seed=5, step_limit=4096)]
    return reports, trials, fib.image.fetch_cache


def test_fetch_cache_bound_changes_no_result(corpus_sources, manifest, monkeypatch):
    reports, trials, _ = _corpus_fetch_results(corpus_sources, manifest)
    assert all(report.outcome == HALT for report in reports)
    monkeypatch.setattr(eng, "FETCH_CACHE_SIZE", 2)
    small_reports, small_trials, cache = _corpus_fetch_results(corpus_sources, manifest)
    assert small_reports == reports
    assert small_trials == trials
    assert len(cache) <= 2


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


def _stale_key_mid_block_run(source):
    """A run sent, after 3 steps, to a mid-block word past its key's block stream."""
    eimage = encrypt_pipeline(_image(source), 42)
    image = eimage.image
    engine = Engine(eimage)
    assert engine.advance(3)
    state = engine.state
    base = state.cur_block_base
    past = base + 4 * image.block_index[base][1]
    state.pc = next(addr for addr in range(past, image.text_base + len(image.text), 4)
                    if addr not in image.block_index)
    fetch = (state.pc, state.cur_key, (state.pc - base) >> 2, state.mem.load_word(state.pc))
    return engine.run(100), fetch


def test_stale_key_past_its_stream_takes_the_per_word_fallback(corpus_sources, monkeypatch):
    calls = Counter()

    def counting(key, offset):
        calls[offset] += 1
        return keystream_word(key, offset)

    monkeypatch.setattr(eng, "keystream_word", counting)
    report, (pc, key, offset, raw) = _stale_key_mid_block_run(corpus_sources["fib"])
    assert calls == {offset: 1}
    assert report.outcome == INTEGRITY_FAULT
    assert report.fault_pc == pc
    assert report.fault_word == raw ^ keystream_word(key, offset)

    # with no block streams every fetch miss takes the per-word path
    monkeypatch.setattr(eng, "block_keystream", lambda key, n_words: array("I"))
    assert _stale_key_mid_block_run(corpus_sources["fib"]) == (report, (pc, key, offset, raw))


def _fetch_state(engine):
    state = engine.state
    return (state.pc, engine.prev_pc, state.counters.copy(), state.cur_key,
            state.cur_block_base, state.regs[:], state.halted)


# a loop, then a load from an unmapped address
_LW_FAULT = _image("addi x1, x0, 3\nloop:\naddi x1, x1, -1\nbne x1, x0, loop\n"
                   "lui x5, 32\nlw x6, 0(x5)\necall")
_LW_FAULT_STEPS = 1 + 3 * 2 + 2


def _single_step_cases(corpus_images, corpus_encrypted, manifest):
    """(name, engine factory, expected end, step budget) for every corpus
    program, plain and encrypted, a run ending in an integrity fault and one
    ending in a memory fault inside `lw`."""
    cases = []
    for name in corpus_images:
        budget = _budget(manifest[name]["retired"])
        cases.append((name, lambda image=corpus_images[name]: Engine(image), HALT, budget))
        cases.append((name + " encrypted",
                      lambda eimage=corpus_encrypted[name]: Engine(eimage), HALT, budget))
    fib = corpus_encrypted["fib"]
    # without the return edge's patch the key register goes stale back in main
    stale = replace(fib, patch_table=tuple(
        record for record in fib.patch_table if record[:2] != (4, 12)))
    assert len(stale.patch_map) == len(fib.patch_map) - 1
    cases.append(("fib stale key", lambda: Engine(stale), INTEGRITY_FAULT,
                  _budget(manifest["fib"]["retired"])))
    cases.append(("lw fault", lambda: Engine(_LW_FAULT), MEMORY_FAULT, _budget(_LW_FAULT_STEPS)))
    lw_fault_enc = encrypt_pipeline(_LW_FAULT, 42)
    cases.append(("lw fault encrypted", lambda: Engine(lw_fault_enc), MEMORY_FAULT,
                  _budget(_LW_FAULT_STEPS)))
    return cases


def test_single_steps_leave_the_engine_as_one_advance(corpus_images, corpus_encrypted,
                                                      manifest):
    # The fetch loop keeps its state in locals; stepping one instruction per
    # call only works if every exit writes all of it back.
    for name, make, end, budget in _single_step_cases(corpus_images, corpus_encrypted, manifest):
        stepped = make()
        encrypted = stepped.encrypted
        k, alive = 0, True
        while alive:
            k += 1
            assert k <= budget, name
            alive = stepped.advance(k)
            once = make()
            assert once.advance(k) == alive, (name, k)
            assert _fetch_state(stepped) == _fetch_state(once), (name, k)
            counters = stepped.state.counters
            if alive:
                assert counters.instructions_retired == k, (name, k)
                assert counters.keystream_invocations == (k if encrypted else 0), (name, k)
        report = stepped.run()
        assert report.outcome == end, name
        assert report == once.run(), name
        if end != HALT:
            assert k > 5, name   # the run ended past its first few fetches
        if end == MEMORY_FAULT:   # inside lw: the fetch at pc decoded and executed
            assert report.counters.keystream_invocations == k * encrypted, name
            assert _LW_FAULT.text_words()[stepped.state.pc >> 2] == encode(
                Instruction("lw", rd=6, rs1=5, imm=0)), name


# -- the block path against the per-word path ---------------------------------
#
# A call that retires one instruction never runs a decoded block, so an
# engine stepped one `advance` at a time is the per-word reference; it is
# taken before a test lowers HOT_BLOCK_VISITS. HOT_BLOCK_VISITS 0 makes
# every block run from its decoded words from its first entry by a
# transfer or a boundary crossing on.

def _step(engine, limit):
    """Step `engine` one instruction per call to its end or `limit` (see
    `_budget`); its report."""
    k = engine.state.counters.instructions_retired
    while k < limit and engine.advance(k + 1):
        k += 1
    return engine.run(limit)


def _stepped(target, limit):
    """The per-word reference run of `target`: its report and its engine."""
    engine = Engine(target)
    return _step(engine, limit), engine


def _decoded_blocks(target):
    """The decoded blocks of a target's image."""
    return (target.image if isinstance(target, crypto.EncryptedImage) else target).decoded_blocks


def _decoded_ids(target):
    """Ids of the blocks decoded for a target's image."""
    return set(_decoded_blocks(target))


# One block that branches back to its own entry: the back edge's patch is
# the zero patch, so every iteration derives a new key equal to the one held.
_SELF_LOOP = """
    addi x9, x0, 200
loop:
    addi x10, x10, 3
    xor x11, x11, x10
    addi x9, x9, -1
    bne x9, x0, loop
    ecall
"""
_SELF_LOOP_STEPS = 2 + 4 * 200


@pytest.mark.parametrize("hot", [0, 1, eng.HOT_BLOCK_VISITS])
def test_block_path_runs_every_program_as_the_per_word_path(corpus_sources, manifest,
                                                           monkeypatch, hot):
    targets = []
    budgets = {name: _budget(manifest[name]["retired"]) for name in corpus_sources}
    budgets["self-loop"] = _budget(_SELF_LOOP_STEPS)
    for name, source in {**corpus_sources, "self-loop": _SELF_LOOP}.items():
        image = _image(source)
        targets += [(name, image), (name, encrypt_pipeline(image, 42))]
    references = [_stepped(target, budgets[name]) for name, target in targets]
    assert all(report.outcome == HALT for report, _ in references)
    assert not any(_decoded_ids(target) for _, target in targets)   # stepping decodes none
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
    decoded = 0
    for (name, target), (expected, per_word) in zip(targets, references):
        for _ in range(3):   # later runs reuse the blocks the first one decoded
            engine = Engine(target)
            assert engine.run(budgets[name]) == expected, (name, hot)
            assert _fetch_state(engine) == _fetch_state(per_word), (name, hot)
        assert _step(Engine(target), budgets[name]) == expected, (name, hot)
        # calls of 1..7 steps: the step limit cuts decoded blocks at every
        # offset, and those runs take the per-word path
        engine, k, chunks = Engine(target), 0, itertools.cycle(range(1, 8))
        while k < budgets[name] and engine.advance(k := min(budgets[name], k + next(chunks))):
            assert engine.state.counters.instructions_retired == k, (name, hot)
        assert engine.run(budgets[name]) == expected, (name, hot)
        assert _fetch_state(engine) == _fetch_state(per_word), (name, hot)
        decoded += len(_decoded_ids(target))
    if hot <= 1:
        assert decoded


def test_targets_sharing_an_image_run_under_their_own_tables(monkeypatch):
    # Two patch tables over one image: the second lacks the loop's way out,
    # so its run leaves the loop under the loop's key and faults. The blocks
    # decoded for the image serve both, alternating.
    full = encrypt_pipeline(_image(_SELF_LOOP), 42)
    cut = replace(full, patch_table=tuple(
        record for record in full.patch_table if record[:2] != (1, 20)))
    assert cut.image is full.image and len(cut.patch_map) == len(full.patch_map) - 1
    references = [_stepped(target, _budget(_SELF_LOOP_STEPS))[0] for target in (full, cut)]
    assert [report.outcome for report in references] == [HALT, INTEGRITY_FAULT]
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    for _ in range(2):
        for target, expected in zip((full, cut), references):
            assert Engine(target).run(_budget(_SELF_LOOP_STEPS)) == expected
    assert 1 in _decoded_ids(cut)


@pytest.mark.parametrize("name", ["fib", "loop_sum"])
@pytest.mark.parametrize("kind", ["rogue-edge", "mid-block-entry", "patch-replay"])
def test_block_path_campaigns_equal_the_per_word_path(corpus_sources, monkeypatch, name, kind):
    def campaign():
        eimage = encrypt_pipeline(_image(corpus_sources[name]), 42)
        outcomes = run_trials(eimage, kind, 60, seed=3, step_limit=4096)
        return ([(o.to_json_dict(), o.report.final_state_digest) for o in outcomes],
                _decoded_ids(eimage))

    # no block of these programs is entered HOT_BLOCK_VISITS times in one
    # run, so a campaign at the default decodes none
    per_word, none = campaign()
    assert not none
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 2)
    blocks, decoded = campaign()
    assert decoded
    assert blocks == per_word


def _inject_into_loop_sum(engine):
    # loop_sum's loop block starts at 12; the payload stores the sentinel and halts
    payload = hijack_payload(0x10000, 0xC0FFEE42)
    for i in range(0, len(payload), 4):
        assert engine.state.mem.store_word(12 + i, int.from_bytes(payload[i:i + 4], "little"))
    engine.state.pc = 12


def _attacked_loop_sum(target):
    """An engine on loop_sum after 25 steps, with the payload over its loop block."""
    engine = Engine(target)
    assert engine.advance(25)
    _inject_into_loop_sum(engine)
    return engine


@pytest.mark.parametrize("encrypted", [False, True])
def test_payload_over_a_decoded_block_runs_as_stored(corpus_sources, monkeypatch, encrypted):
    image = _image(corpus_sources["loop_sum"])
    target = encrypt_pipeline(image, 42) if encrypted else image
    reference = _attacked_loop_sum(target)
    expected = _step(reference, 4096), reference.state.mem.load_word(0x10000)
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    engine = _attacked_loop_sum(target)
    report = engine.run(4096)
    assert 1 in _decoded_ids(target)   # the loop block, decoded before the payload
    assert (report, engine.state.mem.load_word(0x10000)) == expected
    if not encrypted:   # the payload ran: 25 + 6 retired, sentinel stored
        assert report.outcome == HALT
        assert report.counters.instructions_retired == 31
        assert expected[1] == 0xC0FFEE42
    else:               # the plaintext payload does not decrypt
        assert report.outcome == INTEGRITY_FAULT


# The loop block stores into its own next word every iteration: the
# immediate of `addi x10, x10, 1` at 20 grows by one per pass, so x10 ends
# at 40 + (1 + 2 + ... + 40) = 860.
_SELF_MODIFYING = """
    lui x8, 256
    lw x6, 20(x0)
    addi x9, x0, 40
loop:
    add x6, x6, x8
    sw x6, 20(x0)
    addi x10, x10, 1
    addi x9, x9, -1
    bne x9, x0, loop
    ecall
"""
_SELF_MODIFYING_STEPS = 3 + 40 * 5 + 1


@pytest.mark.parametrize("hot", [0, eng.HOT_BLOCK_VISITS])
def test_program_storing_into_its_own_block(monkeypatch, hot):
    image = _image(_SELF_MODIFYING)
    targets = (image, encrypt_pipeline(image, 42))
    references = [_stepped(target, _budget(_SELF_MODIFYING_STEPS))[0] for target in targets]
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
    for target, per_word in zip(targets, references):
        engine = Engine(target)
        assert engine.run() == per_word
        if target is image:
            assert per_word.outcome == HALT
            assert engine.state.regs[10] == 860
        # only the loop block, entered before the first store, was decoded, and
        # it is never read after it; the entry block is never entered by a transfer
        assert _decoded_ids(target) == ({1} if hot == 0 else set())


def test_forks_share_decoded_blocks_but_not_text(corpus_sources, manifest, monkeypatch):
    image = _image(corpus_sources["loop_sum"])
    targets = (image, encrypt_pipeline(image, 42))
    budget = _budget(manifest["loop_sum"]["retired"])
    references = [(_stepped(target, budget)[0], _step(_attacked_loop_sum(target), 4096))
                  for target in targets]
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    for target, (whole, injected) in zip(targets, references):
        checkpoint = Engine(target)
        assert checkpoint.advance(25)
        attacked, clean = checkpoint.fork(), checkpoint.fork()
        _inject_into_loop_sum(attacked)
        attacked_again = attacked.fork()           # a fork inherits the text store
        attacked_report = attacked.run(4096)
        assert clean.run() == whole                # still the original code
        assert checkpoint.run() == whole
        assert attacked_report == attacked_again.run(4096) == injected
        assert 1 in _decoded_ids(target)


def test_decoded_block_ending_at_an_illegal_word_entered_past_it(monkeypatch):
    image = _image("jal x0, body\nbody:\naddi x10, x0, 1\naddi x10, x10, 2\n"
                   "addi x10, x10, 4\naddi x10, x10, 8\necall")
    image = replace(image, text=image.text[:8] + bytes(4) + image.text[12:])   # word 2 illegal
    for target in (image, encrypt_pipeline(image, 42)):
        results = []
        for hot in (0, 255):   # 255: no block is decoded in this test
            monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
            report = Engine(target).run()
            engine = Engine(target)
            assert engine.advance(2)   # the jal, then block 1's first word
            engine.state.pc = 12       # past the illegal word, in block 1
            results.append((report, engine.run(), engine.state.regs[10]))
        assert results[0] == results[1]
        report, entered_past, x10 = results[0]
        assert report.outcome == INTEGRITY_FAULT and report.fault_pc == 8
        assert entered_past.outcome == HALT and x10 == 13
        _, count, run = _decoded_blocks(target)[1]
        assert count == 1   # the decoded words stop before word 2
        regs = [0] * 32
        assert run(regs, None, 4, 0) == (8, 0, 0) and regs[10] == 1   # word 1 ran alone


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


def test_memory_fault_inside_a_decoded_block(monkeypatch):
    targets = (_LW_FAULT, encrypt_pipeline(_LW_FAULT, 42))
    references = [_stepped(target, _budget(_LW_FAULT_STEPS)) for target in targets]
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    for target, (expected, per_word) in zip(targets, references):
        engine = Engine(target)
        report = engine.run()
        assert report == expected
        assert report.outcome == MEMORY_FAULT
        # the lw after lui in block 2: pc at the lw, prev_pc at the lui
        assert [(e.state.pc, e.prev_pc) for e in (engine, per_word)] == [(16, 12)] * 2
        assert 2 in _decoded_ids(target)


def test_stale_key_whose_stream_is_shorter_than_its_block(monkeypatch):
    # Block 1's key first enters block 0 (2 words) by a replayed patch, so
    # its cached stream covers 2 words. The legal run then enters block 1
    # (7 words) with that key: the stream is replaced by one that covers the
    # block, the block is decoded, and no word is decrypted on its own.
    source = "addi x10, x0, 1\njal x0, long\nlong:\n" + "addi x10, x10, 1\n" * 6 + "ecall"
    # 9 steps, on an image of its own
    expected = _stepped(encrypt_pipeline(_image(source), 42), _budget(9))[0]
    eimage = encrypt_pipeline(_image(source), 42)
    assert [length for _, length in eimage.image.blocks] == [2, 7]
    replayed = Engine(eimage)
    replayed.replay_patch(eimage.patch_map[(0, 8)], 0)   # key of block 1, in block 0
    replayed.run(1)
    key = replayed.state.cur_key
    cache = eimage.image.fetch_cache
    assert len(cache[key]) == 2

    offsets = []
    monkeypatch.setattr(eng, "keystream_word",
                        lambda key, offset: offsets.append(offset) or keystream_word(key, offset))
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    engine = Engine(eimage)
    report = engine.run()
    assert report == expected
    assert report.outcome == HALT and engine.state.regs[10] == 7
    assert len(cache[key]) == 7
    assert _decoded_ids(eimage) == {1}
    assert offsets == []


def test_entries_are_counted_per_run(monkeypatch):
    # The loop block is entered once per iteration: by the fallthrough into
    # it, then by its back edge. Blocks entered HOT_BLOCK_VISITS times in
    # every run, but no more, are never decoded, however many runs there are.
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 2)
    loop = "addi x9, x0, {}\nloop:\naddi x9, x9, -1\nbne x9, x0, loop\necall"
    for iterations, decoded in ((2, set()), (3, {1})):
        image = _image(loop.format(iterations))
        for target in (image, encrypt_pipeline(image, 42)):
            for _ in range(5):
                assert Engine(target).run().outcome == HALT
            assert _decoded_ids(target) == decoded


# -- rounds run in place ----------------------------------------------------------
#
# A decoded block whose last word goes back to its first runs further rounds
# inside its generated function. HOT_BLOCK_VISITS 255 is the reference: no
# loop below is entered that often, so no block is decoded.

_ROUND_PROGRAMS = {
    "branch": _SELF_LOOP,
    # loads and stores of data words on every round
    "data": """
    lui x5, 16
    addi x9, x0, 200
loop:
    lw x6, 0(x5)
    add x10, x10, x6
    sw x10, 4(x5)
    addi x9, x9, -1
    bne x9, x0, loop
    ecall
.data
    .word 7, 0
""",
    # a jal back edge; the lw, word 0, faults in the eleventh round
    "lw fault at word 0": """
    lui x5, 16
loop:
    lw x6, 0(x5)
    add x10, x10, x6
    addi x5, x5, 4
    jal x0, loop
.data
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
""",
    "lw fault at word 1": """
    lui x5, 16
loop:
    addi x5, x5, 4
    lw x6, -4(x5)
    add x10, x10, x6
    jal x0, loop
.data
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
""",
    # an outer loop enters the inner self-loop by a boundary crossing; the
    # lw, the inner loop's word 0, faults in its second round of a later entry
    "lw fault in a later entry": """
    lui x5, 16
outer:
    addi x9, x0, 3
inner:
    lw x6, 0(x5)
    addi x5, x5, 4
    addi x9, x9, -1
    bne x9, x0, inner
    jal x0, outer
.data
    .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
""",
    # the loop stores into its own next word on every round
    "store into its own block": _SELF_MODIFYING,
    # each round stores to the address the next table entry holds: four data
    # words, then the first word of the text, which never runs again, then data
    "store into the text": """
    lui x8, 16
    addi x9, x0, 6
loop:
    lw x5, 0(x8)
    addi x8, x8, 4
    sw x9, 0(x5)
    addi x9, x9, -1
    bne x9, x0, loop
    ecall
.data
    .word 0x10018, 0x1001C, 0x10020, 0x10024, 0, 0x10028
    .space 20
""",
}
# instructions each program retires in its plaintext run
_ROUND_STEPS = {
    "branch": _SELF_LOOP_STEPS,
    "data": 2 + 200 * 5 + 1,
    "lw fault at word 0": 1 + 40,
    "lw fault at word 1": 1 + 40 + 1,
    "lw fault in a later entry": 1 + 3 * 14 + 1 + 4,
    "store into its own block": _SELF_MODIFYING_STEPS,
    "store into the text": 2 + 6 * 5 + 1,
}


def _recording_rounds(monkeypatch) -> list:
    """(rounds allowed, rounds taken) of every generated-function call from
    here on, for blocks decoded from here on."""
    calls, compiled = [], eng._compiled

    def recording(instrs):
        run = compiled(instrs)

        def recorded(regs, mem, base, rounds):
            result = run(regs, mem, base, rounds)
            calls.append((rounds, result[2]))
            return result
        return recorded

    monkeypatch.setattr(eng, "_compiled", recording)
    return calls


def _per_word_cuts(target, cuts, limit):
    """The per-word run of `target` up to `limit`: (cut, report at the cut,
    fetch state) for each cut, then its final report and fetch state."""
    engine, states = Engine(target), []
    for cut in cuts:
        states.append((cut, _step(engine, cut), _fetch_state(engine)))
    return states, _step(engine, limit), _fetch_state(engine)


@pytest.mark.parametrize("name", list(_ROUND_PROGRAMS))
def test_rounds_in_place_equal_the_per_word_path(monkeypatch, name):
    image = _image(_ROUND_PROGRAMS[name])
    targets = (image, encrypt_pipeline(image, 42))
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 255)
    steps = _ROUND_STEPS[name]   # an encrypted run that faults sooner stays at its end
    # step limits and advance boundaries at every offset of some round
    cuts = sorted({1, 2, 3} | set(range(5, steps + 2, 7)))
    references = [(_per_word_cuts(target, cuts, _budget(steps)), trace(target, _budget(steps)))
                  for target in targets]
    assert not any(_decoded_ids(target) for target in targets)
    calls = _recording_rounds(monkeypatch)
    for hot in (0, 1, 2, 32):
        monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
        for target, ((states, expected, final), pcs) in zip(targets, references):
            assert len(pcs) == expected.counters.instructions_retired
            engine = Engine(target)
            assert engine.run() == expected, hot
            assert _fetch_state(engine) == final, hot
            advanced = Engine(target)
            for cut, report, state in states:
                limited = Engine(target)
                assert limited.run(cut) == report, (hot, cut)
                assert _fetch_state(limited) == state, (hot, cut)
                advanced.advance(cut)
                assert _fetch_state(advanced) == state, (hot, cut)
            assert advanced.run() == expected, hot
            assert _fetch_state(advanced) == final, hot
    # rounds ran in place, except where every round stores into the text
    assert any(taken for _, taken in calls) == (name != "store into its own block")
    if name == "store into the text":
        # the first call runs the first round, then four more in place, and
        # returns in the fifth, whose store goes into the text
        assert expected.outcome == HALT
        assert calls[0][1] == 4
    elif name.startswith("lw fault"):   # at the eleventh load
        assert expected.outcome == MEMORY_FAULT
        assert expected.counters.instructions_retired == _ROUND_STEPS[name]


_FLIPPING_DELTA = bytes(range(1, 17))


def test_a_self_edge_that_changes_the_key_runs_no_round_in_place(monkeypatch):
    # The second round goes through the fetch loop, under the wrong key.
    eimage = encrypt_pipeline(_image(_SELF_LOOP), 42)
    eimage = replace(eimage, patch_table=tuple(
        (src, target, _FLIPPING_DELTA if (src, target) == (1, 4) else patch)
        for src, target, patch in eimage.patch_table))
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 255)
    expected, per_word = _stepped(eimage, _budget(_SELF_LOOP_STEPS))
    assert expected.outcome == INTEGRITY_FAULT
    calls = _recording_rounds(monkeypatch)
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    engine = Engine(eimage)
    assert engine.run(_budget(_SELF_LOOP_STEPS)) == expected
    assert _fetch_state(engine) == _fetch_state(per_word)
    assert calls and all(rounds == 0 for rounds, _ in calls)


def _view(engine, limit):
    """What the reference fixes of an engine that has run to `limit`."""
    state = engine.state
    return engine.run(limit).to_json_dict(), state.cur_key, state.pc, engine.prev_pc


def _reference_view(ref, limit):
    return ref.run(limit), ref.key, ref.pc, ref.prev_pc


@pytest.mark.parametrize("hot", [0, eng.HOT_BLOCK_VISITS])
@pytest.mark.parametrize("edge", ["zero patch", "patch miss", "non-zero patch"])
def test_self_edges_equal_the_reference(monkeypatch, edge, hot):
    # The loop's self edge keeps the key under the honest zero patch, which
    # counts a key switch per round, and under a patch miss, which counts
    # none: rounds run in place. A non-zero patch changes the key on every
    # round, so each round goes through the fetch loop; under the zero
    # keystream every key decrypts the loop, which runs to its end.
    eimage = encrypt_pipeline(_image(_SELF_LOOP), 42)
    assert eimage.patch_map[(1, 4)] == bytes(crypto.KEY_BYTES)
    if edge == "patch miss":
        eimage = replace(eimage, patch_table=tuple(
            record for record in eimage.patch_table if record[:2] != (1, 4)))
    elif edge == "non-zero patch":
        eimage = replace(eimage, image=_image(_SELF_LOOP), patch_table=tuple(
            (src, target, _FLIPPING_DELTA if (src, target) == (1, 4) else patch)
            for src, target, patch in eimage.patch_table))
        monkeypatch.setattr(eng, "block_keystream", lambda key, n: array("I", bytes(4 * n)))
        monkeypatch.setattr(eng, "keystream_word", lambda key, offset: 0)
        monkeypatch.setattr("reference.keystream_word", lambda key, offset: 0)
    limit, forked_at = _budget(_SELF_LOOP_STEPS), 2 + 4 * 60 + 1   # inside the 61st round
    expected = _reference_view(Reference(eimage), limit)
    assert expected[0]["outcome"] == HALT
    assert expected[0]["counters"]["key_switches"] == (2 if edge == "patch miss" else 201)
    calls = _recording_rounds(monkeypatch)
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
    assert _view(Engine(eimage), limit) == expected
    ref, engine = Reference(eimage), Engine(eimage)
    assert engine.advance(forked_at)
    assert _view(engine, forked_at) == _reference_view(ref, forked_at)
    fork = engine.fork()
    assert _view(fork, limit) == expected
    assert _view(engine, limit) == expected
    assert calls
    assert any(taken for _, taken in calls) == (edge != "non-zero patch")


@pytest.mark.parametrize("kind", ["rogue-edge", "mid-block-entry", "patch-replay"])
def test_campaign_forking_inside_a_hot_loop(monkeypatch, kind):
    # 800 of the program's 803 steps are in its loop, so nearly every trial
    # forks from a checkpoint in the middle of it; the block after the loop
    # is one a mid-block entry can target.
    source = _SELF_LOOP.replace("ecall", "addi x12, x0, 1\necall")

    def campaign():
        eimage = encrypt_pipeline(_image(source), 42)
        outcomes = run_trials(eimage, kind, 40, seed=5, step_limit=4096)
        return [(o.to_json_dict(), o.report) for o in outcomes]

    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 255)
    reference = campaign()
    calls = _recording_rounds(monkeypatch)
    for hot in (0, 32):
        monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
        assert campaign() == reference, hot
    assert any(taken for _, taken in calls)


# -- generated block functions ---------------------------------------------------

# Eight text words at 0 and four data words at 0x1000. A lw or sw is aimed
# at a data or text word, at the word just past or below a segment, at an
# unaligned address or at the top of the address space.
_DIFF_IMAGE = Image(text_base=0, entry=0, text=bytes(range(32)), data_base=0x1000,
                    data=bytes(range(100, 116)), blocks=((0, 8),), edges=())
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


def _reference_step(image, regs, instr, pc):
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
        ref, expected = _reference_step(_DIFF_IMAGE, regs, instr, base)
        state = eng.MachineState(mem=eng.Memory(_DIFF_IMAGE), pc=base, regs=regs[:])
        assert _masked(eng._HANDLERS[op](state.regs, instr, base, state)) == expected, instr
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
        ref, expected = _reference_step(image, regs, instr, 8)
        state = eng.MachineState(mem=counted(eng.Memory(image)), pc=8, regs=regs[:])
        del calls[:]
        assert eng._HANDLERS[op](state.regs, instr, 8, state) == expected
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
_MEMO_LOOP = _SELF_LOOP.replace("addi x10, x10, 3", "addi x10, x10, {}")


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
    image = _image(_SELF_LOOP)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in (lambda: _image(_SELF_LOOP), lambda: encrypt_pipeline(image, 42)):
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
