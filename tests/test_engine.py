import hashlib
from array import array
from collections import Counter

import pytest

from scylla import engine as eng
from scylla.asm import parse_assembly
from scylla.attacks import AttackScenario, hijack_payload, run_attack, run_trials
from scylla.crypto import encrypt_pipeline, keystream_word
from scylla.engine import (
    HALT,
    INTEGRITY_FAULT,
    MEMORY_FAULT,
    STEP_LIMIT,
    ReportError,
    encrypted_engine,
    overhead_report,
    plaintext_engine,
    run_encrypted,
    run_plaintext,
    trace,
)
from scylla.image import layout_image


def _image(source):
    return layout_image(parse_assembly(source))


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
    engine = plaintext_engine(_image("addi x1, x0, 5\necall"))
    report = engine.run()
    assert report.outcome == HALT
    assert engine.state.regs[1] == 5
    assert report.counters.instructions_retired == 2


def test_zero_step_budget():
    report = run_plaintext(_image("addi x1, x0, 5\necall"), step_limit=0)
    assert report.outcome == STEP_LIMIT
    assert report.counters.instructions_retired == 0


def test_fib_result(corpus_images):
    engine = plaintext_engine(corpus_images["fib"])
    assert engine.run().outcome == HALT
    assert engine.state.regs[10] == 55


def test_corpus_results_match_manifest(corpus_images, manifest):
    for name, image in corpus_images.items():
        engine = plaintext_engine(image)
        report = engine.run()
        assert report.outcome == HALT, name
        assert report.counters.instructions_retired == manifest[name]["retired"], name
        for reg, expected in manifest[name]["regs"].items():
            assert engine.state.regs[int(reg[1:])] == expected, (name, reg)


def test_x0_hardwired():
    engine = plaintext_engine(_image("addi x0, x0, 5\nadd x1, x0, x0\necall"))
    engine.run()
    assert engine.state.regs[0] == 0
    assert engine.state.regs[1] == 0


def test_signed_compares():
    engine = plaintext_engine(_image(
        "addi x5, x0, -1\nslt x6, x5, x0\nslti x7, x5, -2\necall"))
    engine.run()
    assert engine.state.regs[6] == 1  # -1 < 0 signed
    assert engine.state.regs[7] == 0  # -1 < -2 is false


def test_memory_fault_on_unmapped_load():
    report = run_plaintext(_image("lui x5, 32\nlw x1, 0(x5)\necall"))
    assert report.outcome == MEMORY_FAULT
    assert report.instructions_until_fault == 2
    assert report.fault_pc is None  # only integrity faults carry fault fields


def test_memory_fault_on_misaligned_store():
    source = ".text\n lui x2, 16\n addi x2, x2, 2\n sw x0, 0(x2)\n ecall\n.data\n .space 8"
    assert run_plaintext(_image(source)).outcome == MEMORY_FAULT


def test_encrypted_trivial_single_block():
    eimage = encrypt_pipeline(_image("addi x1, x0, 5\necall"), 42)
    engine = encrypted_engine(eimage)
    report = engine.run()
    assert report.outcome == HALT
    assert engine.state.regs[1] == 5
    assert report.counters.key_switches == 0
    assert report.counters.keystream_invocations == 2


def test_encrypted_diamond_digest_matches_plaintext(corpus_images, corpus_encrypted):
    plain = run_plaintext(corpus_images["diamond"])
    enc = run_encrypted(corpus_encrypted["diamond"])
    assert enc.outcome == HALT
    assert enc.final_state_digest == plain.final_state_digest


def test_encrypted_corpus_transparency(corpus_images, corpus_encrypted, manifest):
    for name in corpus_images:
        plain = run_plaintext(corpus_images[name])
        enc = run_encrypted(corpus_encrypted[name])
        assert enc.outcome == HALT, name
        assert enc.final_state_digest == plain.final_state_digest, name
        assert enc.counters.key_switches == manifest[name]["key_switches"], name


def test_key_switches_equal_independent_edge_count(corpus_images, corpus_encrypted):
    for name in corpus_images:
        pcs = [pc for pc, _ in trace(corpus_images[name])]
        expected = dynamic_edge_traversals(corpus_images[name], pcs)
        enc = run_encrypted(corpus_encrypted[name])
        assert enc.counters.key_switches == expected, name


def test_counter_ordering_invariant(corpus_images, corpus_encrypted):
    for name in corpus_images:
        for report in (run_plaintext(corpus_images[name]),
                       run_encrypted(corpus_encrypted[name])):
            c = report.counters
            assert c.key_switches <= c.control_transfers <= c.instructions_retired, name


def test_trace_straightline_length():
    assert len(trace(_image("addi x1, x0, 1\necall"))) == 2


def test_trace_diamond_skips_fallthrough_block(corpus_images):
    pcs = [pc for pc, _ in trace(corpus_images["diamond"])]
    assert pcs == [0, 8, 12]  # branch taken; block at 4 never runs


def test_traces_identical_plain_vs_encrypted(corpus_images, corpus_encrypted):
    for name in corpus_images:
        plain_trace = trace(corpus_images[name])
        enc_trace = trace(corpus_encrypted[name])
        assert plain_trace == enc_trace, name


def test_trace_only_walks_cfg_edges(corpus_images):
    # every concrete transition is an edge of the static graph
    for name, image in corpus_images.items():
        spans = block_of_pc(image)
        entries = {entry for entry, _ in image.blocks}
        pairs = {(s, t) for s, t, _ in image.edges}
        pcs = [pc for pc, _ in trace(image)]
        for prev, here in zip(pcs, pcs[1:]):
            if here in entries:
                assert (spans[prev], spans[here]) in pairs, (name, hex(prev), hex(here))


def test_integrity_fault_on_wrong_entry_key(corpus_encrypted):
    from dataclasses import replace
    eimage = corpus_encrypted["fib"]
    bad = replace(eimage, entry_key=bytes(16))
    report = run_encrypted(bad)
    assert report.outcome == INTEGRITY_FAULT
    assert report.fault_pc is not None
    assert report.fault_word is not None
    assert report.instructions_until_fault >= 1


def test_report_fault_fields_absent_on_halt(corpus_encrypted):
    report = run_encrypted(corpus_encrypted["fib"])
    assert report.outcome == HALT
    assert report.fault_pc is None
    assert report.fault_word is None
    assert report.instructions_until_fault is None


def test_run_reports_deterministic(corpus_encrypted):
    assert run_encrypted(corpus_encrypted["xorshift"]) == run_encrypted(
        corpus_encrypted["xorshift"])


def test_overhead_zero_costs(corpus_images, corpus_encrypted):
    plain = run_plaintext(corpus_images["fib"])
    enc = run_encrypted(corpus_encrypted["fib"])
    assert overhead_report(plain, enc, 0, 0) == 0.0


def test_overhead_straightline_unit_decrypt_cost(corpus_images, corpus_encrypted):
    plain = run_plaintext(corpus_images["straightline"])
    enc = run_encrypted(corpus_encrypted["straightline"])
    assert overhead_report(plain, enc, 1, 0) == 1.0  # one keystream word per fetch


def test_overhead_fib_fixed_by_counters(corpus_images, corpus_encrypted):
    plain = run_plaintext(corpus_images["fib"])
    enc = run_encrypted(corpus_encrypted["fib"])
    # 62 retired, 62 keystream invocations, 13 key switches (manifest values)
    assert overhead_report(plain, enc, 1, 4) == pytest.approx((62 + 52) / 62)


def test_overhead_mismatched_programs_rejected(corpus_images, corpus_encrypted):
    plain = run_plaintext(corpus_images["diamond"])
    enc = run_encrypted(corpus_encrypted["fib"])
    with pytest.raises(ReportError):
        overhead_report(plain, enc, 1, 1)


def test_report_json_shape(corpus_encrypted):
    doc = run_encrypted(corpus_encrypted["fib"]).to_json_dict()
    assert set(doc) == {"outcome", "fault_pc", "fault_word",
                        "instructions_until_fault", "digest", "counters"}
    assert set(doc["counters"]) == {
        "instructions_retired", "control_transfers", "key_switches",
        "patch_lookups", "keystream_invocations", "cycles"}


def test_cycles_model(corpus_encrypted):
    report = run_encrypted(corpus_encrypted["fib"])
    c = report.counters
    assert c.cycles == (c.instructions_retired
                        + eng.DEFAULT_DECRYPT_COST * c.keystream_invocations
                        + eng.DEFAULT_SWITCH_COST * c.key_switches)


def test_advance_then_run_equals_single_run(corpus_images, corpus_encrypted):
    for name in corpus_images:
        for target, make in ((corpus_images[name], plaintext_engine),
                             (corpus_encrypted[name], encrypted_engine)):
            whole = make(target).run()
            retired = whole.counters.instructions_retired
            for k in sorted({0, 1, retired // 2, retired - 1, retired, retired + 3}):
                engine = make(target)
                assert engine.advance(k) == (k < retired), (name, k)
                assert engine.run() == whole, (name, k)


def test_fork_continues_like_a_fresh_engine(corpus_images, corpus_encrypted):
    for name in corpus_images:
        for target, make in ((corpus_images[name], plaintext_engine),
                             (corpus_encrypted[name], encrypted_engine)):
            whole = make(target).run()
            retired = whole.counters.instructions_retired
            checkpoint = make(target)
            for k in range(retired + 1):
                checkpoint.advance(k)
                fresh = make(target)
                fresh.advance(k)
                assert checkpoint.fork().run() == fresh.run(), (name, k)
            assert checkpoint.run() == whole, name


def test_fork_leaves_checkpoint_untouched(corpus_encrypted):
    fib = corpus_encrypted["fib"]
    whole = encrypted_engine(fib).run()
    checkpoint = encrypted_engine(fib)
    checkpoint.advance(10)              # inside the loop, block 3
    digest = checkpoint.state.digest()
    mem = checkpoint.state.mem
    text_addr, data_addr = checkpoint.state.pc, fib.image.data_base   # next fetch, a data word
    words = mem.load_word(text_addr), mem.load_word(data_addr)

    fork = checkpoint.fork()
    fork.state.mem.store_word(text_addr, 0xDEADBEEF)
    fork.state.mem.store_word(data_addr, 0x12345678)
    fork.state.set_reg(5, 77)
    fork.replay_patch(fib.patch_map[(4, 12)], 12)
    fork.state.counters.instructions_retired += 7
    forked = fork.run()
    assert forked.final_state_digest != whole.final_state_digest
    assert forked.counters != whole.counters

    assert (mem.load_word(text_addr), mem.load_word(data_addr)) == words
    assert checkpoint.state.digest() == digest
    assert checkpoint.current_block() == 3
    assert checkpoint.run() == whole


def _per_word_digest(state):
    """Reference digest: registers, then (address, word) per dirty address."""
    h = hashlib.sha256()
    for value in state.regs:
        h.update(value.to_bytes(4, "little"))
    for addr in sorted(state.mem.dirty):
        h.update(addr.to_bytes(4, "little"))
        h.update((state.mem.load_word(addr) or 0).to_bytes(4, "little"))
    return h.hexdigest()


def test_digest_matches_per_word_formula(corpus_images, corpus_encrypted):
    for name in corpus_images:
        for engine in (plaintext_engine(corpus_images[name]),
                       encrypted_engine(corpus_encrypted[name])):
            report = engine.run()
            assert report.final_state_digest == _per_word_digest(engine.state), name

    # a payload written over loop_sum's loop body dirties text; the
    # program's own stores have already dirtied its data cell
    image = corpus_images["loop_sum"]
    payload = hijack_payload(image.data_base, 0xC0FFEE42)
    for make, target in ((plaintext_engine, image),
                         (encrypted_engine, corpus_encrypted["loop_sum"])):
        engine = make(target)
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

    plain = plaintext_engine(image)
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


def _corpus_fetch_results(sources):
    """Every corpus run report, plain and encrypted, plus a fib rogue-edge campaign."""
    reports = []
    for source in sources.values():
        image = _image(source)
        reports += [run_plaintext(image), run_encrypted(encrypt_pipeline(image, 42))]
    fib = encrypt_pipeline(_image(sources["fib"]), 42)
    trials = [{**o.to_json_dict(), "digest": o.report.final_state_digest}
              for o in run_trials(fib, "rogue-edge", 40, seed=5, step_limit=4096)]
    return reports, trials, fib.image.fetch_cache


def test_fetch_cache_bound_changes_no_result(corpus_sources, monkeypatch):
    reports, trials, _ = _corpus_fetch_results(corpus_sources)
    monkeypatch.setattr(eng, "FETCH_CACHE_SIZE", 2)
    small_reports, small_trials, cache = _corpus_fetch_results(corpus_sources)
    assert small_reports == reports
    assert small_trials == trials
    assert len(cache) <= 2


def test_fetch_cache_holds_words_and_streams_only(corpus_sources):
    eimages = {name: encrypt_pipeline(_image(source), 42)
               for name, source in corpus_sources.items()}
    for eimage in eimages.values():
        assert run_encrypted(eimage).outcome == HALT
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
    report = run_encrypted(encrypt_pipeline(_image(corpus_sources["loop_sum"]), 42))
    assert report.outcome == HALT
    fetches = report.counters.instructions_retired   # a halted run retires every fetch
    assert report.counters.keystream_invocations == fetches == 105
    assert 1 <= calls["decode"] < fetches
    assert 1 <= calls["keystream"] < fetches


def _stale_key_mid_block_run(source):
    """A run sent, after 3 steps, to a mid-block word past its key's block stream."""
    eimage = encrypt_pipeline(_image(source), 42)
    image = eimage.image
    engine = encrypted_engine(eimage)
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
