import pytest

from scylla import engine as eng
from scylla.asm import parse_assembly
from scylla.crypto import encrypt_pipeline
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

