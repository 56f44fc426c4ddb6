"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdicts.
"""

import math
import random
import time

from scylla.analysis import diversification_report
from scylla.attacks import load_scenario, run_attack, survival_trials
from scylla.crypto import (
    derive_next_key,
    dump_encrypted_image,
    encrypt_image,
    gen_keys,
    keystream_word,
)
from scylla.engine import (
    HALT,
    INTEGRITY_FAULT,
    Engine,
    overhead_report,
    trace,
)
from scylla.isa import exact_valid_decode_fraction, valid_decode_fraction

SEED = 42
STEP_LIMIT = 10 ** 6


def _trace_budget(manifest, name: str) -> int:
    """Step limit for `trace`, which takes one `advance` per instruction:
    twice the program's known length, so a run that does not end fails the
    criterion at once instead of stepping to STEP_LIMIT."""
    return 2 * manifest[name]["retired"]


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {state}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_functional_transparency(corpus_images, corpus_encrypted, manifest):
    start = time.perf_counter()
    ok = len(corpus_images) >= 8
    detail = f"{len(corpus_images)} programs"
    for name in corpus_images:
        plain = Engine(corpus_images[name]).run(STEP_LIMIT)
        enc = Engine(corpus_encrypted[name]).run(STEP_LIMIT)
        if not (plain.outcome == enc.outcome == HALT
                and plain.final_state_digest == enc.final_state_digest):
            ok, detail = False, f"{name}: digest or outcome diverged"
            break
        budget = _trace_budget(manifest, name)
        plain_pcs = trace(corpus_images[name], budget)
        enc_pcs = trace(corpus_encrypted[name], budget)
        if plain_pcs != enc_pcs:
            ok, detail = False, f"{name}: pc traces diverged"
            break
    elapsed = time.perf_counter() - start
    if ok and elapsed >= 5.0:
        ok, detail = False, f"took {elapsed:.2f}s (budget 5s)"
    _verdict(1, "functional transparency", ok,
             detail + f", {elapsed:.2f}s" if ok else detail)


def test_criterion_2_round_trip_determinism(corpus_images):
    ok, detail = True, ""
    for name, image in corpus_images.items():
        schedule = gen_keys(image, SEED)
        once = encrypt_image(image, schedule)
        twice = encrypt_image(image, schedule)
        if dump_encrypted_image(once) != dump_encrypted_image(twice):
            ok, detail = False, f"{name}: encryption not deterministic"
            break
        # decrypt every word with its correct (key, offset) by hand
        cipher = once.image.text_words()
        restored = bytearray()
        for block_id, (entry, length) in enumerate(image.blocks):
            start = (entry - image.text_base) // 4
            for m in range(length):
                word = cipher[start + m] ^ keystream_word(
                    schedule.block_keys[block_id], m)
                restored += word.to_bytes(4, "little")
        if bytes(restored) != image.text:
            ok, detail = False, f"{name}: word-by-word decrypt diverged"
            break
    _verdict(2, "round-trip and determinism", ok, detail)


def test_criterion_3_key_chain_soundness(corpus_images):
    rng = random.Random(1234)
    programs = []
    for image in corpus_images.values():
        if image.edges:
            programs.append((image, gen_keys(image, SEED)))

    path_failures = 0
    for _ in range(1000):
        image, schedule = programs[rng.randrange(len(programs))]
        succ = {}
        entry_of = {i: entry for i, (entry, _) in enumerate(image.blocks)}
        for s, t, _ in image.edges:
            succ.setdefault(s, []).append(t)
        here = rng.choice([i for i in range(len(image.blocks)) if i in succ])
        key = schedule.block_keys[here]
        for _ in range(rng.randrange(1, 16)):
            if here not in succ:
                break
            nxt = rng.choice(succ[here])
            key = derive_next_key(key, schedule.patches[(here, entry_of[nxt])])
            here = nxt
        if key != schedule.block_keys[here]:
            path_failures += 1

    collision_failures = 0
    checked = 0
    while checked < 1000:
        image, schedule = programs[rng.randrange(len(programs))]
        pairs = {(s, t) for s, t, _ in image.edges}
        s = rng.randrange(len(image.blocks))
        t = rng.randrange(len(image.blocks))
        if s == t or (s, t) in pairs:
            continue
        checked += 1
        stale = schedule.block_keys[s]  # no patch exists for this transfer
        if stale == schedule.block_keys[t]:
            collision_failures += 1
    ok = path_failures == 0 and collision_failures == 0
    _verdict(3, "key-chain soundness", ok,
             f"paths bad={path_failures}, non-edge collisions={collision_failures}")


def test_criterion_4_detection_statistics(corpus_encrypted):
    start = time.perf_counter()
    p = exact_valid_decode_fraction()
    n = 1000
    latencies = survival_trials(corpus_encrypted["fib"], "rogue-edge", n,
                                seed=2024, step_limit=STEP_LIMIT)
    ok, detail = True, ""
    for k in (1, 2, 4, 8):
        undetected = sum(latency > k for latency in latencies) / n
        bound = p ** k + 3 * math.sqrt(p ** k * (1 - p ** k) / n)
        if undetected > bound:
            ok, detail = False, f"k={k}: {undetected:.4f} > {bound:.4f}"
            break
    mean = sum(latencies) / n
    model_mean = 1 / (1 - p)
    if ok and abs(mean - model_mean) / model_mean > 0.20:
        ok, detail = False, f"mean {mean:.3f} vs model {model_mean:.3f}"
    elapsed = time.perf_counter() - start
    if ok and elapsed >= 60.0:
        ok, detail = False, f"took {elapsed:.1f}s (budget 60s)"
    _verdict(4, "detection statistics", ok,
             detail or f"mean={mean:.3f}, model={model_mean:.3f}, {elapsed:.1f}s")


def test_criterion_5_attack_suite(corpus_encrypted, corpus_dir):
    eimage = corpus_encrypted["fib"]
    ok, detail = True, ""
    total = 0
    for path in sorted((corpus_dir / "scenarios").glob("*.json")):
        scenario = load_scenario(path)
        if scenario.kind not in ("code-injection", "mid-block-entry"):
            continue
        total += 1
        outcome = run_attack(eimage, scenario, seed=1, step_limit=STEP_LIMIT)
        if outcome.report.outcome != INTEGRITY_FAULT or outcome.hijack_succeeded:
            ok, detail = False, f"{path.name}: {outcome.report.outcome}"
            break
    if ok and total < 4:
        ok, detail = False, f"only {total} scenarios in committed set"
    _verdict(5, "attack suite", ok, detail or f"{total} scenarios all faulted")


def test_criterion_6_diversification(corpus_images, corpus_encrypted):
    ok, detail = True, ""
    big = 0
    for name in corpus_images:
        report = diversification_report(corpus_images[name], corpus_encrypted[name])
        if report.repeated_instruction_diversification != 1.0:
            ok, detail = False, f"{name}: repeated pairs not fully diversified"
            break
        if len(corpus_images[name].text) >= 1024:
            big += 1
            if report.ciphertext_entropy < 7.5:
                ok, detail = False, (f"{name}: ciphertext entropy "
                                     f"{report.ciphertext_entropy:.3f} < 7.5")
                break
            if report.ciphertext_entropy <= report.plaintext_entropy:
                ok, detail = False, f"{name}: entropy did not strictly increase"
                break
    if ok and big < 1:
        ok, detail = False, "no corpus program reaches 1 KiB of text"
    _verdict(6, "diversification", ok, detail or f"{big} program(s) >= 1 KiB")


def test_criterion_7_counter_exactness(corpus_images, corpus_encrypted, manifest):
    ok, detail = True, ""
    for name in corpus_images:
        image = corpus_images[name]
        entries = {entry for entry, _ in image.blocks}
        pcs = trace(image, _trace_budget(manifest, name))
        independent = sum(1 for pc in pcs[1:] if pc in entries)
        enc = Engine(corpus_encrypted[name]).run(STEP_LIMIT)
        if enc.counters.key_switches != independent:
            ok, detail = False, (f"{name}: key_switches {enc.counters.key_switches} "
                                 f"!= trace count {independent}")
            break
        plain = Engine(image).run(STEP_LIMIT)
        if overhead_report(plain, enc, 0, 0) != 0.0:
            ok, detail = False, f"{name}: zero-cost overhead not 0.0"
            break
    _verdict(7, "counter exactness", ok, detail)


def test_criterion_8_decoder_oracle_agreement():
    n = 10 ** 6
    p_exact = exact_valid_decode_fraction()
    p_mc = valid_decode_fraction(n, seed=42)
    stderr = math.sqrt(p_exact * (1 - p_exact) / n)
    ok = abs(p_mc - p_exact) <= 3 * stderr
    _verdict(8, "decoder oracle agreement", ok,
             f"exact={p_exact:.6f}, mc={p_mc:.6f}, 3se={3 * stderr:.6f}")
