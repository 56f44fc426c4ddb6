import hashlib
import io
import json
import random
from dataclasses import replace

import pytest

from scylla.attacks import (
    AttackScenario,
    HarnessError,
    hijack_payload,
    load_scenario,
    run_attack,
    run_trials,
    scenario_from_json_dict,
    survival_trials,
    write_trials_csv,
)
from scylla.crypto import encrypt_pipeline, gen_keys
from scylla.engine import HALT, INTEGRITY_FAULT, STEP_LIMIT, Engine
from scylla.isa import exact_valid_decode_fraction

SENT_ADDR, SENT_VAL = 0x10030, 0xC0FFEE42


@pytest.fixture(scope="module")
def fib(corpus_encrypted):
    return corpus_encrypted["fib"]


def test_scenario_validation():
    with pytest.raises(HarnessError):
        AttackScenario("meteor-strike", 1)
    with pytest.raises(HarnessError):
        AttackScenario("rogue-edge", -1)
    with pytest.raises(HarnessError):
        AttackScenario("rogue-edge", 1, target=6)


@pytest.mark.parametrize("field, value", [
    ("trigger_step", True), ("trigger_step", None), ("trigger_step", 4.0),
    ("sentinel_value", None), ("target", False), ("target", None),
    ("sentinel_addr", "65584"), ("patch_source", 1.5), ("payload_hex", 12),
    ("payload_hex", None), ("payload_hex", "13 00 0g"),
])
def test_scenario_fields_take_json_integers_and_hex(field, value):
    doc = {"kind": "code-injection", "trigger_step": 4, "target": 0x10010,
           "payload_hex": "13000000", "sentinel_addr": SENT_ADDR,
           "sentinel_value": SENT_VAL, "patch_source": 1}
    scenario_from_json_dict(doc)
    with pytest.raises(HarnessError, match=field):
        scenario_from_json_dict({**doc, field: value})


def test_scenario_json_round_trip():
    scenario = AttackScenario("code-injection", 7, target=0x10010,
                              payload=b"\x13\x00\x00\x00",
                              sentinel_addr=SENT_ADDR, sentinel_value=SENT_VAL)
    assert scenario_from_json_dict(scenario.to_json_dict()) == scenario


def test_committed_scenarios_parse(corpus_dir):
    files = sorted((corpus_dir / "scenarios").glob("*.json"))
    assert len(files) >= 6
    for path in files:
        scenario = load_scenario(path)
        assert scenario.kind in ("code-injection", "rogue-edge",
                                 "mid-block-entry", "patch-replay")


def test_hijack_payload_executes_in_plaintext(corpus_images):
    # sanity: the payload does take over when nothing is encrypted
    image = corpus_images["fib"]
    engine = Engine(image)
    payload = hijack_payload(SENT_ADDR, SENT_VAL)
    for i in range(0, len(payload), 4):
        assert engine.state.mem.store_word(
            0x10010 + i, int.from_bytes(payload[i:i + 4], "little"))
    engine.state.pc = 0x10010
    report = engine.run()
    assert report.outcome == HALT
    assert engine.state.mem.load_word(SENT_ADDR) == SENT_VAL


def test_code_injection_detected(fib):
    scenario = AttackScenario("code-injection", 4, target=0x10010,
                              payload=hijack_payload(SENT_ADDR, SENT_VAL),
                              sentinel_addr=SENT_ADDR, sentinel_value=SENT_VAL)
    outcome = run_attack(fib, scenario, seed=3)
    assert outcome.detected
    assert not outcome.hijack_succeeded
    assert outcome.report.outcome == INTEGRITY_FAULT
    assert outcome.instructions_until_fault >= 1


def test_code_injection_unmapped_payload_rejected(fib):
    scenario = AttackScenario("code-injection", 4, target=0x90000,
                              payload=hijack_payload(SENT_ADDR, SENT_VAL))
    with pytest.raises(HarnessError, match="not mapped"):
        run_attack(fib, scenario, seed=3)


def test_rogue_edge_detected(fib):
    # block 3 (the loop) has no edge to block 1 (the post-call block)
    outcome = run_attack(fib, AttackScenario("rogue-edge", 10, target=12), seed=5)
    assert outcome.detected
    assert outcome.instructions_until_fault >= 1


def test_rogue_edge_to_legal_successor_not_detected(fib):
    # control: the "rogue" target is the current block's real successor
    # at trigger 7 the engine sits at block 2 (entry 24); (2 -> 40) is an edge
    outcome = run_attack(fib, AttackScenario("rogue-edge", 7, target=40), seed=5)
    assert not outcome.detected
    assert outcome.report.outcome == HALT
    assert not outcome.hijack_succeeded
    assert outcome.censored_latency(123) == 123  # undetected: censored


def test_mid_block_entry_detected(fib):
    outcome = run_attack(fib, AttackScenario("mid-block-entry", 5, target=48), seed=5)
    assert outcome.detected


def test_mid_block_entry_rejects_block_entry_target(fib):
    with pytest.raises(HarnessError, match="mid-block"):
        run_attack(fib, AttackScenario("mid-block-entry", 5, target=40), seed=5)


def test_patch_replay_wrong_source_key_mismatch(fib, corpus_images):
    # introspect the key register right after the replayed update
    schedule = gen_keys(corpus_images["fib"], 42)
    engine = Engine(fib)
    engine.run(step_limit=10)  # stop inside the loop (block 3)
    assert engine.current_block() == 3
    engine.replay_patch(fib.patch_map[(4, 12)], 12)
    target_block = 1  # entry 12
    assert engine.state.pc == 12
    assert engine.state.cur_key != schedule.block_keys[target_block]


def test_patch_replay_detected(fib):
    outcome = run_attack(
        fib, AttackScenario("patch-replay", 10, target=12, patch_source=4), seed=5)
    assert outcome.detected


def test_disabled_trigger_reproduces_unattacked_run(fib):
    limit = 5000
    unattacked = Engine(fib).run(limit)
    scenario = AttackScenario("rogue-edge", limit + 1, target=12)
    outcome = run_attack(fib, scenario, seed=9, step_limit=limit)
    assert outcome.report == unattacked
    assert not outcome.detected
    assert not outcome.hijack_succeeded


def test_trigger_at_step_zero_fires_before_first_fetch(fib):
    outcome = run_attack(fib, AttackScenario("rogue-edge", 0, target=12), seed=5)
    assert outcome.detected
    assert outcome.instructions_until_fault == outcome.report.instructions_until_fault


def test_trigger_at_step_limit_applies_then_stops(fib):
    limit = 4
    payload = hijack_payload(SENT_ADDR, SENT_VAL)
    scenario = AttackScenario("code-injection", limit, target=0x10010, payload=payload)
    outcome = run_attack(fib, scenario, seed=3, step_limit=limit)
    unattacked = Engine(fib).run(limit)
    assert outcome.report.outcome == STEP_LIMIT
    assert outcome.report.counters == unattacked.counters
    assert not outcome.detected

    # the injected words are dirty memory, so they show in the digest
    expected = Engine(fib)
    expected.run(limit)
    for i in range(0, len(payload), 4):
        expected.state.mem.store_word(
            0x10010 + i, int.from_bytes(payload[i:i + 4], "little"))
    assert outcome.report.final_state_digest == expected.state.digest()
    assert outcome.report.final_state_digest != unattacked.final_state_digest


def test_trigger_at_or_after_halt_reproduces_unattacked_run(fib):
    unattacked = Engine(fib).run()
    halt_step = unattacked.counters.instructions_retired
    for trigger in (halt_step, halt_step + 1, 10 * halt_step):
        outcome = run_attack(fib, AttackScenario("rogue-edge", trigger, target=12), seed=9)
        assert outcome.report == unattacked, trigger
        assert not outcome.detected


def test_fault_before_trigger_reports_as_unattacked(fib):
    bad = replace(fib, entry_key=bytes(16))
    unattacked = Engine(bad).run()
    assert unattacked.outcome == INTEGRITY_FAULT
    trigger = unattacked.instructions_until_fault + 5
    outcome = run_attack(bad, AttackScenario("rogue-edge", trigger, target=12), seed=9)
    assert outcome.report == unattacked
    assert outcome.detected
    assert outcome.instructions_until_fault == unattacked.instructions_until_fault


# pins trigger placement, target choice, latencies and final digests of
# randomized campaigns on two key schedules and of the committed scenarios
GOLDEN_ATTACKS_SHA256 = "54818da67763e2a9abbd5a0222de82048f0772ff2a537df8be64a998ae467438"


def test_attack_outputs_match_golden(corpus_images, corpus_dir):
    doc = []
    for key_seed in (42, 7):
        eimage = encrypt_pipeline(corpus_images["fib"], key_seed)
        for kind in ("rogue-edge", "mid-block-entry", "patch-replay"):
            outcomes = run_trials(eimage, kind, 40, seed=5, step_limit=4096)
            doc.append([{**o.to_json_dict(), "digest": o.report.final_state_digest}
                        for o in outcomes])
    eimage = encrypt_pipeline(corpus_images["fib"], 42)
    for path in sorted((corpus_dir / "scenarios").glob("*.json")):
        o = run_attack(eimage, load_scenario(path), seed=1)
        doc.append({**o.to_json_dict(), "digest": o.report.final_state_digest})
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_ATTACKS_SHA256


# pins every randomized campaign on every corpus program: JSON, CSV and
# final digests per trial, or the HarnessError of an inapplicable campaign
GOLDEN_CAMPAIGNS_SHA256 = "f1265b37790f57801635640e407d1f1a9a07160374d6308e977300b87d1761ca"


def test_campaigns_match_golden(corpus_encrypted):
    doc = []
    for name in sorted(corpus_encrypted):
        for kind in ("rogue-edge", "mid-block-entry", "patch-replay"):
            for seed in (1, 2):
                try:
                    outcomes = run_trials(corpus_encrypted[name], kind, 40, seed=seed,
                                          step_limit=4096)
                except HarnessError as exc:
                    doc.append([name, kind, seed, str(exc)])
                    continue
                csv_text = io.StringIO()
                write_trials_csv(outcomes, csv_text, step_limit=4096)
                doc.append([name, kind, seed, csv_text.getvalue(),
                            [{**o.to_json_dict(), "digest": o.report.final_state_digest}
                             for o in outcomes]])
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_CAMPAIGNS_SHA256


def test_attack_from_a_start_engine(fib):
    scenario = AttackScenario("rogue-edge", 10, target=12)
    start = Engine(fib)
    start.advance(6)
    assert run_attack(fib, scenario, seed=5, start=start) == run_attack(fib, scenario, seed=5)
    assert start.state.counters.instructions_retired == 6
    start.advance(11)
    with pytest.raises(ValueError, match="past the trigger"):
        run_attack(fib, scenario, seed=5, start=start)


def test_campaign_stops_at_first_inapplicable_trial(corpus_encrypted, monkeypatch):
    # diamond's trials are inapplicable from some blocks; under seed 1 the
    # first such trial is trial 12, so trials 0-12 run, in trial order
    diamond = corpus_encrypted["diamond"]
    calls = []

    def recording(eimage, scenario, seed=0, step_limit=4096, *, start=None):
        calls.append((scenario.trigger_step, seed))
        return run_attack(eimage, scenario, seed, step_limit, start=start)

    monkeypatch.setattr("scylla.attacks.run_attack", recording)
    with pytest.raises(HarnessError, match="mid-body"):
        run_trials(diamond, "mid-block-entry", 40, seed=1, step_limit=4096)
    rng = random.Random(1)
    horizon = Engine(diamond).run().counters.instructions_retired
    assert calls == [(rng.randrange(horizon), rng.getrandbits(63)) for _ in range(13)]


def test_committed_scenarios_all_fault_before_sentinel(fib, corpus_dir):
    for path in sorted((corpus_dir / "scenarios").glob("*.json")):
        outcome = run_attack(fib, load_scenario(path), seed=1)
        assert outcome.report.outcome == INTEGRITY_FAULT, path.name
        assert outcome.detected and not outcome.hijack_succeeded, path.name


def test_survival_trials_single(fib):
    latencies = survival_trials(fib, "rogue-edge", 1, seed=0)
    assert len(latencies) == 1
    assert latencies[0] >= 1


def test_survival_trials_rejects_zero(fib):
    with pytest.raises(ValueError):
        survival_trials(fib, "rogue-edge", 0, seed=0)


def test_survival_trials_deterministic(fib):
    assert survival_trials(fib, "rogue-edge", 50, seed=7) == \
        survival_trials(fib, "rogue-edge", 50, seed=7)


def test_survival_mean_near_geometric_model(fib):
    p = exact_valid_decode_fraction()
    latencies = survival_trials(fib, "rogue-edge", 400, seed=11)
    mean = sum(latencies) / len(latencies)
    model = 1 / (1 - p)
    assert abs(mean - model) / model <= 0.20


def test_trials_csv_shape(fib, tmp_path):
    outcomes = run_trials(fib, "mid-block-entry", 20, seed=2)
    out = tmp_path / "trials.csv"
    with open(out, "w", newline="") as fh:
        write_trials_csv(outcomes, fh)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "trial,detected,latency"
    assert len(rows) == 21
