import hashlib
import io
import json
import random
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from scylla import attacks
from scylla.attacks import (
    MID_BLOCK_ENTRY,
    PATCH_REPLAY,
    ROGUE_EDGE,
    SCENARIO_KINDS,
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
from scylla.crypto import encrypt_pipeline, gen_keys, keystream_word
from scylla.engine import HALT, INTEGRITY_FAULT, STEP_LIMIT, Engine
from scylla.isa import exact_valid_decode_fraction

SENT_ADDR, SENT_VAL = 0x10030, 0xC0FFEE42


@pytest.fixture(scope="module")
def fib(corpus_encrypted):
    return corpus_encrypted["fib"]


def test_docs_kind_table_lists_the_scenario_kinds():
    text = (Path(__file__).resolve().parent.parent / "docs" / "formats.md").read_text()
    section = text.split("## Attack scenario JSON", 1)[1].split("\n## ", 1)[0]
    kinds = [line.split("|")[1].strip().strip("`") for line in section.splitlines()
             if line.startswith("| `")]
    assert tuple(kinds) == SCENARIO_KINDS


def test_scenario_validation():
    with pytest.raises(HarnessError):
        AttackScenario("meteor-strike", 1)
    with pytest.raises(HarnessError):
        AttackScenario("rogue-edge", -1)
    with pytest.raises(HarnessError):
        AttackScenario("rogue-edge", 1, target=6)


@pytest.mark.parametrize("field, value", [
    ("sentinel_addr", 3), ("sentinel_addr", -4),
    ("sentinel_addr", 2 ** 32), ("sentinel_addr", 2 ** 32 + 4),
    # a stored 32-bit word never equals these, so no run could report a hijack
    ("sentinel_value", -1), ("sentinel_value", 2 ** 32), ("sentinel_value", 2 ** 33),
])
def test_sentinel_must_be_in_range(field, value):
    fields = {"sentinel_addr": 0, field: value}
    with pytest.raises(HarnessError, match=field):
        AttackScenario("rogue-edge", 1, **fields)
    with pytest.raises(HarnessError, match=field):
        scenario_from_json_dict({"kind": "rogue-edge", "trigger_step": 1, **fields})
    for edge in (0, 2 ** 32 - 4):
        assert AttackScenario("rogue-edge", 1, sentinel_addr=edge).sentinel_addr == edge
    for edge in (0, 2 ** 32 - 1):
        assert AttackScenario("rogue-edge", 1, sentinel_addr=0,
                              sentinel_value=edge).sentinel_value == edge


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


def test_scenario_json_parses_every_field():
    doc = json.loads('{"kind": "code-injection", "trigger_step": 7, "target": 65552, '
                     '"payload_hex": "13000000", "sentinel_addr": 65584, '
                     '"sentinel_value": 3237998146}')
    assert scenario_from_json_dict(doc) == AttackScenario(
        "code-injection", 7, target=0x10010, payload=b"\x13\x00\x00\x00",
        sentinel_addr=SENT_ADDR, sentinel_value=SENT_VAL)


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
    outcome = run_attack(fib, AttackScenario("rogue-edge", 7, target=40), seed=5,
                         step_limit=4096)
    assert not outcome.detected
    assert outcome.report.outcome == HALT
    assert not outcome.hijack_succeeded
    assert outcome.censored_latency() == 4096  # undetected: censored at the run's limit


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


def test_trigger_at_step_zero_is_no_transfer(corpus_images):
    # no previous pc: the redirected first fetch looks up no patch and is
    # decrypted under the entry key, so even the entry block's call target faults
    eimage = encrypt_pipeline(corpus_images["fib"], bytes(range(16)))
    target = 0x18
    assert (0, target) in eimage.patch_map
    outcome = run_attack(eimage, AttackScenario(ROGUE_EDGE, 0, target=target))
    report = outcome.report
    assert report.outcome == INTEGRITY_FAULT and outcome.instructions_until_fault == 1
    assert report.counters.patch_lookups == report.counters.key_switches == 0
    offset = (target - eimage.image.blocks[0][0]) // 4
    cipher = eimage.image.text_words()[target // 4]
    assert (report.fault_pc, report.fault_word) == (
        target, cipher ^ keystream_word(eimage.entry_key, offset))


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
                write_trials_csv(outcomes, csv_text)
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


def _error_from_reset(eimage, kind, n_trials, seed, step_limit):
    """The error of the first of `run_trials`'s drawn trials that raises when
    each runs from reset in trial order, or None."""
    rng = random.Random(seed)
    horizon = Engine(eimage).run(step_limit).counters.instructions_retired
    for _ in range(n_trials):
        trigger, trial_seed = rng.randrange(horizon), rng.getrandbits(63)
        try:
            run_attack(eimage, AttackScenario(kind, trigger), seed=trial_seed,
                       step_limit=step_limit)
        except HarnessError as exc:
            return str(exc)
    return None


def test_campaign_fails_as_its_trials_from_reset(corpus_encrypted):
    # A campaign raises if and only if one of its trials raises when run from
    # reset, and with the same text, whichever of them its trigger order
    # reaches first: on diamond under seed 1, trials 0-11 of mid-block-entry
    # apply and trial 12 does not. The grid is the golden campaigns'.
    inapplicable = []
    for name in sorted(corpus_encrypted):
        for kind in ("rogue-edge", "mid-block-entry", "patch-replay"):
            for seed in (1, 2):
                eimage = corpus_encrypted[name]
                expected = _error_from_reset(eimage, kind, 40, seed, 4096)
                try:
                    run_trials(eimage, kind, 40, seed=seed, step_limit=4096)
                    error = None
                except HarnessError as exc:
                    error = str(exc)
                assert error == expected, (name, kind, seed)
                if error is not None:
                    inapplicable.append((name, kind, seed))
    assert ("diamond", "mid-block-entry", 1) in inapplicable
    assert len(inapplicable) == 16


def test_a_campaign_holds_one_fork_at_a_time(fib, monkeypatch):
    # the 100 trials have 54 distinct triggers, and no fork outlives its trial
    forks, most = [], 0
    fork = Engine.fork

    def recording(self):
        nonlocal most
        clone = fork(self)
        forks.append(weakref.ref(clone))
        most = max(most, sum(ref() is not None for ref in forks))
        return clone

    monkeypatch.setattr(Engine, "fork", recording)
    assert len(run_trials(fib, "rogue-edge", 100, seed=3, step_limit=4096)) == 100
    assert most == 1
    assert len(forks) == 100   # one per trial


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


# Reference draws: the candidate lists the harness once built, drawn with rng.choice.

def _listed_rogue_target(eimage, cur, source, rng):
    image = eimage.image
    cur_entry = image.blocks[cur][0]
    candidates = [entry for entry, _ in image.blocks
                  if (cur, entry) not in eimage.patch_map and entry != cur_entry]
    if not candidates:
        raise HarnessError("no rogue target")
    return rng.choice(candidates)


def _listed_mid_block_target(eimage, cur, source, rng):
    image = eimage.image
    cur_entry = image.blocks[cur][0]
    candidates = [entry + 4 * off for entry, length in image.blocks
                  for off in range(1, length) if entry != cur_entry]
    if not candidates:
        raise HarnessError("no mid-block target")
    return rng.choice(candidates)


def _listed_replay_record(eimage, cur, source, rng):
    records = [(target, patch) for src, target, patch in eimage.patch_table
               if src != cur and (source is None or src == source)]
    if not records:
        raise HarnessError("no replayable patch")
    return rng.choice(records)


class _HeldEngine:
    """What a kind reads of an engine held in block `cur` at its trigger.
    It records the pc a kind sets, or the (target, patch) it replays, as
    `tests/reference.py` stands in for the engine in whole runs."""

    def __init__(self, eimage, cur):
        self.target, self.image, self.cur = eimage, eimage.image, cur
        self.state = self
        self.pc = None

    def current_block(self):
        return self.cur

    def replay_patch(self, patch, target):
        self.pc = target, patch


def _draw(draw, *args):
    """(drawn value, the rng's next word), or None when nothing can be drawn."""
    rng = args[-1]
    try:
        value = draw(*args)
    except HarnessError:
        return None
    return value, rng.getrandbits(32)


def _kind_draw(kind):
    """`kind`'s draw through the table: the pc it sets or the patch it replays."""
    def draw(eimage, cur, source, rng):
        engine = _HeldEngine(eimage, cur)
        attacks._KINDS[kind](engine, AttackScenario(kind, 0, patch_source=source), rng)
        return engine.pc
    return draw


def test_target_draws_equal_list_based_reference(corpus_encrypted):
    for name, eimage in corpus_encrypted.items():
        n_blocks = len(eimage.image.blocks)
        for kind, listed, sources in (
                (ROGUE_EDGE, _listed_rogue_target, (None,)),
                (MID_BLOCK_ENTRY, _listed_mid_block_target, (None,)),
                (PATCH_REPLAY, _listed_replay_record, (None, *range(n_blocks)))):
            drawn = _kind_draw(kind)
            for cur in range(n_blocks):
                for source in sources:
                    for seed in range(50):
                        args = eimage, cur, source
                        assert (_draw(drawn, *args, random.Random(seed))
                                == _draw(listed, *args, random.Random(seed))), \
                            (name, cur, seed, kind, source)


def test_named_replay_takes_the_first_candidate_and_draws_nothing(corpus_encrypted):
    for name, eimage in corpus_encrypted.items():
        table, n_blocks = eimage.patch_table, len(eimage.image.blocks)
        for target in sorted({dst for _, dst, _ in table}):
            for cur in range(n_blocks):
                for source in (None, *range(n_blocks)):
                    listed = [(dst, patch) for src, dst, patch in table
                              if src != cur and dst == target and source in (None, src)]
                    engine, rng = _HeldEngine(eimage, cur), random.Random(0)
                    scenario = AttackScenario(PATCH_REPLAY, 0, target=target, patch_source=source)
                    try:
                        attacks._KINDS[PATCH_REPLAY](engine, scenario, rng)
                    except HarnessError:
                        assert not listed, (name, target, cur, source)
                    else:
                        assert engine.pc == listed[0], (name, target, cur, source)
                    assert rng.getrandbits(32) == random.Random(0).getrandbits(32)


def test_explicit_mid_block_target_checked_against_every_block(corpus_encrypted):
    for name, eimage in corpus_encrypted.items():
        image = eimage.image
        inside = {entry + 4 * off for entry, length in image.blocks for off in range(1, length)}
        engine = Engine(eimage)
        for target in range(0, image.text_base + len(image.text) + 12, 4):
            scenario = AttackScenario(MID_BLOCK_ENTRY, 0, target=target)
            if target in inside:
                run_attack(eimage, scenario, step_limit=50, start=engine)
            else:
                with pytest.raises(HarnessError, match="mid-block"):
                    run_attack(eimage, scenario, step_limit=50, start=engine)
