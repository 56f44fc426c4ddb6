"""Scripted adversaries against encrypted images.

The attacker gets what the threat model grants: arbitrary reads and
writes of mapped memory, full knowledge of the program and its graph,
control of the pc at a chosen step, and no key material. An attack is
an intervention between two engine steps: `Engine.advance` runs to the
trigger, the scenario writes memory and the pc directly, and `Engine.run`
carries on under normal engine rules. The key register is the engine's;
a scenario reads it only through `Engine.current_block` and changes it
only through `Engine.replay_patch`.

A randomized campaign (`run_trials`) runs the unattacked prefix once: a
checkpoint engine advances through the sorted triggers and is forked
(`Engine.fork`) at each, and every trial runs on a fork of the engine at
its trigger. A trial's counters still count from reset, and every
outcome, digest and CSV row is the one a trial run from reset would give.

Success is operationalized concretely: the attack "hijacked" the run
if the sentinel memory cell holds the attacker-chosen value when the
run ends, and it was "detected" if the run died in an integrity or
memory fault first.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass

# derive_next_key is unused here but stays importable: perfbench/tracer.py wraps it by name
from .crypto import EncryptedImage, derive_next_key  # noqa: F401
from .engine import (
    DEFAULT_STEP_LIMIT,
    HALT,
    INTEGRITY_FAULT,
    MEMORY_FAULT,
    Engine,
    RunReport,
)
from .isa import Instruction, encode

CODE_INJECTION = "code-injection"
ROGUE_EDGE = "rogue-edge"
MID_BLOCK_ENTRY = "mid-block-entry"
PATCH_REPLAY = "patch-replay"

SCENARIO_KINDS = (CODE_INJECTION, ROGUE_EDGE, MID_BLOCK_ENTRY, PATCH_REPLAY)

DEFAULT_SENTINEL_VALUE = 0xC0FFEE42


class HarnessError(ValueError):
    """Scenario is malformed or references nonexistent addresses."""


@dataclass(frozen=True)
class AttackScenario:
    kind: str
    trigger_step: int
    target: int | None = None          # transfer destination / payload address
    payload: bytes | None = None       # plaintext machine code, code-injection only
    sentinel_addr: int | None = None
    sentinel_value: int = DEFAULT_SENTINEL_VALUE
    patch_source: int | None = None    # patch-replay: block whose patch to replay

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise HarnessError(f"unknown scenario kind {self.kind!r}")
        if self.trigger_step < 0:
            raise HarnessError("trigger_step must be non-negative")
        if self.target is not None and self.target % 4:
            raise HarnessError("target must be 4-byte aligned")

    def to_json_dict(self) -> dict:
        doc = {"kind": self.kind, "trigger_step": self.trigger_step}
        if self.target is not None:
            doc["target"] = self.target
        if self.payload is not None:
            doc["payload_hex"] = self.payload.hex()
        if self.sentinel_addr is not None:
            doc["sentinel_addr"] = self.sentinel_addr
            doc["sentinel_value"] = self.sentinel_value
        if self.patch_source is not None:
            doc["patch_source"] = self.patch_source
        return doc


def scenario_from_json_dict(doc: dict) -> AttackScenario:
    if not isinstance(doc, dict):
        raise HarnessError("a scenario must be a JSON object")
    if "trigger_step" not in doc and "trigger" in doc:
        doc = {**doc, "trigger_step": doc["trigger"]}
    for name in ("trigger_step", "target", "sentinel_addr", "sentinel_value", "patch_source"):
        if name in doc and type(doc[name]) is not int:   # not a bool, float or string
            raise HarnessError(f"{name} must be an integer, got {doc[name]!r}")
    payload = doc.get("payload_hex")
    if "payload_hex" in doc:
        try:
            payload = bytes.fromhex(payload)
        except (TypeError, ValueError):
            raise HarnessError(f"payload_hex must be hex digits, got {payload!r}") from None
    try:
        return AttackScenario(
            kind=doc["kind"],
            trigger_step=doc["trigger_step"],
            target=doc.get("target"),
            payload=payload,
            sentinel_addr=doc.get("sentinel_addr"),
            sentinel_value=doc.get("sentinel_value", DEFAULT_SENTINEL_VALUE),
            patch_source=doc.get("patch_source"),
        )
    except KeyError as exc:
        raise HarnessError(f"scenario file missing field {exc}") from None


def load_scenario(path) -> AttackScenario:
    with open(path) as fh:
        try:
            return scenario_from_json_dict(json.load(fh))
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise HarnessError(f"scenario file is not JSON: {exc}") from None


@dataclass(frozen=True)
class AttackOutcome:
    detected: bool
    instructions_until_fault: int | None   # 1-based fetch index after the trigger
    hijack_succeeded: bool
    report: RunReport

    def to_json_dict(self) -> dict:
        return {
            "detected": self.detected,
            "instructions_until_fault": self.instructions_until_fault,
            "hijack_succeeded": self.hijack_succeeded,
            "outcome": self.report.outcome,
            "counters": self.report.counters.as_dict(),
        }

    def censored_latency(self, step_limit: int) -> int:
        """Fault latency; an undetected trial is censored at `step_limit`."""
        return self.instructions_until_fault if self.detected else step_limit


def hijack_payload(sentinel_addr: int, sentinel_value: int) -> bytes:
    """Attacker shellcode: store the sentinel value, then halt."""
    def li(rd, value):
        hi = ((value + 0x800) >> 12) & 0xFFFFF
        lo = value - (hi << 12)
        if lo >= 1 << 31:
            lo -= 1 << 32
        return [Instruction("lui", rd=rd, imm=hi),
                Instruction("addi", rd=rd, rs1=rd, imm=lo)]

    instrs = (li(5, sentinel_addr) + li(6, sentinel_value)
              + [Instruction("sw", rs1=5, rs2=6, imm=0), Instruction("ecall")])
    return b"".join(encode(i).to_bytes(4, "little") for i in instrs)


def _apply_scenario(engine: Engine, eimage: EncryptedImage,
                    scenario: AttackScenario, rng: random.Random) -> None:
    state = engine.state
    image = eimage.image
    cur = engine.current_block()
    if cur is None:
        raise HarnessError("engine key state is not at a block entry")
    cur_entry = image.blocks[cur][0]

    if scenario.kind == CODE_INJECTION:
        if scenario.payload is None or scenario.target is None:
            raise HarnessError("code-injection needs target and payload")
        if len(scenario.payload) % 4:
            raise HarnessError("payload must be whole words")
        for i in range(0, len(scenario.payload), 4):
            word = int.from_bytes(scenario.payload[i:i + 4], "little")
            if not state.mem.store_word(scenario.target + i, word):
                raise HarnessError(
                    f"payload address {scenario.target + i:#x} is not mapped")
        state.pc = scenario.target

    elif scenario.kind == ROGUE_EDGE:
        target = scenario.target
        if target is None:
            candidates = [entry for entry, _ in image.blocks
                          if (cur, entry) not in eimage.patch_map
                          and entry != cur_entry]
            if not candidates:
                raise HarnessError("no rogue target available from current block")
            target = rng.choice(candidates)
        elif target not in image.block_index:
            raise HarnessError(f"rogue target {target:#x} is not a block entry")
        state.pc = target

    elif scenario.kind == MID_BLOCK_ENTRY:
        target = scenario.target
        if target is None:
            candidates = [
                entry + 4 * off
                for entry, length in image.blocks
                for off in range(1, length)
                if entry != cur_entry  # same-block skips are out of scope
            ]
            if not candidates:
                raise HarnessError("no multi-word block to enter mid-body")
            target = rng.choice(candidates)
        else:
            inside = any(entry < target < entry + 4 * length
                         for entry, length in image.blocks)
            if not inside or target in image.block_index:
                raise HarnessError(f"{target:#x} is not a mid-block address")
        state.pc = target

    elif scenario.kind == PATCH_REPLAY:
        records = [(src, target, patch) for src, target, patch in eimage.patch_table
                   if src != cur
                   and (scenario.patch_source is None or src == scenario.patch_source)
                   and (scenario.target is None or target == scenario.target)]
        if not records:
            raise HarnessError("no replayable patch from a different source block")
        src, target, patch = records[0] if scenario.target is not None \
            else rng.choice(records)
        engine.replay_patch(patch, target)


def run_attack(eimage: EncryptedImage, scenario: AttackScenario, seed: int = 0,
               step_limit: int = DEFAULT_STEP_LIMIT, *,
               start: Engine | None = None) -> AttackOutcome:
    """Run to the trigger, apply the scenario, keep executing engine rules.

    The attack runs from reset, or from a fork of `start`, an unattacked
    engine on `eimage` that has not retired more than `trigger_step`
    instructions; `start` itself is left as it is.
    """
    if start is None:
        engine = Engine(eimage)
    elif start.state.counters.instructions_retired > scenario.trigger_step:
        raise ValueError("start engine has run past the trigger")
    else:
        engine = start.fork()
    fired = (scenario.trigger_step <= step_limit
             and engine.advance(scenario.trigger_step))
    if fired:
        _apply_scenario(engine, eimage, scenario, random.Random(seed))
    report = engine.run(step_limit)

    detected = report.outcome in (INTEGRITY_FAULT, MEMORY_FAULT)
    latency = None
    if detected:
        latency = report.instructions_until_fault - (scenario.trigger_step if fired else 0)
    hijacked = False
    if scenario.sentinel_addr is not None:
        hijacked = (engine.state.mem.load_word(scenario.sentinel_addr)
                    == scenario.sentinel_value)
    return AttackOutcome(detected=detected, instructions_until_fault=latency,
                         hijack_succeeded=hijacked, report=report)


def run_trials(eimage: EncryptedImage, kind: str, n_trials: int, seed: int,
               step_limit: int = DEFAULT_STEP_LIMIT) -> list[AttackOutcome]:
    """Randomized attack instances with trigger/target drawn from `seed`.

    One checkpoint engine runs the unattacked program forward through the
    distinct triggers in ascending order and is forked at each, so a
    campaign holds one fork per distinct trigger. The trials then run in
    trial order, each from the fork at its trigger, and a campaign stops at
    its first inapplicable trial, as it did when every trial ran from reset.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if kind == CODE_INJECTION:
        raise HarnessError("code-injection needs a scenario file: "
                           "its target and payload are not drawn at random")
    baseline = Engine(eimage).run(step_limit)
    if baseline.outcome != HALT:
        raise HarnessError("program does not halt unattacked; cannot place triggers")
    horizon = baseline.counters.instructions_retired
    rng = random.Random(seed)
    trials = [(AttackScenario(kind=kind, trigger_step=rng.randrange(horizon)),
               rng.getrandbits(63)) for _ in range(n_trials)]
    checkpoint = Engine(eimage)
    starts = {}
    for trigger in sorted({scenario.trigger_step for scenario, _ in trials}):
        checkpoint.advance(trigger)
        starts[trigger] = checkpoint.fork()
    return [run_attack(eimage, scenario, seed=trial_seed, step_limit=step_limit,
                       start=starts[scenario.trigger_step])
            for scenario, trial_seed in trials]


def survival_trials(eimage: EncryptedImage, kind: str, n_trials: int, seed: int,
                    step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Fault-latency sample; undetected runs are censored at step_limit."""
    outcomes = run_trials(eimage, kind, n_trials, seed, step_limit)
    return [o.censored_latency(step_limit) for o in outcomes]


def write_trials_csv(outcomes: list[AttackOutcome], fh,
                     step_limit: int = DEFAULT_STEP_LIMIT) -> None:
    writer = csv.writer(fh)
    writer.writerow(["trial", "detected", "latency"])
    for trial, outcome in enumerate(outcomes):
        writer.writerow([trial, int(outcome.detected),
                         outcome.censored_latency(step_limit)])
