"""Scripted adversaries against encrypted images.

The attacker gets what the threat model grants: arbitrary reads and
writes of mapped memory, full knowledge of the program and its graph,
control of the pc at a chosen step, and no key material. An attack is
an intervention between two engine steps: `Engine.advance` runs to the
trigger, the scenario writes memory and the pc directly, and `Engine.run`
carries on under normal engine rules. The key register is the engine's;
a scenario reads it only through `Engine.current_block` and changes it
only through `Engine.replay_patch`.

A randomized campaign (`run_trials`) runs the unattacked prefix once: its
trials run in trigger order, each on a fork (`Engine.fork`) of one
checkpoint engine advanced to its trigger, so one fork is alive at a
time. A trial's counters still count from reset, and every outcome,
digest and CSV row is the one a trial run from reset would give.

Success is operationalized concretely: the attack "hijacked" the run
if the sentinel memory cell holds the attacker-chosen value when the
run ends, and it was "detected" if the run died in an integrity or
memory fault first.
"""

from __future__ import annotations

import csv
import json
import random
from array import array
from bisect import bisect_left, bisect_right
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
from .isa import ADDRESS_SPACE, Instruction, encode, le_bytes, le_words

CODE_INJECTION = "code-injection"
ROGUE_EDGE = "rogue-edge"
MID_BLOCK_ENTRY = "mid-block-entry"
PATCH_REPLAY = "patch-replay"

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
        if self.sentinel_addr is not None and (
                self.sentinel_addr % 4 or not 0 <= self.sentinel_addr < ADDRESS_SPACE):
            raise HarnessError("sentinel_addr must be a 4-byte-aligned address in "
                               f"[0, 2^32), got {self.sentinel_addr}")
        if not 0 <= self.sentinel_value < ADDRESS_SPACE:   # a stored word is 32-bit
            raise HarnessError(f"sentinel_value must lie in [0, 2^32), got {self.sentinel_value}")


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
        try:   # ValueError covers bad JSON, bad UTF-8 and integers past the digit limit
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise HarnessError(f"scenario file is not JSON: {exc}") from None
    return scenario_from_json_dict(doc)


@dataclass(frozen=True)
class AttackOutcome:
    detected: bool
    instructions_until_fault: int | None   # 1-based fetch index after the trigger
    hijack_succeeded: bool
    report: RunReport
    step_limit: int   # the limit the run ran under; not in the JSON

    def to_json_dict(self) -> dict:
        return {
            "detected": self.detected,
            "instructions_until_fault": self.instructions_until_fault,
            "hijack_succeeded": self.hijack_succeeded,
            "outcome": self.report.outcome,
            "counters": self.report.counters.as_dict(),
        }

    def censored_latency(self) -> int:
        """Fault latency; an undetected trial is censored at its step limit."""
        return self.instructions_until_fault if self.detected else self.step_limit


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
    return le_bytes(array("I", map(encode, instrs)))


# A kind is one function (engine, scenario, rng) that applies a scenario at
# its trigger. A kind whose scenario names no target draws one as
# `rng.choice(candidates)` would, with one `rng._randbelow(len(candidates))`,
# but the k-th candidate is computed, not listed: a 3000-block image has some
# 20,000 mid-block addresses.

def _patch_run(table: tuple, src: int) -> tuple[int, int]:
    """[lo, hi) of the records from block `src` in a sorted patch table."""
    return bisect_left(table, (src,)), bisect_left(table, (src + 1,))


def _code_injection(engine: Engine, scenario: AttackScenario, rng: random.Random) -> None:
    """Store the payload's words from `target` on and transfer there."""
    if scenario.payload is None or scenario.target is None:
        raise HarnessError("code-injection needs target and payload")
    if len(scenario.payload) % 4:
        raise HarnessError("payload must be whole words")
    for i, word in enumerate(le_words(scenario.payload)):
        addr = scenario.target + 4 * i
        if not engine.state.mem.store_word(addr, word):
            raise HarnessError(f"payload address {addr:#x} is not mapped")
    engine.state.pc = scenario.target


def _rogue_edge(engine: Engine, scenario: AttackScenario, rng: random.Random) -> None:
    """Transfer to a block entry; one is drawn, in block order, other than
    the current block's and those it has a patch to."""
    image, target = engine.image, scenario.target
    if target is None:
        cur, table = engine.current_block(), engine.target.patch_table
        lo, hi = _patch_run(table, cur)
        barred = sorted({cur} | {image.block_index[dst][0] for _, dst, _ in table[lo:hi]})
        count = len(image.blocks) - len(barred)
        if count < 1:
            raise HarnessError("no rogue target available from current block")
        k = rng._randbelow(count)
        for block_id in barred:   # the k-th block id not barred
            if block_id <= k:
                k += 1
        target = image.blocks[k][0]
    elif target not in image.block_index:
        raise HarnessError(f"rogue target {target:#x} is not a block entry")
    engine.state.pc = target


def _mid_block_entry(engine: Engine, scenario: AttackScenario, rng: random.Random) -> None:
    """Transfer past a block's entry; one word is drawn, in address order,
    outside the current block."""
    image, target = engine.image, scenario.target
    if target is None:
        blocks, cur = image.blocks, engine.current_block()

        def ends(block_id):   # the candidates in blocks 0..block_id, which tile the text
            entry, length = blocks[block_id]
            return ((entry - image.text_base) >> 2) + length - block_id - 1

        skipped = blocks[cur][1] - 1   # same-block skips are out of scope
        count = ends(len(blocks) - 1) - skipped
        if count < 1:
            raise HarnessError("no multi-word block to enter mid-body")
        k = rng._randbelow(count)
        if k >= ends(cur) - skipped:
            k += skipped
        block_id = bisect_right(range(len(blocks)), k, key=ends)
        entry, length = blocks[block_id]
        # the block's candidates are its words 1..length-1, and ends(block_id) - k
        # of them lie at or after the k-th
        target = entry + 4 * (length - (ends(block_id) - k))
    # blocks tile the text, so a text address that is no block entry is mid-block
    elif (not image.text_base <= target < image.text_base + len(image.text)
          or target in image.block_index):
        raise HarnessError(f"{target:#x} is not a mid-block address")
    engine.state.pc = target


def _patch_replay(engine: Engine, scenario: AttackScenario, rng: random.Random) -> None:
    """Replay a patch record from block `patch_source`, or from any block
    other than the current one: a drawn one, or the first to `target`."""
    table, cur, source = engine.target.patch_table, engine.current_block(), scenario.patch_source
    if source is None:   # every record outside block cur's run, in table order
        lo, hi = _patch_run(table, cur)
        candidates = table[:lo] + table[hi:]
    else:                # the records of block source's run
        candidates = table[slice(*_patch_run(table, source))] if source != cur else ()
    named = scenario.target
    if named is not None:   # the first candidate to it; nothing is drawn
        candidates = [record for record in candidates if record[1] == named]
    if not candidates:
        raise HarnessError("no replayable patch from a different source block")
    _, target, patch = candidates[0 if named is not None else rng._randbelow(len(candidates))]
    engine.replay_patch(patch, target)


# kind -> the function that applies it; the order is the CLI's
_KINDS = {
    CODE_INJECTION: _code_injection,
    ROGUE_EDGE: _rogue_edge,
    MID_BLOCK_ENTRY: _mid_block_entry,
    PATCH_REPLAY: _patch_replay,
}
SCENARIO_KINDS = tuple(_KINDS)


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
        _KINDS[scenario.kind](engine, scenario, random.Random(seed))
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
                         hijack_succeeded=hijacked, report=report, step_limit=step_limit)


def run_trials(eimage: EncryptedImage, kind: str, n_trials: int, seed: int,
               step_limit: int = DEFAULT_STEP_LIMIT) -> list[AttackOutcome]:
    """Randomized attack instances with trigger/target drawn from `seed`.

    The trials run in trigger order, in trial order within a trigger, each
    from a fork of one checkpoint engine that runs the unattacked program
    forward to its trigger; so one fork is alive at a time, and the
    outcomes come back in trial order. A campaign with an inapplicable
    trial stops with its kind's error, which is the same for every
    inapplicable trial of the kind.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    if kind == CODE_INJECTION:
        raise HarnessError("code-injection needs a scenario file: "
                           "its target and payload are not drawn at random")
    baseline = Engine(eimage).run(step_limit)
    horizon = baseline.counters.instructions_retired
    if baseline.outcome != HALT:   # triggers are drawn from the steps of a halting run
        raise HarnessError(f"unattacked run ended in {baseline.outcome} after {horizon} "
                           "steps; cannot place triggers")
    rng = random.Random(seed)
    trials = [(rng.randrange(horizon), rng.getrandbits(63)) for _ in range(n_trials)]
    outcomes = [None] * n_trials
    checkpoint, scenario = Engine(eimage), None
    for i in sorted(range(n_trials), key=lambda i: trials[i][0]):
        trigger, trial_seed = trials[i]
        if scenario is None or scenario.trigger_step != trigger:   # one scenario per trigger
            checkpoint.advance(trigger)
            scenario = AttackScenario(kind=kind, trigger_step=trigger)
        outcomes[i] = run_attack(eimage, scenario, seed=trial_seed,
                                 step_limit=step_limit, start=checkpoint)
    return outcomes


def survival_trials(eimage: EncryptedImage, kind: str, n_trials: int, seed: int,
                    step_limit: int = DEFAULT_STEP_LIMIT) -> list[int]:
    """Fault-latency sample; undetected runs are censored at step_limit."""
    return [o.censored_latency() for o in run_trials(eimage, kind, n_trials, seed, step_limit)]


def write_trials_csv(outcomes: list[AttackOutcome], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["trial", "detected", "latency"])
    for trial, outcome in enumerate(outcomes):
        writer.writerow([trial, int(outcome.detected), outcome.censored_latency()])
