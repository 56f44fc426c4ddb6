"""The engine against the reference interpreter in `reference.py`, its one oracle.

A case is a target (an `Image`, run in plaintext, or an `EncryptedImage`),
a step limit and, for some, a start: steps taken and a tamper made before
the case's run. The cases are the corpus programs, programs that each
reach one mechanism of the engine (rounds in place, stores into the text,
memory faults inside decoded blocks, fetches from unmapped and unaligned
pcs, stale keys, illegal words, cut and key-flipping patch tables, a
payload over a decoded loop) and 16 seeded random programs: self-loops of
more than HOT_BLOCK_VISITS rounds, calls, loops that call, forward
branches, jalr jumps, loads and stores, stores into their own text and
loops that rewrite their own body in a late round.

At HOT_BLOCK_VISITS 0, 1 and the default, each case runs through
`Engine.run` (twice: the second run reuses the blocks the first one
decoded), chunked `advance`, fresh runs cut by step limits at every
offset of a round, a fork at a chunk bound and, encrypted, `run_trials`,
and must equal the reference in outcome, fault pc and word, counters,
digest, key register, block base, pc and previous pc. A case's probe
asserts the mechanism it is there for, on the first run at each value.
Every reference run also keeps the counter identities of docs/formats.md.
"""

import ast
import functools
import json
import random
import re
from array import array
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import pytest

from reference import Reference
from scylla import engine as eng
from scylla.asm import parse_assembly
from scylla.attacks import (
    MID_BLOCK_ENTRY,
    PATCH_REPLAY,
    ROGUE_EDGE,
    AttackScenario,
    HarnessError,
    _KINDS,
    hijack_payload,
    run_trials,
)
from scylla.crypto import EncryptedImage, derive_next_key, encrypt_pipeline
from scylla.image import Image, layout_image
from scylla.isa import MASK32, Instruction, encode

_SCRATCH = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
# x1 holds return addresses, x20 the data base and x21 a loop counter
_SOURCES = (0, 1, 20, 21) + _SCRATCH
_DATA_WORDS = 40
_R_OPS = ("add", "sub", "and", "or", "xor", "slt")
_I_OPS = ("addi", "andi", "ori", "xori", "slti")
_LIMIT = 20_000
_DRAWN_KINDS = (ROGUE_EDGE, MID_BLOCK_ENTRY, PATCH_REPLAY)
_HOTS = (0, 1, eng.HOT_BLOCK_VISITS)
_CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class _Text:
    """Main's lines and the functions', each line at most one instruction.
    `@label` stands for the label's address until `source` resolves it."""

    def __init__(self, rng):
        self.rng, self.main, self.functions, self.labels = rng, [], [], 0
        self.table = []   # data words after the first _DATA_WORDS: one rewriting loop's addresses
        # x20 is the data base; x22 the word stores into the text write:
        # mostly an instruction, else a random word
        word = encode(Instruction("addi", rd=5, rs1=5, imm=1)) if rng.random() < 0.8 \
            else rng.getrandbits(32)
        upper = (word + 0x800) >> 12 & 0xFFFFF
        lower = (word - (upper << 12) + (1 << 31)) % (1 << 32) - (1 << 31)
        self.main += ["lui x20, 16", f"lui x22, {upper}", f"addi x22, x22, {lower}"]

    def label(self, stem):
        self.labels += 1
        return f"{stem}{self.labels}"

    def op(self, lines):
        rng = self.rng
        rd, rs1, rs2 = rng.choice((0,) + _SCRATCH), rng.choice(_SOURCES), rng.choice(_SOURCES)
        kind = rng.random()
        if kind < 0.35:
            lines.append(f"{rng.choice(_R_OPS)} x{rd}, x{rs1}, x{rs2}")
        elif kind < 0.65:
            imm = rng.choice((-2048, -1, 0, 1, 2047, rng.randrange(-2048, 2048)))
            lines.append(f"{rng.choice(_I_OPS)} x{rd}, x{rs1}, {imm}")
        elif kind < 0.72:
            lines.append(f"lui x{rd}, {rng.choice((0, 0x80000, 0xFFFFF, rng.randrange(1 << 20)))}")
        else:   # one word past the data, now and then: a memory fault
            offset = 4 * (_DATA_WORDS if rng.random() < 0.01 else rng.randrange(_DATA_WORDS))
            lines.append(f"lw x{rd}, {offset}(x20)" if kind < 0.86 else f"sw x{rs2}, {offset}(x20)")

    def ops(self, lines, low, high):
        for _ in range(self.rng.randint(low, high)):
            self.op(lines)

    def function(self):
        name = self.label("f")
        self.functions.append(f"{name}:")
        self.ops(self.functions, 1, 3)
        self.functions.append("jalr x0, x1, 0")
        return name

    def loop(self, body):
        """A self-loop of more than HOT_BLOCK_VISITS rounds around `body(label, rounds)`."""
        rng, main, loop = self.rng, self.main, self.label("loop")
        rounds = rng.randint(eng.HOT_BLOCK_VISITS + 2, 70)
        main += [f"addi x21, x0, {rounds}", f"{loop}:"]
        body(loop, rounds)
        main += ["addi x21, x21, -1",
                 rng.choice((f"bne x21, x0, {loop}", f"blt x0, x21, {loop}"))]

    def segment(self):
        rng, main = self.rng, self.main
        kind = rng.choices(("ops", "branch", "loop", "call loop", "call", "jump", "store",
                            "rewriting loop"), (2, 2, 4, 2, 1, 1, 1, 1))[0]
        if kind == "ops":
            self.ops(main, 1, 4)
        elif kind == "branch":   # forward over a few ops
            skip = self.label("skip")
            main.append(f"{rng.choice(('beq', 'bne', 'blt', 'bge'))} "
                        f"x{rng.choice(_SOURCES)}, x{rng.choice(_SOURCES)}, {skip}")
            self.ops(main, 1, 3)
            main.append(f"{skip}:")
        elif kind == "loop":
            self.loop(lambda loop, rounds: self.ops(main, 1, 3))
        elif kind == "call loop":
            def body(loop, rounds):
                self.ops(main, 1, 2)
                main.append(f"jal x1, {self.function()}")
                self.ops(main, 0, 2)
            self.loop(body)
        elif kind == "call":
            main.append(f"jal x1, {self.function()}")
        elif kind == "jump":   # jalr over an op, its rd most often its rs1
            over = self.label("over")
            main += [f"addi x26, x0, @{over}",
                     f"jalr x{rng.choice((26, 26, 0, 5))}, x26, 0", f".targets {over}"]
            self.op(main)
            main.append(f"{over}:")
        elif kind == "store":   # over word 0, which never runs again, or a later word
            later = self.label("later")
            main.append(f"sw x22, @{later}(x0)" if rng.random() < 0.5 else "sw x22, 0(x0)")
            self.ops(main, 0, 3)
            main.append(f"{later}:")
        elif not self.table:   # a loop storing to the addresses of a table, one in its own body
            def body(loop, rounds):
                rewritten = self.label("rewritten")
                main.extend(("lw x25, 0(x24)", "addi x24, x24, 4", "sw x22, 0(x25)",
                             f"{rewritten}:"))
                self.ops(main, 1, 2)
                self.table += [0x10000 + 4 * rng.randrange(_DATA_WORDS) for _ in range(rounds)]
                self.table[rng.randrange(eng.HOT_BLOCK_VISITS + 1, rounds)] = \
                    f"@{rng.choice((loop, rewritten))}"
            main.append(f"addi x24, x20, {4 * _DATA_WORDS}")
            self.loop(body)

    def source(self):
        rng = self.rng
        for _ in range(rng.randint(4, 8)):
            self.segment()
        if rng.random() < 0.2:   # a jal self-loop whose lw or sw walks off the end of the data
            walk = self.label("walk")
            self.main += ["addi x23, x20, 0", f"{walk}:"]
            self.ops(self.main, 0, 1)
            self.main += [f"{rng.choice(('lw', 'sw'))} x5, 0(x23)", "addi x23, x23, 4",
                          f"jal x0, {walk}"]
        data = [rng.getrandbits(32) for _ in range(_DATA_WORDS)] + self.table
        source = "\n".join(self.main + ["ecall"] + self.functions
                           + [".data", ".word " + ", ".join(map(str, data))])
        labels = parse_assembly(re.sub(r"@\w+", "0", source)).labels
        return re.sub(r"@(\w+)", lambda m: str(4 * labels[m.group(1)]), source)


def _image(source):
    return layout_image(parse_assembly(source))


def _corpus_image(name):
    return _image((_CORPUS / f"{name}.s").read_text())


def _image_of(target) -> Image:
    return target.image if isinstance(target, EncryptedImage) else target


# -- comparing with the reference ---------------------------------------------

def _view(engine, limit):
    """What the reference fixes of an engine that has run to `limit`."""
    state = engine.state
    return (engine.run(limit).to_json_dict(), state.cur_key, state.cur_block_base, state.pc,
            engine.prev_pc)


def _reference_view(ref, limit):
    """`_view` of the reference, whose counters must keep their identities."""
    report = ref.run(limit)
    _check_counter_identities(ref, report)
    return report, ref.key, ref.base, ref.pc, ref.prev_pc


def _check_counter_identities(ref, report):
    """A plaintext run counts no patch lookup and no keystream invocation. An
    encrypted run looks a patch up at every control transfer and decrypts
    each fetch it retires, plus the one that died in an integrity fault or
    in a memory fault inside `lw` or `sw`; a fetch from an unmapped or
    unaligned pc is not decrypted."""
    counters, outcome = report["counters"], report["outcome"]
    if ref.key is None:
        assert counters["patch_lookups"] == counters["keystream_invocations"] == 0, report
        return
    assert counters["patch_lookups"] == counters["control_transfers"], report
    died_after_decrypting = outcome == eng.INTEGRITY_FAULT or (
        outcome == eng.MEMORY_FAULT and ref.load_word(ref.pc) is not None)
    assert counters["keystream_invocations"] == (
        counters["instructions_retired"] + died_after_decrypting), report


def _reference_trials(eimage, kind, n_trials, seed, limit, horizon):
    """The reports of `run_trials`'s trials, each run from reset on the reference."""
    rng = random.Random(seed)
    draws = [(rng.randrange(horizon), rng.getrandbits(63)) for _ in range(n_trials)]
    reports = []
    for trigger, trial_seed in draws:
        ref = Reference(eimage)
        ref.advance(trigger)
        _KINDS[kind](ref, AttackScenario(kind=kind, trigger_step=trigger),
                     random.Random(trial_seed))
        reports.append(_reference_view(ref, limit)[0])
    return reports


def _campaign(run):
    """`run()`'s trial reports, or the error of the trial that stopped the campaign."""
    try:
        return run()
    except HarnessError as exc:
        return str(exc)


# -- what the fast paths did ----------------------------------------------------

def _recording(monkeypatch):
    """Lists that fill from here on: (rounds allowed, registers, base, result)
    of every generated-function call, for blocks decoded from here on, and
    the offset of every keystream word fetched off its key's block stream."""
    calls, offsets, compiled, keystream_word = [], [], eng._compiled, eng.keystream_word

    def recording(instrs):
        run = compiled(instrs)

        def recorded(regs, mem, base, rounds):
            result = run(regs, mem, base, rounds)
            calls.append((rounds, regs, base, result))
            return result
        return recorded

    def fetched(key, offset):
        offsets.append(offset)
        return keystream_word(key, offset)

    monkeypatch.setattr(eng, "_compiled", recording)
    monkeypatch.setattr(eng, "keystream_word", fetched)
    return calls, offsets


def _rounds_taken(calls) -> bool:
    return any(result[2] for _, _, _, result in calls)


def _block_to_block(calls) -> bool:
    """Whether some engine's generated function returned the entry of another
    block whose generated function it called next."""
    return any(regs is next_regs and result[0] is not None and next_base != base
               and result[0] & MASK32 == next_base
               for (_, regs, base, result), (_, next_regs, next_base, _) in zip(calls, calls[1:]))


def _in_a_decoded_block(engine):
    """Whether `engine` stands inside a block decoded under its key."""
    state = engine.state
    base = state.cur_block_base
    block_id, length = engine.image.block_index[base]
    hot = engine.image.decoded_blocks.get(block_id)
    return hot is not None and hot[0] == state.cur_key and base <= state.pc < base + 4 * length


# -- the cases ------------------------------------------------------------------

class _FirstRun(NamedTuple):
    """A case's first run at one HOT_BLOCK_VISITS value, on a fresh target."""
    hot: int
    target: Image | EncryptedImage
    engine: eng.Engine       # after the run
    calls: list              # its generated-function calls, as `_recording` gives them
    offsets: list            # its keystream words fetched off a block stream
    expected: tuple          # the reference's view of the run

    @property
    def report(self) -> dict:
        return self.expected[0]


@dataclass(frozen=True)
class _Case:
    make: Callable           # a fresh target: a new image, so no block is decoded yet
    limit: int = _LIMIT
    start: Callable | None = None    # brings a new engine or reference to the case's start
    probe: Callable | None = None    # asserts on a _FirstRun
    kinds: tuple = ()        # attack kinds of its campaigns; () draws one
    trials: int = 6
    zero_keystream: bool = False     # every key's keystream is 0, so every key decrypts


def _pair(name, make_image, probe=None, **options):
    """The plaintext and encrypted cases of one program."""
    return {name: _Case(make_image, probe=probe, **options),
            name + " encrypted": _Case(lambda: encrypt_pipeline(make_image(), 42), probe=probe,
                                       **options)}


def _corpus_cases():
    manifest = json.loads((_CORPUS / "manifest.json").read_text())["programs"]
    cases = {}
    for name, program in manifest.items():
        def halts(run, retired=program["retired"]):
            assert (run.report["outcome"], run.report["counters"]["instructions_retired"]) \
                == (eng.HALT, retired)
        cases.update(_pair(f"corpus {name}", lambda name=name: _corpus_image(name), halts))
    return cases


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

# Self-loops whose further rounds run in place, by name; `_round_probe` says
# what each shows.
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
    # the sw, word 1, faults in the eleventh round
    "sw fault at word 1": """
    lui x5, 16
loop:
    addi x5, x5, 4
    sw x5, -4(x5)
    add x10, x10, x5
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
# how each round program ends: outcome and instructions retired
_ROUND_ENDS = {
    "branch": (eng.HALT, 2 + 200 * 4),
    "data": (eng.HALT, 2 + 200 * 5 + 1),
    "lw fault at word 0": (eng.MEMORY_FAULT, 1 + 40),   # at the eleventh load
    "lw fault at word 1": (eng.MEMORY_FAULT, 1 + 40 + 1),
    "sw fault at word 1": (eng.MEMORY_FAULT, 1 + 40 + 1),
    "lw fault in a later entry": (eng.MEMORY_FAULT, 1 + 3 * 14 + 1 + 4),
    "store into its own block": (eng.HALT, 3 + 40 * 5 + 1),
    "store into the text": (eng.HALT, 2 + 6 * 5 + 1),
}


def _round_probe(name):
    def probe(run):
        counters = run.report["counters"]
        assert (run.report["outcome"], counters["instructions_retired"]) == _ROUND_ENDS[name]
        if name == "branch" and run.engine.encrypted:
            # the honest zero patch on the back edge counts a key switch per round
            assert counters["key_switches"] == 201
        if run.hot != 0:
            return
        # rounds ran in place, except where every round stores into the text
        assert _rounds_taken(run.calls) == (name != "store into its own block")
        if name == "store into its own block":
            # only the loop block, entered before the first store, was decoded;
            # the entry block is never entered by a transfer
            assert set(_image_of(run.target).decoded_blocks) == {1}
            if not run.engine.encrypted:
                assert run.engine.state.regs[10] == 860
        elif name == "store into the text":
            # the first call runs the first round, then four more in place, and
            # returns in the fifth, whose store goes into the text
            assert run.calls[0][3][2] == 4
    return probe


def _round_cases():
    cases = {}
    for name, source in _ROUND_PROGRAMS.items():
        cases.update(_pair(f"rounds: {name}", lambda source=source: _image(source),
                           _round_probe(name)))
    return cases


def _decodes(block_id):
    def probe(run):
        assert run.hot != 0 or block_id in _image_of(run.target).decoded_blocks
    return probe


# a loop, then a load from an unmapped address
_LW_FAULT = "addi x1, x0, 3\nloop:\naddi x1, x1, -1\nbne x1, x0, loop\nlui x5, 32\nlw x6, 0(x5)\necall"


# a loop, then a jump to an unmapped pc (offset 0) or an unaligned one (offset
# 2): the fetch there faults before it is decrypted
_FETCH_FAULT = ("addi x1, x0, 3\nloop:\naddi x1, x1, -1\nbne x1, x0, loop\nlui x5, 48\n"
                "jalr x0, x5, {}\n.targets end\nend:\necall")


def _lw_fault_probe(run):
    # the lw after lui in block 2: pc at the lw, prev_pc at the lui
    assert run.report["outcome"] == eng.MEMORY_FAULT
    assert (run.engine.state.pc, run.engine.prev_pc) == (16, 12)
    _decodes(2)(run)


def _inject_into_loop_sum(runner):
    # loop_sum's loop block starts at 12; the payload stores the sentinel and halts
    payload = hijack_payload(0x10000, 0xC0FFEE42)
    for i in range(0, len(payload), 4):
        assert runner.state.mem.store_word(12 + i, int.from_bytes(payload[i:i + 4], "little"))
    runner.state.pc = 12


def _attack_loop_sum(runner):
    """After 25 steps, the payload over loop_sum's loop."""
    runner.advance(25)
    _inject_into_loop_sum(runner)


def _payload_probe(run):
    # the loop block was decoded before the payload went over it; the payload
    # dirties text, and the program's own stores have dirtied its data cell
    _decodes(1)(run)
    mem = run.engine.state.mem
    assert any(addr < 0x10000 for addr in mem.dirty) and 0x10000 in mem.dirty
    if not run.engine.encrypted:   # the payload ran: 25 + 6 retired, sentinel stored
        assert run.report["outcome"] == eng.HALT
        assert run.report["counters"]["instructions_retired"] == 31
        assert mem.load_word(0x10000) == 0xC0FFEE42
    else:                          # the plaintext payload does not decrypt
        assert run.report["outcome"] == eng.INTEGRITY_FAULT


# Block 1's key first enters block 0 (2 words) by a replayed patch, so its
# cached stream covers 2 words. The run then enters block 1 (7 words) with
# that key: the stream is replaced by one that covers the block, and no
# word is decrypted on its own.
_TWO_BLOCKS = "addi x10, x0, 1\njal x0, long\nlong:\n" + "addi x10, x10, 1\n" * 6 + "ecall"


def _short_stream_target():
    eimage = encrypt_pipeline(_image(_TWO_BLOCKS), 42)
    assert [length for _, length in eimage.image.blocks] == [2, 7]
    replayed = eng.Engine(eimage)
    replayed.replay_patch(eimage.patch_map[(0, 8)], 0)   # key of block 1, in block 0
    replayed.run(1)
    return eimage


def _short_stream_probe(run):
    key = derive_next_key(run.target.entry_key, run.target.patch_map[(0, 8)])
    assert len(run.target.image.key_streams[key]) == 7
    assert run.offsets == []
    assert run.report["outcome"] == eng.HALT and run.engine.state.regs[10] == 7
    assert run.hot != 0 or set(run.target.image.decoded_blocks) == {1}


def _past_its_stream(runner):
    """Sends a run, after 3 steps, to the first mid-block word past its key's block."""
    runner.advance(3)
    ref = Reference(runner.target)
    ref.advance(3)
    image, past = ref.image, ref.base + 4 * ref.blocks[ref.base][1]
    runner.state.pc = next(addr for addr in range(past, image.text_base + len(image.text), 4)
                           if addr not in ref.blocks)


def _past_its_stream_probe(run):
    # the one fetch off the stream takes the per-word fallback, and fails
    report, _, base, pc, _ = run.expected
    assert (report["outcome"], report["fault_pc"]) == (eng.INTEGRITY_FAULT, pc)
    assert run.offsets == [(pc - base) >> 2]


def _illegal_word_image():
    """Block 1 is four addi words and an ecall; word 2, its second, is illegal."""
    image = _image("jal x0, body\nbody:\naddi x10, x0, 1\naddi x10, x10, 2\n"
                   "addi x10, x10, 4\naddi x10, x10, 8\necall")
    return replace(image, text=image.text[:8] + bytes(4) + image.text[12:])


def _enter_past_the_illegal_word(runner):
    runner.advance(2)          # the jal, then block 1's first word
    runner.state.pc = 12       # past the illegal word, in block 1


def _illegal_word_probe(entered_past):
    def probe(run):
        report = run.report
        if entered_past:
            assert report["outcome"] == eng.HALT and run.engine.state.regs[10] == 13
        else:
            assert (report["outcome"], report["fault_pc"]) == (eng.INTEGRITY_FAULT, 8)
        if run.hot == 0:
            _, count, function = _image_of(run.target).decoded_blocks[1]
            assert count == 1   # the decoded words stop before word 2
            regs = [0] * 32
            assert function(regs, None, 4, 0) == (8, 0, 0) and regs[10] == 1   # word 1 alone
    return probe


_FLIPPING_DELTA = bytes(range(1, 17))


def _self_loop_table(edit, plaintext_words=False):
    """The encrypted self-loop with `edit(src, dst, patch)` -> a record or None
    for each record of its patch table, and its text left in plaintext if
    `plaintext_words`, for the zero keystream."""
    def make():
        eimage = encrypt_pipeline(_image(_SELF_LOOP), 42)
        table = (edit(*record) for record in eimage.patch_table)
        return replace(eimage, image=_image(_SELF_LOOP) if plaintext_words else eimage.image,
                       patch_table=tuple(record for record in table if record))
    return make


def _drop(edge):
    return lambda src, dst, patch: None if (src, dst) == edge else (src, dst, patch)


def _flip(src, dst, patch):
    return src, dst, _FLIPPING_DELTA if (src, dst) == (1, 4) else patch


def _rounds_in_place(run):
    assert run.hot != 0 or _rounds_taken(run.calls)


def _key_switches(expected, rounds_in_place):
    def probe(run):
        assert run.report["counters"]["key_switches"] == expected
        assert run.hot != 0 or _rounds_taken(run.calls) == rounds_in_place
    return probe


def _no_round_allowed(run):
    # each round goes through the fetch loop, the second under the wrong key
    assert run.report["outcome"] == eng.INTEGRITY_FAULT
    assert run.hot != 0 or run.calls and all(rounds == 0 for rounds, *_ in run.calls)


def _fault(outcome):
    def probe(run):
        assert run.report["outcome"] == outcome
    return probe


def _fib_without_its_return_edge():
    eimage = encrypt_pipeline(_corpus_image("fib"), 42)
    return replace(eimage, patch_table=tuple(
        record for record in eimage.patch_table if record[:2] != (4, 12)))


_NAMED_CASES = {
    **_corpus_cases(),
    **_round_cases(),
    **_pair("lw fault", lambda: _image(_LW_FAULT), _lw_fault_probe),
    **_pair("fetch from an unmapped pc", lambda: _image(_FETCH_FAULT.format(0)),
            _fault(eng.MEMORY_FAULT)),
    **_pair("fetch from an unaligned pc", lambda: _image(_FETCH_FAULT.format(2)),
            _fault(eng.MEMORY_FAULT)),
    **_pair("payload over loop_sum's loop", lambda: _corpus_image("loop_sum"), _payload_probe,
            limit=4096, start=_attack_loop_sum),
    "stale key, stream shorter than its block": _Case(_short_stream_target,
                                                      probe=_short_stream_probe),
    "fib: stale key past its stream": _Case(
        lambda: encrypt_pipeline(_corpus_image("fib"), 42), limit=100,
        start=_past_its_stream, probe=_past_its_stream_probe),
    **_pair("illegal word", _illegal_word_image, _illegal_word_probe(False)),
    **_pair("illegal word, entered past it", _illegal_word_image, _illegal_word_probe(True),
            start=_enter_past_the_illegal_word),
    # a patch table without the loop's way out: the run leaves it under the
    # loop's key and faults
    "self-loop without its exit edge": _Case(_self_loop_table(_drop((1, 20))),
                                             probe=_fault(eng.INTEGRITY_FAULT)),
    # a patch miss on the back edge keeps the key: rounds run in place
    "self-loop without its self edge": _Case(_self_loop_table(_drop((1, 4))),
                                             probe=_key_switches(2, True)),
    # without the return edge's patch the key register goes stale back in main
    "fib without its return edge": _Case(_fib_without_its_return_edge,
                                         probe=_fault(eng.INTEGRITY_FAULT)),
    "self-loop, key-flipping self edge": _Case(_self_loop_table(_flip), probe=_no_round_allowed),
    # under the zero keystream every key decrypts the loop, which runs to its
    # end, but a key-changing self edge runs no round in place
    "self-loop, key-flipping self edge, zero keystream": _Case(
        _self_loop_table(_flip, plaintext_words=True), zero_keystream=True,
        probe=_key_switches(201, False)),
    # 800 of the program's 803 steps are in its loop, so nearly every trial
    # forks from a checkpoint in the middle of it; the block after the loop
    # is one a mid-block entry can target
    "self-loop, then a block": _Case(
        lambda: encrypt_pipeline(_image(_SELF_LOOP.replace("ecall", "addi x12, x0, 1\necall")),
                                 42),
        probe=_rounds_in_place, kinds=_DRAWN_KINDS, trials=12),
}


def _random_cases(programs=16):
    cases = {}
    for n in range(programs):
        rng = random.Random(f"differential {n}")
        source, key = _Text(rng).source(), rng.getrandbits(128)
        limits = [rng.choice((_LIMIT, _LIMIT, rng.randrange(1, 1500))) for _ in range(2)]
        cases[f"random {n}"] = _Case(lambda source=source: _image(source), limits[0])
        cases[f"random {n} encrypted"] = _Case(
            lambda source=source, key=key: encrypt_pipeline(_image(source), key), limits[1])
    return cases


_RANDOM_CASES = _random_cases()
_CASES = {**_NAMED_CASES, **_RANDOM_CASES}
# what the random cases must reach, at each HOT_BLOCK_VISITS value
_RANDOM_PROBES = ("mid-block fork", "per word after a text store", "decoded block into another",
                  "round in place", *("trials " + kind for kind in _DRAWN_KINDS),
                  *("outcome " + outcome for outcome in (eng.HALT, eng.INTEGRITY_FAULT,
                                                         eng.MEMORY_FAULT, eng.STEP_LIMIT)))


# -- the harness ------------------------------------------------------------------

def _started(case, runner):
    if case.start is not None:
        case.start(runner)
    return runner


class _Expected(NamedTuple):
    """What the reference gives for a case, and where the engine is held to it."""
    view: tuple          # the reference's view at the case's step limit
    bounds: list         # chunk bounds for `advance`, to the end of the run
    cuts: list           # step limits of fresh runs
    views: dict          # the reference's view at each bound and cut
    campaigns: dict      # kind -> trial reports or the error that stopped them; None if refused
    seed: int            # the campaigns' seed
    fork_at: int         # the chunk bound a fork is taken at


def _expected(case, rng) -> _Expected:
    """The reference's runs of `case`: one, seen at its chunk bounds and its
    cuts up to its end, and its campaigns from reset."""
    target = case.make()
    ref = _started(case, Reference(target))
    started_at = k = ref.retired
    bounds = []
    while k < case.limit:
        k = min(case.limit, k + rng.randint(1, 120))
        bounds.append(k)
    # step limits of fresh runs, eight at each of three prime strides: a
    # stride longer than a round puts a cut at each of its offsets
    cuts = [started_at + 1, started_at + 2, started_at + 3]
    for stride in (7,) * 8 + (29,) * 8 + (127,) * 8:
        cuts.append(cuts[-1] + stride)
    cuts = [k for k in cuts if k <= case.limit]
    views = {}
    for k in sorted({*bounds, *cuts}):
        views[k] = _reference_view(ref, k)
        if k in bounds and views[k][0]["outcome"] != eng.STEP_LIMIT:
            break   # the run ended: every later view is this one
    bounds = [k for k in bounds if k in views]
    cuts = [k for k in cuts if k in views]
    view = _reference_view(ref, case.limit)
    end = view[0]["counters"]["instructions_retired"]
    campaigns, seed = {}, rng.getrandbits(32)
    if isinstance(target, EncryptedImage) and case.start is None:
        for kind in case.kinds or (rng.choice(_DRAWN_KINDS),):
            campaigns[kind] = None if view[0]["outcome"] != eng.HALT else _campaign(
                lambda: _reference_trials(target, kind, case.trials, seed, case.limit, end))
    return _Expected(view, bounds, cuts, views, campaigns, seed, rng.choice(bounds))


@functools.cache
def _check(name) -> frozenset:
    """Holds case `name` to the reference at each of _HOTS; the (probe, hot)
    pairs of `_RANDOM_PROBES` it reached."""
    case, reached = _CASES[name], set()
    with pytest.MonkeyPatch.context() as monkeypatch:
        if case.zero_keystream:
            monkeypatch.setattr(eng, "block_keystream", lambda key, n: array("I", bytes(4 * n)))
            monkeypatch.setattr(eng, "keystream_word", lambda key, offset: 0)
            monkeypatch.setattr("reference.keystream_word", lambda key, offset: 0)
        expected = _expected(case, random.Random(name))
        view, views = expected.view, expected.views
        end = view[0]["counters"]["instructions_retired"]
        calls, offsets = _recording(monkeypatch)
        for hot in _HOTS:
            monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
            target, marks = case.make(), (len(calls), len(offsets))

            def engine():
                return _started(case, eng.Engine(target))

            first = engine()
            assert _view(first, case.limit) == view, hot
            # a run with a transfer decodes a block at once, unless its text changed
            assert hot or _image_of(target).decoded_blocks or first.state.mem.text_written \
                or not view[0]["counters"]["control_transfers"]
            if case.probe is not None:
                case.probe(_FirstRun(hot, target, first, calls[marks[0]:], offsets[marks[1]:],
                                     view))
            # a second run reuses the blocks the first one decoded
            assert _view(engine(), case.limit) == view, hot
            # an engine advanced in chunks, and fresh runs cut by step limits
            chunked, text_store_at = engine(), None
            for k in expected.bounds:
                alive = chunked.advance(k)
                assert _view(chunked, k) == views[k], (hot, k)
                assert alive == (views[k][0]["outcome"] == eng.STEP_LIMIT), (hot, k)
                if text_store_at is None and chunked.state.mem.text_written:
                    text_store_at = k
                if not alive:
                    break
            for k in expected.cuts:
                assert _view(engine(), k) == views[k], (hot, k)
            # a fork at a chunk bound, and the engine it was forked from
            forked = engine()
            forked.advance(expected.fork_at)
            fork = forked.fork()
            if _in_a_decoded_block(forked):
                reached.add(("mid-block fork", hot))
            assert _view(fork, case.limit) == view, hot
            assert _view(forked, case.limit) == view, hot
            for kind, trials in expected.campaigns.items():
                if trials is None:
                    with pytest.raises(HarnessError, match="cannot place triggers"):
                        run_trials(target, kind, case.trials, expected.seed, step_limit=case.limit)
                    continue
                assert _campaign(lambda: [o.report.to_json_dict() for o in run_trials(
                    target, kind, case.trials, expected.seed, step_limit=case.limit)]) \
                    == trials, (hot, kind)
                if isinstance(trials, list):
                    reached.add(("trials " + kind, hot))
            calls_here = calls[marks[0]:]
            for probe, seen in (("outcome " + view[0]["outcome"], True),
                                ("round in place", _rounds_taken(calls_here)),
                                ("decoded block into another", _block_to_block(calls_here)),
                                ("per word after a text store",
                                 text_store_at is not None and end - text_store_at > 100)):
                if seen:
                    reached.add((probe, hot))
    return frozenset(reached)


@pytest.mark.parametrize("name", list(_CASES))
def test_engine_equals_the_reference(name):
    _check(name)


def test_random_cases_reach_every_probe():
    reached = set().union(*map(_check, _RANDOM_CASES))
    missing = [(probe, hot) for probe in _RANDOM_PROBES for hot in _HOTS
               if (probe, hot) not in reached]
    assert not missing


def test_the_reference_imports_neither_the_engine_nor_the_attacks():
    # the oracle shares no code with what it checks
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names} | {node.module}
    assert {"scylla.crypto", "scylla.isa"} <= imported
    assert not any(name.startswith(("scylla.engine", "scylla.attacks")) for name in imported)


# -- mechanisms of more than one target or engine ------------------------------

def test_targets_sharing_an_image_run_under_their_own_tables(monkeypatch):
    # Two patch tables over one image: the second lacks the loop's way out.
    # The blocks decoded for the image serve both, alternating.
    full = encrypt_pipeline(_image(_SELF_LOOP), 42)
    cut = replace(full, patch_table=tuple(
        record for record in full.patch_table if record[:2] != (1, 20)))
    assert cut.image is full.image and len(cut.patch_map) == len(full.patch_map) - 1
    expected = [_reference_view(Reference(target), _LIMIT) for target in (full, cut)]
    assert [view[0]["outcome"] for view in expected] == [eng.HALT, eng.INTEGRITY_FAULT]
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    for _ in range(2):
        for target, view in zip((full, cut), expected):
            assert _view(eng.Engine(target), _LIMIT) == view
    assert 1 in full.image.decoded_blocks


def test_fetch_cache_bound_changes_no_result(monkeypatch):
    # an image's key streams and the decode table, each bounded at two
    # entries, are cleared at nearly every miss
    monkeypatch.setattr(eng, "FETCH_CACHE_SIZE", 2)
    monkeypatch.setattr(eng, "DECODE_TABLE_SIZE", 2)
    sizes = []
    decode = eng.decode

    def decode_and_measure(word):
        sizes.append(len(eng._decodes))
        return decode(word)

    monkeypatch.setattr(eng, "decode", decode_and_measure)
    for name, case in _NAMED_CASES.items():
        if name.startswith("corpus "):
            target = case.make()
            assert _view(eng.Engine(target), _LIMIT) == _reference_view(Reference(target), _LIMIT)
    fib = _NAMED_CASES["corpus fib encrypted"].make()
    assert [o.report.to_json_dict() for o in run_trials(fib, ROGUE_EDGE, 40, 5, step_limit=4096)] \
        == _reference_trials(fib, ROGUE_EDGE, 40, 5, 4096, 62)
    assert len(fib.image.key_streams) <= 2
    assert sizes and max(sizes) <= 2 and len(eng._decodes) <= 2


def test_forks_share_decoded_blocks_but_not_text(monkeypatch):
    image = _corpus_image("loop_sum")
    targets = (image, encrypt_pipeline(image, 42))
    references = []
    for target in targets:
        ref = Reference(target)
        ref.advance(25)
        _inject_into_loop_sum(ref)
        references.append((_reference_view(Reference(target), _LIMIT),
                           _reference_view(ref, 4096)))
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", 0)
    for target, (whole, injected) in zip(targets, references):
        checkpoint = eng.Engine(target)
        assert checkpoint.advance(25)
        attacked, clean = checkpoint.fork(), checkpoint.fork()
        _inject_into_loop_sum(attacked)
        attacked_again = attacked.fork()           # a fork inherits the text store
        assert _view(attacked, 4096) == injected
        assert _view(clean, _LIMIT) == whole       # still the original code
        assert _view(checkpoint, _LIMIT) == whole
        assert _view(attacked_again, 4096) == injected
        assert 1 in _image_of(target).decoded_blocks
