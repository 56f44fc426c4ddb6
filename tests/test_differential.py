"""The engine against the reference interpreter in `reference.py`.

Small seeded random programs: self-loops of more than HOT_BLOCK_VISITS
rounds, calls, loops that call, forward branches, jalr jumps, loads and
stores, stores into their own text and loops that rewrite their own body
in a late round. Each runs plaintext and encrypted through `Engine.run`,
chunked `advance`, a mid-run `fork` and, encrypted, `run_trials` with
random attacks of every drawable kind at random triggers, and must equal
the reference in outcome, fault pc and word, counters, digest, key
register, pc and previous pc. A second pass sets HOT_BLOCK_VISITS to 0,
so every block runs from its decoded words from its first entry on."""

import random
import re

import pytest

from reference import Reference
from test_engine import _reference_view, _view
from scylla import engine as eng
from scylla.asm import parse_assembly
from scylla.attacks import (
    MID_BLOCK_ENTRY,
    PATCH_REPLAY,
    ROGUE_EDGE,
    AttackScenario,
    HarnessError,
    _apply_scenario,
    run_trials,
)
from scylla.crypto import encrypt_pipeline
from scylla.image import layout_image
from scylla.isa import MASK32, Instruction, encode

_SCRATCH = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)
# x1 holds return addresses, x20 the data base and x21 a loop counter
_SOURCES = (0, 1, 20, 21) + _SCRATCH
_DATA_WORDS = 40
_R_OPS = ("add", "sub", "and", "or", "xor", "slt")
_I_OPS = ("addi", "andi", "ori", "xori", "slti")
_LIMIT = 20_000
_DRAWN_KINDS = (ROGUE_EDGE, MID_BLOCK_ENTRY, PATCH_REPLAY)


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


def _in_a_decoded_block(engine):
    """Whether `engine` stands inside a block decoded under its key."""
    state = engine.state
    base = state.cur_block_base
    block_id, length = engine.image.block_index[base]
    hot = engine.image.decoded_blocks.get(block_id)
    return hot is not None and hot[0] == state.cur_key and base <= state.pc < base + 4 * length


def _recording_calls(monkeypatch) -> list:
    """(registers, base, result) of every generated-function call from here
    on, for blocks decoded from here on."""
    calls, compiled = [], eng._compiled

    def recording(instrs):
        run = compiled(instrs)

        def recorded(regs, mem, base, rounds):
            result = run(regs, mem, base, rounds)
            calls.append((regs, base, result))
            return result
        return recorded

    monkeypatch.setattr(eng, "_compiled", recording)
    return calls


def _block_to_block(calls) -> bool:
    """Whether some engine's generated function returned the entry of another
    block whose generated function it called next."""
    return any(regs is next_regs and result[0] is not None and next_base != base
               and result[0] & MASK32 == next_base
               for (regs, base, result), (next_regs, next_base, _) in zip(calls, calls[1:]))


def _reference_trials(eimage, kind, n_trials, seed, limit, horizon):
    """The reports of `run_trials`'s trials, each run from reset on the reference."""
    rng = random.Random(seed)
    draws = [(rng.randrange(horizon), rng.getrandbits(63)) for _ in range(n_trials)]
    reports = []
    for trigger, trial_seed in draws:
        ref = Reference(eimage)
        ref.run(trigger)
        _apply_scenario(ref, AttackScenario(kind=kind, trigger_step=trigger),
                        random.Random(trial_seed))
        reports.append(ref.run(limit))
    return reports


def _campaign(run):
    """`run()`'s trial reports, or the error of the trial that stopped the campaign."""
    try:
        return run()
    except HarnessError as exc:
        return str(exc)


@pytest.mark.parametrize("hot", [eng.HOT_BLOCK_VISITS, 0])
def test_engine_equals_the_reference_on_random_programs(monkeypatch, hot):
    calls = _recording_calls(monkeypatch)
    monkeypatch.setattr(eng, "HOT_BLOCK_VISITS", hot)
    rng = random.Random(f"differential {hot}")
    seen = dict.fromkeys((
        "mid-block fork", "per word after a text store", "decoded block into another",
        *("trials " + kind for kind in _DRAWN_KINDS),
        *("outcome " + outcome for outcome in (eng.HALT, eng.INTEGRITY_FAULT,
                                               eng.MEMORY_FAULT, eng.STEP_LIMIT))), 0)
    for case in range(24):
        image = layout_image(parse_assembly(_Text(rng).source()))
        for target in (image, encrypt_pipeline(image, rng.getrandbits(128))):
            limit = rng.choice((_LIMIT, _LIMIT, rng.randrange(1, 1500)))
            # the reference and an engine advanced in chunks, side by side
            ref, engine, k, bounds = Reference(target), eng.Engine(target), 0, []
            alive, text_store_at = True, None
            while alive and k < limit:
                k = min(limit, k + rng.randint(1, 120))
                alive = engine.advance(k)
                assert _view(engine, k) == _reference_view(ref, k), (case, k)
                bounds.append(k)
                if text_store_at is None and engine.state.mem.text_written:
                    text_store_at = k
            expected = _reference_view(ref, limit)
            assert _view(engine, limit) == expected, case
            assert _view(eng.Engine(target), limit) == expected, case
            outcome = expected[0]["outcome"]
            retired = expected[0]["counters"]["instructions_retired"]
            seen["outcome " + outcome] += 1
            if text_store_at is not None and retired - text_store_at > 100:
                seen["per word after a text store"] += 1
            # a fork at a chunk bound, and the engine it was forked from
            engine = eng.Engine(target)
            engine.advance(rng.choice(bounds))
            seen["mid-block fork"] += _in_a_decoded_block(engine)
            fork = engine.fork()
            assert _view(fork, limit) == expected, case
            assert _view(engine, limit) == expected, case
            if not engine.encrypted:
                continue
            kind, seed = rng.choice(_DRAWN_KINDS), rng.getrandbits(32)
            if outcome != eng.HALT:
                with pytest.raises(HarnessError, match="cannot place triggers"):
                    run_trials(target, kind, 6, seed, step_limit=limit)
                continue
            got = _campaign(lambda: [o.report.to_json_dict() for o in run_trials(
                target, kind, 6, seed, step_limit=limit)])
            assert got == _campaign(
                lambda: _reference_trials(target, kind, 6, seed, limit, retired)), case
            seen["trials " + kind] += isinstance(got, list)
    assert any(result[2] for _, _, result in calls), "no round ran in place"
    seen["decoded block into another"] = _block_to_block(calls)
    assert all(seen.values()), seen
