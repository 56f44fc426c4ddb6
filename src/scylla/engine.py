"""Fetch-decrypt execution engine.

Every step fetches one word at pc, optionally decrypts it with the
current-key register, decodes, and executes. On a control transfer
(pc != previous pc + 4) or a sequential crossing of the current
block's end, the engine consults the patch table under
(current block, new pc): a hit XORs the patch into the key register
and rebases the keystream offset; a miss leaves both alone, because
hardware has no basis to update them. Every fetch goes through the
decryptor, including fetches outside the text segment; a word that
fails to decode raises an integrity fault immediately.

The cycle model is deliberately two scalars: cycles = instructions
+ decrypt_cost * keystream invocations + switch_cost * key switches.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from .crypto import MAX_WORD_OFFSET, EncryptedImage, derive_next_key, keystream_word
from .image import Image
from .isa import Instruction, decode

HALT = "halt"
INTEGRITY_FAULT = "integrity-fault"
STEP_LIMIT = "step-limit"
MEMORY_FAULT = "memory-fault"

DEFAULT_STEP_LIMIT = 10 ** 6
DEFAULT_DECRYPT_COST = 1
DEFAULT_SWITCH_COST = 4

MASK32 = 0xFFFFFFFF
_OFFSET_MASK = MAX_WORD_OFFSET - 1
_NO_BLOCK = (None, 0)   # block_index miss: no block id, zero length


class ReportError(ValueError):
    """Reports cannot be compared as requested."""


@dataclass
class PerfCounters:
    instructions_retired: int = 0
    control_transfers: int = 0
    key_switches: int = 0
    patch_lookups: int = 0
    keystream_invocations: int = 0
    cycles: int = 0

    def as_dict(self) -> dict:
        return {
            "instructions_retired": self.instructions_retired,
            "control_transfers": self.control_transfers,
            "key_switches": self.key_switches,
            "patch_lookups": self.patch_lookups,
            "keystream_invocations": self.keystream_invocations,
            "cycles": self.cycles,
        }


def cycles_for(counters: PerfCounters, decrypt_cost: int, switch_cost: int) -> int:
    return (counters.instructions_retired
            + decrypt_cost * counters.keystream_invocations
            + switch_cost * counters.key_switches)


@dataclass(frozen=True)
class RunReport:
    outcome: str
    counters: PerfCounters
    final_state_digest: str
    fault_pc: int | None = None
    fault_word: int | None = None
    instructions_until_fault: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "fault_pc": self.fault_pc,
            "fault_word": self.fault_word,
            "instructions_until_fault": self.instructions_until_fault,
            "digest": self.final_state_digest,
            "counters": self.counters.as_dict(),
        }


class Memory:
    """Two mapped segments (text, data); word loads/stores, dirty tracking."""

    def __init__(self, image: Image):
        self.segments: list[tuple[int, bytearray]] = [
            (image.text_base, bytearray(image.text))]
        if image.data:
            self.segments.append((image.data_base, bytearray(image.data)))
        self.dirty: set[int] = set()

    def _locate(self, addr: int) -> tuple[bytearray, int] | None:
        for base, buf in self.segments:
            if base <= addr and addr + 4 <= base + len(buf):
                return buf, addr - base
        return None

    def load_word(self, addr: int) -> int | None:
        if addr % 4:
            return None
        found = self._locate(addr)
        if found is None:
            return None
        buf, at = found
        return int.from_bytes(buf[at:at + 4], "little")

    def store_word(self, addr: int, value: int) -> bool:
        if addr % 4:
            return False
        found = self._locate(addr)
        if found is None:
            return False
        buf, at = found
        buf[at:at + 4] = (value & MASK32).to_bytes(4, "little")
        self.dirty.add(addr)
        return True


@dataclass
class MachineState:
    """Registers, memory, pc, and the fetch-stage key state."""

    mem: Memory
    pc: int
    regs: list[int] = field(default_factory=lambda: [0] * 32)
    cur_key: bytes | None = None
    cur_block_base: int = 0
    halted: bool = False
    counters: PerfCounters = field(default_factory=PerfCounters)

    def set_reg(self, index: int, value: int) -> None:
        if index:  # x0 stays hardwired to zero
            self.regs[index] = value & MASK32

    def digest(self) -> str:
        h = hashlib.sha256()
        for value in self.regs:
            h.update(value.to_bytes(4, "little"))
        for addr in sorted(self.mem.dirty):
            h.update(addr.to_bytes(4, "little"))
            word = self.mem.load_word(addr)
            h.update((word or 0).to_bytes(4, "little"))
        return h.hexdigest()


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


class Engine:
    """One engine instance owns one MachineState; single-threaded.

    Only the engine touches the key state; an adversary between two steps
    uses `current_block()` and `replay_patch()` (see attacks.py).
    """

    def __init__(self, image: Image, *, patch_map=None, entry_key: bytes | None = None,
                 decrypt_cost: int = DEFAULT_DECRYPT_COST,
                 switch_cost: int = DEFAULT_SWITCH_COST):
        self.image = image
        self.encrypted = entry_key is not None
        self.patch_map = patch_map or {}
        self.decrypt_cost = decrypt_cost
        self.switch_cost = switch_cost
        self.state = MachineState(mem=Memory(image), pc=image.entry,
                                  cur_key=entry_key, cur_block_base=image.entry)
        self.trace: list[tuple[int, Instruction]] = []
        self.prev_pc: int | None = None
        self._end: tuple | None = None   # (outcome, fault_pc, fault_word); it sticks

    def run(self, step_limit: int = DEFAULT_STEP_LIMIT, *,
            record_trace: bool = False) -> RunReport:
        if self._end is None:
            self._end = self._fetch_loop(step_limit, record_trace)
        return self._report(*(self._end or (STEP_LIMIT,)))

    def advance(self, steps: int) -> bool:
        """Run until `steps` instructions have retired; False if the run ended first."""
        if self._end is None:
            self._end = self._fetch_loop(steps)
        return self._end is None

    def current_block(self) -> int | None:
        """Id of the block the key register belongs to; None off a block entry."""
        return self.image.block_index.get(self.state.cur_block_base, _NO_BLOCK)[0]

    def replay_patch(self, patch: bytes, target: int) -> None:
        """Transfer to `target`, absorbing `patch` whichever block it was minted for."""
        self._absorb_patch(patch, target)
        self.state.pc = target

    def _absorb_patch(self, patch: bytes, entry: int) -> None:
        state = self.state
        state.cur_key = derive_next_key(state.cur_key, patch)
        state.cur_block_base = entry

    def _fetch_loop(self, limit: int, record_trace: bool = False) -> tuple | None:
        """Fetch until `limit` instructions have retired (None) or the run ends."""
        state = self.state
        counters = state.counters
        block_index = self.image.block_index
        while counters.instructions_retired < limit:
            pc = state.pc
            raw = state.mem.load_word(pc)
            if raw is None:
                return MEMORY_FAULT, None, None

            if self.prev_pc is not None:
                sequential = pc == self.prev_pc + 4
                cur_len = block_index.get(state.cur_block_base, _NO_BLOCK)[1]
                crosses_end = pc == state.cur_block_base + 4 * cur_len
                if not sequential or crosses_end:
                    counters.control_transfers += 1
                    self._edge_event(pc)

            if self.encrypted:
                offset = ((pc - state.cur_block_base) >> 2) & _OFFSET_MASK
                counters.keystream_invocations += 1
                word = raw ^ keystream_word(state.cur_key, offset)
            else:
                word = raw

            instr = decode(word)
            if not isinstance(instr, Instruction):
                return INTEGRITY_FAULT, pc, word

            if not self._execute(instr):
                return MEMORY_FAULT, None, None
            counters.instructions_retired += 1
            if record_trace:
                self.trace.append((pc, instr))
            self.prev_pc = pc
            if state.halted:
                return HALT, None, None
        return None

    def _edge_event(self, new_pc: int) -> None:
        """Patch lookup on a transfer or block-boundary crossing."""
        state = self.state
        if self.encrypted:
            state.counters.patch_lookups += 1
            patch = self.patch_map.get((self.current_block(), new_pc))
            if patch is not None:
                self._absorb_patch(patch, new_pc)
                state.counters.key_switches += 1
        elif new_pc in self.image.block_index:
            state.cur_block_base = new_pc

    def _execute(self, instr: Instruction) -> bool:
        """Architectural semantics; False signals a memory fault."""
        state = self.state
        regs = state.regs
        op, pc = instr.op, state.pc
        next_pc = (pc + 4) & MASK32

        if op == "addi":
            state.set_reg(instr.rd, regs[instr.rs1] + instr.imm)
        elif op == "add":
            state.set_reg(instr.rd, regs[instr.rs1] + regs[instr.rs2])
        elif op == "sub":
            state.set_reg(instr.rd, regs[instr.rs1] - regs[instr.rs2])
        elif op == "and":
            state.set_reg(instr.rd, regs[instr.rs1] & regs[instr.rs2])
        elif op == "or":
            state.set_reg(instr.rd, regs[instr.rs1] | regs[instr.rs2])
        elif op == "xor":
            state.set_reg(instr.rd, regs[instr.rs1] ^ regs[instr.rs2])
        elif op == "slt":
            state.set_reg(instr.rd,
                          int(_signed(regs[instr.rs1]) < _signed(regs[instr.rs2])))
        elif op == "andi":
            state.set_reg(instr.rd, regs[instr.rs1] & (instr.imm & MASK32))
        elif op == "ori":
            state.set_reg(instr.rd, regs[instr.rs1] | (instr.imm & MASK32))
        elif op == "xori":
            state.set_reg(instr.rd, regs[instr.rs1] ^ (instr.imm & MASK32))
        elif op == "slti":
            state.set_reg(instr.rd, int(_signed(regs[instr.rs1]) < instr.imm))
        elif op == "lui":
            state.set_reg(instr.rd, instr.imm << 12)
        elif op == "lw":
            value = state.mem.load_word((regs[instr.rs1] + instr.imm) & MASK32)
            if value is None:
                return False
            state.set_reg(instr.rd, value)
        elif op == "sw":
            if not state.mem.store_word((regs[instr.rs1] + instr.imm) & MASK32,
                                        regs[instr.rs2]):
                return False
        elif op in ("beq", "bne", "blt", "bge"):
            a, b = regs[instr.rs1], regs[instr.rs2]
            taken = (a == b if op == "beq" else
                     a != b if op == "bne" else
                     _signed(a) < _signed(b) if op == "blt" else
                     _signed(a) >= _signed(b))
            if taken:
                next_pc = (pc + instr.imm) & MASK32
        elif op == "jal":
            state.set_reg(instr.rd, pc + 4)
            next_pc = (pc + instr.imm) & MASK32
        elif op == "jalr":
            target = (regs[instr.rs1] + instr.imm) & MASK32 & ~1
            state.set_reg(instr.rd, pc + 4)
            next_pc = target
        elif op == "ecall":
            state.halted = True
        state.pc = next_pc
        return True

    def _report(self, outcome: str, fault_pc: int | None = None,
                fault_word: int | None = None) -> RunReport:
        counters = replace(self.state.counters)
        counters.cycles = cycles_for(counters, self.decrypt_cost, self.switch_cost)
        until_fault = None
        if outcome in (INTEGRITY_FAULT, MEMORY_FAULT):
            # 1-based index of the fetch that died
            until_fault = counters.instructions_retired + 1
        return RunReport(outcome=outcome, counters=counters,
                         final_state_digest=self.state.digest(),
                         fault_pc=fault_pc, fault_word=fault_word,
                         instructions_until_fault=until_fault)


def plaintext_engine(image: Image, *, decrypt_cost: int = DEFAULT_DECRYPT_COST,
                     switch_cost: int = DEFAULT_SWITCH_COST) -> Engine:
    return Engine(image, decrypt_cost=decrypt_cost, switch_cost=switch_cost)


def encrypted_engine(eimage: EncryptedImage, *,
                     decrypt_cost: int = DEFAULT_DECRYPT_COST,
                     switch_cost: int = DEFAULT_SWITCH_COST) -> Engine:
    return Engine(eimage.image, patch_map=eimage.patch_map,
                  entry_key=eimage.entry_key,
                  decrypt_cost=decrypt_cost, switch_cost=switch_cost)


def run_plaintext(image: Image, step_limit: int = DEFAULT_STEP_LIMIT,
                  **costs) -> RunReport:
    return plaintext_engine(image, **costs).run(step_limit)


def run_encrypted(eimage: EncryptedImage,
                  step_limit: int = DEFAULT_STEP_LIMIT, **costs) -> RunReport:
    return encrypted_engine(eimage, **costs).run(step_limit)


def trace(target: Image | EncryptedImage,
          step_limit: int = DEFAULT_STEP_LIMIT) -> list[tuple[int, Instruction]]:
    """Retired (pc, instruction) sequence of the corresponding run."""
    if isinstance(target, EncryptedImage):
        engine = encrypted_engine(target)
    else:
        engine = plaintext_engine(target)
    engine.run(step_limit, record_trace=True)
    return engine.trace


def overhead_report(plain: RunReport, enc: RunReport,
                    decrypt_cost: int, switch_cost: int) -> float:
    """(encrypted cycles - baseline cycles) / baseline cycles."""
    if plain.outcome != HALT or enc.outcome != HALT:
        raise ReportError("overhead needs two halted runs")
    if plain.counters.instructions_retired != enc.counters.instructions_retired:
        raise ReportError(
            "runs retired different instruction counts "
            f"({plain.counters.instructions_retired} vs "
            f"{enc.counters.instructions_retired}); not the same program?")
    base = cycles_for(plain.counters, decrypt_cost, switch_cost)
    enc_cycles = cycles_for(enc.counters, decrypt_cost, switch_cost)
    return (enc_cycles - base) / base
