"""A reference interpreter for scylla images, written apart from the engine.

It follows docs/isa.md ("Execution semantics"), the run report of
docs/formats.md and the fetch rules at the top of `scylla/engine.py`, and
imports nothing from `scylla.engine`: one `step` fetches the word at pc,
decrypts it with `keystream_word`, decodes it and executes it. There are
no caches, no decoded blocks and no forks, so the engine's faster
mechanisms can be held to it.

Fetch rules. A fetch after the first is a transfer when pc is not the
previous pc + 4, or is the end of the current block, the block whose
entry is the key register's base. A transfer counts a control transfer.
An encrypted run also counts a patch lookup under (current block id, pc):
a hit XORs the patch into the key, moves the base to pc and counts a key
switch; a miss leaves both alone. A plaintext run has no key, and its
base moves to each block entry a transfer reaches. An encrypted fetch
counts a keystream invocation and XORs the word with keystream word
(pc - base) / 4 mod MAX_WORD_OFFSET of the key, wherever pc lies.
"""

from __future__ import annotations

import hashlib

from scylla.crypto import MAX_WORD_OFFSET, EncryptedImage, keystream_word
from scylla.isa import Instruction, decode

MASK = (1 << 32) - 1


def _signed(value: int) -> int:
    return value - (1 << 32) if value >> 31 else value


# op -> the value it writes to rd, from (rs1's value, rs2's value, imm, pc);
# every write keeps the low 32 bits, so andi/ori/xori act on the
# sign-extended immediate's 32 bits
_WRITES = {
    "add": lambda a, b, imm, pc: a + b,
    "sub": lambda a, b, imm, pc: a - b,
    "and": lambda a, b, imm, pc: a & b,
    "or": lambda a, b, imm, pc: a | b,
    "xor": lambda a, b, imm, pc: a ^ b,
    "slt": lambda a, b, imm, pc: int(_signed(a) < _signed(b)),
    "addi": lambda a, b, imm, pc: a + imm,
    "andi": lambda a, b, imm, pc: a & imm,
    "ori": lambda a, b, imm, pc: a | imm,
    "xori": lambda a, b, imm, pc: a ^ imm,
    "slti": lambda a, b, imm, pc: int(_signed(a) < imm),
    "lui": lambda a, b, imm, pc: imm << 12,
    "jal": lambda a, b, imm, pc: pc + 4,
    "jalr": lambda a, b, imm, pc: pc + 4,
}
# branch -> whether it is taken, from (rs1's value, rs2's value)
_TAKEN = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
}


_COUNTERS = ("instructions_retired", "control_transfers", "key_switches", "patch_lookups",
             "keystream_invocations", "cycles")


class Reference:
    """One run of an `Image` in plaintext or an `EncryptedImage` from its
    entry key. It is its own `state` and `mem`, so the kinds of
    `attacks._KINDS` and a test that tampers with a run write its pc and
    memory as they write an engine's."""

    def __init__(self, target):
        encrypted = isinstance(target, EncryptedImage)
        self.target = target
        self.image = image = target.image if encrypted else target
        self.patches = {(src, dst): patch for src, dst, patch in target.patch_table} \
            if encrypted else None
        self.blocks = {entry: (block_id, length)
                       for block_id, (entry, length) in enumerate(image.blocks)}
        self.segments = ((image.text_base, bytearray(image.text)),
                         (image.data_base, bytearray(image.data)))
        self.dirty: set[int] = set()
        self.regs = [0] * 32
        self.pc, self.prev_pc = image.entry, None
        self.key = target.entry_key if encrypted else None
        self.base = image.entry
        self.retired = self.transfers = self.switches = self.lookups = self.invocations = 0
        self.end = None   # (outcome, fault pc, fault word) once the run has ended
        self.state = self.mem = self

    # -- memory: little-endian words inside the text or the data segment

    def _word_at(self, addr: int):
        if addr % 4 == 0:
            for base, segment in self.segments:
                if base <= addr and addr + 4 <= base + len(segment):
                    return segment, addr - base
        return None

    def load_word(self, addr: int) -> int | None:
        at = self._word_at(addr)
        return None if at is None else int.from_bytes(at[0][at[1]:at[1] + 4], "little")

    def store_word(self, addr: int, value: int) -> bool:
        at = self._word_at(addr)
        if at is None:
            return False
        at[0][at[1]:at[1] + 4] = (value & MASK).to_bytes(4, "little")
        self.dirty.add(addr)
        return True

    # -- execution

    def execute(self, i: Instruction, pc: int) -> int | None:
        """Run `i` at `pc`: the next pc, or None on a memory fault."""
        regs = self.regs
        a, b = regs[i.rs1 or 0], regs[i.rs2 or 0]   # both read before rd is written
        value, next_pc = None, pc + 4
        if i.op in _WRITES:
            value = _WRITES[i.op](a, b, i.imm, pc)
        if i.op in _TAKEN and _TAKEN[i.op](a, b) or i.op == "jal":
            next_pc = pc + i.imm
        elif i.op == "jalr":
            next_pc = (a + i.imm) & ~1
        elif i.op == "lw":
            value = self.load_word((a + i.imm) & MASK)
            if value is None:
                return None
        elif i.op == "sw" and not self.store_word((a + i.imm) & MASK, b):
            return None
        if value is not None and i.rd:   # a write to x0 is dropped
            regs[i.rd] = value & MASK
        return next_pc & MASK

    def step(self) -> None:
        pc = self.pc
        word = self.load_word(pc)
        if word is None:
            self.end = ("memory-fault", None, None)
            return
        block_id, length = self.blocks[self.base]
        if self.prev_pc is not None and (pc != self.prev_pc + 4 or pc == self.base + 4 * length):
            self.transfers += 1
            if self.key is not None:
                self.lookups += 1
                patch = self.patches.get((block_id, pc))
                if patch is not None:
                    self.replay_patch(patch, pc)
                    self.switches += 1
            elif pc in self.blocks:
                self.base = pc
        if self.key is not None:
            self.invocations += 1
            word ^= keystream_word(self.key, (pc - self.base) // 4 % MAX_WORD_OFFSET)
        instr = decode(word)
        if not isinstance(instr, Instruction):
            self.end = ("integrity-fault", pc, word)
            return
        next_pc = self.execute(instr, pc)
        if next_pc is None:
            self.end = ("memory-fault", None, None)
            return
        self.retired += 1
        self.prev_pc, self.pc = pc, next_pc
        if instr.op == "ecall":   # it halts once it has retired
            self.end = ("halt", None, None)

    def advance(self, steps: int) -> bool:
        """Step until `steps` instructions have retired; False if the run ended first."""
        while self.end is None and self.retired < steps:
            self.step()
        return self.end is None

    def run(self, limit: int) -> dict:
        """Step until `limit` instructions have retired or the run ends; the
        run report as `RunReport.to_json_dict` gives it."""
        self.advance(limit)
        outcome, fault_pc, fault_word = self.end or ("step-limit", None, None)
        words = self.regs + [word for addr in sorted(self.dirty)
                             for word in (addr, self.load_word(addr))]
        faulted = outcome in ("memory-fault", "integrity-fault")
        counters = (self.retired, self.transfers, self.switches, self.lookups, self.invocations,
                    self.retired + self.invocations + 4 * self.switches)   # default costs
        return {"outcome": outcome, "fault_pc": fault_pc, "fault_word": fault_word,
                "instructions_until_fault": self.retired + 1 if faulted else None,
                "digest": hashlib.sha256(b"".join(w.to_bytes(4, "little") for w in words))
                .hexdigest(),
                "counters": dict(zip(_COUNTERS, counters))}

    # -- what an adversary between two steps may do (see attacks.py)

    def current_block(self) -> int:
        return self.blocks[self.base][0]

    def replay_patch(self, patch: bytes, target: int) -> None:
        """Absorb `patch` into the key and transfer to the block entry `target`."""
        self.key = bytes(x ^ y for x, y in zip(self.key, patch))
        self.base = self.pc = target
