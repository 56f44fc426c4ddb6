"""Assembly dialect parser.

One statement per line, `#` starts a comment. Grammar (EBNF in
docs/assembly.md):

    line      = [label ":"] [statement] ["#" comment]
    statement = instruction | directive
    directive = ".text" | ".data" [address] | ".word" ints | ".byte" ints
              | ".space" int | ".targets" idents

Labels are only legal in the text section and resolve to instruction
indices. Branch and jump operands are labels; the parser turns them
into the pc-relative byte offsets the encodings carry, so a parsed
Program is independent of where it is later laid out. `.targets`
must directly follow a `jalr` and declares that instruction's
indirect-transfer destinations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .isa import ADDRESS_SPACE, ISA_TABLE, LOAD, EncodingError, Instruction, encode

DATA_BASE_DEFAULT = 0x10000

REGISTER_ALIASES = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7, "fp": 8,
    "s0": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13,
    "a4": 14, "a5": 15, "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22, "s7": 23,
    "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}
# every register name the grammar accepts, and nothing else: no "x01", no non-ASCII digits
_REGISTERS = {**{f"x{i}": i for i in range(32)}, **REGISTER_ALIASES}
# branches and jal: their operand is a label, so the encoding depends on their own index
_PC_RELATIVE = frozenset(m for m, (fmt, *_) in ISA_TABLE.items() if fmt in ("B", "J"))
# data directive -> (bytes per value, lowest value, one past the highest)
_DATA_VALUES = {".word": (4, -(1 << 31), ADDRESS_SPACE), ".byte": (1, 0, 256)}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_OPERAND_RE = re.compile(r"^([^()\s]+)\((\w+)\)$")


class AsmError(ValueError):
    """Syntax or resolution failure; carries the 1-based source line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass
class Program:
    """Parsed program: concrete instructions plus the data segment."""

    instructions: tuple[Instruction, ...]
    labels: dict[str, int]                      # text label -> instruction index
    data: bytes = b""
    data_base: int = DATA_BASE_DEFAULT
    indirect_targets: dict[int, tuple[int, ...]] = field(default_factory=dict)


def _parse_reg(token: str, line: int) -> int:
    reg = _REGISTERS.get(token)
    if reg is None:
        raise AsmError(f"bad register {token!r}", line)
    return reg


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token.strip(), 0)
    except ValueError:
        raise AsmError(f"bad integer {token!r}", line) from None


def _split_operands(rest: str, line: int, n: int) -> list[str]:
    ops = [p.strip() for p in rest.split(",")] if rest.strip() else []
    if len(ops) != n or any(not p for p in ops):
        raise AsmError(f"expected {n} operand(s), got {rest.strip()!r}", line)
    return ops


def _split_statement(statement: str) -> tuple[str, str]:
    """(lower-cased mnemonic or directive, operand text) of a label-free statement."""
    parts = statement.split(None, 1)
    return parts[0].lower(), (parts[1] if len(parts) > 1 else "")


def _check_data_room(base: int | None, used: int, size: int, line: int) -> None:
    """Reject `size` more data bytes, before allocating them, if the data
    segment would then end past 2^32 (a `.data` base is never below 0)."""
    base = DATA_BASE_DEFAULT if base is None else base
    if base + used + size > ADDRESS_SPACE:
        raise AsmError(f"data [{base:#x}, {base + used + size:#x}) does not fit "
                       "in the 32-bit address space", line)


def parse_assembly(text: str) -> Program:
    """Parse source text into a Program; deterministic for identical input.

    Two passes: the first collects labels, directives and each
    instruction's label-free statement text; the second resolves the
    statements in source order, so the first bad one raises with its
    line. A statement without a label operand resolves to the same
    Instruction wherever it stands, and a branch or jal to the same
    Instruction wherever its label lies at the same offset from it; so
    each distinct one is resolved once and its Instruction reused.
    """
    pending: list[tuple[str, int]] = []     # (statement, line) per instruction
    labels: dict[str, int] = {}
    label_lines: dict[str, int] = {}
    data = bytearray()
    data_base: int | None = None
    pending_targets: dict[int, tuple[list[str], int]] = {}
    section = "text"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()

        while ":" in line:  # leading labels, possibly several on one line
            head, _, rest = line.partition(":")
            if "(" in head or " " in head.strip() or "\t" in head.strip():
                break
            name = head.strip()
            if not _LABEL_RE.match(name):
                raise AsmError(f"bad label {name!r}", line_no)
            if section != "text":
                raise AsmError("labels are only supported in .text", line_no)
            if name in labels:
                raise AsmError(
                    f"duplicate label {name!r} (first defined on line {label_lines[name]})",
                    line_no)
            labels[name] = len(pending)
            label_lines[name] = line_no
            line = rest.strip()
        if not line:
            continue

        if line[0] != ".":
            if section != "text":
                raise AsmError(
                    f"instruction {_split_statement(line)[0]!r} outside .text", line_no)
            pending.append((line, line_no))
            continue

        head, rest = _split_statement(line)
        if head == ".text":
            section = "text"
        elif head == ".data":
            section = "data"
            if rest.strip():
                base = _parse_int(rest, line_no)
                if base < 0:
                    raise AsmError(
                        f"data base {base:#x} lies outside the 32-bit address space", line_no)
                if data_base is not None and base != data_base:
                    raise AsmError("conflicting .data base addresses", line_no)
                _check_data_room(base, len(data), 0, line_no)
                data_base = base
        elif head in _DATA_VALUES:
            if section != "data":
                raise AsmError(f"{head} is only legal in .data", line_no)
            width, low, high = _DATA_VALUES[head]
            values = []
            for tok in rest.split(","):
                value = _parse_int(tok, line_no)
                if not low <= value < high:
                    raise AsmError(f"{head[1:]} value out of range: {value}", line_no)
                values.append(value % (1 << 8 * width))   # two's complement of a negative word
            _check_data_room(data_base, len(data), width * len(values), line_no)
            data += b"".join(value.to_bytes(width, "little") for value in values)
        elif head == ".space":
            if section != "data":
                raise AsmError(".space is only legal in .data", line_no)
            count = _parse_int(rest, line_no)
            if count < 0:
                raise AsmError(f"negative .space size: {count}", line_no)
            _check_data_room(data_base, len(data), count, line_no)
            data += bytes(count)
        elif head == ".targets":
            if section != "text":
                raise AsmError(".targets is only legal in .text", line_no)
            if not pending or _split_statement(pending[-1][0])[0] != "jalr":
                raise AsmError(".targets must follow a jalr instruction", line_no)
            names = [t.strip() for t in rest.split(",")]
            if not names or any(not n for n in names):
                raise AsmError(".targets needs at least one label", line_no)
            pending_targets[len(pending) - 1] = (names, line_no)
        else:
            raise AsmError(f"unknown directive {head!r}", line_no)

    # statement, or (text before its last comma, offset to its label) of a
    # branch or jal -> its Instruction; successes only
    instr_of: dict[str | tuple[str, int], Instruction] = {}
    instructions = []
    for index, (statement, line_no) in enumerate(pending):
        head, _, target = statement.rpartition(",")
        target = target.strip()
        key = (head, labels[target] - index) if target in labels else statement
        instr = instr_of.get(key)
        if instr is None:
            op, rest = _split_statement(statement)
            instr = _resolve_instruction(op, rest, line_no, index, labels)
            # (head, offset) fixes only a branch or jal: to any other op, a last
            # operand that is also a label's name (`t0`) is a register
            if op in _PC_RELATIVE or key is statement:
                instr_of[key] = instr
        instructions.append(instr)

    indirect: dict[int, tuple[int, ...]] = {}
    for index, (names, line_no) in pending_targets.items():
        resolved = []
        for name in names:
            if name not in labels:
                raise AsmError(f"unresolved label {name!r} in .targets", line_no)
            resolved.append(labels[name])
        indirect[index] = tuple(resolved)

    return Program(
        instructions=tuple(instructions),
        labels=labels,
        data=bytes(data),
        data_base=DATA_BASE_DEFAULT if data_base is None else data_base,
        indirect_targets=indirect,
    )


def _resolve_instruction(op: str, rest: str, line: int, index: int,
                         labels: dict[str, int]) -> Instruction:
    """The Instruction of one statement, whose operands are read by its
    row's format; a load is the one I-format row written `offset(reg)`."""
    def label_offset(token: str) -> int:
        token = token.strip()
        if token not in labels:
            raise AsmError(f"unresolved label {token!r}", line)
        return 4 * (labels[token] - index)

    if op not in ISA_TABLE:
        raise AsmError(f"unknown mnemonic {op!r}", line)
    fmt, opcode, _, _ = ISA_TABLE[op]
    try:
        if fmt == "R":
            rd, rs1, rs2 = _split_operands(rest, line, 3)
            instr = Instruction(op, rd=_parse_reg(rd, line), rs1=_parse_reg(rs1, line),
                                rs2=_parse_reg(rs2, line))
        elif fmt == "I" and opcode == LOAD:
            rd, mem = _split_operands(rest, line, 2)
            offset, base = _parse_mem_operand(mem, line)
            instr = Instruction(op, rd=_parse_reg(rd, line), rs1=base, imm=offset)
        elif fmt == "I":
            rd, rs1, imm = _split_operands(rest, line, 3)
            instr = Instruction(op, rd=_parse_reg(rd, line), rs1=_parse_reg(rs1, line),
                                imm=_parse_int(imm, line))
        elif fmt == "U":
            rd, imm = _split_operands(rest, line, 2)
            instr = Instruction(op, rd=_parse_reg(rd, line), imm=_parse_int(imm, line))
        elif fmt == "S":
            rs2, mem = _split_operands(rest, line, 2)
            offset, base = _parse_mem_operand(mem, line)
            instr = Instruction(op, rs1=base, rs2=_parse_reg(rs2, line), imm=offset)
        elif fmt == "B":
            rs1, rs2, target = _split_operands(rest, line, 3)
            instr = Instruction(op, rs1=_parse_reg(rs1, line), rs2=_parse_reg(rs2, line),
                                imm=label_offset(target))
        elif fmt == "J":
            rd, target = _split_operands(rest, line, 2)
            instr = Instruction(op, rd=_parse_reg(rd, line), imm=label_offset(target))
        else:   # SYS
            if rest.strip():
                raise AsmError(f"{op} takes no operands", line)
            instr = Instruction(op)
        encode(instr)  # range-check operands now, with the source line attached
    except EncodingError as exc:
        raise AsmError(str(exc), line) from None
    return instr


def _parse_mem_operand(token: str, line: int) -> tuple[int, int]:
    m = _MEM_OPERAND_RE.match(token.strip())
    if not m:
        raise AsmError(f"expected offset(reg), got {token!r}", line)
    return _parse_int(m.group(1), line), _parse_reg(m.group(2), line)
