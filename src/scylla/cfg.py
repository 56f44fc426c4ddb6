"""Basic-block discovery and control-flow graph construction.

Blocks are the unit of key assignment: leaders are the first
instruction, every branch/jump target, and every instruction after a
terminator. Edges carry a kind so call/return chaining stays visible.

The graph's tables have the format of `Image.blocks` and `Image.edges`,
which the key schedule and the engine read: a block is an
`(entry_addr, length_words)` tuple whose id is its index, at text
base 0 here, and an edge is `(source id, target id, kind)`. Laying
out an image only adds the text base to each entry.

Indirect transfers: a `jalr x0, ra, 0` is recognized as a return and
gets one return edge per legal return site of the enclosing function's
callers. Any other jalr must carry a declared `.targets` set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .asm import Program
from .isa import ISA_TABLE

FALLTHROUGH = "fallthrough"
BRANCH_TAKEN = "branch-taken"
JUMP = "jump"
CALL = "call"
RETURN = "return"
INDIRECT = "indirect"

EDGE_KINDS = (FALLTHROUGH, BRANCH_TAKEN, JUMP, CALL, RETURN, INDIRECT)
EDGE_KIND_CODES = {kind: code for code, kind in enumerate(EDGE_KINDS)}

_BRANCHES = frozenset(m for m, (fmt, *_) in ISA_TABLE.items() if fmt == "B")


class AnalysisError(ValueError):
    """The program's control flow cannot be resolved statically."""


@dataclass(frozen=True)
class ControlFlowGraph:
    blocks: tuple[tuple[int, int], ...]        # (entry addr, length in words)
    edges: tuple[tuple[int, int, str], ...]    # (source id, target id, kind)


def _is_return(instr) -> bool:
    return instr.op == "jalr" and instr.rd == 0 and instr.rs1 == 1 and instr.imm == 0


def build_cfg(program: Program) -> ControlFlowGraph:
    instrs = program.instructions
    n = len(instrs)
    if n == 0:
        raise AnalysisError("empty program")

    call_sites: dict[int, int] = {}   # call index -> callee entry index
    leaders = {0}
    for i, instr in enumerate(instrs):
        if instr.op in _BRANCHES:
            leaders.add(_branch_target(i, instr, n))
            _require_next(i, n, "branch")
            leaders.add(i + 1)
        elif instr.op == "jal":
            target = _branch_target(i, instr, n)
            leaders.add(target)
            if instr.rd != 0:
                call_sites[i] = target
                _require_next(i, n, "call")
            if i + 1 < n:
                leaders.add(i + 1)
        elif instr.op == "jalr":
            if not _is_return(instr) and i not in program.indirect_targets:
                raise AnalysisError(
                    f"jalr at address {4 * i:#x} has no declared .targets set")
            for t in program.indirect_targets.get(i, ()):
                leaders.add(t)
            if i + 1 < n:
                leaders.add(i + 1)
        elif instr.op == "ecall":
            if i + 1 < n:
                leaders.add(i + 1)
        elif i + 1 == n:
            raise AnalysisError("control falls off the end of the text segment")

    order = sorted(leaders)
    block_of_index: dict[int, int] = {}
    blocks = []
    for block_id, start in enumerate(order):
        end = order[block_id + 1] if block_id + 1 < len(order) else n
        blocks.append((4 * start, end - start))
        for i in range(start, end):
            block_of_index[i] = block_id

    # map function entries to their return sites for return-edge synthesis
    fn_entries = sorted({0} | set(call_sites.values()))
    return_sites: dict[int, list[int]] = {entry: [] for entry in fn_entries}
    for site, callee in call_sites.items():
        return_sites[callee].append(site + 1)

    def enclosing_fn(i: int) -> int:
        latest = 0
        for entry in fn_entries:
            if entry <= i:
                latest = entry
        return latest

    edges: set[tuple[int, int, str]] = set()
    for src, (entry, length) in enumerate(blocks):
        last = entry // 4 + length - 1
        instr = instrs[last]
        if instr.op in _BRANCHES:
            edges.add((src, block_of_index[_branch_target(last, instr, n)], BRANCH_TAKEN))
            edges.add((src, block_of_index[last + 1], FALLTHROUGH))
        elif instr.op == "jal":
            target = _branch_target(last, instr, n)
            edges.add((src, block_of_index[target], CALL if instr.rd != 0 else JUMP))
        elif instr.op == "jalr":
            if _is_return(instr):
                sites = return_sites.get(enclosing_fn(last), [])
                if not sites:
                    raise AnalysisError(
                        f"return at address {4 * last:#x} has no known call sites")
                for site in sites:
                    if site >= n:
                        raise AnalysisError(
                            f"call at address {4 * (site - 1):#x} has no return site")
                    edges.add((src, block_of_index[site], RETURN))
            else:
                for t in program.indirect_targets[last]:
                    edges.add((src, block_of_index[t], INDIRECT))
        elif instr.op == "ecall":
            pass  # halting block
        else:
            edges.add((src, block_of_index[last + 1], FALLTHROUGH))

    return ControlFlowGraph(blocks=tuple(blocks), edges=tuple(sorted(edges)))


def _branch_target(i: int, instr, n: int) -> int:
    target, rem = divmod(4 * i + instr.imm, 4)
    if rem or not 0 <= target < n:
        raise AnalysisError(
            f"transfer at address {4 * i:#x} targets {4 * i + instr.imm:#x}, "
            "outside the text segment")
    return target


def _require_next(i: int, n: int, what: str) -> None:
    if i + 1 >= n:
        raise AnalysisError(f"{what} at address {4 * i:#x} has no following instruction")
