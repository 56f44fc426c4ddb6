"""Program image layout and the SCY1 container format.

Container layout (all fields little-endian, documented in
docs/formats.md):

    "SCY1" | u32 version | u32 flags | u32 text_base | u32 entry
    u32 text_len | u32 data_base | u32 data_len | u32 block_count | u32 edge_count
    block_count * (u32 entry_addr, u32 length_words)
    edge_count  * (u32 source_id, u32 target_id, u32 kind_code)
    text bytes | data bytes

flags bit 0 marks an encrypted image, which is followed by a KEYT
section (see crypto.py). The edge records make the container
self-contained: encrypting an image needs the graph, not the source.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .asm import Program
from .cfg import EDGE_KINDS, EDGE_KIND_CODES, build_cfg
from .isa import ADDRESS_SPACE, encode

MAGIC = b"SCY1"
VERSION = 1
FLAG_ENCRYPTED = 0x1

_HEADER = struct.Struct("<4sIIIIIIIII")
_BLOCK_REC = struct.Struct("<II")
_EDGE_REC = struct.Struct("<III")


class LayoutError(ValueError):
    """An image breaks a structural rule: its segments, block or edge
    table, entry, or (encrypted) its patch table or block lengths."""


class ImageFormatError(ValueError):
    """Byte stream is not a well-formed SCY1 container."""


@dataclass(frozen=True)
class Image:
    """Laid-out program: text/data bytes plus the block and edge tables."""

    text_base: int
    entry: int
    text: bytes
    data_base: int
    data: bytes
    blocks: tuple[tuple[int, int], ...]        # (entry addr, length in words)
    edges: tuple[tuple[int, int, str], ...]    # (source id, target id, kind)

    def __post_init__(self):
        """The container rules of docs/formats.md hold for every image,
        however it is made: LayoutError names the first one broken."""
        text_base, text_size = self.text_base, len(self.text)
        data_base, data_size = self.data_base, len(self.data)
        blocks, block_count = self.blocks, len(self.blocks)
        if text_base % 4 or text_size % 4:
            raise LayoutError("text base and text length must be multiples of 4")
        # both segments lie in the 32-bit address space, and text and data,
        # when neither is empty, do not overlap
        text_end, data_end = text_base + text_size, data_base + data_size
        for name, base, end in (("text", text_base, text_end), ("data", data_base, data_end)):
            if not (0 <= base < ADDRESS_SPACE and end <= ADDRESS_SPACE):
                raise LayoutError(
                    f"{name} [{base:#x}, {end:#x}) lies outside the 32-bit address space")
        if data_size and text_size and not (data_end <= text_base or data_base >= text_end):
            raise LayoutError(f"text [{text_base:#x}, {text_end:#x}) overlaps "
                              f"data [{data_base:#x}, {data_end:#x})")
        at = text_base
        for block_id, (block_entry, length) in enumerate(blocks):   # blocks tile the text
            if block_entry != at:
                raise LayoutError(f"block {block_id} starts at {block_entry:#x}, not at {at:#x}")
            if length < 1:
                raise LayoutError(f"block {block_id} is empty")
            at += 4 * length
        if at != text_end:
            raise LayoutError(f"blocks end at {at:#x}, the text at {text_end:#x}")
        found = bisect_left(blocks, (self.entry,))   # tiled blocks are sorted by entry
        if found == block_count or blocks[found][0] != self.entry:
            raise LayoutError(f"entry {self.entry:#x} is not a block entry")
        for src, tgt, _kind in self.edges:
            if src >= block_count or tgt >= block_count:
                raise LayoutError(
                    f"edge {src} -> {tgt} names a block past the last id {block_count - 1}")

    def text_words(self) -> array:
        """The text's little-endian words, as a new array."""
        words = array("I", self.text)
        if sys.byteorder == "big":
            words.byteswap()
        return words

    @cached_property
    def block_index(self) -> dict[int, tuple[int, int]]:
        """Block entry address -> (block id, length in words), built once."""
        return {entry: (block_id, length)
                for block_id, (entry, length) in enumerate(self.blocks)}

    @cached_property
    def fetch_cache(self) -> dict:
        """The engine's decode table and key streams, host-side (see engine.py)."""
        return {}

    @cached_property
    def decoded_blocks(self) -> dict:
        """Hot block id -> (key, decoded words, their handlers), host-side (see engine.py)."""
        return {}

    def digest(self) -> str:
        return hashlib.sha256(dump_image(self)).hexdigest()


def layout_image(program: Program, text_base: int = 0) -> Image:
    """Place the program at `text_base`; byte-deterministic."""
    graph = build_cfg(program)
    words = dict.fromkeys(program.instructions)    # each distinct Instruction -> its word
    for instr in words:
        words[instr] = encode(instr)
    text_words = array("I", map(words.__getitem__, program.instructions))
    if sys.byteorder == "big":   # container words are little-endian
        text_words.byteswap()
    text = text_words.tobytes()
    return Image(
        text_base=text_base,
        entry=text_base,
        text=text,
        data_base=program.data_base,
        data=program.data,
        blocks=tuple((text_base + entry, length) for entry, length in graph.blocks),
        edges=graph.edges,
    )


def dump_image(image: Image, *, flags: int = 0) -> bytes:
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, flags, image.text_base, image.entry,
                        len(image.text), image.data_base, len(image.data),
                        len(image.blocks), len(image.edges))
    for entry, length in image.blocks:
        out += _BLOCK_REC.pack(entry, length)
    for src, tgt, kind in image.edges:
        out += _EDGE_REC.pack(src, tgt, EDGE_KIND_CODES[kind])
    out += image.text
    out += image.data
    return bytes(out)


def _header(blob: bytes) -> tuple:
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ImageFormatError("not a SCY1 container")
    return _HEADER.unpack_from(blob)


def container_flags(blob: bytes) -> int:
    """The flags of a SCY1 container, from its header alone."""
    return _header(blob)[2]


def parse_container(blob: bytes) -> tuple[Image, int, int]:
    """Parse the SCY1 part; returns (image, flags, offset past data bytes)."""
    (_, version, flags, text_base, entry, text_len, data_base, data_len,
     block_count, edge_count) = _header(blob)
    if version != VERSION:
        raise ImageFormatError(f"unsupported container version {version}")
    blocks_end = _HEADER.size + block_count * _BLOCK_REC.size
    text_at = blocks_end + edge_count * _EDGE_REC.size
    data_at = text_at + text_len
    if data_at + data_len > len(blob):
        raise ImageFormatError("container truncated")

    edges = []
    for src, tgt, code in _EDGE_REC.iter_unpack(blob[blocks_end:text_at]):
        if code >= len(EDGE_KINDS):
            raise ImageFormatError(f"bad edge kind code {code}")
        edges.append((src, tgt, EDGE_KINDS[code]))

    try:
        image = Image(text_base=text_base, entry=entry, text=blob[text_at:data_at],
                      data_base=data_base, data=blob[data_at:data_at + data_len],
                      blocks=tuple(_BLOCK_REC.iter_unpack(blob[_HEADER.size:blocks_end])),
                      edges=tuple(edges))
    except LayoutError as err:
        raise ImageFormatError(str(err)) from None
    return image, flags, data_at + data_len


def load_image_bytes(blob: bytes) -> Image:
    image, flags, end = parse_container(blob)
    if flags & FLAG_ENCRYPTED:
        raise ImageFormatError("container holds an encrypted image")
    if end != len(blob):
        raise ImageFormatError(f"{len(blob) - end} bytes trail the data segment")
    return image
