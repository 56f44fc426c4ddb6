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
from dataclasses import dataclass
from functools import cached_property

from .asm import Program
from .cfg import EDGE_KINDS, EDGE_KIND_CODES, build_cfg
from .isa import encode

MAGIC = b"SCY1"
VERSION = 1
FLAG_ENCRYPTED = 0x1

_HEADER = struct.Struct("<4sIIIIIIIII")
_BLOCK_REC = struct.Struct("<II")
_EDGE_REC = struct.Struct("<III")


class LayoutError(ValueError):
    """Image segments cannot be placed as requested."""


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

    def text_words(self) -> list[int]:
        return [int.from_bytes(self.text[i:i + 4], "little")
                for i in range(0, len(self.text), 4)]

    @cached_property
    def block_index(self) -> dict[int, tuple[int, int]]:
        """Block entry address -> (block id, length in words), built once."""
        return {entry: (block_id, length)
                for block_id, (entry, length) in enumerate(self.blocks)}

    def digest(self) -> str:
        return hashlib.sha256(dump_image(self)).hexdigest()


def layout_image(program: Program, text_base: int = 0) -> Image:
    """Place the program at `text_base`; byte-deterministic."""
    if text_base % 4:
        raise LayoutError(f"text base {text_base:#x} is not 4-byte aligned")
    graph = build_cfg(program)
    text = b"".join(encode(i).to_bytes(4, "little") for i in program.instructions)

    text_end = text_base + len(text)
    data_end = program.data_base + len(program.data)
    if program.data and text and not (data_end <= text_base or program.data_base >= text_end):
        raise LayoutError(
            f"text [{text_base:#x}, {text_end:#x}) overlaps "
            f"data [{program.data_base:#x}, {data_end:#x})")

    return Image(
        text_base=text_base,
        entry=text_base,
        text=text,
        data_base=program.data_base,
        data=program.data,
        blocks=tuple((text_base + b.entry_addr, b.length_words) for b in graph.blocks),
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


def parse_container(blob: bytes) -> tuple[Image, int, int]:
    """Parse the SCY1 part; returns (image, flags, offset past data bytes)."""
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ImageFormatError("not a SCY1 container")
    (_, version, flags, text_base, entry, text_len, data_base, data_len,
     block_count, edge_count) = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise ImageFormatError(f"unsupported container version {version}")

    offset = _HEADER.size
    blocks = []
    for _ in range(block_count):
        blocks.append(_BLOCK_REC.unpack_from(blob, offset))
        offset += _BLOCK_REC.size
    edges = []
    for _ in range(edge_count):
        src, tgt, code = _EDGE_REC.unpack_from(blob, offset)
        if code >= len(EDGE_KINDS):
            raise ImageFormatError(f"bad edge kind code {code}")
        edges.append((src, tgt, EDGE_KINDS[code]))
        offset += _EDGE_REC.size
    if offset + text_len + data_len > len(blob):
        raise ImageFormatError("container truncated")
    text = blob[offset:offset + text_len]
    offset += text_len
    data = blob[offset:offset + data_len]
    offset += data_len

    image = Image(text_base=text_base, entry=entry, text=text,
                  data_base=data_base, data=data,
                  blocks=tuple(blocks), edges=tuple(edges))
    return image, flags, offset


def load_image_bytes(blob: bytes) -> Image:
    image, flags, _ = parse_container(blob)
    if flags & FLAG_ENCRYPTED:
        raise ImageFormatError("container holds an encrypted image")
    return image


def load_image(path) -> Image:
    with open(path, "rb") as fh:
        return load_image_bytes(fh.read())
