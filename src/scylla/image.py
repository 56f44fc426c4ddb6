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
Only the `Image` constructor checks the container rules, edge kinds
included, and its block-tiling check builds the image's `block_index`.

An image keeps its edge records as the container's words, an
`EdgeTable`, from load to dump: running or attacking an image reads no
edge, so loading one makes no object per edge record.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass, field

from .asm import Program
from .cfg import EDGE_KINDS, EDGE_KIND_CODES, build_cfg
from .isa import ADDRESS_SPACE, encode, le_bytes, le_words

MAGIC = b"SCY1"
VERSION = 1
FLAG_ENCRYPTED = 0x1

_HEADER = struct.Struct("<4sIIIIIIIII")
_BLOCK_REC = struct.Struct("<II")
_EDGE_BYTES = 12   # an edge record: u32 source id, u32 target id, u32 kind code


class LayoutError(ValueError):
    """An image breaks a structural rule: its segments, block or edge
    table, entry, or (encrypted) its patch table or block lengths."""


class ImageFormatError(ValueError):
    """Byte stream is not a well-formed SCY1 container."""


@dataclass(frozen=True)
class EdgeTable:
    """Edge records as the container holds them: little-endian u32
    (source id, target id, kind code) words, in immutable bytes. Its
    length is the edge count, and iterating a table that an `Image`
    accepted yields (source id, target id, kind) triples, as `build_cfg`
    gives them."""

    records: bytes

    def __post_init__(self):
        if not isinstance(self.records, bytes) or len(self.records) % _EDGE_BYTES:
            raise LayoutError(f"edge records must be bytes of whole {_EDGE_BYTES}-byte records")

    @classmethod
    def of(cls, edges) -> EdgeTable:
        """The table of (source id, target id, kind) triples, in their order."""
        return cls(le_bytes(array("I", [word for src, tgt, kind in edges
                                         for word in (src, tgt, EDGE_KIND_CODES[kind])])))

    def __len__(self) -> int:
        return len(self.records) // _EDGE_BYTES

    def __iter__(self):
        words = iter(self.words())
        return ((src, tgt, EDGE_KINDS[code]) for src, tgt, code in zip(words, words, words))

    def words(self) -> array:
        """The records' words, source, target and kind code in turn, as a new array."""
        return le_words(self.records)


@dataclass(frozen=True)
class Image:
    """Laid-out program: text/data bytes plus the block and edge tables,
    which the constructor checks (edge kinds too) and indexes as it goes.
    The blocks are tuples, which the engine reads on every transfer; the
    edges stay the container's words."""

    text_base: int
    entry: int
    text: bytes
    data_base: int
    data: bytes
    blocks: tuple[tuple[int, int], ...]        # (entry addr, length in words)
    edges: EdgeTable                           # (source id, target id, kind code) words
    # block entry address -> (block id, length in words), built by the tiling check
    block_index: dict[int, tuple[int, int]] = field(init=False, repr=False, compare=False)
    # host-side, shared by every engine on the image (see engine.py): key ->
    # its keystream array, and hot block id -> (key, decoded word count, their
    # generated function); decode results are shared by every image instead
    key_streams: dict = field(init=False, repr=False, compare=False)
    decoded_blocks: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """The container rules of docs/formats.md hold for every image,
        however it is made: LayoutError names the first one broken."""
        text_base, text_size = self.text_base, len(self.text)
        data_base, data_size = self.data_base, len(self.data)
        block_count = len(self.blocks)
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
        index, at = {}, text_base
        for block_id, (block_entry, length) in enumerate(self.blocks):   # blocks tile the text
            if block_entry != at:
                raise LayoutError(f"block {block_id} starts at {block_entry:#x}, not at {at:#x}")
            if length < 1:
                raise LayoutError(f"block {block_id} is empty")
            index[at] = (block_id, length)
            at += 4 * length
        if at != text_end:
            raise LayoutError(f"blocks end at {at:#x}, the text at {text_end:#x}")
        if self.entry not in index:
            raise LayoutError(f"entry {self.entry:#x} is not a block entry")
        kinds, words = len(EDGE_KINDS), iter(self.edges.words())
        for src, tgt, code in zip(words, words, words):
            if src >= block_count or tgt >= block_count:
                raise LayoutError(
                    f"edge {src} -> {tgt} names a block past the last id {block_count - 1}")
            if code >= kinds:
                raise LayoutError(f"edge {src} -> {tgt} has unknown kind {code}")
        object.__setattr__(self, "block_index", index)
        object.__setattr__(self, "key_streams", {})
        object.__setattr__(self, "decoded_blocks", {})

    def text_words(self) -> array:
        """The text's little-endian words, as a new array."""
        return le_words(self.text)

    def digest(self) -> str:
        return hashlib.sha256(dump_image(self)).hexdigest()


def layout_image(program: Program, text_base: int = 0) -> Image:
    """Place the program at `text_base`; byte-deterministic."""
    graph = build_cfg(program)
    # each distinct Instruction object, by id, -> its word: the parser shares one
    # object among equal statements, and an id hashes without a Python call
    ids = list(map(id, program.instructions))
    words = {key: encode(instr) for key, instr in dict(zip(ids, program.instructions)).items()}
    text = le_bytes(array("I", map(words.__getitem__, ids)))
    return Image(
        text_base=text_base,
        entry=text_base,
        text=text,
        data_base=program.data_base,
        data=program.data,
        blocks=tuple((text_base + entry, length) for entry, length in graph.blocks),
        edges=EdgeTable.of(graph.edges),
    )


def dump_image(image: Image, *, flags: int = 0) -> bytes:
    out = bytearray()
    out += _HEADER.pack(MAGIC, VERSION, flags, image.text_base, image.entry,
                        len(image.text), image.data_base, len(image.data),
                        len(image.blocks), len(image.edges))
    for entry, length in image.blocks:
        out += _BLOCK_REC.pack(entry, length)
    out += image.edges.records
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
    text_at = blocks_end + edge_count * _EDGE_BYTES
    data_at = text_at + text_len
    if data_at + data_len > len(blob):
        raise ImageFormatError("container truncated")
    try:
        image = Image(text_base=text_base, entry=entry, text=blob[text_at:data_at],
                      data_base=data_base, data=blob[data_at:data_at + data_len],
                      blocks=tuple(_BLOCK_REC.iter_unpack(blob[_HEADER.size:blocks_end])),
                      edges=EdgeTable(blob[blocks_end:text_at]))
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
