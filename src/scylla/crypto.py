"""Per-block keys, edge patches, and in-place text encryption.

Key material is 128-bit throughout. The constructions are fixed so
independent implementations can reproduce the committed vectors in
fixtures/prf_vectors:

  block key     key(i) = AES-128(master_seed, i as a 16-byte big-endian block)
  keystream     word m under key k = bytes [4m, 4m+4) of the AES-128-CTR
                keystream for k with a zero initial counter block,
                read little-endian. Equivalently: AES-128(k, BE128(m div 4))
                sliced at byte 4*(m mod 4).
  edge patch    patch(s -> t) = key(s) XOR key(t)
  key update    next = current XOR patch

Ciphertext word at offset m from its block entry is plain XOR
keystream(key(block), m): text length never changes, the data segment
is never touched, and identical instructions at different positions
encrypt differently. Offsets count from the block entry, so even the
correct key misaligns when entering a block mid-body.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .cfg import BasicBlock, ControlFlowGraph
from .image import FLAG_ENCRYPTED, Image, dump_image, parse_container

KEY_BYTES = 16
MAX_WORD_OFFSET = 1 << 20

_KEYT_MAGIC = b"KEYT"
_KEYT_HEADER = struct.Struct("<4sI16s")
_PATCH_REC = struct.Struct("<II16s")


class KeyScheduleError(ValueError):
    """Schedule does not match the image it is applied to."""


def seed_bytes(seed: int | bytes) -> bytes:
    """Normalize a 128-bit seed given as int or 16 raw bytes."""
    if isinstance(seed, bytes):
        if len(seed) != KEY_BYTES:
            raise ValueError(f"seed must be {KEY_BYTES} bytes, got {len(seed)}")
        return seed
    if not 0 <= seed < (1 << 128):
        raise ValueError("integer seed out of 128-bit range")
    return seed.to_bytes(KEY_BYTES, "big")


@lru_cache(maxsize=1024)
def _encryptor(key: bytes):
    return Cipher(algorithms.AES(key), modes.ECB()).encryptor()


def _prf_block(key: bytes, index: int) -> bytes:
    return _encryptor(key).update(index.to_bytes(KEY_BYTES, "big"))


def derive_block_key(master_seed: int | bytes, block_id: int) -> bytes:
    return _prf_block(seed_bytes(master_seed), block_id)


def keystream_word(key: bytes, word_offset: int) -> int:
    if not 0 <= word_offset < MAX_WORD_OFFSET:
        raise ValueError(f"word offset out of range: {word_offset}")
    block = _prf_block(key, word_offset // 4)
    at = 4 * (word_offset % 4)
    return int.from_bytes(block[at:at + 4], "little")


def derive_next_key(current: bytes, patch: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(current, patch))


@dataclass(frozen=True)
class KeySchedule:
    master_seed: bytes
    block_keys: dict[int, bytes]
    patches: dict[tuple[int, int], bytes]   # (source block id, target entry addr)
    entry_key: bytes


def gen_keys(cfg: ControlFlowGraph, master_seed: int | bytes) -> KeySchedule:
    """One key per block, one patch per distinct (source, target-entry) pair."""
    seed = seed_bytes(master_seed)
    block_keys = {b.id: _prf_block(seed, b.id) for b in cfg.blocks}
    entry_of = {b.id: b.entry_addr for b in cfg.blocks}
    patches = {}
    for src, tgt, _kind in cfg.edges:
        patches[(src, entry_of[tgt])] = derive_next_key(block_keys[src], block_keys[tgt])
    entry_block = min(cfg.blocks, key=lambda b: b.entry_addr)
    return KeySchedule(master_seed=seed, block_keys=block_keys,
                       patches=patches, entry_key=block_keys[entry_block.id])


@dataclass(frozen=True)
class EncryptedImage:
    """Image whose text words are ciphertext; data is never encrypted."""

    image: Image
    patch_table: tuple[tuple[int, int, bytes], ...]  # (source id, target entry, patch)
    entry_key: bytes

    @cached_property
    def patch_map(self) -> dict[tuple[int, int], bytes]:
        """(source id, target entry) -> patch, built once per image."""
        return {(src, tgt): patch for src, tgt, patch in self.patch_table}


def cfg_view(image: Image) -> ControlFlowGraph:
    """The image's block/edge tables as a graph (absolute entry addresses)."""
    blocks = tuple(BasicBlock(id=i, entry_addr=entry, length_words=length)
                   for i, (entry, length) in enumerate(image.blocks))
    return ControlFlowGraph(blocks=blocks, edges=image.edges)


def encrypt_image(image: Image, schedule: KeySchedule) -> EncryptedImage:
    """XOR each text word with its block keystream; involution, in place."""
    if set(schedule.block_keys) != set(range(len(image.blocks))):
        raise KeyScheduleError(
            f"schedule covers {len(schedule.block_keys)} blocks, "
            f"image has {len(image.blocks)}")
    for (_, target) in schedule.patches:
        if target not in image.block_index:
            raise KeyScheduleError(f"patch target {target:#x} is not a block entry")

    words = image.text_words()
    out = bytearray(len(image.text))
    for block_id, (entry, length) in enumerate(image.blocks):
        key = schedule.block_keys[block_id]
        start = (entry - image.text_base) // 4
        for m in range(length):
            cipher = words[start + m] ^ keystream_word(key, m)
            out[4 * (start + m):4 * (start + m) + 4] = cipher.to_bytes(4, "little")

    encrypted = Image(text_base=image.text_base, entry=image.entry,
                      text=bytes(out), data_base=image.data_base, data=image.data,
                      blocks=image.blocks, edges=image.edges)
    table = tuple(sorted(
        (src, target, patch) for (src, target), patch in schedule.patches.items()))
    return EncryptedImage(image=encrypted, patch_table=table,
                          entry_key=schedule.entry_key)


def decrypt_image(eimage: EncryptedImage, schedule: KeySchedule) -> Image:
    """Inverse of encrypt_image (same keystream XOR)."""
    return encrypt_image(eimage.image, schedule).image


def dump_encrypted_image(eimage: EncryptedImage) -> bytes:
    out = bytearray(dump_image(eimage.image, flags=FLAG_ENCRYPTED))
    out += _KEYT_HEADER.pack(_KEYT_MAGIC, len(eimage.patch_table), eimage.entry_key)
    for src, target, patch in eimage.patch_table:
        out += _PATCH_REC.pack(src, target, patch)
    return bytes(out)


def load_encrypted_image_bytes(blob: bytes) -> EncryptedImage:
    from .image import ImageFormatError
    image, flags, offset = parse_container(blob)
    if not flags & FLAG_ENCRYPTED:
        raise ImageFormatError("container holds a plaintext image")
    if len(blob) < offset + _KEYT_HEADER.size:
        raise ImageFormatError("missing KEYT section")
    magic, count, entry_key = _KEYT_HEADER.unpack_from(blob, offset)
    if magic != _KEYT_MAGIC:
        raise ImageFormatError("bad KEYT magic")
    offset += _KEYT_HEADER.size
    table = []
    for _ in range(count):
        if len(blob) < offset + _PATCH_REC.size:
            raise ImageFormatError("KEYT section truncated")
        table.append(_PATCH_REC.unpack_from(blob, offset))
        offset += _PATCH_REC.size
    return EncryptedImage(image=image, patch_table=tuple(table), entry_key=entry_key)


def load_encrypted_image(path) -> EncryptedImage:
    with open(path, "rb") as fh:
        return load_encrypted_image_bytes(fh.read())


def encrypt_pipeline(image: Image, seed: int | bytes) -> EncryptedImage:
    """gen_keys over the image's own graph, then encrypt."""
    return encrypt_image(image, gen_keys(cfg_view(image), seed))
