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

A block's keystream is the CTR keystream of its key, so
`block_keystream(k, n)` and `keystream_word(k, m)` agree word for word
for every m < n; the second takes one AES call per word and stays as the
reference the frozen vectors test.

Block streams come from one process-wide cache from key to keystream
bytes (`_streams`), which `encrypt_image` and `block_keystream` both read
through, so a run finds the streams its image's encryption computed. An
entry holds the longest prefix computed for its key, in whole AES blocks;
a miss, or a prefix too short for the words asked, costs one AES call
under a fresh context and replaces the entry. The cache holds at most
STREAM_CACHE_SIZE keys, and a miss on a full cache evicts the entry
inserted first. A stream depends only on its key, so the cache changes no
output. A `scylla run` or `scylla attack` call loads an encrypted image
in a fresh process, so it starts with the cache empty. The LRU of AES
contexts (`_encryptor`) serves only random access: the words of
`keystream_word` and the block keys of `derive_block_key` and `gen_keys`.
"""

from __future__ import annotations

import struct
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .image import (
    FLAG_ENCRYPTED,
    Image,
    ImageFormatError,
    LayoutError,
    dump_image,
    parse_container,
)
from .isa import le_words

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


_ECB = modes.ECB()   # stateless; sharing it saves a few microseconds per key setup
# `algorithms` is a deprecation proxy whose attribute lookup runs Python code
_AES = algorithms.AES
# BE128(i) for i < 256, concatenated: the counter blocks of any block's stream
# up to 1024 words, and of the first 256 block keys
_COUNTERS = b"".join([i.to_bytes(KEY_BYTES, "big") for i in range(256)])


# Both bounds are sized by resident memory: an AES context takes about
# 0.8 KB, a short block's stream (two AES blocks) about 0.2 KB with its key
# and entry, so 4096 streams take what 1024 contexts did. Random access
# reaches only a few dozen keys at a time.
STREAM_CACHE_SIZE = 4096
_streams: OrderedDict[bytes, bytes] = OrderedDict()


@lru_cache(maxsize=64)
def _encryptor(key: bytes):
    return Cipher(_AES(key), _ECB).encryptor()


def _counter_blocks(count: int) -> bytes:
    """BE128(i) for i < count, concatenated."""
    if KEY_BYTES * count <= len(_COUNTERS):
        return _COUNTERS[:KEY_BYTES * count]
    return b"".join([i.to_bytes(KEY_BYTES, "big") for i in range(count)])


def _prf_block(key: bytes, index: int) -> bytes:
    return _encryptor(key).update(index.to_bytes(KEY_BYTES, "big"))


def _prf_blocks(key: bytes, count: int) -> bytes:
    """AES-128(key, BE128(i)) for i < count, concatenated, in one AES call."""
    return _encryptor(key).update(_counter_blocks(count))


def _stream_bytes(key: bytes, n_words: int) -> bytes:
    """Keystream bytes of words 0..n_words-1 under `key`: a prefix of its
    cached stream, or one AES call that replaces the entry."""
    size = 4 * n_words
    stream = _streams.get(key)
    if stream is None or len(stream) < size:
        if stream is None and len(_streams) >= STREAM_CACHE_SIZE:
            _streams.popitem(last=False)
        stream = _streams[key] = Cipher(_AES(key), _ECB).encryptor().update(
            _counter_blocks((n_words + 3) // 4))
    return stream[:size]


def derive_block_key(master_seed: int | bytes, block_id: int) -> bytes:
    return _prf_block(seed_bytes(master_seed), block_id)


def keystream_word(key: bytes, word_offset: int) -> int:
    if not 0 <= word_offset < MAX_WORD_OFFSET:
        raise ValueError(f"word offset out of range: {word_offset}")
    block = _prf_block(key, word_offset // 4)
    at = 4 * (word_offset % 4)
    return int.from_bytes(block[at:at + 4], "little")


def block_keystream(key: bytes, n_words: int) -> array:
    """Keystream words 0..n_words-1 under `key`, through the stream cache."""
    return le_words(_stream_bytes(key, n_words))


def derive_next_key(current: bytes, patch: bytes) -> bytes:
    return (int.from_bytes(current, "big") ^ int.from_bytes(patch, "big")).to_bytes(
        KEY_BYTES, "big")


@dataclass(frozen=True)
class KeySchedule:
    block_keys: dict[int, bytes]
    patches: dict[tuple[int, int], bytes]   # (source block id, target entry addr)
    entry_key: bytes


def gen_keys(image: Image, master_seed: int | bytes) -> KeySchedule:
    """One key per block, one patch per distinct (source, target-entry) pair;
    the entry key is the key of the block at the image's entry address."""
    blocks = image.blocks
    keys = _prf_blocks(seed_bytes(master_seed), len(blocks))
    block_keys = {i: keys[KEY_BYTES * i:KEY_BYTES * (i + 1)] for i in range(len(blocks))}
    # derive_next_key on each edge, with each key read as an int once; the
    # edge words run source, target, kind code
    values = [int.from_bytes(key, "big") for key in block_keys.values()]
    words = image.edges.words()
    patches = {(src, blocks[tgt][0]): (values[src] ^ values[tgt]).to_bytes(KEY_BYTES, "big")
               for src, tgt in zip(words[0::3], words[1::3])}
    return KeySchedule(block_keys=block_keys, patches=patches,
                       entry_key=block_keys[image.block_index[image.entry][0]])


@dataclass(frozen=True)
class EncryptedImage:
    """Image whose text words are ciphertext; data is never encrypted. The
    constructor checks the patch table on top of the image's own rules
    (edge kinds included) and indexes it as it goes."""

    image: Image
    patch_table: tuple[tuple[int, int, bytes], ...]  # sorted (source id, target entry, patch)
    entry_key: bytes
    # (source id, target entry) -> patch, built by the patch-order check
    patch_map: dict[tuple[int, int], bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A fetch's offset wraps at MAX_WORD_OFFSET words, the block's stream
        # does not. The blocks tile the text, so only a long text holds a long block.
        if len(self.image.text) > 4 * MAX_WORD_OFFSET:
            longest = max(length for _, length in self.image.blocks)
            if longest > MAX_WORD_OFFSET:
                raise LayoutError(f"a block of {longest} words exceeds the "
                                  f"{MAX_WORD_OFFSET}-word offset range")
        # Each record leaves a block for a block entry, so the key register's
        # base stays a block entry; the attack harness finds a block's records
        # by bisecting the table, so they ascend by (source id, target).
        block_count, entries = len(self.image.blocks), self.image.block_index
        patches, last_src, last_target = {}, -1, -1
        for src, target, patch in self.patch_table:
            if not 0 <= src < block_count or target not in entries:
                raise LayoutError(
                    f"patch {src} -> {target:#x} needs a source block and a target block entry")
            if src < last_src or src == last_src and target <= last_target:
                raise LayoutError(f"patch {src} -> {target:#x} is out of order or repeated")
            patches[src, target] = patch
            last_src, last_target = src, target
        object.__setattr__(self, "patch_map", patches)


def encrypt_image(image: Image, schedule: KeySchedule) -> EncryptedImage:
    """XOR each text word with its block keystream; involution, in place.

    Each block's stream comes through the stream cache, and one XOR over
    the whole text applies them all."""
    if set(schedule.block_keys) != set(range(len(image.blocks))):
        raise KeyScheduleError(
            f"schedule covers {len(schedule.block_keys)} blocks, "
            f"image has {len(image.blocks)}")

    # The blocks tile the text in block order (Image guarantees it), so their
    # streams, joined, line up with the text byte for byte, and XOR on
    # little-endian bytes is XOR on little-endian words.
    keys, blocks = schedule.block_keys, image.blocks
    stream = b"".join([_stream_bytes(keys[block_id], length)
                       for block_id, (_, length) in enumerate(blocks)])
    size = len(image.text)
    text = (int.from_bytes(image.text, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(size, "little")

    encrypted = replace(image, text=text)
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
    image, flags, offset = parse_container(blob)
    if not flags & FLAG_ENCRYPTED:
        raise ImageFormatError("container holds a plaintext image")
    if len(blob) < offset + _KEYT_HEADER.size:
        raise ImageFormatError("missing KEYT section")
    magic, count, entry_key = _KEYT_HEADER.unpack_from(blob, offset)
    if magic != _KEYT_MAGIC:
        raise ImageFormatError("bad KEYT magic")
    offset += _KEYT_HEADER.size
    end = offset + count * _PATCH_REC.size
    if len(blob) < end:
        raise ImageFormatError("KEYT section truncated")
    if end != len(blob):
        raise ImageFormatError(f"{len(blob) - end} bytes trail the last patch record")
    table = tuple(_PATCH_REC.iter_unpack(blob[offset:end]))
    try:
        return EncryptedImage(image=image, patch_table=table, entry_key=entry_key)
    except LayoutError as err:
        raise ImageFormatError(str(err)) from None


def encrypt_pipeline(image: Image, seed: int | bytes) -> EncryptedImage:
    """gen_keys over the image's own tables, then encrypt."""
    return encrypt_image(image, gen_keys(image, seed))
