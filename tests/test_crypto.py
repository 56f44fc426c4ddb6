import random
import struct
from array import array
from dataclasses import replace

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from scylla import crypto
from scylla.asm import parse_assembly
from scylla.crypto import (
    KeyScheduleError,
    decrypt_image,
    derive_block_key,
    derive_next_key,
    dump_encrypted_image,
    encrypt_image,
    encrypt_pipeline,
    gen_keys,
    keystream_word,
    load_encrypted_image_bytes,
    seed_bytes,
)
from scylla.engine import HALT, Engine, trace
from scylla.image import LayoutError, dump_image, layout_image, load_image_bytes
from scylla.isa import Instruction, decode

SEED = 42


def _image(source):
    return layout_image(parse_assembly(source))


def test_prf_vectors_frozen(fixtures_dir):
    checked = 0
    for line in (fixtures_dir / "prf_vectors").read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        if kind == "ks":
            key, offset, word = bytes.fromhex(fields[0]), int(fields[1]), int(fields[2], 16)
            assert keystream_word(key, offset) == word
        elif kind == "bk":
            seed, block_id, key = bytes.fromhex(fields[0]), int(fields[1]), bytes.fromhex(fields[2])
            assert derive_block_key(seed, block_id) == key
        else:
            pytest.fail(f"unknown vector kind {kind}")
        checked += 1
    assert checked >= 15


def test_keystream_matches_library_ctr_mode():
    # independent route: AES-128-CTR over zeros, zero initial counter
    key = seed_bytes(0xA5A5)
    stream = Cipher(algorithms.AES(key), modes.CTR(bytes(16))).encryptor().update(bytes(128))
    for m in range(32):
        assert keystream_word(key, m) == int.from_bytes(stream[4 * m:4 * m + 4], "little")


def test_block_keystream_matches_per_word_keystream(fixtures_dir):
    keys = {seed_bytes(0xA5A5), seed_bytes(7)}
    for line in (fixtures_dir / "prf_vectors").read_text().splitlines():
        if line.startswith("ks "):
            keys.add(bytes.fromhex(line.split()[1]))
    for key in keys:
        # 1024 words take the module's 256 counter blocks; 1025 and 1028 build theirs
        for n in (*range(10), 17, 1000, 1020, 1024, 1025, 1028):
            stream = crypto.block_keystream(key, n)
            assert isinstance(stream, array) and stream.typecode == "I"
            assert stream.tolist() == [keystream_word(key, m) for m in range(n)]


def test_keystream_deterministic_and_offset_sensitive():
    key = seed_bytes(7)
    assert keystream_word(key, 0) == keystream_word(key, 0)
    assert keystream_word(key, 0) != keystream_word(key, 1)
    assert keystream_word(key, 0) != keystream_word(seed_bytes(8), 0)


def test_keystream_offset_bounds():
    key = seed_bytes(1)
    keystream_word(key, crypto.MAX_WORD_OFFSET - 1)
    with pytest.raises(ValueError):
        keystream_word(key, crypto.MAX_WORD_OFFSET)
    with pytest.raises(ValueError):
        keystream_word(key, -1)


def test_seed_bytes_forms():
    assert seed_bytes(42) == bytes(15) + b"\x2a"
    assert seed_bytes(bytes(16)) == bytes(16)
    with pytest.raises(ValueError):
        seed_bytes(b"short")
    with pytest.raises(ValueError):
        seed_bytes(1 << 128)


def test_derive_next_key_involution():
    k = seed_bytes(3)
    k2 = seed_bytes(9)
    zero = bytes(16)
    assert derive_next_key(k, zero) == k
    assert derive_next_key(k, derive_next_key(k, k2)) == k2
    patch = derive_next_key(k, k2)
    assert derive_next_key(derive_next_key(k, patch), patch) == k


def test_gen_keys_single_block():
    schedule = gen_keys(_image("addi x1, x0, 1\necall"), SEED)
    assert len(schedule.block_keys) == 1
    assert schedule.patches == {}
    assert schedule.entry_key == schedule.block_keys[0]


def test_gen_keys_deterministic(corpus_sources):
    image = _image(corpus_sources["fib"])
    assert gen_keys(image, SEED) == gen_keys(image, SEED)
    assert gen_keys(image, SEED) != gen_keys(image, SEED + 1)


def test_gen_keys_diamond_counts(corpus_sources):
    schedule = gen_keys(_image(corpus_sources["diamond"]), SEED)
    assert len(schedule.block_keys) == 3
    assert len(schedule.patches) == 4  # one per CFG edge


def test_gen_keys_patch_per_edge(corpus_sources):
    for name, source in corpus_sources.items():
        image = _image(source)
        schedule = gen_keys(image, SEED)
        assert schedule.block_keys == {i: derive_block_key(SEED, i)
                                       for i in range(len(image.blocks))}, name
        entry_of = {i: entry for i, (entry, _) in enumerate(image.blocks)}
        assert set(schedule.patches) == {(s, entry_of[t]) for s, t, _ in image.edges}, name
        for (src, target), patch in schedule.patches.items():
            tgt_id = next(i for i, (entry, _) in enumerate(image.blocks) if entry == target)
            assert patch == derive_next_key(
                schedule.block_keys[src], schedule.block_keys[tgt_id]), name


def test_entry_key_is_the_key_of_the_entry_block():
    # a container may enter at any block entry, not only at the first block
    blob = bytearray(dump_image(_image("jal x0, skip\nskip:\naddi x1, x0, 7\necall")))
    struct.pack_into("<I", blob, 16, 4)   # header entry address
    image = load_image_bytes(bytes(blob))
    eimage = encrypt_pipeline(image, SEED)
    assert trace(eimage, 4) == trace(image, 4) == [4, 8]
    assert eimage.entry_key == gen_keys(image, SEED).block_keys[1]
    plain, enc = Engine(image).run(), Engine(eimage).run()
    assert plain.outcome == enc.outcome == HALT
    assert enc.final_state_digest == plain.final_state_digest


def test_block_keys_distinct_within_each_schedule(corpus_sources):
    # key(i) = PRF(seed, i): distinct ids in one schedule never collide
    for name, source in corpus_sources.items():
        schedule = gen_keys(_image(source), SEED)
        keys = list(schedule.block_keys.values())
        assert len(set(keys)) == len(keys), name


def test_block_keys_distinct_across_seeds(corpus_sources):
    image = _image(corpus_sources["fib"])
    seen = set()
    for seed in range(20):
        seen.update(gen_keys(image, seed).block_keys.values())
    assert len(seen) == 20 * len(image.blocks)  # zero collisions


def test_encrypt_in_place_and_data_untouched(corpus_sources):
    image = _image(corpus_sources["fib"])
    eimage = encrypt_pipeline(image, SEED)
    assert len(eimage.image.text) == len(image.text)
    assert eimage.image.data == image.data
    assert eimage.image.text != image.text


def test_encrypt_decrypt_round_trip(corpus_sources):
    for source in corpus_sources.values():
        image = _image(source)
        schedule = gen_keys(image, SEED)
        eimage = encrypt_image(image, schedule)
        assert crypto.decrypt_image(eimage, schedule) == image


def test_encrypt_deterministic(corpus_sources):
    image = _image(corpus_sources["memcopy"])
    a = dump_encrypted_image(encrypt_pipeline(image, SEED))
    b = dump_encrypted_image(encrypt_pipeline(image, SEED))
    assert a == b


def test_encrypt_word_level_definition(corpus_sources):
    # cipher word = plain word XOR keystream(block key, offset from entry)
    image = _image(corpus_sources["diamond"])
    schedule = gen_keys(image, SEED)
    eimage = encrypt_image(image, schedule)
    plain, cipher = image.text_words(), eimage.image.text_words()
    for block_id, (entry, length) in enumerate(image.blocks):
        start = (entry - image.text_base) // 4
        for m in range(length):
            expected = plain[start + m] ^ keystream_word(schedule.block_keys[block_id], m)
            assert cipher[start + m] == expected


def test_encrypt_many_blocks_matches_word_definition_and_round_trips():
    # 600 blocks of 1-9 words, at a nonzero text base, so block streams of
    # several AES blocks, and far more block keys than the cipher LRU holds
    rng = random.Random(5)
    lines = []
    for i in range(600):
        lines.append(f"b{i}:")
        lines += [f"addi x{rng.randrange(1, 32)}, x1, {rng.randrange(-2048, 2048)}"
                  for _ in range(rng.randrange(9))]
        lines.append(f"jal x0, b{i + 1}")
    lines += ["b600:", "ecall"]
    image = layout_image(parse_assembly("\n".join(lines)), text_base=0x400)
    assert len(image.blocks) == 601
    schedule = gen_keys(image, SEED)
    # more block keys than the 256 counter blocks the module holds
    keys = schedule.block_keys
    assert keys == {i: derive_block_key(SEED, i) for i in range(601)}
    assert schedule.patches == {(s, image.blocks[t][0]): derive_next_key(keys[s], keys[t])
                                for s, t, _ in image.edges}
    eimage = encrypt_image(image, schedule)
    plain, cipher = image.text_words(), eimage.image.text_words()
    for block_id, (entry, length) in enumerate(image.blocks):
        start = (entry - image.text_base) // 4
        for m in range(length):
            expected = plain[start + m] ^ keystream_word(schedule.block_keys[block_id], m)
            assert cipher[start + m] == expected
    assert crypto.decrypt_image(eimage, schedule) == image


def test_encrypt_schedule_mismatch_rejected(corpus_sources):
    fib = _image(corpus_sources["fib"])
    other = gen_keys(_image(corpus_sources["diamond"]), SEED)
    with pytest.raises(KeyScheduleError):
        encrypt_image(fib, other)


def test_ciphertext_words_mostly_illegal(corpus_sources):
    # expected failure rate ~ 1 - p with p ~ 0.0274 from the decoder census
    words = []
    for source in corpus_sources.values():
        eimage = encrypt_pipeline(_image(source), SEED)
        words.extend(eimage.image.text_words())
    failures = sum(not isinstance(decode(w), Instruction) for w in words)
    assert failures / len(words) >= 0.90


def test_path_soundness_random_walks(corpus_sources):
    # folding patches along legal edge paths always lands on the target key
    rng = random.Random(11)
    for source in corpus_sources.values():
        image = _image(source)
        if not image.edges:
            continue
        schedule = gen_keys(image, SEED)
        entry_of = {i: entry for i, (entry, _) in enumerate(image.blocks)}
        succ = {}
        for s, t, _ in image.edges:
            succ.setdefault(s, []).append(t)
        for _ in range(200):
            here = rng.choice([i for i in range(len(image.blocks)) if i in succ])
            key = schedule.block_keys[here]
            for _ in range(rng.randrange(1, 12)):
                if here not in succ:
                    break
                nxt = rng.choice(succ[here])
                key = derive_next_key(key, schedule.patches[(here, entry_of[nxt])])
                here = nxt
            assert key == schedule.block_keys[here]


def test_wrong_edge_yields_wrong_key(corpus_sources):
    image = _image(corpus_sources["fib"])
    schedule = gen_keys(image, SEED)
    pairs = {(s, t) for s, t, _ in image.edges}
    for s in range(len(image.blocks)):
        for t in range(len(image.blocks)):
            if (s, t) in pairs:
                continue
            # stale key carried over a rogue transfer never matches the target
            assert schedule.block_keys[s] != schedule.block_keys[t] or s == t


def test_encrypted_container_round_trip(corpus_sources, large_image):
    images = [_image(source) for source in corpus_sources.values()]
    for eimage in (encrypt_pipeline(image, SEED) for image in (*images, large_image)):
        blob = dump_encrypted_image(eimage)
        assert load_encrypted_image_bytes(blob) == eimage
        assert dump_encrypted_image(load_encrypted_image_bytes(blob)) == blob


def test_constructors_index_every_image(corpus_sources):
    # block_index and patch_map come from the constructors' checks; they equal
    # the tables they index however the image is made
    for source in corpus_sources.values():
        image = _image(source)
        schedule = gen_keys(image, SEED)
        eimage = encrypt_image(image, schedule)
        loaded = load_encrypted_image_bytes(dump_encrypted_image(eimage))
        for plain in (image, eimage.image, loaded.image, decrypt_image(loaded, schedule),
                      load_image_bytes(dump_image(image))):
            assert plain.block_index == {entry: (block_id, length) for block_id, (entry, length)
                                         in enumerate(plain.blocks)}
        for encrypted in (eimage, loaded):
            assert encrypted.patch_map == {(src, tgt): patch
                                           for src, tgt, patch in encrypted.patch_table}
        moved = replace(image, text=bytes(len(image.text)))
        assert moved.block_index == image.block_index
        assert moved.block_index is not image.block_index


def test_encrypted_container_rejects_plain(corpus_sources):
    from scylla.image import ImageFormatError
    blob = dump_image(_image(corpus_sources["diamond"]))
    with pytest.raises(ImageFormatError):
        load_encrypted_image_bytes(blob)


def test_derive_next_key_is_bytewise_xor():
    rng = random.Random(17)
    pairs = [(bytes(16), bytes(16)), (bytes(16), b"\xff" * 16)]
    pairs += [(rng.randbytes(16), rng.randbytes(16)) for _ in range(200)]
    for current, patch in pairs:
        assert derive_next_key(current, patch) == bytes(a ^ b for a, b in zip(current, patch))


# fib has 5 blocks; its first patch record is (0, 24): (byte offset in the
# record, value) for a source id past the last block and a mid-block target
FORGED_PATCH_FIELDS = ((0, 5), (4, 28))


def test_encrypted_container_keyt_section_checks(corpus_sources):
    from scylla.image import ImageFormatError
    eimage = encrypt_pipeline(_image(corpus_sources["fib"]), SEED)
    blob = dump_encrypted_image(eimage)
    keyt_at = len(dump_image(eimage.image))
    records_at = keyt_at + crypto._KEYT_HEADER.size
    for cut in range(keyt_at, len(blob)):
        expected = "missing KEYT section" if cut < records_at else "KEYT section truncated"
        with pytest.raises(ImageFormatError, match=expected):
            load_encrypted_image_bytes(blob[:cut])
    with pytest.raises(ImageFormatError, match="bad KEYT magic"):
        load_encrypted_image_bytes(blob[:keyt_at] + b"KEYX" + blob[keyt_at + 4:])
    # bytes after the last patch record are not part of any container
    with pytest.raises(ImageFormatError, match="5 bytes trail the last patch record"):
        load_encrypted_image_bytes(blob + b"\0" * 5)
    for field, value in FORGED_PATCH_FIELDS:
        forged = bytearray(blob)
        struct.pack_into("<I", forged, records_at + field, value)
        with pytest.raises(ImageFormatError, match="needs a source block and a target"):
            load_encrypted_image_bytes(bytes(forged))
    # records out of (source id, target) order, or a pair twice
    size = crypto._PATCH_REC.size
    first, second = (slice(records_at + size * i, records_at + size * (i + 1)) for i in (0, 1))
    for forged_records in (blob[second] + blob[first], blob[first] + blob[first]):
        forged = blob[:records_at] + forged_records + blob[second.stop:]
        with pytest.raises(ImageFormatError, match="out of order or repeated"):
            load_encrypted_image_bytes(forged)


@pytest.mark.parametrize("field, value", FORGED_PATCH_FIELDS)
def test_encrypted_image_built_by_hand_needs_patches_between_blocks(
        corpus_sources, field, value):
    eimage = encrypt_pipeline(_image(corpus_sources["fib"]), SEED)
    record = list(eimage.patch_table[0])
    record[field // 4] = value
    with pytest.raises(LayoutError, match="needs a source block and a target block entry"):
        replace(eimage, patch_table=(tuple(record),) + eimage.patch_table[1:])


def test_schedule_patch_to_a_mid_block_address_is_a_layout_error(corpus_sources):
    image = _image(corpus_sources["fib"])
    schedule = gen_keys(image, SEED)
    schedule.patches[(0, 28)] = bytes(16)
    with pytest.raises(LayoutError, match="patch 0 -> 0x1c needs a source block"):
        encrypt_image(image, schedule)


def test_encrypted_image_requires_a_sorted_patch_table(corpus_sources):
    from dataclasses import replace
    eimage = encrypt_pipeline(_image(corpus_sources["fib"]), SEED)
    table = eimage.patch_table
    assert list(table) == sorted(table)
    for bad in (table[::-1], table[:1] + table[:1] + table[1:],
                table[:1] + ((table[0][0], table[0][1], bytes(16)),) + table[1:]):
        with pytest.raises(ValueError, match="out of order or repeated"):
            replace(eimage, patch_table=bad)
