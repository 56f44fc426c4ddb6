import random
import struct
from array import array

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from scylla import crypto
from scylla.asm import parse_assembly
from scylla.cfg import build_cfg
from scylla.crypto import (
    KeyScheduleError,
    cfg_view,
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
from scylla.image import layout_image
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
        for n in (*range(10), 17, 1000):
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
    schedule = gen_keys(build_cfg(parse_assembly("addi x1, x0, 1\necall")), SEED)
    assert len(schedule.block_keys) == 1
    assert schedule.patches == {}
    assert schedule.entry_key == schedule.block_keys[0]


def test_gen_keys_deterministic(corpus_sources):
    cfg = build_cfg(parse_assembly(corpus_sources["fib"]))
    assert gen_keys(cfg, SEED) == gen_keys(cfg, SEED)
    assert gen_keys(cfg, SEED) != gen_keys(cfg, SEED + 1)


def test_gen_keys_diamond_counts(corpus_sources):
    cfg = build_cfg(parse_assembly(corpus_sources["diamond"]))
    schedule = gen_keys(cfg, SEED)
    assert len(schedule.block_keys) == 3
    assert len(schedule.patches) == 4  # one per CFG edge


def test_gen_keys_patch_per_edge(corpus_sources):
    for name, source in corpus_sources.items():
        cfg = build_cfg(parse_assembly(source))
        schedule = gen_keys(cfg, SEED)
        assert schedule.block_keys == {b.id: derive_block_key(SEED, b.id)
                                       for b in cfg.blocks}, name
        entry_of = {b.id: b.entry_addr for b in cfg.blocks}
        assert set(schedule.patches) == {(s, entry_of[t]) for s, t, _ in cfg.edges}, name
        for (src, target), patch in schedule.patches.items():
            tgt_id = next(b.id for b in cfg.blocks if b.entry_addr == target)
            assert patch == derive_next_key(
                schedule.block_keys[src], schedule.block_keys[tgt_id]), name


def test_block_keys_distinct_within_each_schedule(corpus_sources):
    # key(i) = PRF(seed, i): distinct ids in one schedule never collide
    for name, source in corpus_sources.items():
        schedule = gen_keys(build_cfg(parse_assembly(source)), SEED)
        keys = list(schedule.block_keys.values())
        assert len(set(keys)) == len(keys), name


def test_block_keys_distinct_across_seeds(corpus_sources):
    cfg = build_cfg(parse_assembly(corpus_sources["fib"]))
    seen = set()
    for seed in range(20):
        seen.update(gen_keys(cfg, seed).block_keys.values())
    assert len(seen) == 20 * len(cfg.blocks)  # zero collisions


def test_encrypt_in_place_and_data_untouched(corpus_sources):
    image = _image(corpus_sources["fib"])
    eimage = encrypt_pipeline(image, SEED)
    assert len(eimage.image.text) == len(image.text)
    assert eimage.image.data == image.data
    assert eimage.image.text != image.text


def test_encrypt_decrypt_round_trip(corpus_sources):
    for source in corpus_sources.values():
        image = _image(source)
        schedule = gen_keys(cfg_view(image), SEED)
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
    schedule = gen_keys(cfg_view(image), SEED)
    eimage = encrypt_image(image, schedule)
    plain, cipher = image.text_words(), eimage.image.text_words()
    for block_id, (entry, length) in enumerate(image.blocks):
        start = (entry - image.text_base) // 4
        for m in range(length):
            expected = plain[start + m] ^ keystream_word(schedule.block_keys[block_id], m)
            assert cipher[start + m] == expected


def test_encrypt_schedule_mismatch_rejected(corpus_sources):
    fib = _image(corpus_sources["fib"])
    other = gen_keys(cfg_view(_image(corpus_sources["diamond"])), SEED)
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
        cfg = cfg_view(image)
        if not cfg.edges:
            continue
        schedule = gen_keys(cfg, SEED)
        entry_of = {b.id: b.entry_addr for b in cfg.blocks}
        succ = {}
        for s, t, _ in cfg.edges:
            succ.setdefault(s, []).append(t)
        for _ in range(200):
            here = rng.choice([b.id for b in cfg.blocks if b.id in succ])
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
    cfg = cfg_view(image)
    schedule = gen_keys(cfg, SEED)
    pairs = cfg.edge_pairs()
    for s in range(len(cfg.blocks)):
        for t in range(len(cfg.blocks)):
            if (s, t) in pairs:
                continue
            # stale key carried over a rogue transfer never matches the target
            assert schedule.block_keys[s] != schedule.block_keys[t] or s == t


def test_encrypted_container_round_trip(corpus_sources):
    for source in corpus_sources.values():
        eimage = encrypt_pipeline(_image(source), SEED)
        assert load_encrypted_image_bytes(dump_encrypted_image(eimage)) == eimage


def test_encrypted_container_rejects_plain(corpus_sources):
    from scylla.image import ImageFormatError, dump_image
    blob = dump_image(_image(corpus_sources["diamond"]))
    with pytest.raises(ImageFormatError):
        load_encrypted_image_bytes(blob)


def test_derive_next_key_is_bytewise_xor():
    rng = random.Random(17)
    pairs = [(bytes(16), bytes(16)), (bytes(16), b"\xff" * 16)]
    pairs += [(rng.randbytes(16), rng.randbytes(16)) for _ in range(200)]
    for current, patch in pairs:
        assert derive_next_key(current, patch) == bytes(a ^ b for a, b in zip(current, patch))


def test_encrypted_container_keyt_section_checks(corpus_sources):
    from scylla.image import ImageFormatError, dump_image
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
    # trailing bytes after the last patch record are still accepted
    assert load_encrypted_image_bytes(blob + b"\0" * 5) == eimage
    # fib has 5 blocks; its first patch record is (0, 24)
    for field, value in ((0, 5), (4, 28)):
        forged = bytearray(blob)
        struct.pack_into("<I", forged, records_at + field, value)
        with pytest.raises(ImageFormatError, match="needs a source block and a target"):
            load_encrypted_image_bytes(bytes(forged))
