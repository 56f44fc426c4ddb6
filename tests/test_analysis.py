import dataclasses
import random
import struct

import pytest

from scylla.analysis import (
    MismatchError,
    byte_entropy,
    diversification_report,
    fit_survival,
    survival_model,
    write_survival_csv,
)
from scylla.crypto import EncryptedImage
from scylla.isa import exact_valid_decode_fraction


def test_entropy_degenerate():
    assert byte_entropy(bytes(1024)) == 0.0


def test_entropy_uniform():
    assert byte_entropy(bytes(range(256))) == pytest.approx(8.0)


def test_entropy_two_symbols():
    assert byte_entropy(b"\x00\xff" * 64) == pytest.approx(1.0)


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        byte_entropy(b"")


def test_entropy_bounds_random():
    rng = random.Random(0)
    for _ in range(50):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 400)))
        assert 0.0 <= byte_entropy(data) <= 8.0


def test_entropy_flattening_monotone():
    # moving one unit from a fuller bin to an emptier one never lowers entropy
    rng = random.Random(1)
    for _ in range(200):
        counts = [rng.randrange(0, 30) for _ in range(8)]
        if sum(counts) < 2:
            continue
        data = b"".join(bytes([v]) * c for v, c in enumerate(counts))
        hi = [i for i, c in enumerate(counts) if c >= 2]
        lo = [i for i, c in enumerate(counts)]
        if not hi:
            continue
        a = rng.choice(hi)
        b = rng.choice([i for i in lo if counts[i] < counts[a]] or [a])
        if a == b:
            continue
        counts[a] -= 1
        counts[b] += 1
        flattened = b"".join(bytes([v]) * c for v, c in enumerate(counts))
        assert byte_entropy(flattened) >= byte_entropy(data) - 1e-12


def test_survival_model_values():
    assert survival_model(0.5, 3) == 0.125
    assert survival_model(0.123, 0) == 1.0
    assert survival_model(0.0, 1) == 0.0


def test_survival_model_validation():
    with pytest.raises(ValueError):
        survival_model(1.5, 1)
    with pytest.raises(ValueError):
        survival_model(0.5, -1)


def test_survival_model_multiplicative():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.random()
        a, b = rng.randrange(0, 12), rng.randrange(0, 12)
        assert survival_model(p, a + b) == pytest.approx(
            survival_model(p, a) * survival_model(p, b))


def test_diversification_repeated_instructions(corpus_images, corpus_encrypted):
    # unrolled.s repeats its plaintext words heavily; every pair must differ
    report = diversification_report(corpus_images["unrolled"],
                                    corpus_encrypted["unrolled"])
    assert report.repeated_instruction_diversification == 1.0
    assert report.ciphertext_entropy > report.plaintext_entropy


def test_diversification_no_repeats_is_vacuous(corpus_images, corpus_encrypted):
    # diamond.s has four distinct words, so the pair scan is empty
    report = diversification_report(corpus_images["diamond"],
                                    corpus_encrypted["diamond"])
    assert report.repeated_instruction_diversification == 1.0


def test_diversification_corpus_entropy_never_drops(corpus_images, corpus_encrypted):
    for name in corpus_images:
        report = diversification_report(corpus_images[name], corpus_encrypted[name])
        assert report.ciphertext_entropy >= report.plaintext_entropy, name
        assert 0.0 <= report.plaintext_entropy <= 8.0
        assert 0.0 <= report.distinct_ciphertext_words_fraction <= 1.0
        assert report.valid_decode_p == exact_valid_decode_fraction()


def _with_ciphertext(image, words):
    text = struct.pack(f"<{len(words)}I", *words)
    return EncryptedImage(image=dataclasses.replace(image, text=text),
                          patch_table=(), entry_key=bytes(16))


def _pairwise_diversification(plain, cipher):
    """Reference: scan every pair of positions holding the same plaintext word."""
    pairs = diversified = 0
    for a in range(len(plain)):
        for b in range(a + 1, len(plain)):
            if plain[a] == plain[b]:
                pairs += 1
                diversified += cipher[a] != cipher[b]
    return diversified / pairs if pairs else 1.0


def test_diversification_counts_repeated_ciphertext(corpus_images):
    # ciphertexts drawn from three values: equal plaintext words often collide
    rng = random.Random(5)
    fractions = set()
    for name, image in corpus_images.items():
        plain = image.text_words()
        cipher = [rng.randrange(3) for _ in plain]
        report = diversification_report(image, _with_ciphertext(image, cipher))
        expected = _pairwise_diversification(plain, cipher)
        assert report.repeated_instruction_diversification == expected, name
        fractions.add(expected)
    assert any(0.0 < f < 1.0 for f in fractions)
    # the identity "encryption" diversifies nothing
    image = corpus_images["unrolled"]
    report = diversification_report(image, _with_ciphertext(image, image.text_words()))
    assert report.repeated_instruction_diversification == 0.0


def test_diversification_mismatch_rejected(corpus_images, corpus_encrypted):
    with pytest.raises(MismatchError):
        diversification_report(corpus_images["fib"], corpus_encrypted["diamond"])


def _geometric_sample(rng: random.Random, p: float) -> int:
    latency = 1
    while rng.random() < p:
        latency += 1
    return latency


def test_fit_survival_synthetic_geometric():
    p = exact_valid_decode_fraction()
    rng = random.Random(5)
    samples = [_geometric_sample(rng, p) for _ in range(2000)]
    fit = fit_survival(samples, p)
    assert fit.within_bounds
    assert fit.max_abs_deviation < 0.05


def test_fit_survival_all_ones_with_p_zero():
    fit = fit_survival([1] * 200, 0.0)
    assert fit.max_abs_deviation == 0.0
    assert fit.within_bounds


def test_fit_survival_all_censored_with_p_zero_flagged():
    fit = fit_survival([10 ** 6] * 200, 0.0)
    assert fit.max_abs_deviation == 1.0
    assert not fit.within_bounds


def test_fit_survival_needs_samples():
    with pytest.raises(ValueError):
        fit_survival([1] * 99, 0.5)


def test_survival_csv(tmp_path):
    fit = fit_survival([1] * 150, 0.0)
    out = tmp_path / "curve.csv"
    with open(out, "w", newline="") as fh:
        write_survival_csv(fit, fh)
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "k,empirical,model"
    assert len(rows) == 5


def test_fit_judges_against_model_not_sample():
    # a sample drawn from a very different p must be flagged
    rng = random.Random(6)
    samples = [_geometric_sample(rng, 0.5) for _ in range(1000)]
    fit = fit_survival(samples, 0.01)
    assert not fit.within_bounds
