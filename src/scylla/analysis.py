"""Diversification metrics and the wrong-key survival model.

Survival uses the memoryless approximation: each fetch under a wrong
key decodes legally with probability p independently, so the chance
of surviving k consecutive wrong-key fetches is p^k. Deviations the
approximation hides (operand-field structure, early memory crashes)
show up in the reported fit, they are not assumed away.

Entropy is measured over bytes rather than 32-bit words: desk-scale
text segments are far too small to populate a 2^32-bin histogram.
"""

from __future__ import annotations

import csv
import math
from collections import Counter, defaultdict
from dataclasses import dataclass

from .crypto import EncryptedImage
from .image import Image
from .isa import exact_valid_decode_fraction


class MismatchError(ValueError):
    """The encrypted image was not produced from the plaintext image."""


def byte_entropy(data: bytes) -> float:
    """Shannon entropy of the byte histogram, in bits per byte."""
    if not data:
        raise ValueError("entropy of empty input is undefined")
    total = len(data)
    entropy = 0.0
    for count in Counter(data).values():
        q = count / total
        entropy -= q * math.log2(q)
    return entropy


def survival_model(p: float, k: int) -> float:
    """Probability that k consecutive wrong-key fetches all decode legally."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must be a probability, got {p}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return p ** k


@dataclass(frozen=True)
class DiversificationReport:
    plaintext_entropy: float
    ciphertext_entropy: float
    distinct_ciphertext_words_fraction: float
    repeated_instruction_diversification: float
    valid_decode_p: float

    def to_json_dict(self) -> dict:
        return {
            "plaintext_entropy": self.plaintext_entropy,
            "ciphertext_entropy": self.ciphertext_entropy,
            "distinct_ciphertext_words_fraction": self.distinct_ciphertext_words_fraction,
            "repeated_instruction_diversification": self.repeated_instruction_diversification,
            "valid_decode_p": self.valid_decode_p,
        }


def diversification_report(image: Image, eimage: EncryptedImage) -> DiversificationReport:
    enc = eimage.image
    if (enc.text_base != image.text_base or len(enc.text) != len(image.text)
            or enc.blocks != image.blocks or enc.data != image.data):
        raise MismatchError("encrypted image does not correspond to this image")

    plain_words = image.text_words()
    cipher_words = enc.text_words()

    positions = defaultdict(list)
    for index, word in enumerate(plain_words):
        positions[word].append(index)
    pairs = diversified = 0
    for indices in positions.values():
        for i, a in enumerate(indices):
            for b in indices[i + 1:]:
                pairs += 1
                if cipher_words[a] != cipher_words[b]:
                    diversified += 1
    repeated = diversified / pairs if pairs else 1.0  # vacuously diverse

    return DiversificationReport(
        plaintext_entropy=byte_entropy(image.text),
        ciphertext_entropy=byte_entropy(enc.text),
        distinct_ciphertext_words_fraction=len(set(cipher_words)) / len(cipher_words),
        repeated_instruction_diversification=repeated,
        valid_decode_p=exact_valid_decode_fraction(),
    )


SURVIVAL_CHECKPOINTS = (1, 2, 4, 8)
MIN_SURVIVAL_SAMPLES = 100


@dataclass(frozen=True)
class SurvivalFit:
    # rows of (k, empirical survival, model survival, binomial stderr)
    points: tuple[tuple[int, float, float, float], ...]
    max_abs_deviation: float
    within_bounds: bool

    def to_json_dict(self) -> dict:
        return {
            "points": [
                {"k": k, "empirical": emp, "model": model, "stderr": se}
                for k, emp, model, se in self.points],
            "max_abs_deviation": self.max_abs_deviation,
            "within_bounds": self.within_bounds,
        }


def fit_survival(samples, p: float,
                 checkpoints=SURVIVAL_CHECKPOINTS) -> SurvivalFit:
    """Empirical survival curve vs p^k, judged at 3 binomial stderr."""
    n = len(samples)
    if n < MIN_SURVIVAL_SAMPLES:
        raise ValueError(f"need at least {MIN_SURVIVAL_SAMPLES} samples, got {n}")
    points = []
    worst = 0.0
    within = True
    for k in checkpoints:
        empirical = sum(latency > k for latency in samples) / n
        model = survival_model(p, k)
        stderr = math.sqrt(model * (1 - model) / n)
        deviation = abs(empirical - model)
        worst = max(worst, deviation)
        if deviation > 3 * stderr:
            within = False
        points.append((k, empirical, model, stderr))
    return SurvivalFit(points=tuple(points), max_abs_deviation=worst,
                       within_bounds=within)


def write_survival_csv(fit: SurvivalFit, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["k", "empirical", "model"])
    for k, empirical, model, _ in fit.points:
        writer.writerow([k, empirical, model])
