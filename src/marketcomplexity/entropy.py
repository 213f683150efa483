"""Shannon entropy and block entropy of symbol streams."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log2
from typing import Sequence

from .errors import SeriesTooShortError


@dataclass(frozen=True)
class EntropyResult:
    bits: float
    normalized: float
    block_max: int


def shannon_entropy(symbols: Sequence) -> float:
    """Entropy in bits of the empirical distribution of the symbols."""
    if len(symbols) == 0:
        raise ValueError("cannot compute entropy of an empty sequence")
    counts = Counter(symbols)
    total = len(symbols)
    return -sum((c / total) * log2(c / total) for c in counts.values())


def block_entropy(text: str, max_block: int = 4) -> EntropyResult:
    """Sum of window entropies for block lengths 1..max_block.

    For each length i the entropy is taken over the multiset of all
    overlapping length-i windows of the text. The normalized value divides
    by the binary-alphabet maximum, sum(i for i in 1..max_block).
    """
    if max_block < 1:
        raise ValueError("max_block must be at least 1")
    if len(text) < max_block:
        raise SeriesTooShortError(
            f"input length {len(text)} shorter than max_block {max_block}"
        )
    total = sum(
        shannon_entropy([text[j : j + i] for j in range(len(text) - i + 1)])
        for i in range(1, max_block + 1)
    )
    denom = max_block * (max_block + 1) / 2
    return EntropyResult(bits=total, normalized=min(total / denom, 1.0), block_max=max_block)
