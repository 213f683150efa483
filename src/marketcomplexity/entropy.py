"""Shannon entropy and block entropy of symbol streams."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log2
from typing import Iterable, Sequence

import numpy as np

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
    return _entropy_of_counts(Counter(symbols).values(), len(symbols))


def _entropy_of_counts(counts: Iterable[int], total: int) -> float:
    return -sum((c / total) * log2(c / total) for c in counts)


def block_entropy(text: str, max_block: int = 4) -> EntropyResult:
    """Sum of window entropies for block lengths 1..max_block.

    For each length i the entropy is taken over the multiset of all
    overlapping length-i windows of the text. The normalized value divides
    by the binary-alphabet maximum, sum(i for i in 1..max_block).

    Windows are counted as integers: each length-i window is ranked among
    the distinct length-i windows, and a length-(i+1) window is keyed by
    its prefix's rank times the alphabet size plus its last symbol's rank,
    so keys stay below len(text) * alphabet size. Each length's terms are
    summed in the order the windows first appear, the order a `Counter`
    of the window strings iterates in, so the sum is bit for bit the same.
    """
    if max_block < 1:
        raise ValueError("max_block must be at least 1")
    n = len(text)
    if n < max_block:
        raise SeriesTooShortError(
            f"input length {n} shorter than max_block {max_block}"
        )
    _, symbols = np.unique(
        np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32), return_inverse=True
    )
    base = int(symbols.max()) + 1
    rank = np.zeros(n + 1, dtype=np.int64)  # every empty window is the same
    entropies = []
    for i in range(1, max_block + 1):
        keys = rank[: n - i + 1] * base + symbols[i - 1 :]
        _, first, rank, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        entropies.append(_entropy_of_counts(counts[np.argsort(first)].tolist(), n - i + 1))
    total = sum(entropies)
    denom = max_block * (max_block + 1) / 2
    return EntropyResult(bits=total, normalized=min(total / denom, 1.0), block_max=max_block)
