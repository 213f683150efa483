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


def _windows(symbols: Sequence, length: int, overlapping: bool):
    step = 1 if overlapping else length
    stop = len(symbols) - length + 1
    if isinstance(symbols, str):
        return [symbols[i : i + length] for i in range(0, stop, step)]
    return [tuple(symbols[i : i + length]) for i in range(0, stop, step)]


def block_entropy(
    symbols: Sequence, max_block: int = 4, overlapping: bool = True
) -> EntropyResult:
    """Sum of window entropies for block lengths 1..max_block.

    For each length i the entropy is taken over the multiset of all
    (by default overlapping) length-i windows. The normalized value divides
    by the binary-alphabet maximum, sum(i for i in 1..max_block).
    """
    if max_block < 1:
        raise ValueError("max_block must be at least 1")
    if len(symbols) < max_block:
        raise SeriesTooShortError(
            f"input length {len(symbols)} shorter than max_block {max_block}"
        )
    total = sum(
        shannon_entropy(_windows(symbols, i, overlapping))
        for i in range(1, max_block + 1)
    )
    denom = max_block * (max_block + 1) / 2
    return EntropyResult(bits=total, normalized=min(total / denom, 1.0), block_max=max_block)

