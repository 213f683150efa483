"""Block decomposition: complexity of a long bit sequence from tabulated
block complexities plus log-multiplicities."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import log2

from ..errors import SeriesTooShortError
from .table import CtmTable


@dataclass(frozen=True)
class BdmResult:
    k_estimate: float
    normalized: float
    deficiency: float
    blocks_missing_from_table: int


def bdm(
    bits: str,
    table: CtmTable,
    d: int = 4,
    overlap: int | None = None,
) -> BdmResult:
    """K estimate of a `0`/`1` string: sum over distinct length-d windows of
    K(window) + log2(multiplicity).

    Windows advance by `overlap` positions (default d, i.e. disjoint
    blocks); a trailing remainder shorter than d is discarded. The
    normalized value divides by the worst case for the same window count:
    all windows distinct at the maximum table K for length d.
    """
    if set(bits) - {"0", "1"}:
        raise ValueError("bit string may contain only '0' and '1'")
    if overlap is None:
        overlap = d
    if d < 1:
        raise ValueError("block length d must be positive")
    if not 1 <= overlap <= d:
        raise ValueError(f"overlap must be in 1..{d}")
    if len(bits) < d:
        raise SeriesTooShortError(f"input length {len(bits)} shorter than block length {d}")
    if d > table.d_max:
        raise ValueError(f"block length {d} exceeds table coverage d_max={table.d_max}")
    windows = Counter(
        bits[i : i + d] for i in range(0, len(bits) - d + 1, overlap)
    )
    missing = sum(n for w, n in windows.items() if table.is_fallback(w))
    k_estimate = sum(log2(n) + table.k(w) for w, n in windows.items())
    n_windows = sum(windows.values())
    worst = n_windows * table.max_k(d)
    return BdmResult(
        k_estimate=k_estimate,
        normalized=min(k_estimate / worst, 1.0) if worst > 0 else 0.0,
        deficiency=k_estimate / len(bits),
        blocks_missing_from_table=missing,
    )
