"""Complexity table built from halting-output frequencies.

The coding-theorem estimate K(x) = -log2 m(x) is tabulated for every binary
string up to a chosen maximum length. Strings the enumeration never
produced get a fallback value one bit above the largest exact value at
their length, so lookups stay total and order-preserving.

A saved table is its provenance line, `header`, then one
`<bitstring>\t<K>\t<exact|fallback>` line per string. `load` accepts only
the header that `ctm_from_frequency` renders, and `report.txt` repeats it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import inf, log2
from pathlib import Path

from ..errors import TableFormatError
from .machines import OutputDistribution, write_replacing

# longest tabulated string; 16 gives 2**17 - 2 entries, and each further
# bit doubles the table and its build time
D_MAX_LIMIT = 16

# the header `ctm_from_frequency` renders; \d would also match non-ASCII digits
_N = "(0|[1-9][0-9]*)"
_HEADER = re.compile(
    f"# states={_N} colors=2 step_bound={_N} machines={_N} mode=(exhaustive|sampled)"
)


@dataclass(frozen=True)
class CtmTable:
    values: dict[str, float]
    fallback: frozenset[str]
    header: str  # provenance, the first line as written, "# " included

    @cached_property
    def d_max(self) -> int:
        return max(map(len, self.values))

    def k(self, s: str) -> float:
        try:
            return self.values[s]
        except KeyError:
            raise KeyError(
                f"string of length {len(s)} not covered by table (d_max={self.d_max})"
            ) from None

    def is_fallback(self, s: str) -> bool:
        return s in self.fallback

    def max_k(self, length: int) -> float:
        # a table holds every string of each length up to d_max
        if not 1 <= length <= self.d_max:
            raise KeyError(f"table has no entries of length {length}")
        return max(map(self.values.__getitem__, _strings(length)))

    def save(self, path: str | Path) -> None:
        lines = [self.header]
        for s in sorted(self.values, key=lambda x: (len(x), x)):
            tag = "fallback" if s in self.fallback else "exact"
            lines.append(f"{s}\t{self.values[s]:.9f}\t{tag}")
        write_replacing(Path(path), "\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CtmTable":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise TableFormatError(f"{path}: cannot read table: {exc}")
        lines = text.splitlines()
        if not lines or not _HEADER.fullmatch(lines[0]):
            raise TableFormatError(f"{path}: line 1 is not a table header")
        values: dict[str, float] = {}
        fallback = set()
        for lineno, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise TableFormatError(f"{path}:{lineno}: expected 3 tab fields")
            s, kval, tag = parts
            if not s or set(s) - {"0", "1"}:
                raise TableFormatError(f"{path}:{lineno}: invalid bitstring {s!r}")
            if s in values:
                raise TableFormatError(f"{path}:{lineno}: bitstring {s!r} listed twice")
            if tag not in ("exact", "fallback"):
                raise TableFormatError(f"{path}:{lineno}: invalid tag {tag!r}")
            try:
                k = float(kval)
            except ValueError:
                raise TableFormatError(f"{path}:{lineno}: invalid K value {kval!r}")
            if not 0 < k < inf:
                raise TableFormatError(f"{path}:{lineno}: K must be positive and finite")
            values[s] = k
            if tag == "fallback":
                fallback.add(s)
        if not values:
            raise TableFormatError(f"{path}: table has no entries")
        # lookups need every string up to the longest one
        d_max = max(map(len, values))
        missing = 2 ** (d_max + 1) - 2 - len(values)
        if missing:
            raise TableFormatError(f"{path}: {missing} strings of length 1..{d_max} missing")
        return cls(values=values, fallback=frozenset(fallback), header=lines[0])


def _strings(length: int) -> list[str]:
    """Every binary string of `length` bits, in counting order."""
    return [format(val, f"0{length}b") for val in range(1 << length)]


def check_d_max(d_max: int | None) -> None:
    """Reject a longest table string outside 1..D_MAX_LIMIT; None lets
    `ctm_from_frequency` choose one."""
    if d_max is not None and not 1 <= d_max <= D_MAX_LIMIT:
        raise ValueError(f"d_max must be in 1..{D_MAX_LIMIT}, got {d_max}")


def ctm_from_frequency(dist: OutputDistribution, d_max: int | None = None) -> CtmTable:
    """Tabulate K(x) = -log2 m(x) for every binary string of length
    1..d_max, with fallback values for strings never produced."""
    check_d_max(d_max)
    if not dist.counts:
        raise ValueError("distribution is empty")
    max_produced = max(len(s) for s in dist.counts)
    if d_max is None:
        d_max = min(12, max_produced)
    values: dict[str, float] = {}
    fallback = set()
    global_max = 0.0
    for length in range(1, d_max + 1):
        strings = _strings(length)
        exact = {s: -log2(dist.counts[s] / dist.halting) for s in strings if dist.counts.get(s)}
        # when nothing of this length was ever produced, fall back from the
        # hardest string seen so far
        base = max(exact.values(), default=global_max)
        global_max = max(global_max, base)
        for s in strings:
            values[s] = exact.get(s, base + 1.0)
        fallback.update(s for s in strings if s not in exact)
    header = (
        f"# states={dist.states} colors=2 step_bound={dist.step_bound} "
        f"machines={dist.machines} mode={'exhaustive' if dist.exhaustive else 'sampled'}"
    )
    return CtmTable(values=values, fallback=frozenset(fallback), header=header)
