"""Complexity table built from halting-output frequencies.

The coding-theorem estimate K(x) = -log2 m(x) is tabulated for every binary
string up to a chosen maximum length. Strings the enumeration never
produced get a fallback value one bit above the largest exact value at
their length, so lookups stay total and order-preserving.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import inf, log2
from pathlib import Path

from ..errors import TableFormatError
from .machines import OutputDistribution, write_replacing

# longest tabulated string; 16 gives 2**17 - 2 entries, and each further
# bit doubles the table and its build time
D_MAX_LIMIT = 16


@dataclass(frozen=True)
class CtmMeta:
    states: int
    step_bound: int
    machines: int
    mode: str  # "exhaustive" or "sampled"

    def header_line(self) -> str:
        return (
            f"# states={self.states} colors=2 "
            f"step_bound={self.step_bound} machines={self.machines} "
            f"mode={self.mode}"
        )


@dataclass(frozen=True)
class CtmTable:
    values: dict[str, float]
    fallback: frozenset[str]
    meta: CtmMeta

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
        lines = [self.meta.header_line()]
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
        if not lines or not lines[0].startswith("# "):
            raise TableFormatError(f"{path}: missing header line")
        meta = _parse_header(lines[0], path)
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
        return cls(values=values, fallback=frozenset(fallback), meta=meta)


def _parse_header(line: str, path) -> CtmMeta:
    fields = {}
    for token in line[2:].split():
        if "=" not in token:
            raise TableFormatError(f"{path}: malformed header token {token!r}")
        key, val = token.split("=", 1)
        fields[key] = val
    try:
        states, colors = int(fields["states"]), int(fields["colors"])
        meta = CtmMeta(
            states=states,
            step_bound=int(fields["step_bound"]),
            machines=int(fields["machines"]),
            mode=fields["mode"],
        )
    except (KeyError, ValueError) as exc:
        raise TableFormatError(f"{path}: incomplete header: {exc}")
    if colors != 2:
        raise TableFormatError(f"{path}: only 2-colour tables are supported")
    if meta.mode not in ("exhaustive", "sampled"):
        raise TableFormatError(f"{path}: invalid mode {meta.mode!r}")
    return meta


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
    meta = CtmMeta(
        states=dist.states,
        step_bound=dist.step_bound,
        machines=dist.machines,
        mode="exhaustive" if dist.exhaustive else "sampled",
    )
    return CtmTable(values=values, fallback=frozenset(fallback), meta=meta)
