"""Exhaustive enumeration of small 2-colour Turing machines.

Machines have `states` working states plus an explicit halt. Each of the
2*states transition-table entries is one of 4*states + 2 options: write a
bit, move left/right and go to a working state (4*states options), or write
a bit and halt in place (2 options). A machine is identified by its index
in the mixed-radix encoding of its table, which makes the enumeration order
canonical and shard partitions trivially deterministic.

Every machine runs from a blank (all-zero) tape for at most `step_bound`
steps; the recorded output of a halting machine is the bit content of the
tape region its head visited. With step bounds at the known maximal halting
step counts for each state count, the enumeration is exhaustive: anything
still running is a certified non-halter. Exhaustive and sampled runs both
step their machines together, in batches, as numpy arrays; `run_machine`
simulates one machine and is the reference the batched kernel is tested
against.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError

# Maximal steps of any halting n-state 2-colour machine from a blank tape.
KNOWN_STEP_BOUNDS = {1: 1, 2: 6, 3: 21, 4: 107}

MAX_EXHAUSTIVE_STATES = 4

# machines stepped together by one kernel call; bounds the kernel's memory
BATCH = 1 << 14


def machine_count(states: int) -> int:
    """(4*states + 2) ** (2*states) machines in the ensemble."""
    if not 1 <= states <= MAX_EXHAUSTIVE_STATES:
        raise ValueError(f"states must be in 1..{MAX_EXHAUSTIVE_STATES}")
    return (4 * states + 2) ** (2 * states)


def default_step_bound(states: int) -> int:
    return KNOWN_STEP_BOUNDS[states]


@dataclass(frozen=True)
class OutputDistribution:
    """Halting-output frequencies of an enumerated machine ensemble."""

    counts: dict[str, int]
    halting: int
    machines: int
    states: int
    step_bound: int
    exhaustive: bool

    def probability(self, s: str) -> float:
        return self.counts.get(s, 0) / self.halting


def run_machine(index: int, states: int, step_bound: int) -> str | None:
    """Simulate one machine; returns its output string, or None if it does
    not halt within step_bound steps. Reference implementation: the oracle
    the lockstep kernel is tested against."""
    base = 4 * states + 2
    entries = []
    m = index
    for _ in range(2 * states):
        entries.append(m % base)
        m //= base
    tape: dict[int, int] = {}
    head = 0
    pmin = pmax = 0
    state = 0
    for _ in range(step_bound):
        sym = tape.get(head, 0)
        v = entries[state * 2 + sym]
        if v < 2:
            tape[head] = v
            return "".join(str(tape.get(p, 0)) for p in range(pmin, pmax + 1))
        w = v - 2
        tape[head] = w & 1
        head += -1 if (w >> 1) & 1 == 0 else 1
        pmin = min(pmin, head)
        pmax = max(pmax, head)
        state = w >> 2
    return None


def _run_batch(states: int, step_bound: int, m: np.ndarray) -> tuple[Counter, int]:
    """Lockstep kernel: the machines with the int64 indices `m` step at once.

    Machines without a halting entry are dropped before the first step.
    Each machine has its own row of a flat tape, and positions, visited
    bounds and transition-table entries are flat indices into the tape and
    into the batch's tables. A machine leaves the active set on the step it
    reaches a halting entry.
    """
    base, n_entries, width = 4 * states + 2, 2 * states, 2 * step_bound + 3
    v = np.empty((len(m), n_entries), dtype=np.int64)
    for e in range(n_entries):
        m, v[:, e] = np.divmod(m, base)
    halts = v < 2
    keep = halts.any(axis=1)
    v, halts = v[keep], halts[keep]
    w = v - 2
    rows = np.arange(len(v), dtype=np.int64)
    halt = halts.ravel()
    write = np.where(halts, v, w & 1).astype(np.uint8).ravel()
    # a halting entry's move and next state are never read
    move = (2 * ((w >> 1) & 1) - 1).ravel()
    nxt = (rows[:, None] * n_entries + 2 * (w >> 2)).ravel()
    tape = np.zeros(len(v) * width, dtype=np.uint8)
    pos = rows * width + step_bound + 1
    cur = rows * n_entries
    lo, hi = pos.copy(), pos.copy()
    done_lo, done_hi = [], []
    for _ in range(step_bound):
        if not len(pos):
            break
        e = cur + tape[pos]
        tape[pos] = write[e]
        h = halt[e]
        if h.any():
            done_lo.append(lo[h])
            done_hi.append(hi[h])
            k = ~h
            pos, e, lo, hi = pos[k], e[k], lo[k], hi[k]
        pos += move[e]
        cur = nxt[e]
        np.minimum(lo, pos, out=lo)
        np.maximum(hi, pos, out=hi)
    if not done_lo:
        return Counter(), 0
    lo, hi = np.concatenate(done_lo), np.concatenate(done_hi)
    return _region_counts(tape, lo, hi), len(lo)


def _region_counts(tape: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Counter:
    """Counts of the bit strings tape[lo[i]..hi[i]] (inclusive).

    Each region is packed, right-aligned behind a leading 1 bit, into the
    fewest whole bytes that hold the longest one, so strings of any length
    get distinct keys and np.unique counts them.
    """
    length = hi - lo + 1
    nbytes = (int(length.max()) + 8) // 8
    cols = 8 * nbytes
    p = hi[:, None] - np.arange(cols - 1, -1, -1)
    bits = np.where(p >= lo[:, None], tape[np.maximum(p, lo[:, None])], 0)
    bits[np.arange(len(lo)), cols - 1 - length] = 1
    keys = np.packbits(bits, axis=1).view(f"V{nbytes}").ravel()
    keys, counts = np.unique(keys, return_counts=True)
    return Counter(
        {
            format(int.from_bytes(k.tobytes(), "big"), "b")[1:]: c
            for k, c in zip(keys, counts.tolist())
        }
    )


def enumerate_range(
    states: int, step_bound: int, start: int, stop: int
) -> tuple[Counter, int]:
    """Halting-output counts over machine indices [start, stop)."""
    if start < 0 or stop > machine_count(states) or start > stop:
        raise ValueError("invalid machine index range")
    batches = (
        np.arange(a, min(a + BATCH, stop), dtype=np.int64) for a in range(start, stop, BATCH)
    )
    return _run_batches(states, step_bound, batches)


def _run_batches(states: int, step_bound: int, batches) -> tuple[Counter, int]:
    """Summed `_run_batch` results over an iterable of index arrays."""
    counts: Counter = Counter()
    halting = 0
    for m in batches:
        c, h = _run_batch(states, step_bound, m)
        counts.update(c)
        halting += h
    return counts, halting


def symmetrize_counts(counts: dict[str, int] | Counter) -> Counter:
    """Add the bit-complement of every output, doubling the total.

    A run from a blank-1 tape is the run of the write/read-complemented
    machine from a blank-0 tape with its output complemented, so counting
    complements is exactly evaluating the ensemble on both blank symbols.
    Without this the all-zero blank tape skews the distribution towards
    0-heavy strings; with it the distribution is closed under complement.
    """
    out: Counter = Counter()
    for s, c in counts.items():
        out[s] += c
        out["".join("1" if ch == "0" else "0" for ch in s)] += c
    return out


def shard_ranges(states: int, shards: int) -> list[tuple[int, int]]:
    total = machine_count(states)
    if shards < 1:
        raise ValueError("shards must be at least 1")
    bounds = np.linspace(0, total, shards + 1, dtype=np.int64)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


def enumerate_machines(
    states: int,
    shards: int = 1,
    checkpoint: str | Path | None = None,
    resume: bool = False,
) -> OutputDistribution:
    """Exhaustive enumeration of every machine with the given state count.

    The result is independent of the shard partition: shards are disjoint
    index ranges whose counts are summed. With `checkpoint`, each finished
    shard is written to a file next to that path; with `resume` too, shard
    files already there are read instead of enumerated again. The files
    are removed once every shard is merged.
    """
    step_bound = default_step_bound(states)
    counts: Counter = Counter()
    halting = 0
    paths = []
    for i, (start, stop) in enumerate(shard_ranges(states, shards)):
        if checkpoint is None:
            c, h = enumerate_range(states, step_bound, start, stop)
        else:
            paths.append(_shard_path(Path(checkpoint), i, shards))
            c, h = _checkpointed_range(paths[-1], resume, states, step_bound, start, stop)
        counts.update(c)
        halting += h
    for path in paths:
        path.unlink(missing_ok=True)
    return OutputDistribution(
        counts=dict(symmetrize_counts(counts)),
        halting=2 * halting,
        machines=machine_count(states),
        states=states,
        step_bound=step_bound,
        exhaustive=True,
    )


def _shard_path(out: Path, i: int, shards: int) -> Path:
    return out.with_suffix(out.suffix + f".shard{i:03d}of{shards:03d}")


def _checkpointed_range(
    path: Path, resume: bool, states: int, step_bound: int, start: int, stop: int
) -> tuple[dict[str, int], int]:
    """`enumerate_range` through the shard checkpoint file at `path`."""
    meta = {"states": states, "step_bound": step_bound, "start": start, "stop": stop}
    if resume and path.exists():
        saved, counts, halting = _read_shard(path)
        if any(saved.get(k) != str(v) for k, v in meta.items()):
            raise ConfigError(f"stale shard checkpoint {path}")
        return counts, halting
    counts, halting = enumerate_range(states, step_bound, start, stop)
    _write_shard(path, {**meta, "halting": halting}, counts)
    return counts, halting


def _write_shard(path: Path, meta: dict, counts) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in meta.items())]
    for s in sorted(counts, key=lambda x: (len(x), x)):
        lines.append(f"{s}\t{counts[s]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_shard(path: Path) -> tuple[dict[str, str], dict[str, int], int]:
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        meta = dict(tok.split("=", 1) for tok in lines[0][2:].split())
        counts = {}
        for line in lines[1:]:
            if line.strip():
                s, c = line.split("\t")
                counts[s] = int(c)
        return meta, counts, int(meta["halting"])
    except (IndexError, KeyError, ValueError):
        raise ConfigError(f"unreadable shard checkpoint {path}") from None


def sample_machines(states: int, budget: int, seed: int = 0) -> OutputDistribution:
    """Uniform random sample of the ensemble, for state counts where the
    exhaustive run is out of reach (4 states is ~11e9 machines).

    Indices are drawn with `random.Random(seed).randrange`, at most `BATCH`
    at a time, and each draw runs through the lockstep kernel.
    """
    total = machine_count(states)
    step_bound = default_step_bound(states)
    if budget < 1:
        raise ValueError("budget must be positive")
    rng = random.Random(seed)
    draws = (
        np.array([rng.randrange(total) for _ in range(min(BATCH, budget - a))], dtype=np.int64)
        for a in range(0, budget, BATCH)
    )
    counts, halting = _run_batches(states, step_bound, draws)
    return OutputDistribution(
        counts=dict(symmetrize_counts(counts)),
        halting=2 * halting,
        machines=budget,
        states=states,
        step_bound=step_bound,
        exhaustive=False,
    )
