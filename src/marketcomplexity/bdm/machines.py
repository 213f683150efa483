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
still running is a certified non-halter.

Exhaustive and sampled runs both go through one lockstep kernel, which
steps a batch of machines as numpy arrays. Tables indexed by the value of
a group of up to three index digits decode their transition tables in a
few row gathers; a tape cell's nonzero mark holds its bit and records a
visit; halting entries lead to a shared absorbing row.
So the step loop neither tracks visited bounds nor tests for halts.

Two reductions of Soler-Toscano, Zenil, Delahaye & Gauvrit (PLoS ONE 2014)
cut the work of the step loop, and neither can change a count. A
machine whose entry for (state 0, blank) halts writes one bit at step 1 and
stops: it is counted in closed form from that entry. An escapee, whose head
has moved the same way at each of its first `states` or more steps, has
met fresh blank tape in more states than it has, so it has entered a cycle
of states over blank tape heading the same way and can never halt: it is
dropped unfinished.
"""

from __future__ import annotations

import functools
import json
import os
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


# next entry of a halting option, clipped by the kernel to its absorbing row
_ABSORB = 1 << 62


@functools.cache
def _option_tables(states: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mark written, head move and next entry offset of each option value,
    then at -3, -2, -1 the absorbing row's entries, which write back the
    mark they read and stay put. A cell's mark is 0 until visited, then
    2 - bit; a working option leads to entry 3 * state of its machine."""
    w = range(4 * states)  # the working options 2 + w
    write = [2, 1] + [2 - (x & 1) for x in w] + [0, 1, 2]
    move = [0, 0] + [1 if x & 2 else -1 for x in w] + [0, 0, 0]
    nxt = [_ABSORB] * 2 + [3 * (x >> 2) for x in w] + [_ABSORB] * 3
    # int8 moves keep the tables of a large batch small enough for the cache
    return np.array(write, dtype=np.uint8), np.array(move, dtype=np.int8), np.array(nxt)


@functools.cache
def _group_tables(states: int) -> tuple:
    """Lists of tables, one per group of at most 3 consecutive index digits,
    indexed by its value: its entries' mark written, head move and next
    entry in the row layout of `_entry_tables` (zeros in other groups'
    columns), and 1 if it holds a halting entry; the last row is the
    absorbing row's, with 1. Then, by the first group's value, 1 + the bit
    that a halting entry for (state 0, blank) writes, or 0."""
    base, digits = 4 * states + 2, 2 * states
    tables = [], [], [], []
    for lo in range(0, digits, 3):
        es = range(lo, min(lo + 3, digits))
        d = np.arange(base ** len(es))[:, None] // base ** np.arange(len(es)) % base
        cols = {e + e // 2: e - lo for e in es}  # entry (state e // 2, read e % 2)
        cols.update({e + e // 2 + 2: e - lo for e in es if e % 2 == 0})  # mark 2 reads as bit 0
        # the absorbing row reads option -3, -2 or -1 at mark 0, 1 or 2
        v = np.vstack([d[:, list(cols.values())], [c % 3 - 3 for c in cols]])
        for table, option in zip(tables, _option_tables(states)):
            table.append(np.zeros((len(v), 3 * states), dtype=option.dtype))
            table[-1][:, list(cols)] = option[v]
        tables[3].append(np.append((d < 2).any(axis=1), True).astype(np.uint8))
    d = np.arange(len(tables[3][0]) - 1) % base  # options 0 and 1 write that bit and halt
    return *tables, np.append(np.where(d < 2, d + 1, 0), 0).astype(np.uint8)


def _gathered(tables: list, g: np.ndarray) -> np.ndarray:
    """Rows `g[i]` of each group's table `tables[i]`, or-ed together."""
    out = tables[0].take(g[0], axis=0)
    for t, v in zip(tables[1:], g[1:]):
        out |= t.take(v, axis=0)
    return out


def _entry_tables(states: int, step_bound: int, m: np.ndarray) -> tuple:
    """Mark written, head move and next entry of every entry of the machines
    `m` that have a halting entry but do not halt on their first transition,
    in rows of three per state read at the mark under the head, then the
    absorbing row; their first entries; and the numbers of machines with
    the outputs "0" and "1" among those left out because their entry for
    (state 0, blank) halts, as two ints: they write one bit and stop at
    step 1 if step_bound >= 1. A machine's rows in the `_group_tables` of
    its digit groups fill disjoint columns, so or-ed they make its row."""
    *tables, halt, first = _group_tables(states)
    # the digit groups' values by scalar floor division, then the absorbing rows
    g = np.empty((len(halt), len(m) + 1), dtype=np.int64)
    g[:, -1] = sizes = [len(h) - 1 for h in halt]
    g[-1, :-1] = rest = m
    for i, size in enumerate(sizes[:-1]):
        q = np.floor_divide(rest, size, out=g[i + 1, :-1])
        np.subtract(rest, q * size, out=g[i, :-1])
        rest = q
    f = first.take(g[0])
    halts = np.bincount(f, minlength=3)[1:].tolist() if step_bound else [0, 0]
    # step the machines with a halting entry whose first transition does not halt
    g = g.take((_gathered(halt, g) > f).nonzero()[0], axis=1)
    write, move, nxt = (_gathered(t, g) for t in tables)
    rows = np.arange(0, nxt.size, 3 * states)
    nxt += rows[:, None]
    np.minimum(nxt, rows[-1], out=nxt)
    return write.ravel(), move.ravel(), nxt.ravel(), rows[:-1], halts


def _run_batch(states: int, step_bound: int, m: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Lockstep kernel: steps the machines with the int64 indices `m` at once
    on rows of one flat tape. Returns the tape rows of those that halt after
    step 1, and the numbers of those with the outputs "0" and "1" that halt
    at step 1, which `_entry_tables` counts without a step.

    A halted machine idles in the absorbing row until the next compaction,
    after steps 2, 4, 8, ... and the last (none halts at step 1). The first
    compaction at or after step `states` also drops the escapees: a machine
    whose head has moved `step` cells one way has read fresh blank tape in
    `step + 1 > states` states, so it repeats one and cycles over blank tape
    for ever. One that has moved `step` cells one way at a later compaction
    had done so at this one too, so one check finds them all."""
    write, move, nxt, cur, halts = _entry_tables(states, step_bound, m)
    absorb, width, start = len(nxt) - 3 * states, 2 * step_bound + 3, step_bound + 1
    escape = 1 << (max(states, 2) - 1).bit_length()  # the first compaction >= states
    tape = np.zeros(len(cur) * width, dtype=np.uint8)
    pos = np.arange(start, len(tape), width)
    done, reach = [pos[:0]], 1
    for step in range(1, step_bound + 1):
        e = cur + tape[pos]
        tape[pos] = write[e]
        pos += move[e]
        cur = nxt[e]
        if step == step_bound or step > 1 and step & (step - 1) == 0:
            live = cur != absorb
            done.append(pos[~live])
            if step == escape:
                live &= np.abs(pos % width - start) != step
            pos, cur = pos[live], cur[live]
            reach = step if len(done[-1]) else reach
    # a machine halted by step `reach` visited only the start cell +- (reach - 1)
    halted = np.concatenate(done) // width
    return tape.reshape(-1, width)[halted, start + 1 - reach : start + reach], halts


_MARK_BITS = bytes.maketrans(b"\x01\x02", b"10")


def _region_counts(rows: np.ndarray, out: Counter) -> int:
    """Adds the outputs on the tape rows `rows` into the counts `out` and
    returns their number. A row's output is its run of visited cells,
    marked 1 for bit 1 and 2 for bit 0."""
    keys = Counter(rows.view(f"S{rows.shape[1]}").ravel().tolist())
    for k, c in keys.items():
        out[k.translate(_MARK_BITS, b"\0").decode()] += c
    return len(rows)


def enumerate_range(
    states: int, step_bound: int, start: int, stop: int
) -> tuple[Counter, int]:
    """Halting-output counts over machine indices [start, stop), equal to
    those of running every machine on its own for up to `step_bound`
    steps: the machines that halt on their first transition are counted
    without a step, and escapees are dropped because they never halt (see
    `_run_batch`)."""
    if start < 0 or stop > machine_count(states) or start > stop:
        raise ValueError("invalid machine index range")
    if step_bound < 0:
        raise ValueError("step_bound must be non-negative")
    batches = (
        np.arange(a, min(a + BATCH, stop), dtype=np.int64) for a in range(start, stop, BATCH)
    )
    return _run_batches(states, step_bound, batches)


def _run_batches(states: int, step_bound: int, batches) -> tuple[Counter, int]:
    """Summed output counts of `_run_batch` over an iterable of index arrays."""
    counts: Counter = Counter()
    halting = 0
    for m in batches:
        rows, halts = _run_batch(states, step_bound, m)
        halting += _region_counts(rows, counts) + sum(halts)
        for bit, c in zip("01", halts):
            if c:
                counts[bit] += c
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


def _distribution(counts, halting, machines, states, exhaustive) -> OutputDistribution:
    """The blank-0 output counts of a run of `machines` machines, evaluated
    on both blank symbols (see `symmetrize_counts`)."""
    return OutputDistribution(
        dict(symmetrize_counts(counts)), 2 * halting, machines, states,
        default_step_bound(states), exhaustive,
    )


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
    stay until `remove_checkpoints` is called, once the result is safe.
    """
    ranges = shard_ranges(states, shards)  # checks states and shards before any file
    step_bound = default_step_bound(states)
    counts: Counter = Counter()
    halting = 0
    for i, (start, stop) in enumerate(ranges):
        if checkpoint is None:
            c, h = enumerate_range(states, step_bound, start, stop)
        else:
            path = _shard_path(Path(checkpoint), i, shards)
            c, h = _checkpointed_range(path, resume, states, step_bound, start, stop)
        counts.update(c)
        halting += h
    return _distribution(counts, halting, machine_count(states), states, exhaustive=True)


def remove_checkpoints(checkpoint: str | Path, shards: int) -> None:
    """Delete the shard files `enumerate_machines` wrote next to `checkpoint`."""
    for i in range(shards):
        _shard_path(Path(checkpoint), i, shards).unlink(missing_ok=True)


def _shard_path(out: Path, i: int, shards: int) -> Path:
    return out.with_suffix(out.suffix + f".shard{i:03d}of{shards:03d}")


def write_replacing(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file beside it and `os.replace`."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _checkpointed_range(
    path: Path, resume: bool, states: int, step_bound: int, start: int, stop: int
) -> tuple[dict[str, int], int]:
    """`enumerate_range` through the shard checkpoint file at `path`: one
    JSON object of the range's parameters, its halting total and its
    counts."""
    meta = {"states": states, "step_bound": step_bound, "start": start, "stop": stop}
    if resume and path.exists():
        try:
            saved = json.loads(path.read_text(encoding="utf-8"))
            counts, halting = saved["counts"], saved["halting"]
            # `_run_batches` adds to `halting` exactly what it counts
            whole = type(halting) is int and halting == sum(counts.values()) and all(
                s and not set(s) - {"0", "1"} and type(c) is int and c >= 1
                for s, c in counts.items()
            )
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError):
            whole = False
        if not whole:
            raise ConfigError(f"unreadable shard checkpoint {path}")
        if any(saved.get(k) != v for k, v in meta.items()):
            raise ConfigError(f"stale shard checkpoint {path}")
        return counts, halting
    counts, halting = enumerate_range(states, step_bound, start, stop)
    write_replacing(path, json.dumps({**meta, "halting": halting, "counts": counts}))
    return counts, halting


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
    return _distribution(counts, halting, budget, states, exhaustive=False)
