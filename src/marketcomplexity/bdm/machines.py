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

Every run goes through one lockstep kernel, which steps a batch of
machines as numpy arrays. Tables indexed by the value of a group of up to
three index digits decode their transition tables in a few row gathers; a
tape cell's nonzero mark holds its bit and records a visit; halting
entries lead to a shared absorbing row. So the step loop neither tracks
visited bounds nor tests for halts.

One reduction of Soler-Toscano, Zenil, Delahaye & Gauvrit (PLoS ONE 2014)
cuts the work of the step loop, and it cannot change a count: machines are
decided on blank tape. While its head keeps moving one way over blank
cells, a machine reads only its entries for (state, blank), so one table
over their values gives its fate when its index is decoded. One that halts
there is counted in closed form, with its output. An escapee, whose head
moves `states` cells one way, has met fresh blank tape in more states than
it has, so it has entered a cycle of states over blank tape heading the
same way and can never halt: it is dropped. Only a machine whose head
turns back onto a cell it wrote is stepped.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import ConfigError

# Maximal steps of any halting n-state 2-colour machine from a blank tape.
KNOWN_STEP_BOUNDS = {1: 1, 2: 6, 3: 21, 4: 107}

# machines stepped together by one kernel call; bounds the kernel's memory
BATCH = 1 << 14


def machine_count(states: int) -> int:
    """(4*states + 2) ** (2*states) machines in the ensemble."""
    if states not in KNOWN_STEP_BOUNDS:
        raise ValueError("states must be in 1..4")
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
    columns), 1 if it holds a halting entry, and its share of the index of
    `_chains`; the last row is the absorbing row's, with 1 and shares that
    sum to the last index of `_chains`."""
    base, digits = 4 * states + 2, 2 * states
    tables = [], [], [], [], []
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
        blank = np.arange(lo + lo % 2, es.stop, 2)  # its digits e of entries (e // 2, blank)
        share = d[:, blank - lo] @ base ** (blank // 2)
        tables[4].append(np.append(share, base**states if lo == 0 else 0))
    return tables


@functools.cache
def _chains(states: int) -> np.ndarray:
    """Fate on blank tape of every machine, indexed by the sum over states
    s of its entry for (s, blank) times (4*states + 2) ** s: 1 followed by
    its j output bits if it halts at step j while its head moves one way, 0
    if its head moves `states` cells one way (an escapee), and 1 if its
    head turns back onto a cell it wrote before either. The last entry, 1,
    is the absorbing row's."""
    # d[s] is the entry for (s, blank), by index; uint8 keeps the 4-state build small
    d = np.indices((4 * states + 2,) * states, dtype=np.uint8)[::-1].reshape(states, -1)
    fate = np.zeros(d.shape[1], dtype=np.uint8)
    live = np.ones(d.shape[1], dtype=bool)
    heading = d[0] - 2 & 2  # the move of step 1, kept while no step turns back
    cols, state, right, left = np.arange(d.shape[1]), 0, 0, 0
    for j in range(states):  # step j + 1 reads the blank cell j cells from the start
        v = d[state, cols]
        # the bits written so far, in tape order if heading right or left
        right, left = right << 1 | v & 1, left | (v & 1) << j
        fate[live] = np.where(
            v < 2, 1 << j + 1 | np.where(heading, right, left), v - 2 & 2 != heading
        )[live]
        live &= fate == 0
        state = np.maximum(v, 2) - 2 >> 2
    return np.append(fate, np.uint8(1))


def _gathered(tables: list, g: np.ndarray) -> np.ndarray:
    """Rows `g[i]` of each group's table `tables[i]`, or-ed together."""
    out = tables[0].take(g[0], axis=0)
    for t, v in zip(tables[1:], g[1:]):
        out |= t.take(v, axis=0)
    return out


def _entry_tables(states: int, step_bound: int, m: np.ndarray) -> tuple:
    """Decodes the machines `m` and decides on blank tape all but those
    that turn back first (see `_chains`). Returns the mark written, head
    move and next entry of every entry of the turn-back machines that have
    a halting entry, in rows of three per state read at the mark under the
    head, then the absorbing row; their first entries; and the outputs of
    the machines that halt on blank tape by step `step_bound`, counted in a
    dict without zero counts. The rest of `m` never halts within
    `step_bound` steps. A machine's rows in the `_group_tables` of its
    digit groups fill disjoint columns, so or-ed they make its row."""
    *tables, halt, share = _group_tables(states)
    # the digit groups' values by scalar floor division, then the absorbing rows
    g = np.empty((len(halt), len(m) + 1), dtype=np.int64)
    g[:, -1] = sizes = [len(h) - 1 for h in halt]
    g[-1, :-1] = rest = m
    for i, size in enumerate(sizes[:-1]):
        q = np.floor_divide(rest, size, out=g[i + 1, :-1])
        np.subtract(rest, q * size, out=g[i, :-1])
        rest = q
    fate = _chains(states).take(sum(map(np.take, share, g)))
    # the codes of the halts by step `step_bound` lie below 2 << step_bound
    found = np.bincount(fate)[2 : 2 << min(step_bound, states)].tolist()
    halts = {format(c, "b")[1:]: n for c, n in enumerate(found, 2) if n}
    # step those that turn back and have a halting entry, and the absorbing row
    g = g.take((_gathered(halt, g) & (fate == 1)).nonzero()[0], axis=1)
    write, move, nxt = (_gathered(t, g) for t in tables)
    rows = np.arange(0, nxt.size, 3 * states)
    nxt += rows[:, None]
    np.minimum(nxt, rows[-1], out=nxt)
    return write.ravel(), move.ravel(), nxt.ravel(), rows[:-1], halts


def _run_batch(states: int, step_bound: int, m: np.ndarray) -> tuple[np.ndarray, dict[str, int]]:
    """Lockstep kernel: steps at once, on rows of one flat tape and from
    step 1, the machines with the int64 indices `m` that `_entry_tables`
    hands over, those that turn back on blank tape and have a halting
    entry. Returns the tape rows of those that halt within `step_bound`
    steps, and the outputs of the machines counted without a step, as
    `_entry_tables` returns them.

    A halted machine idles in the absorbing row until the next compaction,
    after steps 4, 8, 16, ... and the last (a stepped machine turns back at
    step 2 at the earliest, so none halts before step 3)."""
    write, move, nxt, cur, halts = _entry_tables(states, step_bound, m)
    absorb, width, start = len(nxt) - 3 * states, 2 * step_bound + 3, step_bound + 1
    tape = np.zeros(len(cur) * width, dtype=np.uint8)
    pos = np.arange(start, len(tape), width)
    done, reach = [pos[:0]], 1
    for step in range(1, step_bound + 1):
        e = cur + tape[pos]
        tape[pos] = write[e]
        pos += move[e]
        cur = nxt[e]
        if step > 2 and (step == step_bound or step & (step - 1) == 0):
            live = cur != absorb
            done.append(pos[~live])
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
    steps: the machines decided on blank tape are counted or dropped
    without a step (see `_entry_tables`)."""
    if start < 0 or stop > machine_count(states) or start > stop:
        raise ValueError("invalid machine index range")
    if step_bound < 0:
        raise ValueError("step_bound must be non-negative")
    batches = (
        np.arange(a, min(a + BATCH, stop), dtype=np.int64) for a in range(start, stop, BATCH)
    )
    return _run_batches(states, step_bound, batches)


def _run_batches(states: int, step_bound: int, batches) -> tuple[Counter, int]:
    """Summed output counts of `_run_batch` over an iterable of index arrays:
    the counts of every output, none of them zero, and their total."""
    counts: Counter = Counter()
    halting = 0
    for m in batches:
        rows, halts = _run_batch(states, step_bound, m)
        halting += _region_counts(rows, counts) + sum(halts.values())
        counts.update(halts)
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
    if shards > total:
        raise ValueError(f"shards must be at most {total}, the machine count")
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
    # the blank-0 counts, evaluated on both blank symbols (see `symmetrize_counts`)
    return OutputDistribution(
        dict(symmetrize_counts(counts)), 2 * halting, machine_count(states), states, step_bound
    )


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

