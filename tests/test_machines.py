from collections import Counter

import hashlib
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from marketcomplexity.bdm import ctm_from_frequency, machines
from marketcomplexity.bdm.machines import (
    BATCH,
    KNOWN_STEP_BOUNDS,
    _region_counts,
    enumerate_machines,
    enumerate_range,
    machine_count,
    shard_ranges,
    symmetrize_counts,
)


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


class TestEnsembleSize:
    def test_counts(self):
        assert machine_count(1) == 36
        assert machine_count(2) == 10_000
        assert machine_count(3) == 7_529_536

    def test_invalid_states(self):
        with pytest.raises(ValueError):
            machine_count(0)


class TestRunMachine:
    def test_immediate_halt_writes_one_symbol(self):
        # entry for (state 0, symbol 0) is the least significant digit;
        # value 1 means "write 1 and halt"
        assert run_machine(1, 1, 5) == "1"
        assert run_machine(0, 1, 5) == "0"

    def test_nonhalting_machine_returns_none(self):
        # all entries loop back to state 0 moving right writing 0:
        # digit value 2+ (w=0 -> write 0, move left, state 0)
        base = 4 * 1 + 2
        idx = 2 * base + 2  # both entries = 2
        assert run_machine(idx, 1, 100) is None

    def test_one_state_outputs_are_single_symbols(self):
        outs = [run_machine(i, 1, KNOWN_STEP_BOUNDS[1]) for i in range(machine_count(1))]
        outs = [o for o in outs if o is not None]
        assert outs and all(o in ("0", "1") for o in outs)


def reference_on(states, step_bound, idx):
    outs = [run_machine(int(i), states, step_bound) for i in idx]
    return Counter(o for o in outs if o is not None), sum(o is not None for o in outs)


def reference_range(states, step_bound, start, stop):
    return reference_on(states, step_bound, range(start, stop))


THREE = machine_count(3)

# The first power of two at or after `states`. Step bounds from 0 to just
# past it cover every step at which a machine halts on blank tape (at most
# `states`) and the first halts after a turn back (from step 3), where a
# machine decided on blank tape one step off would show.
ESCAPE = {states: 1 << (max(states, 2) - 1).bit_length() for states in KNOWN_STEP_BOUNDS}


class TestKernelAgainstReference:
    def test_counts_match_pure_python(self):
        # the lockstep kernel and the reference simulator must agree on the
        # full 2-state ensemble
        states, bound = 2, KNOWN_STEP_BOUNDS[2]
        got = enumerate_range(states, bound, 0, machine_count(states))
        assert got == reference_range(states, bound, 0, machine_count(states))

    @given(st.integers(0, THREE), st.integers(0, 400))
    @example(0, 0)
    @example(0, 1)
    @example(THREE - 1, 1)
    @example(THREE, 0)
    @example(THREE - 400, 400)
    def test_three_state_slices(self, start, length):
        stop = min(start + length, THREE)
        bound = KNOWN_STEP_BOUNDS[3]
        assert enumerate_range(3, bound, start, stop) == reference_range(
            3, bound, start, stop
        )

    def test_slices_across_batches(self, monkeypatch):
        monkeypatch.setattr(machines, "BATCH", 97)
        bound = KNOWN_STEP_BOUNDS[3]
        start, stop = 1_000_000, 1_003_000
        assert enumerate_range(3, bound, start, stop) == reference_range(
            3, bound, start, stop
        )

    def test_step_bound_beyond_int64_outputs(self):
        # a tape wider than 64 cells; every step bound at or above the known
        # one is accepted
        assert enumerate_range(2, 70, 0, 2000) == reference_range(2, 70, 0, 2000)

    def test_regions_longer_than_64_bits(self):
        # a tape row holds its output as marks (1 for bit 1, 2 for bit 0)
        # between unvisited zeros, at any offset
        rng = np.random.default_rng(3)
        outs = ["".join(map(str, rng.integers(0, 2, k))) for k in (100, 64, 65, 1, 300, 1, 64, 63)]
        rows = np.zeros((len(outs) + 1, 310), dtype=np.uint8)
        for i, s in enumerate(outs + [outs[0]]):
            at = 1 + i % 7
            rows[i, at : at + len(s)] = [2 - int(b) for b in s]
        counts = Counter()
        assert _region_counts(rows, counts) == len(outs) + 1
        assert counts == Counter(outs + [outs[0]])
        # leading zeros are kept: "0", "00" and "000" are distinct strings;
        # the counts are added to those already there
        zeros = np.array([[2, 0, 0, 0], [2, 2, 0, 0], [0, 2, 2, 0], [0, 2, 2, 2]], dtype=np.uint8)
        counts = Counter({"00": 5, "1": 1})
        assert _region_counts(zeros, counts) == 4
        assert counts == Counter({"0": 1, "00": 7, "000": 1, "1": 1})
        assert _region_counts(zeros[:0], counts) == 0
        assert counts == Counter({"0": 1, "00": 7, "000": 1, "1": 1})
        # the rows of step bound 0 are one cell wide, and none halts
        assert _region_counts(np.zeros((0, 1), dtype=np.uint8), counts) == 0

    FOUR = machine_count(4)

    @given(st.integers(0, FOUR), st.integers(0, 150))
    @example(0, 150)
    @example(FOUR - 150, 150)
    @example(FOUR // 2, 150)
    def test_four_state_slices(self, start, length):
        stop = min(start + length, self.FOUR)
        bound = KNOWN_STEP_BOUNDS[4]
        assert enumerate_range(4, bound, start, stop) == reference_range(
            4, bound, start, stop
        )

    @pytest.mark.parametrize("states", [1, 2])
    @pytest.mark.parametrize("bound", range(10))
    def test_full_ensembles_at_every_step_bound(self, states, bound):
        # the last step falls on a compaction step (1, 2, 4, 8) and off it
        total = machine_count(states)
        assert enumerate_range(states, bound, 0, total) == reference_range(
            states, bound, 0, total
        )

    @pytest.mark.parametrize("states", [3, 4])
    def test_slices_at_step_bounds_around_the_blank_tape_decisions(self, states):
        # chain halters halt by step `states`, and the first machines that
        # turn back halt at step 3; slices spread over the index range, so
        # that the blank-read digits above the low ones vary too. Bounds
        # 7-9 and 15-17 lie around the compactions after steps 8 and 16,
        # the first that collect halts other than at the last step.
        total = machine_count(states)
        for bound in [*range(ESCAPE[states] + 3), 7, 8, 9, 15, 16, 17]:
            for share in np.linspace(0.05, 0.95, 7):
                start = int(total * share)
                assert enumerate_range(states, bound, start, start + 600) == reference_range(
                    states, bound, start, start + 600
                )

    def test_one_machine_batches(self, monkeypatch):
        monkeypatch.setattr(machines, "BATCH", 1)
        start, stop = 2_000_000, 2_000_600
        assert enumerate_range(3, 21, start, stop) == reference_range(3, 21, start, stop)
        start = machine_count(4) // 3
        assert enumerate_range(4, 107, start, start + 300) == reference_range(
            4, 107, start, start + 300
        )

    def test_slices_where_no_machine_halts(self):
        # indices 2..5: entry (state 0, read 0) writes, moves and returns to
        # state 0, so every machine walks off over blank tape; the machines
        # of the second slice have no halting entry and never step at all
        no_halt_entry = sum(2 * 14**e for e in range(6))
        for start, stop in [(2, 6), (no_halt_entry, no_halt_entry + 12)]:
            assert reference_range(3, 21, start, stop) == (Counter(), 0)
            assert enumerate_range(3, 21, start, stop) == (Counter(), 0)

    def test_step_bound_zero_and_negative(self):
        assert enumerate_range(2, 0, 0, machine_count(2)) == (Counter(), 0)
        with pytest.raises(ValueError):
            enumerate_range(2, -1, 0, 10)

    @pytest.mark.parametrize("start, stop", [(-1, 10), (0, 10_001), (11, 10)])
    def test_invalid_index_range(self, start, stop):
        with pytest.raises(ValueError, match="invalid machine index range"):
            enumerate_range(2, 6, start, stop)

    @pytest.mark.parametrize(
        "states, start, stop",
        [(2, 0, 10_000), (3, 0, 3000), (3, THREE // 2, THREE // 2 + 3000),
         (3, THREE - 3000, THREE)],
    )
    def test_no_stepped_machine_halts_by_step_2(self, states, start, stop):
        # a stepped machine turns back at step 2 or later, so it first reads
        # a cell it wrote at step 3: every halt by step 2 is counted without
        # a step, and the first stepped halts come at step 3
        m = np.arange(start, stop, dtype=np.int64)
        for bound in (1, 2, 3):
            rows, halts = machines._run_batch(states, bound, m)
            assert (len(rows) > 0) == (bound == 3)
            counts = Counter(halts)
            halting = _region_counts(rows, counts) + sum(halts.values())
            assert (counts, halting) == reference_range(states, bound, start, stop)


    @pytest.mark.parametrize(
        "states, start, stop",
        [(2, 0, 10_000), (3, 0, 1500), (3, THREE // 2, THREE // 2 + 1500),
         (3, THREE - 1500, THREE), (4, 0, 1500), (4, FOUR // 2, FOUR // 2 + 1500),
         (4, FOUR - 1500, FOUR)],
    )
    def test_stepped_machines_read_blank_cells_at_steps_1_and_2(self, states, start, stop):
        # the step loop reads no tape at steps 1 and 2: every machine that
        # `_entry_tables` hands it must move off the start cell at step 1
        # and read a cell no step wrote at step 2, walked as `run_machine`
        # walks it
        base, bound = 4 * states + 2, KNOWN_STEP_BOUNDS[states]
        stepped = [
            i for i in range(start, stop)
            if len(machines._entry_tables(states, bound, np.array([i], dtype=np.int64))[3])
        ]
        assert stepped
        for i in stepped:
            entries = [i // base**e % base for e in range(2 * states)]
            tape, head, state = {}, 0, 0
            for _ in range(2):
                assert head not in tape
                v = entries[2 * state]  # the entry for (state, blank)
                assert v >= 2, f"machine {i} halts on its blank read"
                tape[head] = (v - 2) & 1
                head += 1 if (v - 2) & 2 else -1
                state = (v - 2) >> 2


def option(write, right, state):
    """The working option that writes `write`, moves right if `right` (else
    left) and goes to `state`; options 0 and 1 write that bit and halt."""
    return 2 + (write | right << 1 | state << 2)


def index_of(states, entries):
    """Machine index of the table whose entry for (state s, read b) is
    `entries[2 * s + b]`."""
    return sum(int(v) * (4 * states + 2) ** e for e, v in enumerate(entries))


def kernel_on(states, step_bound, idx):
    return machines._run_batches(states, step_bound, [np.array(idx, dtype=np.int64)])


def kernel_on_draws(states, draws, seed):
    """The kernel's counts on `draws` indices from
    `random.Random(seed).randrange`, at most BATCH to a kernel call."""
    rng, total = random.Random(seed), machine_count(states)
    batches = (
        np.array([rng.randrange(total) for _ in range(min(BATCH, draws - a))], dtype=np.int64)
        for a in range(0, draws, BATCH)
    )
    return machines._run_batches(states, KNOWN_STEP_BOUNDS[states], batches)


class TestReductions:
    """Machines decided on blank tape are never stepped: those that halt
    while their head moves one way over blank cells are counted in closed
    form, and escapees (heading one way over blank tape in a cycle of
    states) are dropped. The kernel must still agree with `run_machine`
    machine by machine."""

    @pytest.mark.parametrize(
        "states, cycle, right",
        [(3, [0, 1, 2], 1), (3, [0, 2, 1], 0), (3, [0, 1], 1), (3, [0], 0),
         (4, [0, 3, 1, 2], 0), (4, [0, 1, 2, 3], 1), (4, [0, 2], 1)],
    )
    def test_escapees_never_halt(self, states, cycle, right):
        # the blank entries of the cycle's states move one way round the
        # cycle; every other entry is random, with one read-1 entry halting
        # so that only the blank-tape decision drops the machine. A kernel
        # that recorded the escapees it drops as halted would count them
        # here.
        rng = np.random.default_rng(len(cycle) + 10 * states + right)
        idx = []
        for _ in range(50):
            v = rng.integers(0, 4 * states + 2, 2 * states)
            v[2 * int(rng.integers(states)) + 1] = rng.integers(2)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                v[2 * a] = option(int(rng.integers(2)), right, b)
            idx.append(index_of(states, v))
        bound = KNOWN_STEP_BOUNDS[states]
        assert all(run_machine(i, states, bound) is None for i in idx)
        assert kernel_on(states, bound, idx) == (Counter(), 0)
        # among other machines, the escapees still change nothing
        mixed = idx + list(range(10**6, 10**6 + 300))
        assert kernel_on(states, bound, mixed) == reference_on(states, bound, mixed)

    @pytest.mark.parametrize("right", [1, 0])
    def test_escapees_are_never_stepped(self, monkeypatch, right):
        # 2-state machines that write 1 and move one way over blank tape in
        # the cycle 0 -> 1 -> 0 and halt only on reading a 1 (1509 and 1307
        # among them) are dropped when decoded, so the step loop makes no
        # lookup for them in the `write` table, where it makes one per
        # stepping machine and step. One machine that turns back shows that
        # the lookups are counted.
        idx = [index_of(2, [option(1, right, 1), 0, option(1, right, 0), k]) for k in range(10)]
        assert (1509 if right else 1307) in idx
        assert all(run_machine(i, 2, 6) is None for i in idx)
        turns = index_of(2, [option(1, right, 1), 1, option(1, 1 - right, 0), 0])
        assert run_machine(turns, 2, 6) == "11"
        steps = []

        class Counting(np.ndarray):
            def __getitem__(self, key):
                steps.append(np.size(key))
                return self.view(np.ndarray)[key]

        real = machines._entry_tables

        def counting(*args):
            write, *rest = real(*args)
            return (write.view(Counting), *rest)

        monkeypatch.setattr(machines, "_entry_tables", counting)
        assert kernel_on(2, 6, idx) == (Counter(), 0)
        assert sum(steps) == 0
        assert kernel_on(2, 6, idx + [turns]) == (Counter({"11": 1}), 1)
        assert sum(steps) > 0

    @pytest.mark.parametrize("states", [3, 4])
    def test_near_escapees(self, states):
        # one way over blank tape through states - 1 transitions, then the
        # next blank entry halts, turns back onto the last written cell and
        # halts there, or turns back and goes on at random. A kernel that
        # walked blank tape one step short, or took a turn back at step
        # `states` for an escape, would lose the machines that halt at
        # steps `states` and `states + 1`.
        rng = np.random.default_rng(states)
        idx = []
        for kind in range(300):
            order = [0] + [int(s) for s in rng.permutation(range(1, states))]
            right = int(rng.integers(2))
            v = rng.integers(0, 4 * states + 2, 2 * states)
            bits = [int(b) for b in rng.integers(0, 2, states)]
            if kind % 3 == 1:  # halts on the 1 written at step states - 1
                bits[-2] = 1
            for a, b, bit in zip(order, order[1:], bits):
                v[2 * a] = option(bit, right, b)
            turn_to = int(rng.integers(states))
            v[2 * order[-1]] = bits[-1] if kind % 3 == 0 else option(bits[-1], 1 - right, turn_to)
            if kind % 3 == 1:
                v[2 * turn_to + 1] = rng.integers(2)
            idx.append(index_of(states, v))
        halted = []
        for bound in (states - 1, states, states + 1, KNOWN_STEP_BOUNDS[states]):
            got = kernel_on(states, bound, idx)
            assert got == reference_on(states, bound, idx)
            halted.append(got[1])
        # none halts before step `states`; some halt at it and some just after
        assert halted[0] == 0 < halted[1] < halted[2]

    @pytest.mark.parametrize("states", [1, 2, 3, 4])
    @pytest.mark.parametrize("bound", [0, 1, 2])
    def test_first_transition_halters_only(self, states, bound):
        # index arrays whose every machine halts on its first transition
        # (first digit 0 or 1), so no machine is left to step: a kernel that
        # skipped a batch with nothing to step, or counted at step bound 0,
        # would get these wrong
        base = 4 * states + 2
        rng = np.random.default_rng(bound)
        high = rng.integers(0, machine_count(states) // base, 200) * base
        for idx in (high + rng.integers(0, 2, 200), high, high + 1, high[:1] + 1):
            got = kernel_on(states, bound, idx)
            assert got == reference_on(states, bound, idx)
            assert got[1] == (len(idx) if bound else 0)
            assert_counted_without_a_step(states, bound, idx, got)

    @pytest.mark.parametrize(
        "states, bound", [(s, b) for s in KNOWN_STEP_BOUNDS for b in range(ESCAPE[s] + 2)]
    )
    def test_chain_halters_only(self, states, bound):
        # machines that halt at step j after j - 1 moves one way over blank
        # tape, for every j that `states` states allow (a longer walk over
        # blank tape repeats a state, and cycles): each is counted in
        # closed form from step bound j on, and none is stepped
        rng = np.random.default_rng(states)
        idx, halt_steps = [], []
        for k in range(400):
            j = 1 + k % states
            order = [0] + [int(s) for s in rng.permutation(range(1, states))[: j - 1]]
            right = int(rng.integers(2))
            v = rng.integers(0, 4 * states + 2, 2 * states)
            for a, b in zip(order, order[1:]):
                v[2 * a] = option(int(rng.integers(2)), right, b)
            v[2 * order[-1]] = rng.integers(2)
            idx.append(index_of(states, v))
            halt_steps.append(j)
        got = kernel_on(states, bound, idx)
        assert got == reference_on(states, bound, idx)
        assert got[1] == sum(j <= bound for j in halt_steps)
        assert_counted_without_a_step(states, bound, idx, got)

    @pytest.mark.parametrize("states, bound", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 6), (3, 21)])
    def test_every_count_is_positive(self, states, bound):
        # `Counter ==` ignores zero counts, but a shard checkpoint writes
        # every count it is given: a kernel that counted the closed-form
        # outputs "0" and "1" even when no machine produced them would write
        # "0\t0" lines
        total = machine_count(states)
        for a, b in [(0, min(total, 3000)), (2, 6), (0, 1), (1, 2), (total - 1, total)]:
            counts, halting = enumerate_range(states, bound, a, b)
            assert all(c > 0 for c in counts.values())
            assert sum(counts.values()) == halting
        ones = np.arange(1, min(total, 1400), 4 * states + 2)  # all write 1 and halt
        counts, _ = kernel_on(states, bound, ones)
        assert all(c > 0 for c in counts.values())
        assert all(c > 0 for c in kernel_on_draws(states, 500, seed=bound)[0].values())


def assert_counted_without_a_step(states, step_bound, idx, got):
    """Every machine of `idx` is decided on blank tape: `_entry_tables`
    hands the kernel none to step, and its closed-form counts are the
    kernel's result `got`, as a dict of positive ints."""
    *_, first, halts = machines._entry_tables(states, step_bound, np.array(idx, dtype=np.int64))
    assert len(first) == 0
    assert type(halts) is dict and halts == got[0]
    assert all(type(c) is int and c > 0 for c in halts.values())


def blank_walk(states, blank):
    """The fate of a machine whose entry for (state s, blank) is `blank[s]`,
    walked cell by cell while its head meets only blank cells: its output
    if it halts, "turn" if it reads a cell it wrote, "escape" once its head
    is `states` cells from the start."""
    tape, head, state = {}, 0, 0
    while head not in tape:
        if abs(head) == states:
            return "escape"
        v = blank[state]
        if v < 2:
            tape[head] = v
            return "".join(str(tape[p]) for p in sorted(tape))
        tape[head] = (v - 2) & 1
        head += 1 if (v - 2) & 2 else -1
        state = (v - 2) >> 2
    return "turn"


def test_chains_against_a_walk_of_every_chain_index():
    # `_chains` is indexed by the sum of the entries for (state s, blank)
    # times base ** s: 0 for an escapee, 1 for a machine that turns back,
    # else a leading 1 and the output of a halt on blank tape
    codes = {"escape": 0, "turn": 1}
    for states in KNOWN_STEP_BOUNDS:
        base = 4 * states + 2
        want = []
        for c in range(base**states):
            fate = blank_walk(states, [c // base**s % base for s in range(states)])
            want.append(codes[fate] if fate in codes else int("1" + fate, 2))
        chains = machines._chains(states)
        assert chains.dtype == np.uint8
        assert chains.tolist() == want + [1]  # the absorbing row's entry is stepped


def digit_entry_tables(states, step_bound, m):
    """`_entry_tables` as it decoded before the digit-group tables: one index
    digit at a time, a copy of the mark-0 columns for mark 2, and three flat
    gathers by option value, with each machine's fate on blank tape from
    `blank_walk`."""
    n_entries = 3 * states
    write, move, nxt = machines._option_tables(states)
    v = np.empty((len(m) + 1, n_entries), dtype=np.int64)
    base = 4 * states + 2
    for e in range(2 * states):
        m, r = np.divmod(m, base)
        v[:-1, e + e // 2] = r
    v[:, 2::3] = v[:, ::3]
    v[-1] = [-3, -2, -1] * states
    halts, stepped = Counter(), []
    for i, entries in enumerate(v[:-1].tolist()):
        fate = blank_walk(states, entries[::3])  # the mark-0 columns
        if fate == "turn" and min(entries) < 2:
            stepped.append(i)
        elif fate not in ("turn", "escape") and len(fate) <= step_bound:
            halts[fate] += 1
    v = v.take(stepped + [len(v) - 1], axis=0)
    rows = np.arange(0, v.size, n_entries)
    nxt = nxt[v]
    nxt += rows[:, None]
    np.minimum(nxt, rows[-1], out=nxt)
    return write[v].ravel(), move[v].ravel(), nxt.ravel(), rows[:-1], dict(halts)


class TestEntryTables:
    """`_entry_tables` sums rows of tables indexed by groups of at
    most 3 index digits and decides machines on blank tape from `_chains`;
    it must hand the kernel exactly the machines and tables of the
    per-digit decode and per-machine walk, dtypes included, and the same
    closed-form counts."""

    @staticmethod
    def check(states, step_bound, start, stop):
        m = np.arange(start, stop, dtype=np.int64)
        got = machines._entry_tables(states, step_bound, m)
        want = digit_entry_tables(states, step_bound, m)
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert type(got[4]) is dict and got[4] == want[4]
        assert all(type(c) is int and c > 0 for c in got[4].values())

    @pytest.mark.parametrize("states", [1, 2])
    @pytest.mark.parametrize("bound", [0, 1, 2, 6])
    def test_full_ensembles(self, states, bound):
        self.check(states, bound, 0, machine_count(states))

    @pytest.mark.parametrize("bound", [0, 1, 21])
    def test_three_state_slices_inside_digit_groups(self, bound):
        group = 14**3  # the values of one group of three digits
        for start, stop in [
            (5 * group + 100, 5 * group + 2000),  # inside one value of the high group
            (7 * group - 900, 7 * group + 1300),  # across a step of the high group
            (0, 1), (group - 1, group + 1), (THREE - 1500, THREE),
            (THREE // 3 + 17, THREE // 3 + 17 + 3 * group),
        ]:
            self.check(3, bound, start, stop)

    @pytest.mark.parametrize("bound", [0, 107])
    @pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
    def test_four_state_slices(self, bound, share):
        start = int(machine_count(4) * share)
        self.check(4, bound, start, start + 3000)

    def test_tables_are_small_and_built_on_first_use(self):
        # groups of at most 3 digits: 18**3 rows a group at 4 states, where
        # one table per half of the 8 digits would take about 25 MB; the
        # chain table has one byte per setting of the 4 blank-read entries
        src = Path(machines.__file__).parents[2]
        code = (
            "from marketcomplexity import cli; from marketcomplexity.bdm import machines; "
            "print(machines._group_tables.cache_info().currsize, "
            "machines._chains.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]
        tables, chains = machines._group_tables(4), machines._chains(4)
        assert [len(t) for t in tables[0]] == [18**3 + 1, 18**3 + 1, 18**2 + 1]
        assert chains.dtype == np.uint8 and len(chains) == 18**4 + 1
        assert sum(t.nbytes for group in tables for t in group) + chains.nbytes <= 2 * 2**20


class TestEnumerate:
    def test_deterministic(self, dist2):
        again = enumerate_machines(2)
        assert again.counts == dist2.counts
        assert again.halting == dist2.halting

    def test_shard_invariant(self, dist2):
        sharded = enumerate_machines(2, shards=7)
        assert sharded.counts == dist2.counts
        assert sharded.halting == dist2.halting

    def test_single_bit_dominates_length_four(self, dist2):
        p0 = dist2.probability("0")
        for v in range(16):
            assert p0 > dist2.probability(format(v, "04b"))

    def test_symmetry_closure(self, dist3):
        for s, c in dist3.counts.items():
            comp = "".join("1" if ch == "0" else "0" for ch in s)
            assert dist3.counts[comp] == c
            assert dist3.counts[s[::-1]] == c

    def test_shard_ranges_partition(self):
        ranges = shard_ranges(2, 8)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == machine_count(2)
        for (_, a), (b, _) in zip(ranges, ranges[1:]):
            assert a == b
        # as many shards as machines, the most `shard_ranges` accepts
        assert shard_ranges(1, 36) == [(i, i + 1) for i in range(36)]


class TestSampled:
    @pytest.mark.parametrize(
        "states, draws, seed", [(2, 2 * BATCH + 5, 0), (4, 3000, 0), (4, 3000, 9)]
    )
    def test_matches_reference_loop(self, states, draws, seed):
        # the kernel sees the same random.Random(seed) draws, in the same
        # order, as one run_machine call per draw
        rng = random.Random(seed)
        total = machine_count(states)
        counts = Counter()
        for _ in range(draws):
            out = run_machine(rng.randrange(total), states, KNOWN_STEP_BOUNDS[states])
            if out is not None:
                counts[out] += 1
        assert kernel_on_draws(states, draws, seed) == (counts, sum(counts.values()))

    def test_four_state_counts(self):
        # recorded from the sampled mode of earlier versions, whose tables
        # these counts produced byte for byte
        counts, halting = kernel_on_draws(4, 100_000, seed=9)
        lines = "".join(f"{s}\t{c}\n" for s, c in sorted(symmetrize_counts(counts).items()))
        assert 2 * halting == 53972
        assert hashlib.sha256(lines.encode()).hexdigest() == (
            "1139d9e633c482d81b5cd951fe6e8eba6446cf1a4ea0e985263e95461a90101c"
        )


class TestTableBytes:
    """The tables the kernel's counts produce, byte for byte."""

    @staticmethod
    def sha256(table, tmp_path):
        table.save(tmp_path / "ctm.tsv")
        return hashlib.sha256((tmp_path / "ctm.tsv").read_bytes()).hexdigest()

    def test_three_state_table(self, dist3, tmp_path):
        assert self.sha256(ctm_from_frequency(dist3), tmp_path) == (
            "90a155bf57c262f98c2bc0c07ab6d3db171902f27bbc6cb5a4b1838e422d10a8"
        )


def test_symmetrize_counts_doubles_total():
    raw = {"00": 3, "11": 1, "01": 2}
    sym = symmetrize_counts(raw)
    assert sym["00"] == 4 and sym["11"] == 4
    assert sym["01"] == 2 and sym["10"] == 2
    assert sum(sym.values()) == 2 * sum(raw.values())
