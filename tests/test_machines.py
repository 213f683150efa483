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
    sample_machines,
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


class TestReductions:
    """Machines that halt on their first transition are counted without
    being stepped, and escapees (heading one way over blank tape in a cycle
    of states) are dropped once they have moved `states` cells one way. The
    kernel must still agree with `run_machine` machine by machine."""

    @pytest.mark.parametrize(
        "states, cycle, right",
        [(3, [0, 1, 2], 1), (3, [0, 2, 1], 0), (3, [0, 1], 1), (3, [0], 0),
         (4, [0, 3, 1, 2], 0), (4, [0, 1, 2, 3], 1), (4, [0, 2], 1)],
    )
    def test_escapees_never_halt(self, states, cycle, right):
        # the blank entries of the cycle's states move one way round the
        # cycle; every other entry is random, with one read-1 entry halting
        # so that the machine is stepped. A kernel that recorded the
        # escapees it drops as halted would count them here.
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
    def test_escapees_stop_stepping_at_the_escape_compaction(self, monkeypatch, right):
        # 2-state machines that write 1 and move one way over blank tape in
        # the cycle 0 -> 1 -> 0 and halt only on reading a 1 (1509 and 1307
        # among them): each is stepped twice, up to the step-2 compaction,
        # and then dropped instead of running all 6 steps. The count is of
        # lookups in the `write` table, one per stepping machine and step.
        idx = [index_of(2, [option(1, right, 1), 0, option(1, right, 0), k]) for k in range(10)]
        assert (1509 if right else 1307) in idx
        assert all(run_machine(i, 2, 6) is None for i in idx)
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
        assert sum(steps) == 2 * len(idx)

    @pytest.mark.parametrize("states", [3, 4])
    def test_near_escapees(self, states):
        # one way over blank tape through states - 1 transitions, then the
        # next blank entry halts, turns back onto the last written cell and
        # halts there, or turns back and goes on at random. A kernel that
        # dropped escapees one compaction too early (at step 2) would lose
        # the machines that halt at steps `states` and `states + 1`.
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
            # `_entry_tables` hands over the counts of "0" and "1" as two ints
            halts = machines._entry_tables(states, bound, np.array(idx, dtype=np.int64))[-1]
            assert [type(c) for c in halts] == [int, int]
            assert list(halts) == [got[0]["0"], got[0]["1"]]

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
        assert all(c > 0 for c in sample_machines(states, 500, seed=bound).counts.values())


def digit_entry_tables(states, step_bound, m):
    """`_entry_tables` as it decoded before the digit-group tables: one index
    digit at a time, the least option value for the halting test, a copy of
    the mark-0 columns for mark 2, and three flat gathers by option value."""
    n_entries = 3 * states
    write, move, nxt = machines._option_tables(states)
    v = np.empty((len(m) + 1, n_entries), dtype=np.int64)
    least = np.full(len(m), 2)
    base = 4 * states + 2
    for e in range(2 * states):
        m, r = np.divmod(m, base)
        v[:-1, e + e // 2] = r
        if e:
            np.minimum(least, r, out=least)
        else:
            halts = np.bincount(r, minlength=2)[:2].tolist() if step_bound else [0, 0]
    least[v[:-1, 0] < 2] = 2
    v[:, 2::3] = v[:, ::3]
    v[-1] = [-3, -2, -1] * states
    v = v.take(np.append(np.flatnonzero(least < 2), len(least)), axis=0)
    rows = np.arange(0, v.size, n_entries)
    nxt = nxt[v]
    nxt += rows[:, None]
    np.minimum(nxt, rows[-1], out=nxt)
    return write[v].ravel(), move[v].ravel(), nxt.ravel(), rows[:-1], halts


class TestEntryTables:
    """`_entry_tables` ors together rows of tables indexed by groups of at
    most 3 index digits; it must hand the kernel exactly what the per-digit
    decode did, dtypes included."""

    @staticmethod
    def check(states, step_bound, start, stop):
        m = np.arange(start, stop, dtype=np.int64)
        got = machines._entry_tables(states, step_bound, m)
        want = digit_entry_tables(states, step_bound, m)
        for g, w in zip(got[:4], want[:4]):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert got[4] == want[4] and [type(c) for c in got[4]] == [int, int]

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
        # one table per half of the 8 digits would take about 25 MB
        src = Path(machines.__file__).parents[2]
        code = (
            "from marketcomplexity import cli; from marketcomplexity.bdm import machines; "
            "print(machines._group_tables.cache_info().currsize)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env={"PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]
        *tables, first = machines._group_tables(4)
        assert [len(t) for t in tables[0]] == [18**3 + 1, 18**3 + 1, 18**2 + 1]
        assert sum(t.nbytes for group in tables for t in group) + first.nbytes <= 2 * 2**20


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


class TestSampled:
    @pytest.mark.parametrize(
        "states, budget, seed", [(2, 2 * BATCH + 5, 0), (4, 3000, 0), (4, 3000, 9)]
    )
    def test_matches_reference_loop(self, states, budget, seed):
        # the kernel path sees the same random.Random(seed) draws, in the
        # same order, as one run_machine call per draw
        rng = random.Random(seed)
        total = machine_count(states)
        counts = Counter()
        for _ in range(budget):
            out = run_machine(rng.randrange(total), states, KNOWN_STEP_BOUNDS[states])
            if out is not None:
                counts[out] += 1
        got = sample_machines(states, budget, seed=seed)
        assert got.counts == symmetrize_counts(counts)
        assert got.halting == 2 * sum(counts.values())
        assert got.machines == budget and got.step_bound == KNOWN_STEP_BOUNDS[states]

    def test_reproducible(self):
        a = sample_machines(4, budget=2000, seed=9)
        b = sample_machines(4, budget=2000, seed=9)
        assert a.counts == b.counts
        assert not a.exhaustive

    def test_different_seed_differs(self):
        a = sample_machines(4, budget=2000, seed=1)
        b = sample_machines(4, budget=2000, seed=2)
        assert a.counts != b.counts


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

    def test_sampled_four_state_table(self, tmp_path):
        # recorded before the kernel decoded through option lookup tables
        dist = sample_machines(4, 20_000, seed=9)
        assert self.sha256(ctm_from_frequency(dist), tmp_path) == (
            "6d56260c310edd2d6be0ede78abb7109e6e1f1184a0487137f6adf62b918a09b"
        )


def test_symmetrize_counts_doubles_total():
    raw = {"00": 3, "11": 1, "01": 2}
    sym = symmetrize_counts(raw)
    assert sym["00"] == 4 and sym["11"] == 4
    assert sym["01"] == 2 and sym["10"] == 2
    assert sum(sym.values()) == 2 * sum(raw.values())
