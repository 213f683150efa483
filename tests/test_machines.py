from collections import Counter

import hashlib
import random

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
    run_machine,
    sample_machines,
    shard_ranges,
    symmetrize_counts,
)


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


def reference_range(states, step_bound, start, stop):
    counts = Counter()
    halting = 0
    for i in range(start, stop):
        out = run_machine(i, states, step_bound)
        if out is not None:
            counts[out] += 1
            halting += 1
    return counts, halting


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
        expected = Counter(outs + [outs[0]])
        assert _region_counts(rows) == (expected, len(outs) + 1)
        # leading zeros are kept: "0", "00" and "000" are distinct strings
        zeros = np.array([[2, 0, 0, 0], [2, 2, 0, 0], [0, 2, 2, 0], [0, 2, 2, 2]], dtype=np.uint8)
        assert _region_counts(zeros) == (Counter({"0": 1, "00": 2, "000": 1}), 4)
        assert _region_counts(zeros[:0]) == (Counter(), 0)

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
