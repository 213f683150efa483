import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity.entropy import block_entropy, shannon_entropy
from marketcomplexity.errors import SeriesTooShortError


def entropy_oracle(counts):
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts if c)


class TestShannonEntropy:
    def test_single_symbol_zero(self):
        assert shannon_entropy("0000") == 0.0

    def test_uniform_binary(self):
        assert shannon_entropy("0101") == pytest.approx(1.0)

    def test_quarter_distribution(self):
        assert shannon_entropy("0001") == pytest.approx(0.811278, abs=1e-6)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            shannon_entropy("")

    def test_works_on_lists(self):
        assert shannon_entropy([5, 5, 9, 9]) == pytest.approx(1.0)

    @given(st.text(alphabet="01", min_size=1, max_size=200))
    def test_bounded_by_log_alphabet(self, s):
        assert shannon_entropy(s) <= 1.0 + 1e-12

    @given(st.text(alphabet="abcd", min_size=1, max_size=100))
    def test_permutation_invariant(self, s):
        assert shannon_entropy(s) == pytest.approx(
            shannon_entropy("".join(sorted(s))), abs=1e-12
        )

    @given(st.text(alphabet="01", min_size=1, max_size=200))
    def test_matches_counter_oracle(self, s):
        assert shannon_entropy(s) == pytest.approx(
            entropy_oracle(Counter(s).values()), abs=1e-12
        )


class TestBlockEntropy:
    def test_all_zeros(self):
        r = block_entropy("0" * 50, max_block=4)
        assert r.bits == 0.0
        assert r.normalized == 0.0

    def test_max_block_one_equals_shannon(self):
        for s in ("0101", "0011101", "1" * 10, "0100101110"):
            assert block_entropy(s, max_block=1).bits == pytest.approx(
                shannon_entropy(s), abs=1e-12
            )

    def test_alternating_window_enumeration(self):
        s = "01" * 50
        r = block_entropy(s, max_block=2)
        # oracle: enumerate the windows by hand
        h1 = entropy_oracle(Counter(s).values())
        h2 = entropy_oracle(Counter(s[i : i + 2] for i in range(len(s) - 1)).values())
        assert r.bits == pytest.approx(h1 + h2, abs=1e-12)
        assert r.bits == pytest.approx(2.0, abs=1e-3)

    def test_fair_coin_normalized_near_one(self):
        rng = np.random.default_rng(11)
        s = "".join(rng.choice(["0", "1"], size=10**5))
        r = block_entropy(s, max_block=4)
        assert r.normalized == pytest.approx(1.0, abs=0.02)

    def test_too_short_errors(self):
        with pytest.raises(SeriesTooShortError):
            block_entropy("010", max_block=4)

    @given(st.text(alphabet="01", min_size=4, max_size=300))
    def test_normalized_in_unit_interval(self, s):
        r = block_entropy(s, max_block=4)
        assert 0.0 <= r.normalized <= 1.0



def counter_block_bits(text, max_block):
    """Block entropy from a `Counter` of window strings per length."""
    return sum(
        entropy_oracle(Counter(text[j : j + i] for j in range(len(text) - i + 1)).values())
        for i in range(1, max_block + 1)
    )


class TestBlockEntropyBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_counter_oracle(self, data):
        alphabet = data.draw(st.sampled_from(["01", "abcde"]))
        max_block = data.draw(st.integers(1, 10))
        text = data.draw(st.text(alphabet=alphabet, min_size=max_block, max_size=400))
        assert block_entropy(text, max_block).bits == counter_block_bits(text, max_block)

    @pytest.mark.parametrize("max_block", range(1, 11))
    def test_text_as_long_as_max_block(self, max_block):
        for text in ("0110100110"[:max_block], "abcdeedcba"[:max_block]):
            assert block_entropy(text, max_block).bits == counter_block_bits(text, max_block)

    def test_long_walk(self):
        rng = np.random.default_rng(4)
        text = "".join(rng.choice(["0", "1"], size=20_000))
        assert block_entropy(text, 10).bits == counter_block_bits(text, 10)
