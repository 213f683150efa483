import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity.errors import CodeStreamError
from marketcomplexity.lzw import compressibility, lzw_compress, lzw_decompress


class TestCompress:
    def test_single_byte(self):
        assert lzw_compress(b"A") == [65]

    def test_hand_traced_aaaa(self):
        assert lzw_compress(b"AAAA") == [65, 256, 65]

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            lzw_compress(b"")

    def test_deterministic(self):
        data = b"the quick brown fox" * 3
        assert lzw_compress(data) == lzw_compress(data)


class TestDecompress:
    def test_single_code(self):
        assert lzw_decompress([65]) == b"A"

    def test_inverse_of_hand_trace(self):
        assert lzw_decompress([65, 256, 65]) == b"AAAA"

    def test_impossible_first_code(self):
        with pytest.raises(CodeStreamError):
            lzw_decompress([300])

    def test_future_code_rejected(self):
        with pytest.raises(CodeStreamError):
            lzw_decompress([65, 400])

    @pytest.mark.parametrize("codes", [[-1], [65, -1]])
    def test_negative_code_rejected(self, codes):
        # a negative index would otherwise read the dictionary from the end
        with pytest.raises(CodeStreamError):
            lzw_decompress(codes)

    def test_empty_stream_rejected(self):
        with pytest.raises(CodeStreamError):
            lzw_decompress([])

    def test_kwkwk_case(self):
        # cScSc pattern forces a reference to the entry being defined
        data = b"ABABABA"
        codes = lzw_compress(data)
        assert lzw_decompress(codes) == data
        # confirm the stream really exercises the case
        assert any(c >= 256 for c in codes)


class TestRoundtrip:
    def test_random_kib(self):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=1024, dtype=np.uint8).tobytes()
        assert lzw_decompress(lzw_compress(data)) == data

    @settings(max_examples=200, deadline=None)
    @given(st.binary(min_size=1, max_size=2000))
    def test_property(self, data):
        assert lzw_decompress(lzw_compress(data)) == data

    def test_structured_fixtures(self):
        for data in (
            b"\x00" * 500,
            b"abc" * 400,
            bytes(range(256)) * 4,
            b"A" + b"B" * 999,
            b"ABABABABAB",
        ):
            assert lzw_decompress(lzw_compress(data)) == data


class TestCompressibility:
    def test_repeated_byte_highly_compressible(self):
        assert compressibility(b"z" * 10240) < 0.05

    def test_random_bytes_incompressible(self):
        rng = np.random.default_rng(1)
        ratios = [
            compressibility(rng.integers(0, 256, size=10240, dtype=np.uint8).tobytes())
            for _ in range(20)
        ]
        assert min(ratios) >= 0.9

    def test_two_byte_fixed_width_accounting(self):
        # 2 codes, final dictionary 257 entries -> 9-bit codes
        assert compressibility(b"AB") == pytest.approx(2 * 9 / 16)

    def test_monotone_redundancy(self):
        base = b"pattern!"
        ratios = [compressibility(base * n) for n in (8, 16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
