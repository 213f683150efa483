import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from marketcomplexity.errors import CodeStreamError
from marketcomplexity.lzw import compressibility, lzw_compress, lzw_decompress


def compress_oracle(data: bytes) -> list[int]:
    """Greedy LZW with a dictionary keyed by (prefix code, next byte)."""
    table: dict[tuple[int, int], int] = {}
    next_code = 256
    codes = []
    current = data[0]
    for byte in data[1:]:
        key = (current, byte)
        code = table.get(key)
        if code is not None:
            current = code
        else:
            codes.append(current)
            table[key] = next_code
            next_code += 1
            current = byte
    codes.append(current)
    return codes


def decompress_oracle(codes: list[int]) -> bytes:
    """LZW decoding one code at a time, with the KwKwK case and the
    position checks."""
    if len(codes) == 0:
        raise CodeStreamError("empty code stream")
    entries: list[bytes] = [bytes([i]) for i in range(256)]
    first = codes[0]
    if not 0 <= first < 256:
        raise CodeStreamError(f"impossible first code {first}")
    out = bytearray(entries[first])
    prev = entries[first]
    for code in codes[1:]:
        if 0 <= code < len(entries):
            current = entries[code]
        elif code == len(entries):
            current = prev + prev[:1]  # KwKwK
        else:
            raise CodeStreamError(f"code {code} cannot exist at its position")
        out += current
        entries.append(prev + current[:1])
        prev = current
    return bytes(out)


KWKWK_FIXTURES = [
    b"ABABABA",
    b"ABABABABAB",
    b"A" * 1000,
    b"AAAABBBB" * 64,
    b"\x00" * 500,
    b"abc" * 400,
    bytes(range(256)) * 4,
    b"A" + b"B" * 999,
    b"\x00",
]


def assert_same_as_oracles(data: bytes) -> None:
    codes = lzw_compress(data)
    assert codes == compress_oracle(data)
    assert lzw_decompress(codes) == decompress_oracle(codes) == data


def decode_error(decode, codes) -> str:
    with pytest.raises(CodeStreamError) as exc:
        decode(codes)
    return str(exc.value)


class TestOracleEquivalence:
    """The trie compressor and the array decoder against the tuple-keyed
    and per-code loops they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([b"a", b"ab", b"abc", b"\x00\xff", b"0123456789,."]).flatmap(
            lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1, max_size=5000)
        )
    )
    def test_low_entropy_alphabets(self, symbols):
        assert_same_as_oracles(bytes(symbols))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=400))
    def test_comma_joined_float_text(self, xs):
        assert_same_as_oracles(",".join(map(repr, xs)).encode("ascii"))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=600))
    def test_any_valid_stream(self, fractions):
        # streams no compressor emits (codes left unused, KwKwK anywhere)
        # still decode to the oracle's bytes
        codes = [int(f * (256 + i)) for i, f in enumerate(fractions)]
        assert lzw_decompress(codes) == decompress_oracle(codes)


# a code at position i is valid iff 0 <= code <= 255 + i
_BAD = [
    lambda i: -1,
    lambda i: 256 + i,  # one past the limit
    lambda i: 256 + i + 10**6,
    lambda i: 2**63,
    lambda i: -(2**63) - 1,
    lambda i: 2**70,
    lambda i: -(2**70),
]


class TestCorruptedStreams:
    @pytest.mark.parametrize("bad", range(len(_BAD)))
    @pytest.mark.parametrize("at", [0, 1, 5])
    def test_single_bad_code(self, bad, at):
        codes = lzw_compress(b"ABABABABAB" * 3)
        codes[at] = _BAD[bad](at)
        assert decode_error(lzw_decompress, codes) == decode_error(decompress_oracle, codes)

    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(min_size=1, max_size=400),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, len(_BAD) - 1)),
            min_size=1,
            max_size=3,
        ),
    )
    def test_first_bad_code_wins(self, data, corruptions):
        codes = lzw_compress(data)
        for where, bad in corruptions:
            at = where % len(codes)
            codes[at] = _BAD[bad](at)
        assert decode_error(lzw_decompress, codes) == decode_error(decompress_oracle, codes)


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

    @settings(max_examples=300, deadline=None)
    @given(st.binary(min_size=1, max_size=3000))
    def test_property(self, data):
        assert_same_as_oracles(data)

    def test_structured_fixtures(self):
        for data in KWKWK_FIXTURES:
            assert_same_as_oracles(data)


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

    def test_empty_errors(self):
        with pytest.raises(ValueError, match="cannot measure empty input"):
            compressibility(b"")

    def test_two_byte_fixed_width_accounting(self):
        # 2 codes, final dictionary 257 entries -> 9-bit codes
        assert compressibility(b"AB") == pytest.approx(2 * 9 / 16)

    def test_monotone_redundancy(self):
        base = b"pattern!"
        ratios = [compressibility(base * n) for n in (8, 16, 32, 64, 128)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
