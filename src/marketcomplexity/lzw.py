"""LZW lossless codec and the compressibility ratio built on it.

The compressor starts from the 256 single-byte dictionary, grows it without
bound, and emits one integer code per greedy longest match. Compressed size
is accounted with a fixed code width of ceil(log2(final dictionary size)),
so the ratio can exceed 1 on short incompressible inputs.
"""

from __future__ import annotations

from math import ceil, log2

from .errors import CodeStreamError

INITIAL_DICT_SIZE = 256


def lzw_compress(data: bytes) -> list[int]:
    """Greedy longest-match LZW over raw bytes."""
    if len(data) == 0:
        raise ValueError("cannot compress empty input")
    # dictionary keyed by (prefix code, next byte); single bytes are implicit
    table: dict[tuple[int, int], int] = {}
    next_code = INITIAL_DICT_SIZE
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


def lzw_decompress(codes: list[int]) -> bytes:
    """Inverse of lzw_compress, including the KwKwK case where a code
    references the entry being built. Rejects any code that no compressor
    output could hold at its position."""
    if len(codes) == 0:
        raise CodeStreamError("empty code stream")
    entries: list[bytes] = [bytes([i]) for i in range(INITIAL_DICT_SIZE)]
    first = codes[0]
    if not 0 <= first < INITIAL_DICT_SIZE:
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


def compressibility(data: bytes) -> float:
    """Compressed bits over original bits; lower means more structure."""
    if len(data) == 0:
        raise ValueError("cannot measure empty input")
    n = len(lzw_compress(data))
    # one dictionary entry is added per code except the final flush
    width = ceil(log2(INITIAL_DICT_SIZE + n - 1))
    return n * width / (8 * len(data))
