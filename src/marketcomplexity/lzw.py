"""LZW lossless codec and the compressibility ratio built on it.

The compressor starts from the 256 single-byte dictionary, grows it without
bound, and emits one integer code per greedy longest match. Compressed size
is accounted with a fixed code width of ceil(log2(final dictionary size)),
so the ratio can exceed 1 on short incompressible inputs.

The compressor walks a trie held in a list indexed by code: each slot is
that node's `byte -> code` dict, or None until the node gains its first
child. The decoder works on whole arrays. Entry 256 + j is the string of
`codes[j]` plus the first byte of the string of `codes[j + 1]`, so every
entry's parent is known up front; pointer doubling over parents gives each
entry's length and first byte, and the output is filled backwards from
each code's end, one trie level per step.
"""

from __future__ import annotations

from math import ceil, log2

import numpy as np

from .errors import CodeStreamError

INITIAL_DICT_SIZE = 256
_BYTES = np.arange(INITIAL_DICT_SIZE, dtype=np.int64)


def lzw_compress(data: bytes) -> list[int]:
    """Greedy longest-match LZW over raw bytes."""
    if len(data) == 0:
        raise ValueError("cannot compress empty input")
    # children[code] maps a next byte to the code of the longer match
    children: list[dict[int, int] | None] = [None] * INITIAL_DICT_SIZE
    codes: list[int] = []
    append = codes.append
    it = iter(data)
    current = next(it)
    kids = None
    for byte in it:
        if kids is not None:
            code = kids.get(byte)
            if code is not None:
                current = code
                kids = children[code]
                continue
            kids[byte] = len(children)
        else:
            children[current] = {byte: len(children)}
        append(current)
        children.append(None)
        current = byte
        kids = children[byte]
    append(current)
    return codes


def lzw_decompress(codes: list[int]) -> bytes:
    """Inverse of lzw_compress, including the KwKwK case where a code
    references the entry being built. Rejects any code that no compressor
    output could hold at its position."""
    n = len(codes)
    if n == 0:
        raise CodeStreamError("empty code stream")
    try:
        c = np.fromiter(codes, dtype=np.int64, count=n)
    except OverflowError:  # beyond int64, so invalid; compare exactly
        c = np.array(codes, dtype=object)
    # the code at position i can name any of the 256 + i - 1 entries so far,
    # or the one being built; the first code must be a single byte
    bad = (c < 0) | (c > np.arange(INITIAL_DICT_SIZE - 1, INITIAL_DICT_SIZE - 1 + n))
    if bad.any():
        i = int(bad.argmax())
        if i == 0:
            raise CodeStreamError(f"impossible first code {codes[0]}")
        raise CodeStreamError(f"code {codes[i]} cannot exist at its position")
    parent = np.concatenate((_BYTES, c[:-1]))  # single bytes are their own roots
    root = parent.copy()
    depth = np.zeros(len(parent), dtype=np.int64)
    depth[INITIAL_DICT_SIZE:] = 1
    up = root[INITIAL_DICT_SIZE:]
    # pointer doubling; it ends because every parent precedes its entry
    while up.max(initial=0) >= INITIAL_DICT_SIZE:
        depth[INITIAL_DICT_SIZE:] += depth[up]
        up[:] = root[up]
    last = np.concatenate((_BYTES, root[c[1:]]))
    lengths = depth[c] + 1
    ends = np.cumsum(lengths) - 1
    out = np.empty(int(ends[-1]) + 1, dtype=np.uint8)
    out[ends] = last[c]
    multi = np.flatnonzero(lengths > 1)
    if len(multi):
        order = multi[np.argsort(-lengths[multi])]
        node, pos = parent[c[order]], ends[order]
        # level t fills the codes longer than t, a prefix of `order`
        active = np.searchsorted(-lengths[order], -np.arange(2, lengths[order[0]] + 1), "right")
        for t, k in enumerate(active.tolist(), 1):
            out[pos[:k] - t] = last[node[:k]]
            node[:k] = parent[node[:k]]
    return out.tobytes()


def compressibility(data: bytes) -> float:
    """Compressed bits over original bits; lower means more structure."""
    if len(data) == 0:
        raise ValueError("cannot measure empty input")
    n = len(lzw_compress(data))
    # one dictionary entry is added per code except the final flush
    width = ceil(log2(INITIAL_DICT_SIZE + n - 1))
    return n * width / (8 * len(data))
