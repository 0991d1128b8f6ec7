"""Rank/select bitvector with o(n) extra space.

The bit array is stored in 64-bit words (numpy) with a per-word
cumulative popcount directory, so ``rank`` is one directory lookup plus
one masked popcount, and ``select`` is a directory search followed by a
byte-table scan.  This is the building block for the succinct tree of
:mod:`repro.index.succinct` (substituting for [18]).

Construction is vectorized (``np.packbits`` + cumulative popcounts), and
the inner loops of ``select1``/``select0`` step one *byte* at a time
through precomputed 8-bit popcount/select tables instead of one bit at a
time -- the word-parallel counterpart of the C implementations the paper
builds on.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

_WORD = 64

# -- 8-bit lookup tables (bit i of a byte = global position base + i) -------

_BYTE_CNT = tuple(bin(b).count("1") for b in range(256))
_SELECT_IN_BYTE = tuple(
    tuple(i for i in range(8) if (b >> i) & 1) for b in range(256)
)


def _popcount64(words: np.ndarray) -> np.ndarray:
    """Vectorized popcount over a uint64 array."""
    x = words.copy()
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


class BitVector:
    """Static bitvector supporting O(1)-ish rank and fast select.

    ``rank1(i)`` counts ones in ``bits[0:i]`` (exclusive prefix count);
    ``select1(k)`` returns the position of the k-th one (0-based).

    ``bits`` may be any iterable of truthy values; a ``np.ndarray`` or
    ``bytes`` of 0/1 values takes the vectorized construction fast path.
    """

    def __init__(self, bits: Union[Iterable[bool], np.ndarray, bytes]) -> None:
        if isinstance(bits, np.ndarray):
            arr = (bits != 0).astype(np.uint8) if bits.dtype != np.uint8 else bits
        elif isinstance(bits, (bytes, bytearray)):
            arr = np.frombuffer(bytes(bits), dtype=np.uint8)
        else:
            arr = np.array([1 if b else 0 for b in bits], dtype=np.uint8)
        self.n = int(arr.size)
        nwords = (self.n + _WORD - 1) // _WORD or 1
        packed = np.packbits(arr, bitorder="little")
        if packed.size < nwords * 8:
            packed = np.concatenate(
                [packed, np.zeros(nwords * 8 - packed.size, dtype=np.uint8)]
            )
        # Little-endian view: bit i of word w is global bit w*64 + i.
        self._words = packed.view(np.dtype("<u8"))
        # Plain-int byte mirror for the byte-at-a-time scan loops (small
        # ints are interned, so this is one pointer per 8 bits).
        self._bytes = packed.tolist()
        counts = _popcount64(self._words)
        # Per-word cumulative counts (rank is a single subtraction).
        self._word_prefix = np.concatenate(
            ([0], np.cumsum(counts.astype(np.int64)))
        )
        # Zero directory: cumulative zeros before each word (select0
        # reads it directly instead of binary-searching rank0).
        self._zero_word_prefix = (
            np.arange(nwords + 1, dtype=np.int64) * _WORD - self._word_prefix
        )
        self.total_ones = int(self._word_prefix[-1])

    def __len__(self) -> int:
        return self.n

    def get(self, i: int) -> int:
        """The bit at position ``i``."""
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self._bytes[i >> 3] >> (i & 7)) & 1

    def rank1(self, i: int) -> int:
        """Number of ones in positions ``[0, i)``."""
        if i <= 0:
            return 0
        if i > self.n:
            i = self.n
        w, r = divmod(i, _WORD)
        count = int(self._word_prefix[w])
        if r:
            mask = (1 << r) - 1
            count += (int(self._words[w]) & mask).bit_count()
        return count

    def rank0(self, i: int) -> int:
        """Number of zeros in positions ``[0, i)``."""
        if i <= 0:
            return 0
        if i > self.n:
            i = self.n
        return i - self.rank1(i)

    def select1(self, k: int) -> int:
        """Position of the k-th one (0-based); raises on out of range."""
        if not 0 <= k < self.total_ones:
            raise IndexError(f"select1({k}) of {self.total_ones} ones")
        # Locate the word through the prefix directory, then step bytes.
        w = int(np.searchsorted(self._word_prefix, k + 1, side="left")) - 1
        remaining = k - int(self._word_prefix[w])
        bts = self._bytes
        bi = w * 8
        while True:
            b = bts[bi]
            c = _BYTE_CNT[b]
            if remaining < c:
                return (bi << 3) + _SELECT_IN_BYTE[b][remaining]
            remaining -= c
            bi += 1

    def select0(self, k: int) -> int:
        """Position of the k-th zero (0-based).

        Reads the zero directory directly (one ``searchsorted``), then
        steps bytes with the complemented select table -- no rank0
        binary-search probes.
        """
        total_zeros = self.n - self.total_ones
        if not 0 <= k < total_zeros:
            raise IndexError(f"select0({k}) of {total_zeros} zeros")
        w = int(np.searchsorted(self._zero_word_prefix, k + 1, side="left")) - 1
        remaining = k - int(self._zero_word_prefix[w])
        bts = self._bytes
        bi = w * 8
        while True:
            b = bts[bi] ^ 0xFF
            c = _BYTE_CNT[b]
            if remaining < c:
                return (bi << 3) + _SELECT_IN_BYTE[b][remaining]
            remaining -= c
            bi += 1
