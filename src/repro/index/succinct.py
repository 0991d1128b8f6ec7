"""Balanced-parentheses succinct tree (substitute for Sadakane–Navarro [18]).

The paper's engine avoids pointer structures (5-10x memory blow-up) by
running over succinct trees.  This module implements the classical
balanced-parentheses (BP) representation with a block-accelerated
excess-search structure (a flat cousin of the range-min-max tree):

- the tree topology is the DFS parenthesis sequence stored in a
  :class:`~repro.index.bitvector.BitVector` (``(`` = 1, ``)`` = 0),
- per-block excess summaries (total delta, min, max) let ``findclose`` /
  ``enclose`` skip whole blocks, and within candidate blocks the scans
  advance one *byte* at a time through precomputed 8-bit excess tables
  (total / min-prefix / min- and max-suffix excess per byte value) --
  the word-parallel technique of the C implementations, at Python scale;
- node ids are preorder numbers, so they coincide with the ids used by
  :class:`~repro.tree.binary.BinaryTree` and the two backends are
  interchangeable behind the navigation API.

This is a faithful functional substitute: same operation set, same
asymptotics at the API level; absolute constants obviously differ from the
authors' C++.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.index.bitvector import BitVector
from repro.tree.binary import NIL, BinaryTree
from repro.tree.document import XMLDocument

_BLOCK = 256  # bits per excess-summary block

# -- 8-bit excess tables (bit i of a byte = BP position base + i) -----------
# For each byte value: the total excess over its 8 bits, the minimum
# excess over its non-empty prefixes, and the min/max excess over its
# non-empty suffixes (scanning backwards).

_B_EXC = [0] * 256
_B_MINPRE = [0] * 256
_B_MINSUF = [0] * 256
_B_MAXSUF = [0] * 256
for _b in range(256):
    _e = 0
    _mn = 8
    for _k in range(8):
        _e += 1 if (_b >> _k) & 1 else -1
        if _e < _mn:
            _mn = _e
    _B_EXC[_b] = _e
    _B_MINPRE[_b] = _mn
    _s = 0
    _mns = 8
    _mxs = -8
    for _k in range(7, -1, -1):
        _s += 1 if (_b >> _k) & 1 else -1
        if _s < _mns:
            _mns = _s
        if _s > _mxs:
            _mxs = _s
    _B_MINSUF[_b] = _mns
    _B_MAXSUF[_b] = _mxs
del _b, _e, _mn, _k, _s, _mns, _mxs


class SuccinctTree:
    """BP-encoded ordinal tree with firstChild/nextSibling/parent/subtree ops."""

    def __init__(self, parens, label_of, labels: list[str]) -> None:
        bits = np.asarray(parens, dtype=np.uint8)
        if int(bits.size) != 2 * len(label_of):
            raise ValueError("parenthesis sequence length must be 2 * #nodes")
        self.bv = BitVector(bits)
        self.n = len(label_of)
        self.labels = labels
        self.label_ids = {name: i for i, name in enumerate(labels)}
        self.label_of = label_of
        self._build_excess_blocks(bits)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_document(cls, doc: XMLDocument) -> "SuccinctTree":
        """Encode an XML document's element skeleton."""
        return cls.from_binary(BinaryTree.from_document(doc))

    @classmethod
    def from_binary(cls, tree: BinaryTree) -> "SuccinctTree":
        """Re-encode an existing pointer tree (shares label interning order).

        Node ``v`` opens after the ``v`` opens of the nodes before it and
        the closes of every subtree that ended by then, i.e. at
        ``v + #{u : xml_end[u] <= v}``; every other position is a close.
        """
        n = tree.n
        xml_end = tree._columns["xml_end"]
        closed_before = np.cumsum(np.bincount(xml_end, minlength=n + 1))[:n]
        parens = np.zeros(2 * n, dtype=np.uint8)
        parens[np.arange(n, dtype=np.int64) + closed_before] = 1
        return cls(parens, tree._columns["label_of"], list(tree.labels))

    def height(self) -> int:
        """Maximum depth over all nodes (the root has depth 0): the
        largest excess of the parenthesis sequence, less the root's own."""
        peaks = self._block_max + self._block_start_excess[:-1]
        return int(peaks.max()) - 1

    def _build_excess_blocks(self, bits: np.ndarray) -> None:
        m = int(bits.size)
        nblocks = (m + _BLOCK - 1) // _BLOCK or 1
        deltas = np.zeros(nblocks * _BLOCK, dtype=np.int64)
        deltas[:m] = bits.astype(np.int64) * 2 - 1
        cum = np.cumsum(deltas).reshape(nblocks, _BLOCK)
        starts = np.zeros(nblocks + 1, dtype=np.int64)
        starts[1:] = cum[:, -1]
        # (Padding repeats the final excess, which never tightens min/max.)
        self._block_total = starts[1:] - starts[:-1]
        self._block_min = cum.min(axis=1) - starts[:-1]
        self._block_max = cum.max(axis=1) - starts[:-1]
        self._block_start_excess = starts
        self._m = m

    # -- excess machinery ---------------------------------------------------

    def _excess(self, i: int) -> int:
        """Excess of the prefix ``parens[0:i]``."""
        return 2 * self.bv.rank1(i) - i

    def _bit(self, i: int) -> int:
        return self.bv.get(i)

    def findclose(self, p: int) -> int:
        """Position of the ``)`` matching the ``(`` at position ``p``."""
        bts = self.bv._bytes
        if not (bts[p >> 3] >> (p & 7)) & 1:
            raise ValueError(f"position {p} is not an opening parenthesis")
        target = self._excess(p)  # excess returns to this level after match
        m = self._m
        # Bit-scan the rest of p's byte.
        cur = target + 1
        j = p + 1
        stop = min((p >> 3) * 8 + 8, m)
        while j < stop:
            cur += 1 if (bts[j >> 3] >> (j & 7)) & 1 else -1
            if cur == target:
                return j
            j += 1
        # Byte-scan the rest of p's block through the excess tables.
        block = p // _BLOCK
        hit = self._scan_fwd(j >> 3, min((block + 1) * _BLOCK, m + 7) >> 3, cur, target)
        if hit >= 0:
            if hit < m:
                return hit
            raise ValueError(f"unbalanced parentheses: no close for {p}")
        # Jump over blocks whose min excess stays above target.
        bse = self._block_start_excess
        bmin = self._block_min
        nblocks = len(self._block_total)
        b = block + 1
        while b < nblocks:
            start_exc = int(bse[b])
            if start_exc + int(bmin[b]) <= target:
                hit = self._scan_fwd(
                    (b * _BLOCK) >> 3,
                    min((b + 1) * _BLOCK, m + 7) >> 3,
                    start_exc,
                    target,
                )
                if 0 <= hit < m:
                    return hit
            b += 1
        raise ValueError(f"unbalanced parentheses: no close for {p}")

    def _scan_fwd(self, bi: int, bhi: int, cur: int, target: int) -> int:
        """First position in bytes ``[bi, bhi)`` where the running excess
        (``cur`` at byte ``bi``'s start) drops to ``target``; -1 if none."""
        bts = self.bv._bytes
        minpre = _B_MINPRE
        exc = _B_EXC
        while bi < bhi:
            b = bts[bi]
            if cur + minpre[b] <= target:
                base = bi << 3
                for k in range(8):
                    cur += 1 if (b >> k) & 1 else -1
                    if cur == target:
                        return base + k
            else:
                cur += exc[b]
            bi += 1
        return -1

    def enclose(self, p: int) -> int:
        """Opening position of the smallest pair strictly enclosing ``p``."""
        bts = self.bv._bytes
        if not (bts[p >> 3] >> (p & 7)) & 1:
            raise ValueError(f"position {p} is not an opening parenthesis")
        target = self._excess(p) - 1  # excess just before the enclosing '('
        if target < 0:
            return -1
        # Bit-scan backwards to p's byte boundary.
        cur = target + 1  # excess of prefix [0, p)... plus the scan invariant
        j = p - 1
        byte_start = (p >> 3) * 8
        while j >= byte_start:
            bit = (bts[j >> 3] >> (j & 7)) & 1
            prev = cur - (1 if bit else -1)
            if prev == target and bit:
                return j
            cur = prev
            j -= 1
        # Byte-scan backwards through p's block.
        block = p // _BLOCK
        hit = self._scan_bwd((byte_start >> 3) - 1, (block * _BLOCK) >> 3, cur, target)
        if hit >= 0:
            return hit
        # Block jumps: only blocks whose interior excess window reaches
        # the target are scanned; a block whose *start* excess alone
        # matches cannot contain the answer anywhere but its first
        # position, which is checked in O(1) (no scan).
        bse = self._block_start_excess
        bmin = self._block_min
        bmax = self._block_max
        b = block - 1
        while b >= 0:
            start_exc = int(bse[b])
            if start_exc + int(bmin[b]) <= target <= start_exc + int(bmax[b]):
                hit = self._scan_bwd(
                    (((b + 1) * _BLOCK) >> 3) - 1,
                    (b * _BLOCK) >> 3,
                    int(bse[b + 1]),
                    target,
                )
                if hit >= 0:
                    return hit
            elif start_exc == target:
                pos = b * _BLOCK
                if (bts[pos >> 3] >> (pos & 7)) & 1:
                    return pos
            b -= 1
        return -1

    def _scan_bwd(self, bi: int, blo: int, cur: int, target: int) -> int:
        """Last position in bytes ``[blo, bi]`` whose preceding excess is
        ``target`` at an opening parenthesis; ``cur`` is the running
        excess at byte ``bi``'s *end*.  Returns -1 if none."""
        bts = self.bv._bytes
        minsuf = _B_MINSUF
        maxsuf = _B_MAXSUF
        exc = _B_EXC
        while bi >= blo:
            b = bts[bi]
            if cur - maxsuf[b] <= target <= cur - minsuf[b]:
                base = bi << 3
                c2 = cur
                for k in range(7, -1, -1):
                    bit = (b >> k) & 1
                    prev = c2 - (1 if bit else -1)
                    if prev == target and bit:
                        return base + k
                    c2 = prev
            cur -= exc[b]
            bi -= 1
        return -1

    # -- node <-> position mapping ------------------------------------------

    def open_pos(self, v: int) -> int:
        """BP position of the opening parenthesis of node ``v``."""
        return self.bv.select1(v)

    def node_at(self, pos: int) -> int:
        """Preorder id of the node whose ``(`` is at ``pos``."""
        return self.bv.rank1(pos)

    # -- navigation (BinaryTree-compatible surface) ---------------------------

    def label(self, v: int) -> str:
        """Element name of node ``v``."""
        return self.labels[self.label_of[v]]

    def first_child(self, v: int) -> int:
        p = self.open_pos(v)
        if p + 1 < self._m and self._bit(p + 1) == 1:
            return v + 1
        return NIL

    def next_sibling(self, v: int) -> int:
        close = self.findclose(self.open_pos(v))
        if close + 1 < self._m and self._bit(close + 1) == 1:
            return self.node_at(close + 1)
        return NIL

    def parent(self, v: int) -> int:
        enc = self.enclose(self.open_pos(v))
        return NIL if enc < 0 else self.node_at(enc)

    def subtree_size(self, v: int) -> int:
        """Number of nodes in the XML subtree of ``v``."""
        p = self.open_pos(v)
        return (self.findclose(p) - p + 1) // 2

    def xml_end(self, v: int) -> int:
        """Exclusive end of the contiguous preorder id range of ``v``."""
        return v + self.subtree_size(v)

    def is_leaf(self, v: int) -> bool:
        return self.first_child(v) == NIL

    def to_binary(self) -> BinaryTree:
        """Materialize the pointer representation (same preorder ids).

        The engines' hot loops index pointer arrays; this adapter lets a
        document stored succinctly be queried by them, demonstrating that
        the two backends are interchangeable (and what the pointer
        blow-up buys).  The parenthesis sequence is unpacked and the
        tree derives its columns from it, as every constructor does.
        """
        parens = np.unpackbits(
            self.bv._words.view(np.uint8), count=self._m, bitorder="little"
        )
        return BinaryTree(list(self.labels), self.label_of, parens)

    def __len__(self) -> int:
        return self.n

    # -- memory accounting (for the storage ablation bench) -------------------

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the topology structures."""
        total = self.bv._words.nbytes
        total += self.bv._word_prefix.nbytes
        total += self.bv._zero_word_prefix.nbytes
        total += len(self.bv._bytes) * 8  # byte-mirror (interned-int refs)
        total += (
            self._block_total.nbytes
            + self._block_min.nbytes
            + self._block_max.nbytes
            + self._block_start_excess.nbytes
        )
        # Label array: one small int per node.
        total += 4 * self.n
        return total

    @staticmethod
    def pointer_memory_bytes(tree: BinaryTree) -> int:
        """Approximate bytes of the pointer representation, for contrast:
        the six plain-``int`` list mirrors an automaton strategy indexes
        (left, right, parent, bparent, xml_end, label_of) at one CPython
        reference per cell, plus the one pool of ``int`` objects they
        share.  The three numpy columns under them are another ``3 * 4n``
        bytes (mapped from the bundle file when store-backed; the links
        are derived for their mirrors) and are all a kernel-only reader
        ever holds."""
        lists = 6 * (sys.getsizeof([]) + 8 * tree.n)
        pool = (tree.n + 2) * (8 + sys.getsizeof(1 << 20))
        return lists + pool
