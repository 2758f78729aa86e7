"""Binary matrices with fixed marginals: feasibility, counting, enumeration.

An instance is a pair of marginal vectors (row sums, column sums).
Feasibility is the Gale-Ryser condition; `count`, the one counter, peels the
more numerous lines in a memoized recursion that checks it once per state.

Enumeration fills whole arrays of partial matrices a step at a time.  The
lines are the rows or the columns, whichever are more numerous, so a 3 x 11
instance is filled as 11 lines of 3 cells.  A frontier holds each partial
matrix's mask words and the unsigned sums its line positions still need.
The lines split into a head and a tail.  The head is committed in steps
of several consecutive lines: a step's table lists every choice of one
r-subset per line, first line major, as summed position counts T; the
step subtracts them all, `need - T`, and keeps the children whose needs
stay within 0..lines left.  Needs fall by at most 1 per line, so that one
check after the step passes exactly when the check after each of its
lines would.  A step grows while its table has at most isqrt(_CHUNK) rows.
The tail is the longest suffix of lines with at most _TAIL choices, always
including the last line; its choices are sorted once by their counts, and
each partial matrix is finished by one binary search for the choices whose
counts equal its needs (a one-line tail is the forced last line);
`spectral._runs` expands the matching ranges in chunks.  Frontiers are
expanded depth first in slices (memory: see `_leaf_stream`), and leaves
come in the lexicographic order of the line choices, which `_leaf_rank`
gives as a sort key.

A line layout (the lines, their sums and the step and tail sizes) is
built once per process and cached with its steps and tails, which
layouts share.  They are built from per-line tables, also cached: each
r-subset's mask words and its tail key in a given base.  Mask words of a
product of lines are keyed by suffix: the product over lines[k:] is line
k's subset words ORed with the cached product over lines[k + 1:], so a
layout computes only the lines in front of the longest suffix built
before.  Nothing cached is freed.

A leaf's mask ORs together the bits of its 1-cells; with CRT cell bits it
is the reshaped binary vector itself (bit g holds v_g), which is what the
search keys on.  `enumerate_matrices` decodes row-major masks instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isqrt

import numpy as np

from .compress import BinaryMatrix
from .spectral import _runs, two_dim_dft


@dataclass(frozen=True)
class MarginalInstance:
    """Row and column sum constraints for a binary matrix."""

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]

    def __init__(self, row_sums, col_sums):
        object.__setattr__(self, "row_sums", tuple(map(int, row_sums)))
        object.__setattr__(self, "col_sums", tuple(map(int, col_sums)))

    @property
    def n_rows(self) -> int:
        return len(self.row_sums)

    @property
    def n_cols(self) -> int:
        return len(self.col_sums)


def _well_formed(inst: MarginalInstance) -> bool:
    rows, cols = inst.row_sums, inst.col_sums
    return (bool(rows) and bool(cols) and min(rows) >= 0 and min(cols) >= 0
            and max(rows) <= len(cols) and max(cols) <= len(rows) and sum(rows) == sum(cols))


def _gale_ryser(q, p) -> bool:
    """The Gale-Ryser inequalities for row sums q and column sums p.

    With sum(q) == sum(p), entries of q in 0..len(p) and of p at least 0,
    they hold iff a binary matrix with these marginals exists.  The k-th
    compares the k largest column sums with sum(min(x, k) for x in q),
    which grows by the number of rows with x >= k; past k = max(q) that
    bound is sum(q) and always holds.
    """
    top = max(q, default=0)
    rows_at = [0] * (top + 1)
    for x in q:
        rows_at[x] += 1
    p_desc = sorted(p, reverse=True)
    lhs = rhs = 0
    rows_at_least = len(q)
    for k in range(1, min(top, len(p_desc)) + 1):
        rows_at_least -= rows_at[k - 1]
        lhs += p_desc[k - 1]
        rhs += rows_at_least
        if lhs > rhs:
            return False
    return True


def feasible(inst: MarginalInstance) -> bool:
    """True iff the instance admits at least one solution."""
    return _well_formed(inst) and _gale_ryser(inst.row_sums, inst.col_sums)


@lru_cache(maxsize=None)
def _count_sorted(q: tuple[int, ...], p: tuple[int, ...]) -> int:
    # q, p sorted descending with equal sums; counts depend only on the
    # marginal multisets, and Gale-Ryser runs once per memoized state
    if not q:
        return 1
    if not _gale_ryser(q, p):
        return 0
    total = 0
    for subset in itertools.combinations(range(len(p) - p.count(0)), q[0]):
        reduced = list(p)
        for j in subset:
            reduced[j] -= 1
        total += _count_sorted(q[1:], tuple(sorted(reduced, reverse=True)))
    return total


def count(inst: MarginalInstance) -> int:
    """Exact solution count via the line-peeling recursion (memoized).

    The count is transpose-invariant, so the more numerous lines are
    peeled: each step puts a line's 1-cells on a subset of the nonzero
    sums across.  The memo is the feasibility gate: a state that fails
    Gale-Ryser counts 0, so an instance needs no `feasible` call first.
    """
    if not _well_formed(inst):
        return 0
    q = tuple(sorted(inst.row_sums, reverse=True))
    p = tuple(sorted(inst.col_sums, reverse=True))
    if len(p) > len(q):
        q, p = p, q
    return _count_sorted(q, p)


_CHUNK = 1 << 14  # children one expansion step builds, unless one parent has more
_TAIL = 1 << 10  # choices in the table of the last lines, unless the last line has more
_WORD = (1 << 64) - 1


@lru_cache(maxsize=None)
def _subset_table(n: int, r: int) -> np.ndarray:
    """0/1 indicator rows of the r-subsets of {0..n-1}, in lexicographic order."""
    table = np.zeros((comb(n, r), n), dtype=np.uint8)
    for s, subset in enumerate(itertools.combinations(range(n), r)):
        table[s, list(subset)] = 1
    return table


def _words(x: int, width: int) -> list[int]:
    return [(x >> (64 * k)) & _WORD for k in range(width)]


def _layout_key(inst: MarginalInstance):
    """(by_rows, line sums): instances with equal keys share one line
    layout, so `_leaf_stream` enumerates them together.  The lines are the
    rows, or the columns when those are more numerous."""
    by_rows = inst.n_rows >= inst.n_cols
    return by_rows, inst.row_sums if by_rows else inst.col_sums


_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _leaf_rank(inst: MarginalInstance, bits):
    """The sort key of the leaves of inst, as a function of a leaf:
    `_leaf_stream` yields an instance's leaves in ascending order of it.
    Each cell's entry of `bits` must be a single bit, and a leaf is given
    as a sequence whose entry g is 1 when its mask has bit g, else 0 (for
    the search's cell bits, the lifted vector itself).

    Leaves come in the lexicographic order of their line choices, and a
    line's r-subsets come in the lexicographic order of their cells, which
    puts a subset holding the earlier cell first: so the key reads the
    lines of `_layout_key` in order, and each line's cells, as 1 for a
    0-cell and 0 for a 1-cell.
    """
    lines, _ = _lines(bits, _layout_key(inst)[0])
    positions = [b.bit_length() - 1 for line in lines for b in line]
    return lambda leaf: bytes([leaf[g] for g in positions]).translate(_FLIP)


def _leaf_stream(insts, bits):
    """The masks of every solution of several instances of one line layout
    (`_layout_key`), as one iterator of (N, W) uint64 arrays of at most
    `_CHUNK` masks: insts[0]'s leaves, then insts[1]'s, and so on,
    count(inst) of them each, so the stream is cut into instances by their
    counts and an array may hold the end of one and the start of the next.

    A mask ORs together `bits[i][j]` for every 1-cell (i, j), in W
    little-endian 64-bit words; `bits` has the instances' shape.  Memory
    is bounded by `_CHUNK` partial matrices per step unless one line alone
    has more r-subsets: its whole table is then built, and one parent's
    children at once (C(30, 15) = 1.55e8 rows for 30-cell lines of 15
    ones; the search's lines have at most 7 cells through length 77).
    The layout is built (or found in its cache) when this is called.

    One `_expand` call enumerates them all: its first frontier has one
    partial matrix per instance, with that instance's needs (the sums
    across the lines) as its need column, and `_expand` emits leaves
    parent-major.  An instance may repeat, or have no solution if its sums
    lie in range (0..lines for the needs); it then adds no leaf.
    """
    by_rows, sums = _layout_key(insts[0])
    if any(_layout_key(inst) != (by_rows, sums) for inst in insts):
        raise ValueError("the instances do not share one line layout")
    steps, tail, width = _layout(bits, by_rows, sums, isqrt(_CHUNK), _TAIL)
    needs = [inst.col_sums if by_rows else inst.row_sums for inst in insts]
    need = np.array(needs, dtype=np.min_scalar_type(len(sums))).T
    return _expand(steps, tail, np.zeros((len(insts), width), dtype=np.uint64), need)


@lru_cache(maxsize=None)
def _lines(bits, by_rows: bool):
    """The lines of `bits` (its rows, or its columns) and the mask words W."""
    width = max(1, -(-max(b.bit_length() for line in bits for b in line) // 64))
    return (bits if by_rows else tuple(zip(*bits))), width


@lru_cache(maxsize=None)
def _layout(bits, by_rows: bool, sums, step_rows: int, tail_rows: int):
    """The steps, tail and word count of `_leaf_stream` for one line layout.

    The lines are the rows of `bits` (or its columns), filled with `sums`.
    The tail is the longest suffix of at most `tail_rows` choices whose
    keys fit a uint64 (see `_tail`), but always the last line; the head
    lines go in steps of at most `step_rows` choices, unless one line has
    more.  Cached per process, as are the lines and word count of `bits`
    (`_lines`) and the steps and tails, which a search's layouts share:
    at length 33 its 302 layouts have 246 distinct tails and 80 steps.
    """
    lines, width = _lines(bits, by_rows)
    n = len(lines[0])
    head, rows = len(sums) - 1, comb(n, sums[-1])
    while head:
        size = comb(n, sums[head - 1])
        if rows * size > tail_rows or (len(sums) - head + 2) ** n > 1 << 64:
            break
        head, rows = head - 1, rows * size
    steps = []
    start, rows = 0, 1
    for k in range(head):
        size = comb(n, sums[k])
        if k > start and rows * size > step_rows:
            steps.append((_step(lines[start:k], sums[start:k], width), len(sums) - k))
            start, rows = k, 1
        rows *= size
    if head:
        steps.append((_step(lines[start:head], sums[start:head], width), len(sums) - head))
    return steps, _tail(lines[head:], sums[head:], width), width


@lru_cache(maxsize=None)
def _subset_words(line: tuple[int, ...], r: int, width: int) -> np.ndarray:
    """(choice, word): the mask words of each r-subset of the line's cells,
    in the order of `_subset_table`."""
    cells = np.array([_words(b, width) for b in line], dtype=np.uint64)
    return np.bitwise_or.reduce(np.where(_subset_table(len(line), r)[:, :, None] == 1, cells, 0), axis=1)


@lru_cache(maxsize=None)
def _subset_keys(n: int, r: int, base: int) -> np.ndarray:
    """(choice,): the tail key (see `_tail`) of each r-subset of n cells,
    in the narrowest dtype that holds every key below base ** n."""
    dtype = np.min_scalar_type(base ** n - 1)
    return _subset_table(n, r).astype(dtype) @ np.array([base ** g for g in range(n)], dtype=dtype)


_WORDS: dict = {}  # per process: (lines, sums, width) -> `_product`


def _product(lines, sums, width: int) -> np.ndarray:
    """(choice, word): the mask words of every choice of one r-subset per
    line, first line major.

    Keyed by suffix: the product over lines[k:] is line k's subset words
    ORed with the product over lines[k + 1:].  The product of every proper
    suffix is kept in `_WORDS` for the life of the process, so a layout
    builds only the lines in front of the longest suffix built before.
    The whole product is not kept: `_step` and `_tail` keep what they
    return, and a tail's whole product is rarely another's suffix.
    """
    k = 1
    while k < len(lines) and (lines[k:], sums[k:], width) not in _WORDS:
        k += 1
    words = _WORDS.get((lines[k:], sums[k:], width), np.zeros((1, width), dtype=np.uint64))
    for j in range(k - 1, -1, -1):
        words = (_subset_words(lines[j], sums[j], width)[:, None] | words).reshape(-1, width)
        if j:
            _WORDS[lines[j:], sums[j:], width] = words
    return words


@lru_cache(maxsize=None)
def _step(lines: tuple[tuple[int, ...], ...], sums: tuple[int, ...], width: int):
    """Every choice of one r-subset per line of consecutive lines, first
    line major: the per-position counts of 1-cells, laid out (position, 1,
    choice), and the mask words (choice, word) from `_product`."""
    n = len(lines[0])
    counts = np.zeros((1, n), dtype=np.min_scalar_type(len(lines)))
    for r in sums:
        counts = (counts[:, None] + _subset_table(n, r)).reshape(-1, n)
    return np.ascontiguousarray(counts.T[:, None, :]), _product(lines, sums, width)


@lru_cache(maxsize=None)
def _tail(lines: tuple[tuple[int, ...], ...], sums: tuple[int, ...], width: int):
    """Every choice of one r-subset per line of the last lines, keyed for
    lookup by the needs they meet.

    A choice's key is its per-position counts read as digits in base
    len(lines) + 1 (Python ints where a uint64 would wrap): the sum, by
    broadcasting, of the cached keys of its lines' subsets, with no count
    table.  Returns the digit weights and the keys sorted, with the mask
    words from `_product` in the same order; the sort is stable, so
    choices of equal key stay in lexicographic order.  The keys are
    sorted in the narrowest dtype that holds them (numpy sorts 16-bit
    keys stably by radix) and returned in the weights' dtype.
    """
    base, n = len(lines) + 1, len(lines[0])
    keys = _subset_keys(n, sums[-1], base)
    for r in reversed(sums[:-1]):
        keys = np.add.outer(_subset_keys(n, r, base), keys).ravel()
    order = np.argsort(keys, kind="stable")
    weights = np.array([base ** g for g in range(n)], dtype=np.uint64 if base ** n <= 1 << 64 else object)
    return weights, keys.take(order).astype(weights.dtype), _product(lines, sums, width).take(order, axis=0)


def _expand(steps, tail, mask, need):
    """Commit the next step's lines for every partial matrix (mask rows,
    need columns), a slice of parents at a time, depth first.  Past the
    last step, each parent's completions are the tail choices whose key
    equals the key of its need; they come parent by parent, in chunks of
    at most `_CHUNK` leaves."""
    weights, keys, words = tail
    stack = [(0, mask, need)]  # frontiers still to expand, the next one last
    while stack:
        depth, mask, need = stack.pop()
        if depth == len(steps):
            at = weights.dot(need)
            lo, hi = keys.searchsorted(at, "left"), keys.searchsorted(at, "right")
            for parent, row in _runs(lo, hi, _CHUNK):
                yield mask.take(parent, axis=0) | words.take(row, axis=0)
            continue
        (table, step_words), left = steps[depth]
        per = max(1, _CHUNK // table.shape[2])
        if len(mask) > per:
            stack += [(depth, mask[lo:lo + per], need[:, lo:lo + per]) for lo in reversed(range(0, len(mask), per))]
            continue
        # needs are unsigned: one that would go negative wraps past every bound
        child = need[:, :, None] - table
        parent, pick = (child.max(axis=0) <= left).nonzero()
        if len(parent):
            stack.append((depth + 1, mask.take(parent, axis=0) | step_words.take(pick, axis=0), child[:, parent, pick]))


def _unpack(words: np.ndarray, nbits: int) -> np.ndarray:
    """Bits 0..nbits-1 of mask words (last axis, little-endian uint64) as 0/1 uint8."""
    octets = words.astype("<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=nbits, bitorder="little")


@lru_cache(maxsize=None)
def _row_major_bits(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 << (i * n + j) for j in range(n)) for i in range(m))


def enumerate_matrices(inst: MarginalInstance, visitor) -> int:
    """Visit every solution as a BinaryMatrix; returns the number visited.

    The visitor may return False to stop early.  `count` counts the
    solutions without visiting them.
    """
    if not feasible(inst):
        return 0
    m, n = inst.n_rows, inst.n_cols
    visited = 0
    for chunk in _leaf_stream((inst,), _row_major_bits(m, n)):
        for cells in _unpack(chunk, m * n).reshape(-1, m, n).tolist():
            visited += 1
            if visitor(BinaryMatrix(tuple(map(tuple, cells)))) is False:
                return visited
    return visited


def enumerate_with_spectrum(inst: MarginalInstance, visitor) -> int:
    """Like enumerate_matrices, but the visitor also receives the 2-D DFT.

    The spectrum is `two_dim_dft(matrix.rows)`, computed per leaf.  The
    search no longer uses it; the benchmark's layer pass still times it.
    """
    return enumerate_matrices(inst, lambda mat: visitor(mat, two_dim_dft(mat.rows)))


def solutions(inst: MarginalInstance) -> list[BinaryMatrix]:
    """All solutions, materialized in enumeration order."""
    out: list[BinaryMatrix] = []
    enumerate_matrices(inst, lambda mat: out.append(mat))
    return out
