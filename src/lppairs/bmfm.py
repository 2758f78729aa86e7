"""Binary matrices with fixed marginals: feasibility, counting, enumeration.

An instance is a pair of marginal vectors (row sums, column sums).
Feasibility is the Gale-Ryser condition; `count` peels rows in a memoized
recursion over the sorted marginals.

Enumeration fills whole arrays of partial matrices one line at a time.  The
lines are the rows or the columns, whichever are more numerous, so a 3 x 11
instance is filled as 11 lines of 3 cells.  A frontier holds each partial
matrix's mask words and the unsigned sums its line positions still need;
committing a line of sum r subtracts all its r-subsets at once, `need - T`,
and keeps the children whose needs stay within 0..lines left.  The last
line is forced.  Frontiers are expanded depth first in slices, so memory
is bounded, and leaves come in the lexicographic order of the line choices.

A leaf's mask ORs together the bits of its 1-cells; with CRT cell bits it
is the reshaped binary vector itself (bit g holds v_g), which is what the
search keys on.  `enumerate_matrices` decodes row-major masks instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .compress import BinaryMatrix
from .spectral import two_dim_dft


@dataclass(frozen=True)
class MarginalInstance:
    """Row and column sum constraints for a binary matrix."""

    row_sums: tuple[int, ...]
    col_sums: tuple[int, ...]

    def __init__(self, row_sums, col_sums):
        object.__setattr__(self, "row_sums", tuple(int(x) for x in row_sums))
        object.__setattr__(self, "col_sums", tuple(int(x) for x in col_sums))

    @property
    def n_rows(self) -> int:
        return len(self.row_sums)

    @property
    def n_cols(self) -> int:
        return len(self.col_sums)

    def transpose(self) -> "MarginalInstance":
        return MarginalInstance(self.col_sums, self.row_sums)


def _well_formed(inst: MarginalInstance) -> bool:
    if inst.n_rows == 0 or inst.n_cols == 0:
        return False
    if any(not 0 <= r <= inst.n_cols for r in inst.row_sums):
        return False
    if any(not 0 <= c <= inst.n_rows for c in inst.col_sums):
        return False
    return sum(inst.row_sums) == sum(inst.col_sums)


def _gale_ryser(q, p, n_cols: int, n_rows: int) -> bool:
    """Existence of a binary matrix with row sums q and column sums p.

    The k-th Gale-Ryser inequality compares the k largest column sums with
    sum(min(x, k) for x in q), which grows by the number of rows with x >= k.
    Past k = max(q) that bound is sum(q) and always holds.
    """
    if sum(q) != sum(p):
        return False
    if q and (min(q) < 0 or max(q) > n_cols):
        return False
    if p and (min(p) < 0 or max(p) > n_rows):
        return False
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
    if not _well_formed(inst):
        return False
    return _gale_ryser(inst.row_sums, inst.col_sums, inst.n_cols, inst.n_rows)


@lru_cache(maxsize=None)
def _count_sorted(q: tuple[int, ...], p: tuple[int, ...]) -> int:
    # q, p sorted descending; counts depend only on the marginal multisets.
    if not q:
        return 1 if all(x == 0 for x in p) else 0
    q0, rest = q[0], q[1:]
    n = len(p)
    if not 0 <= q0 <= n:
        return 0
    total = 0
    for subset in itertools.combinations(range(n), q0):
        reduced = list(p)
        ok = True
        for j in subset:
            reduced[j] -= 1
            if reduced[j] < 0:
                ok = False
                break
        if not ok:
            continue
        child = tuple(sorted(reduced, reverse=True))
        if _gale_ryser(rest, child, n, len(rest)):
            total += _count_sorted(rest, child)
    return total


def count(inst: MarginalInstance) -> int:
    """Exact solution count via the row-peeling recursion (memoized)."""
    if not feasible(inst):
        return 0
    q = tuple(sorted(inst.row_sums, reverse=True))
    p = tuple(sorted(inst.col_sums, reverse=True))
    return _count_sorted(q, p)


_CHUNK = 1 << 14  # children one expansion step builds, unless one parent has more
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


def _leaf_chunks(inst: MarginalInstance, bits, base: int = 0):
    """Yield the masks of all solutions as (N, W) uint64 arrays.

    A mask is `base` OR-ed with `bits[i][j]` for every 1-cell (i, j), in
    W little-endian 64-bit words.  Memory is bounded by `_CHUNK` partial
    matrices per line, whatever the instance.
    """
    if not feasible(inst):
        return
    m, n = inst.n_rows, inst.n_cols
    if m >= n:
        sums, needs = inst.row_sums, inst.col_sums
        lines = [tuple(bits[i][j] for j in range(n)) for i in range(m)]
    else:
        sums, needs = inst.col_sums, inst.row_sums
        lines = [tuple(bits[i][j] for i in range(m)) for j in range(n)]
    top = max([base] + [b for line in lines for b in line]).bit_length()
    width = max(1, -(-top // 64))
    steps = [_line_step(line, r, width) for line, r in zip(lines[:-1], sums[:-1])]
    mask = np.array([_words(base, width)], dtype=np.uint64)
    need = np.array(needs, dtype=np.min_scalar_type(len(sums)))[:, None]
    yield from _expand(steps, _cell_words(lines[-1], width), mask, need)


@lru_cache(maxsize=None)
def _cell_words(line: tuple[int, ...], width: int) -> np.ndarray:
    return np.array([_words(b, width) for b in line], dtype=np.uint64)


@lru_cache(maxsize=None)
def _line_step(line: tuple[int, ...], r: int, width: int):
    """For a line of sum r: its r-subsets as (position, 1, subset) 0/1
    entries, and the mask words of each subset."""
    table = _subset_table(len(line), r)
    words = np.bitwise_or.reduce(np.where(table[:, :, None] == 1, _cell_words(line, width), 0), axis=1)
    return np.ascontiguousarray(table.T[:, None, :]), words


def _expand(steps, last, mask, need):
    """Commit the next line for every partial matrix (mask rows, need
    columns), a slice of parents at a time, and recurse; the last line
    takes exactly the positions still owing 1."""
    if not steps:
        for cell, owed in zip(last, need):
            mask |= np.where(owed[:, None] == 1, cell, 0)
        yield mask
        return
    (table, words), rest = steps[0], steps[1:]
    left = len(rest) + 1
    per = max(1, _CHUNK // table.shape[2])
    for lo in range(0, len(mask), per):
        # needs are unsigned: one that would go negative wraps past every bound
        child = need[:, lo:lo + per, None] - table
        parent, pick = np.nonzero(child.max(axis=0) <= left)
        if len(parent):
            yield from _expand(rest, last, mask[lo + parent] | words[pick], child[:, parent, pick])


def _unpack(words: np.ndarray, nbits: int) -> np.ndarray:
    """Bits 0..nbits-1 of mask words (last axis, little-endian uint64) as 0/1 uint8."""
    octets = words.astype("<u8").view(np.uint8)
    return np.unpackbits(octets, axis=-1, count=nbits, bitorder="little")


@lru_cache(maxsize=None)
def _row_major_bits(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 << (i * n + j) for j in range(n)) for i in range(m))


def enumerate_matrices(inst: MarginalInstance, visitor=None) -> int:
    """Visit every solution as a BinaryMatrix; returns the number visited.

    The visitor may return False to stop early.  With no visitor the
    solutions are only counted (by full traversal; see `count` for the
    closed recursion).
    """
    m, n = inst.n_rows, inst.n_cols
    visited = 0
    for chunk in _leaf_chunks(inst, _row_major_bits(m, n)):
        if visitor is None:
            visited += len(chunk)
            continue
        for cells in _unpack(chunk, m * n).reshape(-1, m, n).tolist():
            visited += 1
            if visitor(BinaryMatrix(tuple(map(tuple, cells)))) is False:
                return visited
    return visited


def enumerate_with_spectrum(inst: MarginalInstance, visitor) -> int:
    """Like enumerate_matrices, but the visitor also receives the 2-D DFT.

    The spectrum is `two_dim_dft(matrix, n_rows, n_cols)`, computed per
    leaf.  The search no longer uses it; the benchmark's layer pass still
    times it.
    """
    m, n = inst.n_rows, inst.n_cols
    return enumerate_matrices(
        inst, lambda mat: visitor(mat, two_dim_dft(mat.rows, m, n))
    )


def solutions(inst: MarginalInstance) -> list[BinaryMatrix]:
    """All solutions, materialized in enumeration order."""
    out: list[BinaryMatrix] = []
    enumerate_matrices(inst, lambda mat: out.append(mat))
    return out
