"""Binary matrices with fixed marginals: feasibility, counting, enumeration.

An instance is a pair of marginal vectors (row sums, column sums).  The
solver fathoms subproblems with the Gale-Ryser condition, propagates forced
all-zero / all-one rows and columns to a fixed point, and then branches on
the row or column admitting the fewest completions.  Branch vectors are
generated in colexicographic rank order, so the enumeration order is
deterministic and independent of platform.

Every leaf is an integer mask: each committed row or column ORs in the
precomputed bits of its cells.  `enumerate_masks` hands out the mask
itself; with CRT cell bits that mask is the binary vector of the CRT
reshape (bit g holds v_g), which is what the search keys on.
`enumerate_matrices` decodes row-major masks into `BinaryMatrix` leaves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

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
def _colex_subsets(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """k-subsets of {0..n-1} in colexicographic rank order."""
    return tuple(
        sorted(itertools.combinations(range(n), k), key=lambda s: s[::-1])
    )


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


class _Engine:
    """Shared enumeration core; visits each leaf as an integer mask.

    `bits[i][j]` is the bit that cell (i, j) contributes; a leaf's mask is
    `base` OR-ed with the bits of its 1-cells.  The callback receives that
    int; returning False stops the search.
    """

    def __init__(self, inst: MarginalInstance, bits, leaf):
        self.inst = inst
        self.bits = bits
        self.leaf = leaf
        self.visited = 0
        self.stopped = False

    def run(self, base: int = 0) -> int:
        if not _well_formed(self.inst):
            return 0
        self._rec(
            list(range(self.inst.n_rows)),
            list(range(self.inst.n_cols)),
            list(self.inst.row_sums),
            list(self.inst.col_sums),
            base,
        )
        return self.visited

    def _rec(self, arows, acols, rneed, cneed, mask):
        if self.stopped:
            return
        if not _gale_ryser(
            [rneed[i] for i in arows],
            [cneed[j] for j in acols],
            len(acols),
            len(arows),
        ):
            return
        arows = list(arows)
        acols = list(acols)
        rneed = list(rneed)
        cneed = list(cneed)
        bits = self.bits

        # Propagate forced rows/columns (all zeros or all ones) to a fixed point.
        changed = True
        while changed:
            changed = False
            for i in list(arows):
                need = rneed[i]
                if need == 0:
                    arows.remove(i)
                    changed = True
                elif need == len(acols):
                    for j in acols:
                        mask |= bits[i][j]
                        cneed[j] -= 1
                        if cneed[j] < 0:
                            return
                    rneed[i] = 0
                    arows.remove(i)
                    changed = True
            for j in list(acols):
                need = cneed[j]
                if need == 0:
                    acols.remove(j)
                    changed = True
                elif need == len(arows):
                    for i in arows:
                        mask |= bits[i][j]
                        rneed[i] -= 1
                        if rneed[i] < 0:
                            return
                    cneed[j] = 0
                    acols.remove(j)
                    changed = True

        if not arows and not acols:
            self.visited += 1
            if self.leaf(mask) is False:
                self.stopped = True
        else:
            self._branch(arows, acols, rneed, cneed, mask)

    def _branch(self, arows, acols, rneed, cneed, mask):
        # Fewest admissible completions first; rows win ties, then lowest index.
        best = None
        for i in arows:
            key = (comb(len(acols), rneed[i]), 0, i)
            if best is None or key < best:
                best = key
        for j in acols:
            key = (comb(len(arows), cneed[j]), 1, j)
            if best is None or key < best:
                best = key
        _, kind, idx = best

        if kind == 0:
            child_rows = [r for r in arows if r != idx]
            row_bits = self.bits[idx]
            for subset in _colex_subsets(len(acols), rneed[idx]):
                cols = [acols[t] for t in subset]
                child = mask
                for j in cols:
                    child |= row_bits[j]
                    cneed[j] -= 1
                self._rec(child_rows, acols, rneed, cneed, child)
                for j in cols:
                    cneed[j] += 1
                if self.stopped:
                    return
        else:
            child_cols = [c for c in acols if c != idx]
            for subset in _colex_subsets(len(arows), cneed[idx]):
                rows = [arows[t] for t in subset]
                child = mask
                for i in rows:
                    child |= self.bits[i][idx]
                    rneed[i] -= 1
                self._rec(arows, child_cols, rneed, cneed, child)
                for i in rows:
                    rneed[i] += 1
                if self.stopped:
                    return


def enumerate_masks(inst: MarginalInstance, bits, visitor, base: int = 0) -> int:
    """Visit every solution as an int; returns the number visited.

    The int is `base` OR-ed with `bits[i][j]` for every 1-cell (i, j), so
    with CRT cell bits (`CrtContext.cell_bits`) it is the reshaped binary
    vector itself, bit g holding v_g.  The visitor may return False to
    stop early.  Leaves come in the same order as `enumerate_matrices`.
    """
    return _Engine(inst, bits, visitor).run(base)


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
    if visitor is None:
        leaf = lambda mask: None
    else:
        def leaf(mask):
            rows = tuple(
                tuple((mask >> (i * n + j)) & 1 for j in range(n)) for i in range(m)
            )
            return visitor(BinaryMatrix(rows))
    return enumerate_masks(inst, _row_major_bits(m, n), leaf)


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
