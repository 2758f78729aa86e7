"""Modular compression of cyclic vectors and the CRT reshaping to matrices.

For length l = d1 * d2 with gcd(d1, d2) = 1, the d1-compression of v sums the
entries of v along arithmetic progressions of stride d1.  The Chinese
remainder map psi(g) = (g mod d1, g mod d2) reshapes v into a d1 x d2 matrix
whose row sums are the d1-compression and whose column sums are the
d2-compression; decompression is therefore the enumeration of binary matrices
with those fixed marginals.  Vectors go in as any integer sequence;
compressions and theta_inv come out as plain tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, gcd, prod

from .cyclic import euler_phi, multiplier_group, units
from .errors import InvariantViolation


@dataclass(frozen=True)
class CrtContext:
    """Index bookkeeping for one coprime factorization l = d1 * d2."""

    d1: int
    d2: int

    def __post_init__(self):
        if self.d1 < 1 or self.d2 < 1:
            raise ValueError("factors must be positive")
        if gcd(self.d1, self.d2) != 1:
            raise ValueError(f"factors must be coprime, got {self.d1}, {self.d2}")

    @property
    def ell(self) -> int:
        return self.d1 * self.d2

    def psi(self, g: int) -> tuple[int, int]:
        """The residue pair (g mod d1, g mod d2)."""
        g %= self.ell
        return g % self.d1, g % self.d2

    @cached_property
    def _psi_inv_table(self) -> dict[tuple[int, int], int]:
        return {self.psi(g): g for g in range(self.ell)}

    def psi_inv(self, i: int, j: int) -> int:
        """The unique g in Z_l with g = i mod d1 and g = j mod d2."""
        return self._psi_inv_table[(i % self.d1, j % self.d2)]

    @cached_property
    def z(self) -> int:
        """The unit z with psi(z) = (d2^-1 mod d1, d1^-1 mod d2).

        Decimating by z before the CRT reshape aligns the one-dimensional DFT
        with the two-dimensional one: the reshaped spectrum of d_z(v) equals
        W_{d1} theta(v) W_{d2}.
        """
        i = pow(self.d2, -1, self.d1) if self.d1 > 1 else 0
        j = pow(self.d1, -1, self.d2) if self.d2 > 1 else 0
        return self.psi_inv(i, j)

    @cached_property
    def z_inv(self) -> int:
        return pow(self.z, -1, self.ell) if self.ell > 1 else 0

    @cached_property
    def cell_bits(self) -> tuple[tuple[int, ...], ...]:
        """cell_bits[i][j] = 1 << psi_inv(i, j): cell (i, j)'s bit in a vector mask."""
        return tuple(
            tuple(1 << self.psi_inv(i, j) for j in range(self.d2)) for i in range(self.d1)
        )

    @cached_property
    def index_pairs(self) -> tuple[tuple[int, int], ...]:
        """psi(g) for g = 0..l-1, in index order."""
        return tuple(self.psi(g) for g in range(self.ell))


@dataclass(frozen=True)
class BinaryMatrix:
    """A rectangular 0/1 matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("matrix must have at least one row")
        width = len(self.rows[0])
        for row in self.rows:
            if len(row) != width:
                raise ValueError("ragged rows")
            for x in row:
                if x not in (0, 1):
                    raise ValueError(f"non-binary entry {x}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @cached_property
    def row_sums(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.rows)

    @cached_property
    def col_sums(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.rows))


def compress(v, delta: int) -> tuple[int, ...]:
    """The delta-compression q_g = sum_j v_{g + j*delta} for g in Z_delta."""
    n = len(v)
    if delta < 1 or n % delta != 0:
        raise ValueError(f"compression size {delta} does not divide length {n}")
    return tuple(sum(v[g::delta]) for g in range(delta))


def theta(v, ctx: CrtContext) -> BinaryMatrix:
    """CRT reshape of a binary vector: cell (g mod d1, g mod d2) holds v_g."""
    if len(v) != ctx.ell:
        raise ValueError(f"length {len(v)} does not match context ({ctx.ell})")
    if any(x not in (0, 1) for x in v):
        raise ValueError("theta expects a binary vector")
    grid = [[0] * ctx.d2 for _ in range(ctx.d1)]
    for g, (i, j) in enumerate(ctx.index_pairs):
        grid[i][j] = v[g]
    return BinaryMatrix(tuple(tuple(row) for row in grid))


def theta_inv(a: BinaryMatrix, ctx: CrtContext) -> tuple[int, ...]:
    """Inverse CRT reshape."""
    if a.n_rows != ctx.d1 or a.n_cols != ctx.d2:
        raise ValueError(
            f"matrix shape {a.n_rows}x{a.n_cols} does not match context "
            f"{ctx.d1}x{ctx.d2}"
        )
    return tuple(a.rows[i][j] for (i, j) in ctx.index_pairs)


def validate_simultaneous(v, qs) -> bool:
    """Check that v compresses to every q in qs at q's own length.

    The lengths of the qs must be pairwise coprime with product len(v).
    """
    targets = [tuple(int(x) for x in q) for q in qs]
    sizes = sorted(len(t) for t in targets)
    if prod(sizes) != len(v):
        raise ValueError(f"sizes {sizes} do not multiply to length {len(v)}")
    for i, a in enumerate(sizes):
        for b in sizes[i + 1:]:
            if gcd(a, b) != 1:
                raise ValueError(f"sizes {a} and {b} are not coprime")
    return all(compress(v, len(t)) == t for t in targets)


def count_decompressions(q, delta2: int) -> int:
    """Number of binary vectors with the given compression: prod C(delta2, q_g)."""
    entries = tuple(int(x) for x in q)
    for x in entries:
        if not 0 <= x <= delta2:
            raise ValueError(f"compressed entry {x} outside 0..{delta2}")
    return prod(comb(delta2, x) for x in entries)


def class_overlap_count(v, q, ctx: CrtContext) -> int:
    """Size of the decimation class of v intersected with the decompressions of q.

    Requires gcd(density(v), l) = 1 and q equal to the d1-compression of v.
    The count is d2 * phi(d2) * |H| / |G| with H the multiplier group of q and
    G the multiplier group of v.
    """
    if gcd(sum(v), ctx.ell) != 1:
        raise ValueError(f"density {sum(v)} shares a factor with length {ctx.ell}")
    if compress(v, ctx.d1) != tuple(q):
        raise ValueError("q is not the d1-compression of v")
    g = len(multiplier_group(v))
    numerator = ctx.d2 * euler_phi(ctx.d2) * len(multiplier_group(q))
    if numerator % g != 0:
        raise InvariantViolation(
            f"overlap count {numerator}/{g} is not an integer"
        )
    return numerator // g


def simul_overlap_count(v, qs) -> int:
    """Class members decompressing simultaneously to every q in qs.

    The count is prod |H_i| / |G| over the compressions' multiplier groups.
    """
    if not validate_simultaneous(v, qs):
        raise ValueError("compressions do not match v")
    g = len(multiplier_group(v))
    numerator = prod(len(multiplier_group(q)) for q in qs)
    if numerator % g != 0:
        raise InvariantViolation(
            f"overlap count {numerator}/{g} is not an integer"
        )
    return numerator // g
