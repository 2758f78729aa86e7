"""Brute-force reference implementations for cross-checking the fast paths.

Everything here trades time for transparency: exhaustive enumeration over the
full configuration space, with its own local arithmetic (nothing is imported
from the modules under test beyond plain data types).  Each oracle refuses
inputs beyond its design size instead of silently taking hours.
"""

from __future__ import annotations

from itertools import combinations
from math import comb, cos, gcd, pi

import numpy as np

MAX_LP_CHOOSE = 1_000_000
MAX_BMFM_CELLS = 20
MAX_FEASIBLE_DIMS = 24
MAX_ORBIT_LENGTH = 35
MAX_COMPOSITIONS = 1_000_000
PSD_TOLERANCE = 1e-6  # slack of oracle_candidates' float PSD bound


def _oracle_rotations(v: tuple[int, ...]):
    n = len(v)
    doubled = v + v
    return [doubled[n - j: 2 * n - j] for j in range(n)]


def _oracle_decimate(v: tuple[int, ...], k: int) -> tuple[int, ...]:
    # built from the forward action: entry i of v lands at position k*i
    n = len(v)
    out = [0] * n
    for i, x in enumerate(v):
        out[(k * i) % n] = x
    return tuple(out)


def _oracle_orbit_members(v: tuple[int, ...]) -> set[tuple[int, ...]]:
    n = len(v)
    members: set[tuple[int, ...]] = set()
    for k in range(n):
        if gcd(k, n) != 1:
            continue
        dv = _oracle_decimate(v, k)
        members.update(_oracle_rotations(dv))
    return members


def _oracle_canon(v: tuple[int, ...]) -> tuple[int, ...]:
    return min(_oracle_orbit_members(v))


def oracle_lp(ell: int) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All Legendre pairs of odd length ell, as canonical unordered pair keys.

    Enumerates every binary vector of density (ell+1)/2, joins on exact
    autocorrelation complements, and canonicalizes each complementary pair.
    """
    if ell % 2 == 0:
        raise ValueError("length must be odd")
    kappa = (ell + 1) // 2
    if comb(ell, kappa) > MAX_LP_CHOOSE:
        raise ValueError(
            f"oracle_lp refuses length {ell}: C({ell},{kappa}) exceeds {MAX_LP_CHOOSE}"
        )
    lam = kappa

    vecs = np.zeros((comb(ell, kappa), ell), dtype=np.int16)
    for idx, support in enumerate(combinations(range(ell), kappa)):
        vecs[idx, list(support)] = 1

    half = (ell - 1) // 2
    pafs = np.empty((len(vecs), half), dtype=np.int16)
    for g in range(1, half + 1):
        pafs[:, g - 1] = (vecs * np.roll(vecs, -g, axis=1)).sum(axis=1)

    buckets: dict[bytes, list[int]] = {}
    for idx, row in enumerate(pafs):
        buckets.setdefault(row.tobytes(), []).append(idx)

    # Per-class canonicalization, computed lazily only for matched vectors.
    canon_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def canon_of(idx: int) -> tuple[int, ...]:
        vec = tuple(int(x) for x in vecs[idx])
        if vec not in canon_cache:
            orbit = _oracle_orbit_members(vec)
            best = min(orbit)
            for member in orbit:
                canon_cache[member] = best
        return canon_cache[vec]

    keys: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    for key, side_a in buckets.items():
        complement = (
            lam - np.frombuffer(key, dtype=np.int16)
        ).astype(np.int16).tobytes()
        if complement < key:
            continue  # handled from the other side
        side_b = buckets.get(complement)
        if not side_b:
            continue
        canons_a = {canon_of(i) for i in side_a}
        canons_b = {canon_of(i) for i in side_b}
        for ca in canons_a:
            for cb in canons_b:
                keys.add((ca, cb) if ca <= cb else (cb, ca))
    return keys


def _oracle_paf(v: tuple[int, ...]) -> tuple[int, ...]:
    n = len(v)
    return tuple(sum(v[i] * v[(i + g) % n] for i in range(n)) for g in range(n))


def oracle_candidates(delta: int, delta2: int, kappa: int,
                      gamma: float) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(vector, PAF) of every compressed candidate class representative.

    Enumerates all compositions of kappa into delta parts, keeps those with
    parts at most delta2 whose PSD, summed directly from the PAF, stays
    below gamma + PSD_TOLERANCE at every nonzero frequency, and keeps each
    survivor that is the smallest member of its shift+decimation orbit.
    Sorted by vector.
    """
    if comb(kappa + delta - 1, delta - 1) > MAX_COMPOSITIONS:
        raise ValueError(
            f"oracle_candidates refuses {kappa} into {delta} parts: more than "
            f"{MAX_COMPOSITIONS} compositions"
        )
    cosines = [
        [cos(2 * pi * g * k / delta) for g in range(delta)] for k in range(1, delta)
    ]
    out = []
    for bars in combinations(range(kappa + delta - 1), delta - 1):
        edges = (-1,) + bars + (kappa + delta - 1,)
        v = tuple(edges[i + 1] - edges[i] - 1 for i in range(delta))
        if max(v) > delta2:
            continue
        paf = _oracle_paf(v)
        if all(
            sum(x * c for x, c in zip(paf, row)) < gamma + PSD_TOLERANCE for row in cosines
        ) and v == _oracle_canon(v):
            out.append((v, paf))
    return sorted(out)


def oracle_bmfm(row_sums, col_sums):
    """(count, solutions) over all 2^(m*n) binary matrices."""
    q = tuple(int(x) for x in row_sums)
    p = tuple(int(x) for x in col_sums)
    m, n = len(q), len(p)
    if m * n > MAX_BMFM_CELLS:
        raise ValueError(
            f"oracle_bmfm refuses {m}x{n}: {m * n} cells exceeds {MAX_BMFM_CELLS}"
        )
    hits = []
    for word in range(1 << (m * n)):
        grid = [
            [(word >> (i * n + j)) & 1 for j in range(n)] for i in range(m)
        ]
        if (
            tuple(sum(row) for row in grid) == q
            and tuple(sum(col) for col in zip(*grid)) == p
        ):
            hits.append(tuple(tuple(row) for row in grid))
    return len(hits), hits


def oracle_bmfm_census(m: int, n: int) -> dict[tuple, int]:
    """Solution counts for every (row_sums, col_sums) pair of an m x n grid."""
    if m * n > MAX_BMFM_CELLS:
        raise ValueError(
            f"oracle_bmfm_census refuses {m}x{n}: {m * n} cells exceeds "
            f"{MAX_BMFM_CELLS}"
        )
    cells = m * n
    words = np.arange(1 << cells, dtype=np.int64)
    bits = ((words[:, None] >> np.arange(cells)) & 1).astype(np.int8)
    grids = bits.reshape(-1, m, n)
    rows = grids.sum(axis=2)
    cols = grids.sum(axis=1)
    census: dict[tuple, int] = {}
    for r, c in zip(map(tuple, rows), map(tuple, cols)):
        census[(r, c)] = census.get((r, c), 0) + 1
    return census


def oracle_feasible_subsets(row_sums, col_sums) -> bool:
    """Feasibility by literal evaluation of the subset inequalities.

    Checks t(I, J) = |I|*|J| + sum_{i not in I} q_i - sum_{j in J} p_j >= 0
    for every pair of subsets I of the rows and J of the columns, plus the
    matching totals.
    """
    q = tuple(int(x) for x in row_sums)
    p = tuple(int(x) for x in col_sums)
    m, n = len(q), len(p)
    if m + n > MAX_FEASIBLE_DIMS:
        raise ValueError(
            f"oracle_feasible_subsets refuses {m}+{n} dims > {MAX_FEASIBLE_DIMS}"
        )
    if sum(q) != sum(p):
        return False
    if any(x < 0 or x > n for x in q) or any(x < 0 or x > m for x in p):
        return False
    total_q = sum(q)
    row_masks = np.arange(1 << m)
    col_masks = np.arange(1 << n)
    sizes_i = np.array([bin(x).count("1") for x in row_masks])
    sizes_j = np.array([bin(x).count("1") for x in col_masks])
    sums_i = np.array(
        [sum(q[i] for i in range(m) if mask >> i & 1) for mask in row_masks]
    )
    sums_j = np.array(
        [sum(p[j] for j in range(n) if mask >> j & 1) for mask in col_masks]
    )
    t = (
        np.outer(sizes_i, sizes_j)
        + (total_q - sums_i)[:, None]
        - sums_j[None, :]
    )
    return bool((t >= 0).all())


def oracle_orbit(v, compression_sizes=()) -> list[tuple[tuple[int, ...], dict]]:
    """The shift+decimation orbit of v, each member tagged with compressions."""
    vec = tuple(int(x) for x in v)
    n = len(vec)
    if n > MAX_ORBIT_LENGTH:
        raise ValueError(f"oracle_orbit refuses length {n} > {MAX_ORBIT_LENGTH}")
    for size in compression_sizes:
        if size < 1:
            raise ValueError(f"compression size must be positive, got {size}")
        if n % size != 0:
            raise ValueError(f"compression size {size} does not divide {n}")
    members = sorted(_oracle_orbit_members(vec))
    out = []
    for member in members:
        tags = {
            size: tuple(
                sum(member[g + j * size] for j in range(n // size))
                for g in range(size)
            )
            for size in compression_sizes
        }
        out.append((member, tags))
    return out
