"""Exact integer arithmetic on cyclic vectors: shifts, decimations, canonical forms.

A cyclic vector is any integer sequence indexed by Z_n with 0-based
positions; shifts, decimations and canonical forms come back as plain
tuples.  Shifting by j moves entry g to position g + j (mod n); decimating
by a unit k sends position g to k*g (mod n), i.e. (d_k v)_g = v_{k^{-1} g}.
The decimation class of a vector is its orbit under the group generated by
shifts and decimations; its canonical form is the lexicographically
smallest orbit member.  Its multiplier group is the ascending tuple of the
units whose decimations map it to a shift of itself.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


@lru_cache(maxsize=None)
def units(n: int) -> tuple[int, ...]:
    """The units of Z_n in ascending order."""
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    return tuple(k for k in range(n) if gcd(k, n) == 1)


def euler_phi(n: int) -> int:
    return len(units(n))


def shift(v, j: int) -> tuple[int, ...]:
    """Cyclic shift by j: entry g of the result is v_{g-j}."""
    v = tuple(v)
    n = len(v)
    j %= n
    return v[n - j:] + v[:n - j]


def decimate(v, k: int) -> tuple[int, ...]:
    """Decimation by a unit k: entry g of the result is v_{k^{-1} g}."""
    n = len(v)
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"decimation requires gcd(k, length) = 1, got k={k}, length={n}")
    kinv = pow(k, -1, n)
    return tuple(v[(kinv * g) % n] for g in range(n))


@lru_cache(maxsize=None)
def _orbit_table(n: int) -> np.ndarray:
    """Row (k, j), in (unit, shift) order: the positions of v that
    shift(decimate(v, k), j) reads, entry g being v_{k^-1 (g - j)}."""
    rows = []
    for k in units(n):
        kinv = pow(k, -1, n)
        rows += [[(kinv * (g - j)) % n for g in range(n)] for j in range(n)]
    return np.array(rows, dtype=np.intp)


def decimations(v) -> np.ndarray:
    """Row i: decimate(v, units(n)[i]), the shift-0 rows of the orbit table."""
    n = len(v)
    return np.asarray(v)[_orbit_table(n)[::n]]


def decimation_canon(v) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Lexicographically smallest member of the shift+decimation orbit of v.

    Returns (canonical, (j, k)) such that shift(decimate(v, k), j) == canonical.
    Ties are broken toward the smallest decimation k, then the smallest shift j.
    """
    n = len(v)
    table = _orbit_table(n)
    # entries as ranks keep the order of any integers; a word packs the
    # ranks of consecutive positions, first position most significant, so
    # comparing words compares rows lexicographically
    a = np.asarray(v)
    values = np.unique(a)
    ranks = np.searchsorted(values, a)
    bits = max(1, (len(values) - 1).bit_length())
    per = 63 // bits
    # keep the rows holding the smallest word, word by word; the survivors
    # stay in (unit, shift) order.  The first word spans about log2(rows)
    # bits, enough to leave few survivors; the later ones are full.
    rows, alive = table, np.arange(len(table))
    lo, width = 0, min(per, len(table).bit_length() // bits + 1)
    while lo < n:
        digits = ranks[rows[:, lo:lo + width]]
        word = digits @ (1 << bits * np.arange(digits.shape[1] - 1, -1, -1))
        keep = word == word.min()
        alive, rows = alive[keep], rows[keep]
        if len(alive) == 1:
            break
        lo, width = lo + width, per
    first = int(alive[0])
    return tuple(a[table[first]].tolist()), (first % n, units(n)[first // n])


def multiplier_group(v) -> tuple[int, ...]:
    """The units g, ascending, with shift(decimate(v, g), j) == v for some shift j."""
    n = len(v)
    target = np.asarray(v)
    fixed = (target[_orbit_table(n)] == target).all(axis=1).reshape(-1, n).any(axis=1)
    return tuple(g for g, hit in zip(units(n), fixed.tolist()) if hit)
