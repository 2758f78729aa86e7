"""Exact integer arithmetic on cyclic vectors: shifts, decimations, canonical forms.

A cyclic vector is any integer sequence indexed by Z_n with 0-based
positions; shifts, decimations and canonical forms come back as plain
tuples.  Shifting by j moves entry g to position g + j (mod n); decimating
by a unit k sends position g to k*g (mod n), i.e. (d_k v)_g = v_{k^{-1} g}.
The decimation class of a vector is its orbit under the group generated by
shifts and decimations; its canonical form is the lexicographically
smallest orbit member.  Its multiplier group is the ascending tuple of the
units whose decimations map it to a shift of itself.

Orbits are read through cached per-length tables, built on first use:
`_orbit_table` lists the positions each of the phi(n) * n orbit rows
reads, and `_first_word` the weight of each position in each row's first
packed word (n * phi(n) * n words), so the canonical form starts from one
table sum.
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


@lru_cache(maxsize=None)
def _first_word(n: int, bits: int) -> np.ndarray:
    """(n, rows) uint64: entry [p, row] is the weight that the bits-wide
    rank digit of position p carries in the first word of orbit row
    `row` (of `_orbit_table(n)`), first position most significant.

    The first word packs the first 63 // bits positions of a row (all n
    when fewer), so sum_p rank_p * entry[p, row] is that row's first word.
    n * phi(n) * n words: 174 KB at n = 33, 2.8 MB at n = 77.
    """
    table = _orbit_table(n)
    width = min(n, 63 // bits)
    rows = np.arange(len(table))[:, None]
    weights = np.zeros((n, len(table)), dtype=np.uint64)
    weights[table[:, :width], rows] = 1 << bits * np.arange(width - 1, -1, -1)
    return weights


def decimation_canon(v) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Lexicographically smallest member of the shift+decimation orbit of v.

    Returns (canonical, (j, k)) such that shift(decimate(v, k), j) == canonical.
    Ties are broken toward the smallest decimation k, then the smallest shift j.

    Entries become ranks, which keep the order of any integers, and a word
    packs the ranks of 63 // bits consecutive positions, first position
    most significant, so comparing words compares rows lexicographically.
    The first words of all phi(n) * n orbit rows are one sum of rows of
    the `_first_word` table.  A 0/1 vector, as every search record is, is
    its own ranks: it skips the rank pass, and its sum is over the rows of
    its 1 entries.  When the first word covers all n positions, its least
    entry, first in (unit, shift) order, is the canonical row; otherwise
    only the rows holding the least first word are compared on the later
    words.
    """
    n = len(v)
    table = _orbit_table(n)
    a = np.asarray(v)
    if set(v) == {0, 1}:
        ranks, bits, rows = a, 1, np.flatnonzero(a)
    else:
        # the distinct values by sort and compare: np.unique imports numpy.ma on
        # first use, a cost every fresh search worker would pay on its first hit
        values = np.sort(a)
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        ranks = np.searchsorted(values, a)
        bits = max(1, (len(values) - 1).bit_length())
        # row p of the table counted rank_p times
        rows = np.repeat(np.arange(n), ranks)
    per = 63 // bits
    # the first word of every row
    word = _first_word(n, bits)[rows].sum(axis=0)
    if n <= per:
        first = int(word.argmin())
    else:
        # the survivors of each word stay in (unit, shift) order
        alive = np.flatnonzero(word == word.min())
        for lo in range(per, n, per):
            if len(alive) == 1:
                break
            digits = ranks[table[alive, lo:lo + per]]
            word = digits @ (1 << bits * np.arange(digits.shape[1] - 1, -1, -1))
            alive = alive[word == word.min()]
        first = int(alive[0])
    return tuple(a[table[first]].tolist()), (first % n, units(n)[first // n])


def multiplier_group(v) -> tuple[int, ...]:
    """The units g, ascending, with shift(decimate(v, g), j) == v for some shift j."""
    n = len(v)
    target = np.asarray(v)
    fixed = (target[_orbit_table(n)] == target).all(axis=1).reshape(-1, n).any(axis=1)
    return tuple(g for g, hit in zip(units(n), fixed.tolist()) if hit)
