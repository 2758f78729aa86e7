"""Fourier-side machinery: DFT, periodic autocorrelation, power spectral density.

The DFT is evaluated directly against precomputed root tables (lengths are
small and never powers of two, so an FFT buys nothing).  Autocorrelations are
exact integers; spectra are float.  The only float decision in a search is
the census screen of compressed candidates, which applies one fixed margin
and can only reject; compressed pairs are checked on their integer PAFs,
the search joins lifted vectors on exact integer PAF keys and confirms every
hit with `exact_complementary`, so no result is ever accepted on a float.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

import numpy as np

MAX_DFT_LENGTH = 200


@lru_cache(maxsize=None)
def _dft_matrix(n: int) -> np.ndarray:
    """Matrix W with W[k, j] = exp(2*pi*i*j*k/n)."""
    if not 1 <= n <= MAX_DFT_LENGTH:
        raise ValueError(f"DFT length {n} outside supported range 1..{MAX_DFT_LENGTH}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return roots[np.outer(np.arange(n), np.arange(n)) % n]


def dft(v) -> np.ndarray:
    """Discrete Fourier transform mu_k = sum_j v_j omega^(jk), complex."""
    arr = np.asarray(tuple(v), dtype=float)
    return _dft_matrix(len(arr)) @ arr


def psd(v) -> np.ndarray:
    """Power spectral density |dft(v)|^2, real."""
    return np.abs(dft(v)) ** 2


def paf(v) -> tuple[int, ...]:
    """Exact periodic autocorrelation PAF(v, g) = sum_j v_j v_{j+g}, g = 0..n-1."""
    entries = tuple(int(x) for x in v)
    n = len(entries)
    doubled = entries + entries
    return tuple(sum(map(mul, entries, doubled[g:g + n])) for g in range(n))


def exact_complementary(u, v, lam: int) -> bool:
    """Exact integer check PAF(u, g) + PAF(v, g) == lam for every g != 0."""
    return first_failing_lag(u, v, lam) is None


def first_failing_lag(u, v, lam: int):
    """Smallest nonzero lag where the PAF sum misses lam, as (lag, sum), or None."""
    pu = paf(u)
    pv = paf(v)
    if len(pu) != len(pv):
        raise ValueError(f"length mismatch: {len(pu)} vs {len(pv)}")
    for g in range(1, len(pu)):
        if pu[g] + pv[g] != lam:
            return g, pu[g] + pv[g]
    return None


def proper_divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n) if n % d == 0)


def divisor_psd_check(u, v, gamma: float, tolerance: float = 1e-6) -> bool:
    """PSD sum certificate on divisor indices only.

    For binary u, v of odd length n and density (n+1)/2, checking
    PSD(u, d) + PSD(v, d) == gamma at every proper divisor d of n (including
    d = 1) certifies the pair exactly: PSD sums are constant on each orbit
    {d * r : r a unit}, and those orbits cover all nonzero indices.  Index 0
    is excluded; the sum there equals 2 * density^2, not gamma.
    """
    uu = tuple(int(x) for x in u)
    vv = tuple(int(x) for x in v)
    if len(uu) != len(vv):
        raise ValueError(f"length mismatch: {len(uu)} vs {len(vv)}")
    n = len(uu)
    want = (n + 1) // 2
    for name, seq in (("u", uu), ("v", vv)):
        if any(x not in (0, 1) for x in seq):
            raise ValueError(f"{name} is not binary")
        if sum(seq) != want:
            raise ValueError(f"{name} has density {sum(seq)}, expected {want}")
    psd_u = psd(uu)
    psd_v = psd(vv)
    return all(
        abs(psd_u[d] + psd_v[d] - gamma) <= tolerance for d in proper_divisors(n)
    )


def two_dim_dft(a, d1: int, d2: int) -> np.ndarray:
    """Two-dimensional DFT W_{d1} A W_{d2} of a d1 x d2 array."""
    arr = np.asarray(a, dtype=float)
    if arr.shape != (d1, d2):
        raise ValueError(f"expected shape ({d1}, {d2}), got {arr.shape}")
    return _dft_matrix(d1) @ arr @ _dft_matrix(d2)
