"""Fourier-side machinery: DFT, periodic autocorrelation, power spectral density.

The DFT is evaluated directly against precomputed root tables (lengths are
small and never powers of two, so an FFT buys nothing).  Autocorrelations are
exact integers; spectra are float and always guarded by a tolerance.  Float
PSD tests only screen compressed candidates in the census; the search joins
lifted vectors on exact integer PAF keys and confirms every hit with
`exact_complementary`, so no result is ever accepted on a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

MAX_DFT_LENGTH = 200


@lru_cache(maxsize=None)
def _dft_matrix(n: int) -> np.ndarray:
    """Matrix W with W[k, j] = exp(2*pi*i*j*k/n)."""
    if not 1 <= n <= MAX_DFT_LENGTH:
        raise ValueError(f"DFT length {n} outside supported range 1..{MAX_DFT_LENGTH}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    return roots[np.outer(np.arange(n), np.arange(n)) % n]


@dataclass(frozen=True)
class Spectrum:
    length: int
    values: np.ndarray  # complex, length entries


@dataclass(frozen=True)
class PsdVector:
    length: int
    values: np.ndarray  # real, length entries


@dataclass(frozen=True)
class PafVector:
    length: int
    values: tuple[int, ...]  # exact, all lags 0..length-1


def dft(v) -> Spectrum:
    """Discrete Fourier transform mu_k = sum_j v_j omega^(jk)."""
    arr = np.asarray(tuple(v), dtype=float)
    return Spectrum(len(arr), _dft_matrix(len(arr)) @ arr)


def psd(v) -> PsdVector:
    """Power spectral density |dft(v)|^2."""
    spec = dft(v)
    return PsdVector(spec.length, np.abs(spec.values) ** 2)


def paf(v) -> PafVector:
    """Periodic autocorrelation PAF(v, g) = sum_j v_j v_{j+g}, exact integers."""
    entries = tuple(int(x) for x in v)
    n = len(entries)
    doubled = entries + entries
    values = tuple(
        sum(entries[j] * doubled[j + g] for j in range(n)) for g in range(n)
    )
    return PafVector(n, values)


def paf_psd(paf_values) -> np.ndarray:
    """PSD recovered from an autocorrelation vector: its DFT is real."""
    arr = np.asarray(tuple(paf_values), dtype=float)
    return (_dft_matrix(len(arr)) @ arr).real


def psd_test(v, gamma: float, tolerance: float = 1e-6) -> bool:
    """True iff every off-peak PSD value is below gamma (within tolerance)."""
    values = psd(v).values
    if len(values) < 2:
        return True
    return bool(values[1:].max() < gamma + tolerance)


def exact_complementary(u, v, lam: int) -> bool:
    """Exact integer check PAF(u, g) + PAF(v, g) == lam for every g != 0."""
    pu = paf(u).values
    pv = paf(v).values
    if len(pu) != len(pv):
        raise ValueError(f"length mismatch: {len(pu)} vs {len(pv)}")
    return all(pu[g] + pv[g] == lam for g in range(1, len(pu)))


def first_failing_lag(u, v, lam: int):
    """Smallest nonzero lag where the PAF sum misses lam, or None."""
    pu = paf(u).values
    pv = paf(v).values
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
    psd_u = psd(uu).values
    psd_v = psd(vv).values
    return all(
        abs(psd_u[d] + psd_v[d] - gamma) <= tolerance for d in proper_divisors(n)
    )


def two_dim_dft(a, d1: int, d2: int) -> np.ndarray:
    """Two-dimensional DFT W_{d1} A W_{d2} of a d1 x d2 array."""
    arr = np.asarray(a, dtype=float)
    if arr.shape != (d1, d2):
        raise ValueError(f"expected shape ({d1}, {d2}), got {arr.shape}")
    return _dft_matrix(d1) @ arr @ _dft_matrix(d2)


def spectrum_minor(m: np.ndarray) -> np.ndarray:
    """The spectrum with its DC row and column removed."""
    return m[1:, 1:]
