"""Fourier-side machinery: DFT, periodic autocorrelation, power spectral density.

Spectra come from `numpy.fft` and are float; autocorrelations are exact
integers.  A float spectrum only ever rejects: the one float decision in a
search is the census screen of compressed candidates, which applies one
fixed margin, while compressed pairs are checked on their integer PAFs, the
search joins lifted vectors on exact integer PAF keys and confirms every hit
with `exact_complementary`, so no result is ever accepted on a float.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_PRINT_BASE = 0x9E3779B97F4A7C15  # odd, so every key weight is odd


def dft(v) -> np.ndarray:
    """Complex DFT mu_k = sum_j v_j omega^(jk) with omega = exp(2 pi i / n)."""
    arr = np.asarray(tuple(v), dtype=float)
    # numpy's inverse transform uses omega^(+jk) and divides by n
    return len(arr) * np.fft.ifft(arr)


def psd(v) -> np.ndarray:
    """Power spectral density |dft(v)|^2, real."""
    return np.abs(dft(v)) ** 2


def paf(v) -> tuple[int, ...]:
    """Exact periodic autocorrelation PAF(v, g) = sum_j v_j v_{j+g}, g = 0..n-1.

    One int64 correlation of v against v extended by its first n - 1
    entries: exact for any integer entries whose products sum below 2^63.
    """
    a = np.asarray(v, dtype=np.int64)
    if not len(a):
        return ()
    return tuple(np.correlate(np.concatenate((a, a[:-1])), a, "valid").tolist())


@lru_cache(maxsize=None)  # cached per key width: a join keys every chunk on the same lags
def _print_weights(n: int) -> np.ndarray:
    return np.full(n, _PRINT_BASE, dtype=np.uint64).cumprod()


def _key_prints(keys: np.ndarray, out=None) -> np.ndarray:
    """sum_g key_g * _PRINT_BASE^(g+1) mod 2^64 per row: equal keys, equal prints.

    The one PAF key of the package: the leaf join's over free lags
    (`search`), the census pair join's over half lags (`pairgen`).  One
    einsum, summing in uint64 (mod 2^64) with no BLAS, so no threads.  Keys
    must be unsigned: numpy sums int64 against uint64 in float64.  The
    prints go into `out` (N uint64) when it is given.
    """
    return np.einsum("ng,g->n", keys, _print_weights(keys.shape[1]), out=out)


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


def two_dim_dft(a) -> np.ndarray:
    """Two-dimensional DFT W_{d1} A W_{d2} of a d1 x d2 array A (d1, d2 from
    its shape), W_n[k, j] = exp(2 pi i jk / n)."""
    arr = np.asarray(a, dtype=float)
    return arr.size * np.fft.ifft2(arr)
