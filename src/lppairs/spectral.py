"""Fourier-side machinery: DFT, periodic autocorrelation, power spectral density.

Spectra come from `numpy.fft` and are float; autocorrelations are exact
integers.  A float spectrum only ever rejects: the one float decision in a
search is the census screen of compressed candidates, which applies one
fixed margin, while compressed pairs are checked on their integer PAFs, the
search joins lifted vectors on exact integer PAF keys and confirms every hit
with `exact_complementary`, so no result is ever accepted on a float.

It also holds `_key_join`, the one exact join on PAF keys, which the census
pair join and the search's leaf join share, and what it shares with the
rest of the package: per-thread buffers (`_buffer`), range expansion (`_runs`).
"""

from __future__ import annotations

import threading
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

    The one PAF key of the package, matched by `_key_join`: the leaf
    join's over free lags (`search`), the census pair join's over half
    lags (`pairgen`).  One einsum, summing in uint64 (mod 2^64) with no
    BLAS, so no threads.  Keys must be unsigned: numpy sums int64 against
    uint64 in float64.  The prints go into `out` (N uint64) when it is
    given.
    """
    return np.einsum("ng,g->n", keys, _print_weights(keys.shape[1]), out=out)


# This thread's reused buffers of the joins and the leaf keys (`_buffer`).
# Per thread, because numpy drops the GIL inside the ufuncs that fill them:
# threads sharing one buffer would overwrite each other's keys.
_scratch = threading.local()


def _buffer(name: str, n: int, dtype) -> np.ndarray:
    """The first n entries of this thread's buffer `name` (one dtype per
    name), grown to the largest n asked for and holding whatever its last
    user left.  A block-sized array made afresh is handed back to the
    kernel when freed and faulted in page by page at its next use; a kept
    one stays mapped."""
    buf = getattr(_scratch, name, None)
    if buf is None or len(buf) < n:
        buf = np.empty(n, dtype=dtype)
        setattr(_scratch, name, buf)
    return buf[:n]


def _runs(lo, hi, cap: int):
    """Index arrays (i, j) for every j in lo[i]..hi[i]-1, i ascending and
    then j, at most `cap` pairs at a time; a range with hi <= lo is empty.

    One binary search finds the range of every block's first pair; a
    block takes the ranges from there to the next block's first range,
    the first and last of them trimmed to the block.
    """
    span = np.maximum(hi - lo, 0)
    bounds = np.zeros(len(span) + 1, dtype=span.dtype)  # pair index of each range's first j, then the total
    span.cumsum(out=bounds[1:])
    shift = lo - bounds[:-1]  # j minus its pair index, per range
    total = int(bounds[-1])
    starts = np.arange(0, total, cap)
    cut = bounds[1:].searchsorted(starts, "right").tolist()  # the range of each block's first pair
    cut.append(len(span) - 1)
    for k, start in enumerate(starts.tolist()):
        a, b = cut[k], cut[k + 1] + 1
        stop = min(start + cap, total)
        take = span[a:b].copy()  # pairs per range, less what falls outside the block
        take[0] -= start - bounds[a]
        take[-1] -= bounds[b] - stop
        yield np.arange(a, b).repeat(take), np.arange(start, stop) + shift[a:b].repeat(take)


def _key_join(held: np.ndarray, blocks, cap: int):
    """Yield (tag, s, h) for each block (keys, tag) whose prints meet a
    held print: index arrays of its rows s and the held rows h whose whole
    keys are equal, keys[s] == held[h], ordered by s and then h.

    The one place where equal PAF keys are matched: the census pair join
    (`pairgen`) and the leaf join (`search`) both call it.  Keys are
    unsigned (N, width) arrays of one dtype, compared by their
    `_key_prints`.  The held prints are sorted once.  A bool table,
    indexed by the top b bits of a print with 2^b >= 8 len(held) and at
    least 2^12, marks the held prints.  One gather per block keeps every
    probe that can hit and at most about one in eight of the others; only
    those are located with searchsorted.  The probes that land on an equal
    print pair with its run of held rows, expanded by `_runs` at most `cap`
    pairs at a time, and each pair counts only when its whole keys agree,
    so a print collision costs time and never makes or loses a match.

    A block's prints and their top bits go into this thread's buffers
    (`_buffer`).  The table is this thread's too, kept at the largest size
    a join has needed (16 MB for 2M held rows): a join takes it and clears
    the part it used when it ends, however it ends, which costs no more
    than a fresh table's page faults (measured from 2^17 to 2^24 entries).
    A join that finds the table taken, or too small, makes its own.  No
    match rests on the clearing: an entry left set would only cost a
    searchsorted.
    """
    prints = _key_prints(held)
    order = np.argsort(prints)  # the matches are put back in held order
    prints = prints[order]
    drop = 64 - max(12, (8 * len(held) - 1).bit_length())
    size = 1 << (64 - drop)
    table = getattr(_scratch, "present", None)
    if table is None or len(table) < size:
        table = np.zeros(size, dtype=bool)
    _scratch.present = None  # taken: a join run inside this one makes its own
    present = table[:size]
    try:
        present[prints >> drop] = True
        for keys, tag in blocks:
            n = len(keys)
            probe = _key_prints(keys, out=_buffer("join_prints", n, np.uint64))
            maybe = np.flatnonzero(present[np.right_shift(probe, drop, out=_buffer("join_top", n, np.uint64))])
            lo = np.searchsorted(prints, probe[maybe], "left")
            found = prints[np.minimum(lo, len(prints) - 1)] == probe[maybe]
            if not found.any():
                continue
            hit, lo = maybe[found], lo[found]
            hi = np.searchsorted(prints, probe[hit], "right")
            pairs = []
            for i, j in _runs(lo, hi, cap):
                s, h = hit[i], order[j]
                same = (held[h] == keys[s]).all(axis=1)
                pairs.append((s[same], h[same]))
            s, h = (np.concatenate(side) for side in zip(*pairs))
            k = np.lexsort((h, s))
            yield tag, s[k], h[k]
    finally:
        present.fill(False)
        _scratch.present = table


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
