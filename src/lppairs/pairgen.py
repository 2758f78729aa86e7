"""Generation and matching of compressed complementary integer pairs.

Candidates are integer vectors of length delta with entries in 0..delta2 and
fixed sum lambda whose off-peak PSD stays below lambda, as PSD(q, k) +
PSD(p, k) = lambda requires; one representative per decimation class is
kept.  The PSD test is the census's only float decision: it compares
against lambda plus one fixed margin, _PSD_SLACK, and can only reject;
whatever passes still has to pair on exact integers.  Two candidates
form a pair when their autocorrelations sum to (delta2 * lambda) at every
nonzero lag — an exact integer join up to the decimation action — and every
pair is checked on integers only, its PSD sums included.  Since
PAF(d_r b) = d_r PAF(b), a candidate's partners are the candidates whose
PAF is a decimation image of its complement, and the image that meets a
partner gives the aligning decimation.  The join runs as numpy arrays on
the half lags 1..(delta-1)/2 (a PAF and each of its decimation images are
symmetric): the candidates' half-lag PAFs are the held keys, and the
decimation images of all complements are probed against them in blocks,
by `spectral._key_join`, the one exact join on PAF keys, which the leaf
join of `search` uses too.  Each pair is then expanded by the
PSD-preserving decimations of its second member, which is what downstream
simultaneous decompression needs in order not to miss solutions.

Candidates come from a numpy frontier shaped like the BMFM engine's
enumeration.  It holds every prefix of the first delta - t entries, grown
one entry at a time and pruned on two necessary conditions: every later
entry is at least the first (true of any lexicographically minimal
rotation), and the sum of squares cannot exceed the ceiling implied by the
PSD bound (delta * sum q^2 = lam^2 + sum of off-peak PSD values < lam^2 +
(delta-1) * lam).  The tails are sorted by lowest entry, sum and sum of
squares, so two binary searches give each prefix its completions within the
ceiling as one range, which `spectral._runs` expands in blocks.  Each block is
screened on the PSD bound before any row is built: the DFT is linear, so a
vector's spectrum is its prefix's plus its tail's, both formed per block
from the small int tables by one matrix product each.  Only the survivors
become rows, which are screened in numpy for rotation minimality, then for
minimality within the decimation class.  Sums of squares and PAFs are
computed for the class representatives only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import floor
from operator import attrgetter, itemgetter

import numpy as np

from .cyclic import _orbit_table, units
from .errors import InvariantViolation
from .spectral import _key_join, _runs

_TAIL = 5      # trailing entries taken from a tail table instead of walked
_BATCH = 4096  # most vectors, or (prefix, tail) pairs, screened together
_PSD_SLACK = 1e-6  # float margin added to lambda by the PSD screen


@dataclass(frozen=True)
class CompressedCandidate:
    """A decimation-class representative surviving the PSD screen."""

    vector: tuple[int, ...]
    delta2: int
    kappa: int
    paf: tuple[int, ...]  # all lags 0..delta-1

    @property
    def delta(self) -> int:
        return len(self.vector)


@dataclass(frozen=True)
class CompressedPair:
    """Two complementary candidates: PAF(q, g) + PAF(p, g) = delta2*lam, g != 0,
    where lam = q.kappa.

    q is always the canonical representative of its class.  p is a concrete
    class member, decimated by r relative to its own canonical form p_canon;
    r != 1 happens when the two canonical representatives are complementary
    only after re-aligning one side.  The pair identity (what "one pair"
    means when counting) is the unordered pair of classes (q, p_canon).
    """

    q: CompressedCandidate
    p: CompressedCandidate
    p_canon: tuple[int, ...]
    r: int
    s_q: tuple[int, ...]
    s_p: tuple[int, ...]

    @property
    def delta(self) -> int:
        return self.q.delta

    @property
    def delta2(self) -> int:
        return self.q.delta2

    @property
    def lam(self) -> int:
        return self.q.kappa

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.q.vector, self.p_canon)

    @property
    def members(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.q.vector, self.p.vector)


def _tail_key(low, total, ssq, t: int, delta2: int):
    """The sort key of a length-t tail with entries in low..delta2, sum
    `total` and sum of squares `ssq`: by low, then sum, then ssq."""
    return (low * (t * delta2 + 1) + total) * (t * delta2 * delta2 + 1) + ssq


def _tail_table(t: int, low: int, delta2: int):
    """(tails, keys): every length-t tail with entries in low..delta2, in the
    least unsigned dtype holding delta2, and its `_tail_key`, sorted by key
    (stably, so the tails of one key stay in lexicographic order)."""
    width = delta2 - low + 1
    tails = np.indices((width,) * t, np.min_scalar_type(delta2)).reshape(t, width ** t).T + low
    ssq = np.einsum("ij,ij->i", tails, tails, dtype=np.int64)
    keys = _tail_key(low, tails.sum(axis=1, dtype=np.int64), ssq, t, delta2)
    order = np.argsort(keys, kind="stable")
    return tails[order], keys[order]


def _rotation_below(rows: np.ndarray, ref: np.ndarray, base: int) -> np.ndarray:
    """Per row: is some rotation of rows[i] lexicographically below ref[i]?

    Entries lie in 0..base-1.  Rows compare as base-`base` int64 numbers when
    those fit, else column by column at the first difference.
    """
    delta = rows.shape[1]
    below = np.zeros(len(rows), dtype=bool)
    if base ** delta < 2 ** 63:
        powers = base ** np.arange(delta - 1, -1, -1, dtype=np.int64)
        code, ref_code = rows @ powers, ref @ powers
        for t in range(delta):
            head, rotated = np.divmod(code, base ** (delta - t))
            rotated *= base ** t
            rotated += head
            below |= rotated < ref_code
        return below
    index = np.arange(len(rows))
    for t in range(delta):
        rotated = np.roll(rows, -t, axis=1)
        differs = rotated != ref
        first = differs.argmax(axis=1)
        below |= differs[index, first] & (rotated[index, first] < ref[index, first])
    return below


def enum_candidates(delta: int, delta2: int, lam: int):
    """Candidate class representatives in ascending canonical order.

    Yields one CompressedCandidate per decimation class of vectors with
    entries in 0..delta2 and sum lam whose off-peak PSD stays below lam.

    The frontier fixes entries 0..delta-t-1 (t = min(_TAIL, delta-1)); one
    lookup in the tail tables gives each prefix its completions.  Blocks of
    at most _BATCH (prefix, tail) pairs are screened on the split spectrum:
    PSD below lam + _PSD_SLACK at k = 1..(delta-1)/2 (a real vector has
    PSD(k) = PSD(delta - k)), from the prefix's cos and sin sums plus the
    tail's at offset delta - t.  The survivors are built as rows and
    screened, at most _BATCH at a time, for minimal rotation, then for class
    minimality under decimation, so only class representatives are held;
    only their sums of squares and half-lag PAFs are computed.
    """
    if delta < 1 or delta % 2 == 0:
        raise ValueError(f"candidate length must be odd, got {delta}")
    if delta2 < 1:
        raise ValueError(f"entry bound must be positive, got {delta2}")
    if not 0 <= lam <= delta * delta2:
        raise ValueError(f"sum {lam} unreachable with entries 0..{delta2}")

    half = (delta - 1) // 2
    psd_cut = lam + _PSD_SLACK
    ssq_max = floor((lam * lam + (delta - 1) * psd_cut) / delta)
    radix = delta2 + 1
    t = min(_TAIL, delta - 1)
    others = _orbit_table(delta)[delta::delta]  # decimations by every unit but the first

    reps: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []

    def screen(rows: np.ndarray):
        rows = rows.astype(np.int64)
        rows = rows[~_rotation_below(rows, rows, radix)]
        for image in others:
            rows = rows[~_rotation_below(rows[:, image], rows, radix)]
        pafs = np.empty((len(rows), half), dtype=np.int64)
        for g in range(1, half + 1):
            pafs[:, g - 1] = (rows * np.roll(rows, -g, axis=1)).sum(axis=1)
        reps.extend(zip(
            map(tuple, rows.tolist()),
            (rows * rows).sum(axis=1).tolist(),
            map(tuple, pafs.tolist()),
        ))

    # the frontier: the prefixes in lexicographic order with their remaining
    # sums and sums of squares, grown one entry at a time up to delta - t
    first = np.arange(min(delta2, lam // delta) + 1)
    frontier = first.astype(np.min_scalar_type(delta2))[:, None]
    remaining, ssq = lam - first, first * first
    for slots in range(delta - 1, t, -1):
        low = frontier[:, 0].astype(np.int64)
        base, extra = np.divmod(remaining, slots)
        keep = ((slots * low <= remaining) & (remaining <= slots * delta2)
                & (ssq + (slots - extra) * base * base + extra * (base + 1) ** 2 <= ssq_max))
        frontier, remaining, ssq, low = frontier[keep], remaining[keep], ssq[keep], low[keep]
        hi = np.minimum(delta2, remaining - (slots - 1) * low)
        parent, x = np.nonzero(low[:, None] + np.arange(delta2 + 1) <= hi[:, None])
        x += low[parent]
        frontier = np.column_stack((frontier[parent], x.astype(frontier.dtype)))
        remaining, ssq = remaining[parent] - x, ssq[parent] + x * x
    low = frontier[:, 0].astype(np.int64)
    keep = (t * low <= remaining) & (remaining <= t * delta2)
    frontier, remaining, ssq, low = frontier[keep], remaining[keep], ssq[keep], low[keep]
    if not len(frontier):
        return

    # the tails of every low that occurs, in one key range: a prefix's
    # completions within its sum-of-squares budget are one [lo, hi) range
    lows = np.flatnonzero(np.bincount(low)).tolist()  # not np.unique: ~1 MB of RSS on first use
    tails, keys = map(np.concatenate, zip(*(_tail_table(t, q0, delta2) for q0 in lows)))
    budget = np.minimum(ssq_max - ssq, t * delta2 * delta2)
    lo = np.searchsorted(keys, _tail_key(low, remaining, 0, t, delta2), "left")
    hi = np.searchsorted(keys, _tail_key(low, remaining, budget, t, delta2), "right")
    del remaining, ssq, low, budget  # ~3 MB less peak RSS at delta = 11, delta2 = 7
    # the DFT is linear: at k = 1..half a vector's cos and sin sums are its
    # prefix's plus its tail's at offset delta - t, so the PSD bound is
    # screened before any row is built; the survivors wait in `kept` until
    # _BATCH of them can be screened as rows
    angles = 2 * np.pi / delta * (np.outer(np.arange(1, half + 1), np.arange(delta)) % delta)
    dft = np.concatenate((np.cos(angles), np.sin(angles)))
    head_dft, tail_dft = dft[:, :delta - t], dft[:, delta - t:]
    kept = np.empty((0, delta), dtype=frontier.dtype)
    for parent, row in _runs(lo, hi, _BATCH):
        p0 = parent[0]
        z = tail_dft @ tails.take(row, axis=0).T
        z += (head_dft @ frontier[p0:parent[-1] + 1].T).take(parent - p0, axis=1)
        keep = (z[:half] ** 2 + z[half:] ** 2 < psd_cut).all(axis=0)
        kept = np.concatenate((kept, np.concatenate(
            (frontier.take(parent[keep], axis=0), tails.take(row[keep], axis=0)), axis=1)))
        while len(kept) >= _BATCH:
            screen(kept[:_BATCH])
            kept = kept[_BATCH:]
    screen(kept)

    reps.sort()
    for vec, ssq, half_paf in reps:
        yield CompressedCandidate(
            vector=vec,
            delta2=delta2,
            kappa=lam,
            paf=(ssq,) + half_paf + half_paf[::-1],  # a PAF is symmetric
        )


@lru_cache(maxsize=None)
def _join_tables(delta: int):
    """(rows, fold, aligned) for the pair join at length delta, t indexing
    units(delta): rows[t] holds the positions that decimate(v, units[t])
    reads (the shift-0 `_orbit_table` rows); fold[t] the lags it reads
    among lags 1..(delta-1)/2 of a symmetric vector such as a PAF, as
    indices into those half lags; aligned[t] the index of units[t]^-1."""
    rows = _orbit_table(delta)[::delta]
    half = rows[:, 1:(delta + 1) // 2]
    unit_list = units(delta)
    aligned = np.array([unit_list.index(pow(k, -1, delta)) for k in unit_list])
    return rows, np.minimum(half, delta - half) - 1, aligned


@lru_cache(maxsize=None)
def _decimators(delta: int) -> dict[int, itemgetter]:
    """Per unit s: the itemgetter that reads decimate(v, s) off a tuple v
    (`tuple` at delta = 1, where an itemgetter of one item drops the tuple)."""
    rows = _join_tables(delta)[0].tolist()
    return {s: itemgetter(*row) if delta > 1 else tuple for s, row in zip(units(delta), rows)}


def _rows(cands, field: str, dtype) -> np.ndarray:
    """The candidates' `field` tuples stacked as an (N, delta) array."""
    flat = chain.from_iterable(map(attrgetter(field), cands))
    return np.fromiter(flat, dtype, len(cands) * len(cands[0].vector)).reshape(len(cands), -1)


def _half_lag_join(own: np.ndarray, target: int, delta: int):
    """(i, j, u) for the half-lag PAFs own (N, (delta-1)/2): every pair of
    rows i <= j with target - own[i] = d_k own[j] for some unit k, with u
    the index of the least r = k^-1 in units(delta), sorted by (i, j).

    The rows of own are the held keys of `spectral._key_join`; the probes
    are the phi images d_k W of each complement W = target - own[i], read
    through fold, in blocks of at most _BATCH images.  Keys are taken in
    the narrowest unsigned dtype that holds top, the largest entry of own:
    a complement with an entry outside 0..top meets no row and is dropped.
    """
    n, half = own.shape
    _, fold, aligned = _join_tables(delta)
    phi = len(fold)
    complement = target - own
    top = int(own.max(initial=0))
    dtype = np.min_scalar_type(top)
    valid = np.flatnonzero(((complement >= 0) & (complement <= top)).all(axis=1))
    size = max(1, _BATCH // phi)  # rows per block: at most _BATCH image keys
    blocks = ((complement[q][:, fold].reshape(len(q) * phi, half).astype(dtype), q)
              for q in np.split(valid, range(size, len(valid), size)))
    found = [np.empty(0, dtype=np.int64)]  # hits coded (i * n + j) * phi + u
    for q, s, j in _key_join(own.astype(dtype), blocks, _BATCH):
        i = q[s // phi]
        found.append(((i * n + j) * phi + aligned[s % phi])[j >= i])
    # a stable sort, which the walk has loaded: the default one adds ~0.25 MB of RSS on first use
    pair, u = np.divmod(np.sort(np.concatenate(found), kind="stable"), phi)
    first = np.diff(pair, prepend=-1) != 0  # the least u of each pair
    return (*np.divmod(pair[first], n), u[first])


def _equiv_decimations(vectors: np.ndarray, half_pafs: np.ndarray) -> list[tuple[int, ...]]:
    """Per row: the units s, ascending, that fix its PAF (the stabiliser,
    read off the half lags half_pafs) but are not multipliers of the vector.

    PAF(d_s c) = d_s PAF(c), so these decimations keep the candidate's PAF
    (hence its PSD) but do not map it to a rotation of itself.  Only the
    stabiliser's units other than 1 are tested for a rotation."""
    delta = vectors.shape[1]
    rows, fold, _ = _join_tables(delta)
    # lag- and position-major rows: the comparisons run over whole rows
    half = np.ascontiguousarray(half_pafs.T)
    equiv = np.ones((len(fold), len(vectors)), dtype=bool)  # [t, c]: units[t] fixes PAF(c)
    for h, lag in enumerate(half):
        equiv &= half[fold[:, h]] == lag
    equiv[0] = False  # unit 1 fixes every vector
    unit, row = np.nonzero(equiv)
    v = np.ascontiguousarray(vectors[row].T)
    image = v[rows[unit].T, np.arange(len(row))]
    rotations = v[_orbit_table(delta)[:delta].T]  # [g, j, p]: entry g of shift(v_p, j)
    equiv[unit, row] = ~np.logical_and.reduce(rotations == image[:, None, :]).any(axis=0)
    unit_list = units(delta)
    return [tuple(compress(unit_list, flags)) for flags in equiv.T.tolist()]


def _check_pair(q_vector, p_vector, sums, target: int, lam: int) -> None:
    """InvariantViolation, naming the pair, unless sums = PAF(q) + PAF(p)
    meets the complementarity, sum-of-squares and PSD-sum identities."""
    named = f"pair {q_vector}, {p_vector}"
    expected = 2 * lam * lam - (len(sums) - 1) * target
    if any(x != target for x in sums[1:]):
        raise InvariantViolation(f"autocorrelations not complementary for {named}")
    if sums[0] != expected:
        raise InvariantViolation(f"sum of squares {sums[0]} != {expected} for {named}")
    # PSD(q, k) + PSD(p, k) = sum_g (PAF(q, g) + PAF(p, g)) w^(gk) = ssq_sum - target, k != 0
    if sums[0] - target != lam:
        raise InvariantViolation(f"PSD sums stray from {lam} for {named}")


def match_pairs(candidates) -> list[CompressedPair]:
    """All unordered class pairs with off-peak PAF sums equal to delta2*lam,
    where delta2 and lam (the candidates' sum kappa) are the candidates' own.

    Candidates are class representatives, so the join has to work up to the
    decimation action: classes (q, b) pair up when PAF(q, g) + PAF(d_r(b), g)
    hits the target for every g != 0 and some unit r, not necessarily r = 1.
    Since PAF(d_r b) = d_r PAF(b), that is d_k W = PAF(b) off-peak for the
    complement W = delta2*lam - PAF(q) and k = r^-1.  A PAF is symmetric,
    and so is each of its decimation images, so the join runs on lags
    1..(delta-1)/2 as numpy arrays (`_half_lag_join`): the phi(delta)
    images of all complements are matched against the candidates'
    half-lag PAFs by the package's one exact key join, so a print
    collision costs time but never makes or loses a pair.  A pair
    keeps b >= q and the least r that meets; a class may pair with itself;
    pairs are ordered by canonical form.  Every pair is validated against
    the complementarity, sum-of-squares and PSD-sum identities, all on
    integers; the first failing pair is named.  Each pair's S sets hold the
    units that fix its members' PAFs but map them to no rotation of
    themselves (`_equiv_decimations`, on the involved candidates only).
    """
    cands = sorted(candidates, key=attrgetter("vector"))
    if not cands:
        return []
    spaces = {(len(v), d2, k) for v, d2, k in map(attrgetter("vector", "delta2", "kappa"), cands)}
    if len(spaces) > 1:
        raise ValueError("pair members come from different candidate spaces")
    ((delta, delta2, lam),) = spaces
    n, target = len(cands), delta2 * lam
    vectors = _rows(cands, "vector", np.min_scalar_type(delta2))
    pafs = _rows(cands, "paf", np.int64)  # int32 arithmetic would add ~0.2 MB of RSS on first use
    half_pafs = pafs[:, 1:(delta + 1) // 2]
    i, j, u = _half_lag_join(half_pafs, target, delta)

    take = _join_tables(delta)[0][u]
    p_vectors = vectors[j[:, None], take]
    p_pafs = pafs[j[:, None], take]
    sums = pafs[i] + p_pafs
    want = np.array([2 * lam * lam - (delta - 1) * target] + [target] * (delta - 1))
    # a pair whose sums meet `want` fails the PSD sum iff every pair does
    bad = np.flatnonzero((sums != want).any(axis=1) | (want[0] - target != lam))
    if len(bad):
        k = bad[0]
        _check_pair(cands[i[k]].vector, tuple(p_vectors[k].tolist()), sums[k].tolist(), target, lam)

    involved = np.flatnonzero(np.bincount(np.concatenate((i, j)), minlength=n))
    equiv = dict(zip(involved.tolist(), _equiv_decimations(vectors[involved], half_pafs[involved])))
    rows = zip(i.tolist(), j.tolist(), map(units(delta).__getitem__, u.tolist()),
               p_vectors.tolist(), p_pafs.tolist())
    del vectors, pafs, half_pafs, take, p_vectors, p_pafs, sums  # 55/11 peaks ~0.7 MB lower, below its walk
    return [
        CompressedPair(cands[a], CompressedCandidate(tuple(vec), delta2, lam, tuple(paf)),
                       cands[b].vector, r, equiv[a], equiv[b])
        for a, b, r, vec, paf in rows
    ]


def expand_pairs(pairs) -> list[CompressedPair]:
    """Each pair, then its decimated variants (q, d_s(p)) for s in S_p.

    Unit 1 fixes p, so it is never in S_p.  Only the second member is
    decimated; the first is reused as-is across variants.  Each s preserves
    the PAF of p exactly, so every variant is itself a valid complementary
    pair and shares the base pair's class key.  A variant's member and PAF
    are read through the decimation row of s by one itemgetter each.
    """
    out: list[CompressedPair] = []
    for pair in pairs:
        out.append(pair)
        for s in pair.s_p:
            decimated = _decimators(pair.delta)[s]
            p = CompressedCandidate(decimated(pair.p.vector), pair.delta2, pair.lam, decimated(pair.p.paf))
            out.append(CompressedPair(pair.q, p, pair.p_canon, s * pair.r % pair.delta, pair.s_q, pair.s_p))
    return out
