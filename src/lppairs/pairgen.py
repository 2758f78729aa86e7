"""Generation and matching of compressed complementary integer pairs.

Candidates are integer vectors of length delta with entries in 0..delta2 and
fixed sum kappa whose off-peak PSD stays below gamma; one representative per
decimation class is kept.  The PSD test is the census's only float decision:
it compares against gamma plus one fixed margin, _PSD_SLACK, and can only
reject; whatever passes still has to pair on exact integers.  Two candidates
form a pair when their autocorrelations sum to (delta2 * lambda) at every
nonzero lag — an exact integer join up to the decimation action — and every
pair is checked on integers only, its PSD sums included.  Every
candidate is keyed once by the least off-peak decimation of its PAF and
bucketed by that key; each candidate's complement is keyed the same way and
meets its partners in one bucket, and the aligning decimation follows from a
coset of the partner's PAF stabiliser with no scan over units.  Each pair
is then expanded by the PSD-preserving decimations of its second member, which
is what downstream simultaneous decompression needs in order not to miss
solutions.

Candidates come from a walk over compositions in three stages.  A Python
prefix walk fixes all but the last few entries and prunes on two necessary
conditions: every later entry is at least the first (true of any
lexicographically minimal rotation), and the sum of squares cannot exceed
the ceiling implied by the PSD bound (delta * sum q^2 = kappa^2 + sum of
off-peak PSD values < kappa^2 + (delta-1) * gamma).  Each prefix is completed
from a cached tail table, all tails grouped by sum and sorted by sum of
squares, so one binary search yields exactly the tails within the ceiling.
The complete vectors are screened in numpy batches: rotation minimality,
the half-lag PAF, the PSD bound, and finally minimality within the
decimation class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache
from math import cos, floor, pi

import numpy as np

from .cyclic import _orbit_table, decimate, decimations, multiplier_group, units
from .errors import InvariantViolation

_TAIL = 5      # trailing entries taken from a tail table instead of walked
_BATCH = 4096  # most vectors screened together
_PSD_SLACK = 1e-6  # float margin added to gamma by the PSD screen


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
    """Two complementary candidates: PAF(q, g) + PAF(p, g) = delta2*lam, g != 0.

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
    lam: int
    s_q: tuple[int, ...]
    s_p: tuple[int, ...]

    @property
    def delta(self) -> int:
        return self.q.delta

    @property
    def delta2(self) -> int:
        return self.q.delta2

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.q.vector, self.p_canon)

    @property
    def members(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.q.vector, self.p.vector)


def _full_paf(ssq: int, half: tuple[int, ...], delta: int) -> tuple[int, ...]:
    return (ssq,) + half + half[::-1] if delta > 1 else (ssq,)


@lru_cache(maxsize=None)
def _cos_table(delta: int) -> np.ndarray:
    """Row k, column g - 1: 2 cos(2 pi g k / delta), for k, g in 1..(delta-1)/2."""
    half = (delta - 1) // 2
    return np.array([
        [2.0 * cos(2.0 * pi * g * k / delta) for g in range(1, half + 1)]
        for k in range(1, half + 1)
    ], dtype=np.float64).reshape(half, half)


def _tail_table(t: int, low: int, delta2: int):
    """Every length-t tail with entries in low..delta2, grouped by sum.

    Returns (tails, ssq, starts): the tails summing to s are
    tails[starts[s - t*low] : starts[s - t*low + 1]], in ascending order of
    their sums of squares ssq.
    """
    width = delta2 - low + 1
    codes = np.arange(width ** t, dtype=np.int64)
    tails = np.empty((width ** t, t), dtype=np.int64)
    for i in range(t - 1, -1, -1):
        codes, tails[:, i] = np.divmod(codes, width)
    tails += low
    sums = tails.sum(axis=1)
    ssq = (tails * tails).sum(axis=1)
    order = np.argsort(sums * (t * delta2 * delta2 + 1) + ssq, kind="stable")
    starts = np.searchsorted(sums[order], np.arange(t * low, t * delta2 + 2))
    return tails[order], ssq[order], starts.tolist()


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


def enum_candidates(delta: int, delta2: int, kappa: int, gamma: float):
    """Candidate class representatives in ascending canonical order.

    Yields one CompressedCandidate per decimation class of vectors with
    entries in 0..delta2 and sum kappa that pass the off-peak PSD test
    against gamma.

    The prefix walk fixes entries 0..delta-t-1 (t = min(_TAIL, delta-1));
    the tail table supplies every completion with entries at least the
    first and sum of squares within the PSD ceiling.  The resulting vectors
    are screened in batches of at most _BATCH rows: minimal rotation,
    half-lag PAF, PSD below gamma + _PSD_SLACK (summed lag by lag in float64,
    the order of the scalar formula), then class minimality under
    decimation, so only class representatives are ever held.
    """
    if delta < 1 or delta % 2 == 0:
        raise ValueError(f"candidate length must be odd, got {delta}")
    if delta2 < 1:
        raise ValueError(f"entry bound must be positive, got {delta2}")
    if not 0 <= kappa <= delta * delta2:
        raise ValueError(f"sum {kappa} unreachable with entries 0..{delta2}")

    half = (delta - 1) // 2
    gamma_cut = gamma + _PSD_SLACK
    ssq_max = floor((kappa * kappa + (delta - 1) * gamma_cut) / delta)
    ctable = _cos_table(delta)
    radix = delta2 + 1
    t = min(_TAIL, delta - 1)
    stop = delta - t
    others = _orbit_table(delta)[delta::delta]  # decimations by every unit but the first

    tables: dict[int, tuple] = {}  # tail tables by lowest entry
    reps: list[tuple[tuple[int, ...], int, tuple[int, ...]]] = []
    batch = np.empty((_BATCH, delta), dtype=np.int64)
    filled = 0
    prefix = [0] * stop

    def screen(rows: np.ndarray):
        rows = rows[~_rotation_below(rows, rows, radix)]
        ssq = (rows * rows).sum(axis=1)
        pafs = np.empty((len(rows), half), dtype=np.int64)
        for g in range(1, half + 1):
            pafs[:, g - 1] = (rows * np.roll(rows, -g, axis=1)).sum(axis=1)
        values = np.empty((len(rows), half), dtype=np.float64)
        values[:] = ssq[:, None]
        for g in range(half):
            values += pafs[:, g, None] * ctable[:, g]
        keep = (values < gamma_cut).all(axis=1)
        rows, ssq, pafs = rows[keep], ssq[keep], pafs[keep]
        images = rows[:, others].reshape(-1, delta)
        outside = _rotation_below(images, np.repeat(rows, len(others), axis=0), radix)
        keep = ~outside.reshape(len(rows), len(others)).any(axis=1)
        reps.extend(zip(
            map(tuple, rows[keep].tolist()),
            ssq[keep].tolist(),
            map(tuple, pafs[keep].tolist()),
        ))

    def complete(remaining: int, ssq: int, low: int):
        nonlocal filled
        if not t * low <= remaining <= t * delta2:
            return
        if low not in tables:
            tables[low] = _tail_table(t, low, delta2)
        tails, tail_ssq, starts = tables[low]
        a, b = starts[remaining - t * low], starts[remaining - t * low + 1]
        b = a + int(np.searchsorted(tail_ssq[a:b], ssq_max - ssq, side="right"))
        while a < b:
            k = min(b - a, _BATCH - filled)
            batch[filled:filled + k, :stop] = prefix
            batch[filled:filled + k, stop:] = tails[a:a + k]
            filled += k
            a += k
            if filled == _BATCH:
                screen(batch)
                filled = 0

    def descend(pos: int, remaining: int, ssq: int, low: int):
        if pos == stop:
            complete(remaining, ssq, low)
            return
        slots = delta - pos
        if not slots * low <= remaining <= slots * delta2:
            return
        base, extra = divmod(remaining, slots)
        if ssq + (slots - extra) * base * base + extra * (base + 1) ** 2 > ssq_max:
            return
        hi = min(delta2, remaining - (slots - 1) * low)
        for x in range(low, hi + 1):
            prefix[pos] = x
            descend(pos + 1, remaining - x, ssq + x * x, low)

    for q0 in range(0, min(delta2, kappa // delta) + 1):
        prefix[0] = q0
        descend(1, kappa - q0, q0 * q0, q0)
    screen(batch[:filled])

    reps.sort()
    for vec, ssq, half_paf in reps:
        yield CompressedCandidate(
            vector=vec,
            delta2=delta2,
            kappa=kappa,
            paf=_full_paf(ssq, half_paf, delta),
        )


def _paf_orbit(paf) -> tuple[tuple[int, ...], int, tuple[int, ...]]:
    """(key, a, stab): the least off-peak part over all decimations of paf,
    the least unit whose decimation reaches it, and the units that fix paf."""
    units_ = units(len(paf))
    images = decimations(paf)[:, 1:].tolist()
    key = min(images)
    stab = tuple(s for s, image in zip(units_, images) if image == images[0])
    return tuple(key), units_[images.index(key)], stab


def _equiv_decimations(candidate: CompressedCandidate, stab: tuple[int, ...]) -> tuple[int, ...]:
    """The units of stab, the PAF's stabiliser, that are not multipliers of
    the candidate: decimations that keep its PAF (hence PSD) but not its class."""
    members = multiplier_group(candidate.vector)
    return tuple(s for s in stab if s not in members)


def match_pairs(candidates, lam: int, delta2: int) -> list[CompressedPair]:
    """All unordered class pairs with off-peak PAF sums equal to delta2*lam.

    Candidates are class representatives, so the join has to work up to the
    decimation action: classes (a, b) pair up when PAF(a, g) + PAF(d_r(b), g)
    hits the target for every g != 0 and some unit r, not necessarily r = 1.
    Each candidate b is bucketed once by the key of its PAF orbit: the least
    off-peak decimation image, reached first by the unit a_b, with stabiliser
    Stab_b.  A candidate q pairs with exactly the b >= q in the bucket of its
    complement W = delta2*lam - PAF(q), whose key is reached first by w; the
    units aligning b are then the coset a_b * w^-1 * Stab_b, and r is its
    least member.  Stab also gives each class's PSD-preserving decimations.
    A class may pair with itself.  The join is exact-integer throughout,
    pairs are ordered by canonical form, and each is validated against the
    complementarity, sum-of-squares and PSD-sum identities, all on integers.
    """
    cands = list(candidates)
    if not cands:
        return []
    delta = cands[0].delta
    target = delta2 * lam
    orbits = [_paf_orbit(c.paf) for c in cands]
    # a class shares its PAF stabiliser and multipliers: b's set serves d_r(b)
    equiv = cache(lambda i: _equiv_decimations(cands[i], orbits[i][2]))
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, (key, _, _) in enumerate(orbits):
        buckets.setdefault(key, []).append(i)

    pairs: list[CompressedPair] = []
    for i, q in enumerate(cands):
        key_w, w, _ = _paf_orbit(tuple(target - x for x in q.paf))
        w_inv = pow(w, -1, delta)
        for j in buckets.get(key_w, ()):
            b = cands[j]
            if b.vector < q.vector:
                continue
            _, a_b, stab_b = orbits[j]
            r = min(a_b * w_inv * s % delta for s in stab_b)
            pairs.append(_build_pair(q, b, r, lam, equiv(i), equiv(j)))
    pairs.sort(key=lambda pr: pr.key)
    return pairs


def _decimated_candidate(c: CompressedCandidate, r: int) -> CompressedCandidate:
    return CompressedCandidate(decimate(c.vector, r), c.delta2, c.kappa, decimate(c.paf, r))


def _build_pair(q, p_class, r, lam, s_q, s_p) -> CompressedPair:
    delta = q.delta
    delta2 = q.delta2
    if p_class.delta != delta or p_class.delta2 != delta2 or p_class.kappa != q.kappa:
        raise ValueError("pair members come from different candidate spaces")
    p = _decimated_candidate(p_class, r)
    kappa = q.kappa
    target = delta2 * lam
    if any(q.paf[g] + p.paf[g] != target for g in range(1, delta)):
        raise InvariantViolation(
            f"autocorrelations not complementary for pair {q.vector}, {p.vector}"
        )
    ssq_sum = q.paf[0] + p.paf[0]
    expected = 2 * kappa * kappa - (delta - 1) * delta2 * lam
    if ssq_sum != expected:
        raise InvariantViolation(
            f"sum of squares {ssq_sum} != {expected} for pair {q.vector}, {p.vector}"
        )
    # PSD(q, k) + PSD(p, k) = sum_g (PAF(q, g) + PAF(p, g)) w^(gk) = ssq_sum - target, k != 0
    if ssq_sum - target != lam:
        raise InvariantViolation(
            f"PSD sums stray from {lam} for pair {q.vector}, {p.vector}"
        )
    return CompressedPair(
        q=q,
        p=p,
        p_canon=p_class.vector,
        r=r,
        lam=lam,
        s_q=s_q,
        s_p=s_p,
    )


def expand_pairs(pairs) -> list[CompressedPair]:
    """Decimated variants (q, d_s(p)) for s in {1} union S_p, every pair.

    Only the second member is decimated; the first is reused as-is across
    variants.  Each s preserves the PAF of p exactly, so every variant is
    itself a valid complementary pair and shares the base pair's class key.
    """
    out: list[CompressedPair] = []
    for pair in pairs:
        delta = pair.delta
        for s in (1,) + pair.s_p:
            if s == 1:
                out.append(pair)
            else:
                out.append(replace(
                    pair,
                    p=_decimated_candidate(pair.p, s),
                    r=(s * pair.r) % delta,
                ))
    return out
