"""End-to-end Legendre pair search over one coprime factorization.

The pipeline: generate compressed complementary pairs for both factors,
combine every delta1-pair with every delta2-pair into a task carrying four
marginal instances, enumerate each instance's binary matrices as arrays of
uint64 mask words (bit g is v_g of the reshaped vector), and join the two
sides of each cross-matching by sorting (Fletcher, Gysin and Seberry),
kept exact.  The keys are taken only over the free lags, the half lags
g = 1..(l-1)/2 that neither d1 nor d2 divides: the fixed marginals make
every other lag follow from them (see `run_tasks`).  The held side's keys
lam - PAF(u, g) meet the streamed side's PAF(v, g) in `spectral._key_join`,
the package's one exact join on PAF keys, which the census pair join uses
too: a hit counts only when the full keys agree.  By the marginals and PAF
symmetry a hit is exactly a complementary pair; every hit is still
confirmed by the exact test before it becomes a record.

A job is one cross-matching of a task whose two instances both have
solutions.  The consecutive jobs of a batch of tasks form a group while
their held sides total at most `_CHUNK` (bmfm's chunk size, 16,384) rows,
however many leaves they stream; a job that holds more is a group of its
own.  A group is joined as one: one sorted print table of its held rows,
each key carrying its row's job, and its streamed rows probed in blocks
of at most `_CHUNK`; the instances of one side that share a line layout
are enumerated by one `_leaf_stream`.  A group's held side is held in
slices of at most `_HELD` rows.  A job's records are sorted by the rank
of their streamed, then held, leaf (`_Job.order`), the order of one join
over its whole held side: so they are the same, in the same order, in
any group and for any slicing.

A search lifts one job per symmetry class.  The group of a Legendre pair
(a unit of Z_l on both members, a shift of each, swapping them, reversing
one) maps the hits of a job one to one onto those of every job of its
class (`_job_classes`).  `run_search` plans the classes once the census is
done, the workers run each class's first job only, and the parent maps
the other jobs' records from it, checking each (`_Plan`); so the records,
the sidecar, the archive and the checkpoint are those of running every
job.

Results are deduplicated by the unordered pair of decimation-class canonical
forms and sorted, which makes the final archive independent of worker count
and scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from itertools import chain
from math import gcd
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from . import bmfm, seqio
from .bmfm import MarginalInstance, _layout_key, _leaf_rank, _leaf_stream, _unpack, count
from .bmfm import enumerate_with_spectrum  # noqa: F401  bench/tracing.py patches this name
from .compress import CrtContext, compress
from .cyclic import _first_word, _orbit_table, decimation_canon, units
from .errors import InvariantViolation
from .pairgen import enum_candidates, expand_pairs, match_pairs
from .seqio import LegendrePairRecord
from .spectral import _buffer, _key_join, exact_complementary, paf


@dataclass(frozen=True)
class SearchConfig:
    """Run options.  None of them changes the records a completed task
    produces, so a run may be resumed with any of them changed.

    Task results are taken in task order for any `threads`, so the
    records sidecar, every checkpoint (the count of leading tasks done,
    written once per batch of tasks and on any exit that leaves marked
    tasks unwritten; see `run_search`) and the task a `stop_after` stop
    ends on do not depend on it."""

    threads: int = 1
    stop_after: int | None = None
    checkpoint_path: str | None = None
    archive_path: str | None = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be None or at least 1, got {self.stop_after}")


# the two cross-matchings of the four instances: (u-instance, v-instance)
_MATCHINGS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))


@dataclass(frozen=True)
class SearchTask:
    """One (delta1-pair, delta2-pair) combination: four marginal instances,
    and the cross-matchings of them that `run_tasks` runs (both, unless
    `run_search` derives the other's records; see `_Plan`)."""

    index: int
    members1: tuple[tuple[int, ...], tuple[int, ...]]
    members2: tuple[tuple[int, ...], tuple[int, ...]]
    matchings: tuple = _MATCHINGS

    def instance(self, i: int, j: int) -> MarginalInstance:
        return MarginalInstance(self.members1[i], self.members2[j])


_HELD = 2_000_000  # most masks held at once; a larger side is held in slices


def correlation_energy(v) -> int:
    """Sum of squared off-peak autocorrelations of the {-1,1} version of v,
    over the first half of the lags: PAF(2v - 1, g) = 4 PAF(v, g) - 4 sum(v) + len(v)."""
    values = paf(v)
    return _energy(values[1:(len(values) + 1) // 2], len(values), sum(v))


def _energy(half, n: int, ones: int) -> int:
    """correlation_energy of a length-n vector with `ones` ones, from its
    PAF at the half lags 1..(n-1)/2."""
    return sum((4 * x + n - 4 * ones) ** 2 for x in half)


def canonicalize_lp(u, v, lam: int, task: int = -1,
                    instances=((0, 0), (1, 1))) -> LegendrePairRecord:
    """Build the deduplication record for a verified pair.

    The record key is the unordered pair of decimation-class canonical
    forms; equal keys identify equivalent pairs.  Both energies come from
    PAF(u): the pair is complementary, so PAF(v, g) = lam - PAF(u, g) at
    every g != 0.
    """
    if not exact_complementary(u, v, lam):
        raise ValueError("not a complementary pair at the stated lambda")
    n = len(u)
    half = paf(u)[1:(n + 1) // 2]
    return LegendrePairRecord(
        u=tuple(u),
        v=tuple(v),
        canon_u=decimation_canon(u)[0],
        canon_v=decimation_canon(v)[0],
        lam=lam,
        rho_u=_energy(half, n, sum(u)),
        rho_v=_energy([lam - x for x in half], n, sum(v)),
        task=task,
        instances=tuple((int(a), int(b)) for a, b in instances),
    )


def compressed_census(length: int, delta: int):
    """Candidates, matched pairs, and expanded pairs for one factor.

    Returns (candidates, pairs, expanded).
    """
    _validate_length(length)
    if delta < 1:
        raise ValueError(f"delta must be at least 1, got {delta}")
    if length % delta != 0:
        raise ValueError(f"{delta} does not divide {length}")
    delta2 = length // delta
    if gcd(delta, delta2) != 1:
        raise ValueError(f"cofactors {delta}, {delta2} are not coprime")
    cands = list(enum_candidates(delta, delta2, (length + 1) // 2))
    pairs = match_pairs(cands)
    return cands, pairs, expand_pairs(pairs)


def build_tasks(pairs1, pairs2) -> list[SearchTask]:
    """One task per pair combination, deterministically ordered."""
    tasks = []
    for i, a in enumerate(pairs1):
        for j, b in enumerate(pairs2):
            tasks.append(SearchTask(
                index=i * len(pairs2) + j,
                members1=a.members,
                members2=b.members,
            ))
    return tasks


# lags x W x rows per block of _paf_keys: a block's rotated words and their
# high parts fill one per-thread buffer of 2 x 512 KB, which stays mapped and
# in a 2 MB L2 cache (blocks of 2 MB did not fit it)
_KEY_WORDS = 1 << 16


# cached per lag set: a search keys every chunk of every job on the same lags
@lru_cache(maxsize=None)
def _key_plan(ell: int, lags: tuple[int, ...], w: int):
    """The lag groups of `_paf_keys` for ascending lags and w words per row,
    and the words of d they read.  A group holds the lags of one word
    offset q = g // 64: q, its slice of the lags, their down shifts g % 64
    and up shifts 64 - g % 64 as columns, and for each word k of a row the
    first lag of the slice whose high part is not all junk."""
    g = np.array(lags, dtype=np.uint64)
    groups, need = [], set()
    for q in sorted({lag // 64 for lag in lags}):
        lo, hi = (int(i) for i in np.searchsorted(g, [64 * q, 64 * q + 64]))
        down = g[lo:hi, None] % 64
        # the high part of word k lands at bits 64 (k + 1) - g % 64 and up
        spill = [int(np.searchsorted(down[:, 0], 64 * w - ell if k == w - 1 else 0, "right"))
                 for k in range(w)]
        groups.append((q, slice(lo, hi), down, 64 - down, spill))
        need |= {q + k for k in range(w)} | {q + k + 1 for k, s in enumerate(spill) if s < hi - lo}
    return groups, sorted(need)


def _doubled_word(b: np.ndarray, ell: int, i: int) -> np.ndarray:
    """Word i of d = x | x << ell, for the words b (W, rows) of x."""
    q, r = divmod(ell, 64)
    w = len(b)
    parts = [b[i]] if i < w else []
    if q <= i < q + w:
        parts.append(b[i - q] << r)
    if r and q < i <= q + w:
        parts.append(b[i - q - 1] >> (64 - r))
    return reduce(np.bitwise_or, parts)


def _paf_keys(x: np.ndarray, ell: int, lags: np.ndarray, out=None) -> np.ndarray:
    """(N, len(lags)) uint8: PAF(v, g) for each g in lags (each 1..(ell-1)/2)
    of each row's vector, the transpose of `out` (len(lags), N) when given.

    Row i of x holds the uint64 words of a vector whose bit g is v_g.
    PAF(v, g) is popcount(x & rot(x, g)), summed over the words; since
    PAF(v, g) = PAF(v, ell - g), the half lags determine the whole PAF.

    With the doubled words d = x | x << ell, rot(x, g) is the low W words
    of d >> g: for g = 64 q + r, word k is word q + k of d shifted down by
    r, OR-ed with word q + k + 1 shifted up by 64 - r.  The lags are
    grouped by word offset q (one group below ell = 129), so each word k
    of a group is one broadcast shift of one word of d against the
    group's shift column, with no gather; it is AND-ed with word k of x
    and popcounted straight into the uint8 output, or added to it after
    the first word.  Bits at or above ell are junk and vanish in the AND.
    The high part is computed only where it is not all junk: never for
    r = 0, and in the top word only when r > 64 W - ell (with one word,
    g > 64 - ell, which no half lag meets when ell <= 43).  `lags` must be
    ascending, so within a group the lags that need it are a suffix.
    Only the words of d the groups read are formed.  Rows go in blocks of
    at most `_KEY_WORDS` words of lags x W x rows (6,553 rows at ell = 33
    on its 10 free lags), so memory stays bounded for any N.  A block's
    shifted words, their high parts and the popcounts added after the
    first word go into this thread's buffers (`_buffer`), so a warm call
    allocates no array of a block's size.
    """
    n, w = x.shape
    groups, need = _key_plan(ell, tuple(lags.tolist()), w)
    if out is None:
        out = np.empty((len(lags), n), dtype=np.uint8)
    block = max(1, _KEY_WORDS // (len(lags) * w))
    size = len(lags) * min(block, n)
    words = _buffer("key_words", 2 * size, np.uint64)
    buffers = words[:size], words[size:], _buffer("key_counts", size, np.uint8)
    for lo in range(0, n, block):
        b = x[lo:lo + block].T
        d = {i: _doubled_word(b, ell, i) for i in need}
        for q, part, down, up, spill in groups:
            keys = out[part, lo:lo + block]
            rot, high, add = (a[:keys.size].reshape(keys.shape) for a in buffers)
            for k, s in enumerate(spill):
                np.right_shift(d[q + k], down, out=rot)
                if s < len(down):
                    rot[s:] |= np.left_shift(d[q + k + 1], up[s:], out=high[s:])
                rot &= b[k]
                if k:
                    keys += np.bitwise_count(rot, out=add)
                else:
                    np.bitwise_count(rot, out=keys)
    return out.T


def _free_lags(ctx: CrtContext) -> np.ndarray:
    """The half lags g = 1..(ell-1)/2 that neither d1 nor d2 divides:
    (d1 - 1)(d2 - 1)/2 of them.  See `run_tasks` for why they suffice."""
    g = np.arange(1, (ctx.ell + 1) // 2)
    return g[(g % ctx.d1 != 0) & (g % ctx.d2 != 0)]


def _join_keys(keys: np.ndarray, rows: np.ndarray, jobs: np.ndarray, ell: int, lags: np.ndarray,
               lam: int = 0) -> np.ndarray:
    """Fill keys (len(lags) + 1, N) uint8 with each row's PAF(v, g) over the
    lags, or lam - PAF(u, g) when lam is given, then the low byte of each
    row's job; return its transpose, one key per row."""
    paf = keys[:-1]
    _paf_keys(rows, ell, lags, out=paf)
    if lam:
        np.subtract(lam, paf, out=paf)
    keys[-1] = jobs  # wraps past 255: the jobs themselves are compared exactly
    return keys.T


def _join(held: np.ndarray, jobs: np.ndarray, streamed, ell: int, lags: np.ndarray):
    """Yield (job, u, v): word rows u from held and v from a streamed
    block, of one job, with PAF(u, g) + PAF(v, g) = lam = (ell + 1) / 2 at
    every lag g in lags.

    One join serves a group of jobs (see `run_tasks`): jobs[i] is the job
    of held row i, and each streamed block is a pair (rows, their jobs).
    A row's key is its lam - PAF(u) (held) or PAF(v) (streamed) over the
    lags, with the low byte of its job as one more column, so rows of two
    jobs rarely share a print; `spectral._key_join` matches equal keys,
    expanding at most `_CHUNK` candidate pairs at a time, and a match
    counts only when its two jobs are equal too, so no two jobs are
    paired.  Hits come block by block, in streamed and then held order.
    A streamed block's keys go into this thread's buffer (`_buffer`).
    """
    width = len(lags) + 1
    want = _join_keys(np.empty((width, len(held)), dtype=np.uint8), held, jobs, ell, lags, (ell + 1) // 2)

    def blocks():
        for rows, row_jobs in streamed:
            n = len(rows)
            yield _join_keys(_buffer("join_keys", width * n, np.uint8).reshape(width, n),
                             rows, row_jobs, ell, lags), (rows, row_jobs)

    for (rows, row_jobs), s, h in _key_join(want, blocks(), bmfm._CHUNK):
        same = jobs[h] == row_jobs[s]
        for a, b in zip(h[same].tolist(), s[same].tolist()):
            yield int(jobs[a]), held[a], rows[b]


def _slices(chunks, cap: int):
    """The rows of a stream of arrays, in arrays of exactly cap rows
    (the last one shorter)."""
    pending, size = [], 0
    for chunk in chunks:
        while len(chunk):
            take = cap - size
            pending.append(chunk[:take])
            size, chunk = size + len(pending[-1]), chunk[take:]
            if size == cap:
                yield pending[0] if len(pending) == 1 else np.concatenate(pending)
                pending, size = [], 0
    if pending:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _group_leaves(insts, counts, bits, cap: int):
    """The leaves of the instances, one `_leaf_stream` per line layout, in
    arrays of exactly cap rows (the last one shorter), each with the index
    in insts of every row's instance.  counts[k] is count(insts[k])."""
    layouts: dict = {}
    for k, inst in enumerate(insts):
        layouts.setdefault(_layout_key(inst), []).append(k)
    order = np.array([k for ks in layouts.values() for k in ks], dtype=np.min_scalar_type(len(insts)))
    bounds = np.concatenate(([0], np.asarray(counts)[order].cumsum()))  # insts[order[i]] has rows bounds[i]..bounds[i + 1]
    chunks = chain.from_iterable(_leaf_stream([insts[k] for k in ks], bits) for ks in layouts.values())
    start = 0
    for block in _slices(chunks, cap):
        stop = start + len(block)
        yield block, order.repeat(np.diff(bounds.clip(start, stop)))
        start = stop


def _vector(words: np.ndarray, ell: int) -> tuple[int, ...]:
    """The 0/1 entries v_0..v_{ell-1} of one row of mask words."""
    return tuple(_unpack(words, ell).tolist())


class _Job(NamedTuple):
    """One cross-matching of a task whose instances both have solutions:
    the instance with fewer of them is held, the other streamed."""

    task: int  # position in the batch
    matching: tuple
    held: MarginalInstance
    streamed: MarginalInstance
    n_held: int
    n_streamed: int
    swapped: bool  # the held instance is the matching's v side

    def order(self, bits):
        """The sort key of this job's hits, as a function of (u, v): the
        `_leaf_rank` of the streamed leaf, then of the held leaf.  One join
        over the whole held side finds the hits in this order (`_join`)."""
        streamed, held = _leaf_rank(self.streamed, bits), _leaf_rank(self.held, bits)
        if self.swapped:
            return lambda u, v: (streamed(u), held(v))
        return lambda u, v: (streamed(v), held(u))


def _job(t: int, task: SearchTask, matching):
    """The job of one cross-matching of tasks[t], or None when one of its
    instances has no solution."""
    inst_u, inst_v = (task.instance(i, j) for i, j in matching)
    n_u, n_v = count(inst_u), count(inst_v)
    if not (n_u and n_v):
        return None
    if n_v < n_u:
        return _Job(t, matching, inst_v, inst_u, n_v, n_u, True)
    return _Job(t, matching, inst_u, inst_v, n_u, n_v, False)


def _jobs(tasks) -> list[_Job]:
    """The jobs of the cross-matchings each task runs, in task order."""
    return [job for t, task in enumerate(tasks) for m in task.matchings if (job := _job(t, task, m))]


def _groups(jobs, cap: int):
    """The jobs in groups, as lists of indices in jobs, in job order: runs
    of consecutive jobs whose held sides total at most cap rows, and each
    job that holds more alone."""
    group, size = [], 0
    for k, job in enumerate(jobs):
        if group and size + job.n_held > cap:
            yield group
            group, size = [], 0
        group.append(k)
        size += job.n_held
    if group:
        yield group


def run_tasks(tasks, ctx: CrtContext) -> list[list[LegendrePairRecord]]:
    """All Legendre pairs discoverable from each pair combination: one
    record list per task, in task order.

    A task's jobs are its two cross-matchings whose instances both have
    solutions; the instance with fewer solutions is held, keyed by lam -
    PAF(u, g) over the free lags (`_free_lags`), and the other instance's
    leaves stream past it and are matched by sorting (see `_join`).  A hit
    satisfies PAF(u, g) + PAF(v, g) = lam at every nonzero lag;
    canonicalize_lp confirms it with the exact test before the record is
    kept.

    Consecutive jobs of the batch form a group while their held sides
    total at most `_CHUNK` rows, whatever they stream; a job that holds
    more is a group of its own (`_groups`).  A group is one join: its held
    leaves make one sorted print table, its streamed leaves are keyed and
    probed in blocks of at most `_CHUNK` rows, and the instances of its
    held (and of its streamed) sides that share a line layout are
    enumerated together (`_leaf_stream`).  A group's held side is held in
    slices of at most `_HELD` masks, one join per slice.  Each job's hits
    are kept apart and sorted by `_Job.order` (streamed leaf, then held
    leaf: the order of one join over the whole held side), and the
    records are built job by job, so a task's records depend neither on
    the batch it runs in nor on the slices.  A task runs the
    cross-matchings of `task.matchings`: both, unless `run_search` derives
    one's records (`_Plan`).

    The free lags suffice.  Write e(g) = PAF(u, g) + PAF(v, g) - lam.  The
    row sums of both instances are the d1-compressions of u and v, a
    complementary pair, and the compressed PAF at lag a is the sum of
    PAF(u, g) over g = a mod d1; so e sums to 0 over every nonzero residue
    class mod d1, and likewise mod d2 through the column sums.  A lag that
    d2 divides (but d1 does not) is thus minus the sum of the free lags in
    its class mod d1, and symmetrically, so e = 0 on the free lags (and on
    their mirrors ell - g) gives e = 0 at every nonzero lag.
    """
    ell = ctx.ell
    bits = ctx.cell_bits
    lags = _free_lags(ctx)
    jobs = list(_jobs(tasks))
    # a hit is kept as its two vectors: a row of word arrays would keep its
    # whole held slice alive until the batch ends
    hits: list[list] = [[] for _ in jobs]
    cap = bmfm._CHUNK
    for group in _groups(jobs, cap):
        members = [jobs[k] for k in group]
        for held, owner in _group_leaves([j.held for j in members], [j.n_held for j in members], bits, _HELD):
            streamed = _group_leaves([j.streamed for j in members], [j.n_streamed for j in members], bits, cap)
            for i, x, y in _join(held, owner, streamed, ell, lags):
                hits[group[i]].append((_vector(x, ell), _vector(y, ell)))

    lam = (ell + 1) // 2
    records: list[list[LegendrePairRecord]] = [[] for _ in tasks]
    for job, pairs in zip(jobs, hits):
        pairs = [(y, x) if job.swapped else (x, y) for x, y in pairs]
        if len(pairs) > 1:  # a held side in slices finds them slice by slice
            key = job.order(bits)
            pairs.sort(key=lambda pair: key(*pair))
        for u, v in pairs:
            records[job.task].append(canonicalize_lp(
                u, v, lam, task=tasks[job.task].index, instances=job.matching))
    return records


def run_task(task: SearchTask, ctx: CrtContext) -> list[LegendrePairRecord]:
    """All Legendre pairs discoverable from one pair combination: a batch
    of one task for `run_tasks`, which says how."""
    return run_tasks([task], ctx)[0]


def _refuse_unwritable(path: str, what: str) -> None:
    """ValueError unless a file can be written at path: refuse a directory,
    and a path whose directory is missing or not writable."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise ValueError(f"{what} {path} is a directory, or its directory is missing or not writable")


def _validate_length(length: int) -> None:
    if length < 3 or length % 2 == 0:
        raise ValueError(f"length must be odd and at least 3, got {length}")


def _validate_factors(length: int, d1: int, d2: int) -> None:
    _validate_length(length)
    if d1 * d2 != length:
        raise ValueError(f"{d1} * {d2} != {length}")
    if d1 < 2 or d2 < 2:
        raise ValueError("factors must both exceed 1")


def _fingerprint(length, d1, d2, expanded1, expanded2) -> str:
    doc = {
        "length": length,
        "factors": [d1, d2],
        "pairs1": [list(m) for p in expanded1 for m in p.members],
        "pairs2": [list(m) for p in expanded2 for m in p.members],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _rotation_ranks(vectors, d: int):
    """For each of the vectors (length d) and each unit k of Z_d, ascending:
    the rank, among all of these, of the least rotation of its decimation
    by k, and that rotation's shift (the least on ties); and the number of
    ranks.

    Each image of `cyclic._orbit_table`, in (unit, shift) order, is read
    as one integer of bits-wide digits, first position most significant,
    so the integers compare as the images do: one product with the
    `cyclic._first_word` table when they fit a uint64, else Python ints
    from one gather of the orbit table.  The ranks come by sort and
    compare: np.unique imports numpy.ma (see `cyclic.decimation_canon`).
    """
    a = np.array(vectors)
    bits = max(1, int(a.max()).bit_length())
    if d * bits <= 63:
        codes = a.astype(np.uint64) @ _first_word(d, bits)
    else:
        codes = a[:, _orbit_table(d)].astype(object) @ [1 << bits * p for p in reversed(range(d))]
    codes = codes.reshape(len(a), -1, d)
    least = codes.min(axis=2)
    values = np.sort(least, axis=None)
    values = values[np.concatenate(([True], values[1:] != values[:-1]))]
    return np.searchsorted(values, least), codes.argmin(axis=2), len(values)


def _job_classes(tasks, ctx: CrtContext):
    """The symmetry classes of the jobs of tasks, where job 2 t + m is
    cross-matching _MATCHINGS[m] of tasks[t] (whether or not its instances
    have solutions).

    A job is the d1- and d2-compressions (x1, x2) of u and (y1, y2) of v.
    The group of a Legendre pair (a unit K of Z_ell on both members, a
    shift of each member, swapping them, decimating one member by -1) maps
    the hits of a job one to one onto the hits of the job of the images'
    compressions, as compressing commutes with both shifts and decimations
    (by K mod d).  By the CRT the unit and the shifts act on each factor
    apart.  So per factor i the ordered pair (x_i, y_i) has a canonical
    form: over the units k of Z_{d_i}, the least pair (least rotation of
    d_k x_i, least rotation of d_k y_i); and a job's class key is the least
    (form at d1, form at d2) over swapping u and v or not and decimating u
    by -1 or not.  Pairs are compared through `_rotation_ranks`, with
    array minima over all jobs at once.

    Returns (rep, swap, unit, shift).  rep[J] is the first job of J's class
    in job order.  The other three give g_J, a group element taking J to
    its class key: with (a, b) = (v, u) when swap[J] and (u, v) otherwise,
    it takes a hit (u, v) of J to (shift(decimate(a, unit[J, 0]), shift[J,
    0]), shift(decimate(b, unit[J, 1]), shift[J, 1])) (see `cyclic`), a
    hit of any job of the class that has its key.
    """
    n, jobs = len(tasks), np.arange(2 * len(tasks))
    crt = np.empty((ctx.d1, ctx.d2), dtype=np.int64)
    crt[tuple(np.array(ctx.index_pairs).T)] = np.arange(ctx.ell)
    keys, parts = [], []  # per factor: (variant, job) keys; (variant, (units, shifts), job) residues
    for f, d in enumerate((ctx.d1, ctx.d2)):
        ids: dict = {}
        member = np.array([ids.setdefault(m, len(ids)) for t in tasks for m in (t.members1, t.members2)[f]],
                          dtype=np.intp).reshape(n, 2)
        rank, shift, size = _rotation_ranks(list(ids), d)
        x, y = (member[:, [m[side][f] for m in _MATCHINGS]].ravel() for side in (0, 1))
        unit = np.array(units(d))
        same, neg = np.arange(len(unit)), np.searchsorted(unit, -unit % d)  # the column of k, of -k
        key, part = [], []
        for swap in (False, True):
            for reverse in (False, True):  # u decimated by -1
                a, b = (y, x) if swap else (x, y)
                column_u = neg if reverse else same
                ca, cb = (same, column_u) if swap else (column_u, same)
                pair = rank[a][:, ca] * size + rank[b][:, cb]
                k = pair.argmin(axis=1)
                key.append(pair[jobs, k])
                part.append((unit[ca[k]], unit[cb[k]], shift[a, ca[k]], shift[b, cb[k]]))
        keys.append(np.array(key))
        parts.append(np.array(part))
    first, second = keys
    # the variant of the least (first, second): swap is its high bit
    best = np.where(first == first.min(axis=0), second, second.max() + 1).argmin(axis=0)
    first, second = first[best, jobs], second[best, jobs]
    order = np.lexsort((second, first))  # stable: a class's jobs stay in job order
    first, second = first[order], second[order]
    new = np.concatenate(([True], (first[1:] != first[:-1]) | (second[1:] != second[:-1])))
    rep = np.empty_like(order)
    rep[order] = order[new.nonzero()[0]][new.cumsum() - 1]
    one, two = (p[best, :, jobs] for p in parts)  # (job, 4)
    return rep, best >= 2, crt[one[:, :2], two[:, :2]], crt[one[:, 2:], two[:, 2:]]


class _Plan:
    """One job per symmetry class is lifted; the others' records are mapped
    from it (see `_job_classes`).

    `lifted` gives a task that runs only the jobs that are the first of
    their class.  `records` builds a task's records, cross-matching by
    cross-matching: a representative job's are the ones run_task found; a
    derived job J's are its representative R's records mapped through h =
    g_J^-1 g_R, a permutation of each member's positions, with the canonical
    forms and energies carried over (swapped when h swaps u and v: both are
    invariant under the group).  Every mapped pair is checked to be
    complementary and to have J's four compressions, or InvariantViolation
    is raised.  R comes before J, so its records were marked earlier in
    this run, or are among `records`, those of the tasks a resumed
    checkpoint counts as done.  A job's records are sorted by `_Job.order`,
    as `run_tasks` sorts them.
    """

    def __init__(self, tasks, ctx: CrtContext, records):
        self.tasks, self.ctx = tasks, ctx
        # as lists: a derived job reads a few entries each, as Python ints
        self.rep, self.swap, self.unit, self.shift = (a.tolist() for a in _job_classes(tasks, ctx))
        self.found: dict[int, list] = {}  # a representative job's records
        for r in records:
            self.found.setdefault(2 * r.task + _MATCHINGS.index(r.instances), []).append(r)

    def lifted(self, task: SearchTask) -> SearchTask:
        jobs = range(2 * task.index, 2 * task.index + 2)
        matchings = tuple(m for m, j in zip(_MATCHINGS, jobs) if self.rep[j] == j)
        return task if matchings == task.matchings else replace(task, matchings=matchings)

    def records(self, index: int, run) -> list[LegendrePairRecord]:
        task, out = self.tasks[index], []
        for m, matching in enumerate(_MATCHINGS):
            job, rep = 2 * index + m, self.rep[2 * index + m]
            if job == rep:
                self.found[job] = [r for r in run if r.instances == matching]
                out += self.found[job]
            else:
                out += self._derive(job, rep, task, matching)
        return out

    def _derive(self, job: int, rep: int, task: SearchTask, matching) -> list[LegendrePairRecord]:
        source = self.found.get(rep, [])
        if not source:
            return []
        ell, d1, d2 = self.ctx.ell, self.ctx.d1, self.ctx.d2
        # position g of side s of the class key is position unit^-1 (g -
        # shift) of side s of a job's pair (a, b): so position h of J's side
        # s is position unit_J h + shift_J of the key, which is position
        # unit_R^-1 (unit_J h + shift_J - shift_R) of R's side s
        read = []
        for s in (0, 1):
            inv = pow(self.unit[rep][s], -1, ell)
            a, c = inv * self.unit[job][s], inv * (self.shift[job][s] - self.shift[rep][s])
            read.append(itemgetter(*[(a * h + c) % ell for h in range(ell)]))
        flip = self.swap[job] != self.swap[rep]  # h swaps u and v
        read_u, read_v = read[::-1] if self.swap[job] else read
        want = tuple(tuple(map(int, members[i]))  # (x1, x2, y1, y2)
                     for side in matching for members, i in zip((task.members1, task.members2), side))
        records = []
        for r in source:
            u, v = read_u(r.v if flip else r.u), read_v(r.u if flip else r.v)
            if (compress(u, d1), compress(u, d2), compress(v, d1), compress(v, d2)) != want \
                    or not exact_complementary(u, v, r.lam):
                raise InvariantViolation(
                    f"job {matching} of task {task.index}: a hit of task {rep // 2}'s job "
                    f"{_MATCHINGS[rep % 2]} maps to {(u, v)}, which is not one of its hits")
            (cu, ru), (cv, rv) = ((r.canon_v, r.rho_v), (r.canon_u, r.rho_u)) if flip else \
                ((r.canon_u, r.rho_u), (r.canon_v, r.rho_v))
            records.append(LegendrePairRecord(u, v, cu, cv, r.lam, ru, rv, task.index, matching))
        if len(records) > 1:
            key = _job(0, task, matching).order(self.ctx.cell_bits)
            records.sort(key=lambda r: key(r.u, r.v))
        return records


# Tasks per worker call and per checkpoint write: a batch is one IPC round
# trip and one flush, and a hard kill loses the tasks since the last flush.
_BATCH = 16


def _worker(batch: list[SearchTask], ctx: CrtContext):
    return [(task.index, records) for task, records in zip(batch, run_tasks(batch, ctx))]


class _Progress:
    """Task completion tracking with optional on-disk checkpointing.

    Tasks complete in index order, so progress is one count: tasks
    0..done-1 are complete.  `mark` records the next task in memory (any
    other task is an InvariantViolation); `flush` writes every marked task
    to the records sidecar and the checkpoint.  The checkpoint's count
    always covers exactly the tasks whose records lie below its offset.
    """

    def __init__(self, fingerprint: str, n_tasks: int, path):
        self.fingerprint = fingerprint
        self.n_tasks = n_tasks
        self.path = path
        self.done = 0
        self.records: list[LegendrePairRecord] = []
        self._records_path = str(path) + ".records" if path else None
        self._saved = 0  # records below the checkpoint's offset
        self._offset = 0
        self._written: int | None = None  # done of the checkpoint on disk, saved or loaded

    def start(self, resume: bool, length: int) -> None:
        """Load the checkpoint when resuming one; otherwise start clean.

        A fresh run removes any old checkpoint and empties the records
        sidecar, so records of an earlier run can never be read back.  A
        resumed sidecar must hold records of this length and lambda.
        """
        if not self.path:
            return
        if not (resume and os.path.exists(self.path)):
            if os.path.exists(self.path):
                os.remove(self.path)
            open(self._records_path, "w").close()
            return
        cp = seqio.load_checkpoint(self.path)
        if cp.fingerprint != self.fingerprint:
            raise ValueError(
                "checkpoint fingerprint does not match this configuration; refusing to resume"
            )
        if cp.n_tasks != self.n_tasks:
            raise ValueError("checkpoint task count mismatch; refusing to resume")
        sidecar = self._records_path
        if not os.path.exists(sidecar) or os.path.getsize(sidecar) < cp.partial_offset:
            raise ValueError(
                f"records file {sidecar} is missing or shorter than the checkpoint's "
                f"{cp.partial_offset} bytes; refusing to resume"
            )
        with open(sidecar) as fh:
            data = fh.read(cp.partial_offset)
        # read before the cut, so a refused resume leaves both files as they were
        self.records = seqio.read_records(sidecar, data, length, (length + 1) // 2)
        os.truncate(sidecar, cp.partial_offset)
        self.done = self._written = cp.done
        self._saved, self._offset = len(self.records), cp.partial_offset

    def mark(self, index: int, new_records) -> None:
        if index != self.done:
            raise InvariantViolation(f"task {index} completed before task {self.done}")
        self.done += 1
        self.records.extend(new_records)

    def flush(self) -> None:
        """Append the records not yet written, fsync, save the checkpoint;
        do nothing when no task was marked since the checkpoint on disk.

        The sidecar is first cut back to the last checkpoint's offset, so
        a flush retried after one that failed midway (an interrupt during
        the fsync, a full disk) can neither tear nor double a record; a
        save that raised leaves `_written` as it was, so the retry writes.
        A skipped flush leaves unsynced at most a resume's cut of the
        sidecar to the checkpoint's offset, which every resume makes again.
        """
        if not self.path or self.done == self._written:
            return
        with open(self._records_path, "r+") as fh:
            fh.seek(self._offset)
            fh.truncate()
            for record in self.records[self._saved:]:
                fh.write(seqio.record_to_json(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
            offset = fh.tell()
        seqio.save_checkpoint(self.path, seqio.Checkpoint(
            fingerprint=self.fingerprint,
            n_tasks=self.n_tasks,
            done=self.done,
            partial_offset=offset,
        ))
        self._saved, self._offset, self._written = len(self.records), offset, self.done


def _finalize(progress: _Progress, lam: int) -> list[LegendrePairRecord]:
    """Deduplicate by canonical key, keep the first-discovered record, verify, sort."""
    ordered = sorted(
        progress.records,
        key=lambda r: (r.key, r.task, r.instances, r.u, r.v),
    )
    final: list[LegendrePairRecord] = []
    for record in ordered:
        if final and final[-1].key == record.key:
            continue
        if not exact_complementary(record.u, record.v, lam):
            raise InvariantViolation(f"archived record fails verification: {record}")
        final.append(record)
    return final


def run_search(length: int, d1: int, d2: int,
               config: SearchConfig = SearchConfig(), resume: bool = False):
    """Full pipeline: census both factors, run all tasks, dedupe, archive.

    Returns (records, summary).  The record list is sorted by canonical
    key and is identical for any worker count.  resume=True needs a
    checkpoint path; it restarts after the tasks the checkpoint counts as
    done and refuses a checkpoint of different inputs (length, factor
    order or compressed pairs).  A run without resume starts from scratch.

    Pending tasks run in batches of consecutive tasks, at most `_BATCH`
    and few enough that every worker gets one; a worker runs a whole
    batch per call.  One loop takes each task's results in task order,
    from the pool's batches in submission order or from this process, so
    the done tasks are always a prefix of the task list: `stop_after` is
    checked after every task, and the checkpoint is written once per batch
    of tasks and on any exit (finished, stopped, Ctrl-C, a failing worker)
    that leaves marked tasks unwritten, after the batches not yet started
    are cancelled.  A fresh run writes a checkpoint at least once; a
    resume that runs no task leaves the checkpoint and sidecar as they were.
    Batches that finished after the oldest unfinished one are not kept
    on a failure, Ctrl-C or hard kill, and run again on resume.

    When tasks are pending, the jobs are first planned into symmetry
    classes (`_Plan`): the pending tasks run only the first job of each
    class, and as this loop takes a task's results it maps the task's
    other jobs' records from their classes' first jobs, found earlier in
    this run or read back from the sidecar.  Each task's records, and so
    every file written, are those run_task gives the task with both
    cross-matchings.
    """
    if resume and not config.checkpoint_path:
        raise ValueError("resume needs a checkpoint path (--checkpoint)")
    # bad paths are refused before the census, so they waste no run
    if config.archive_path:
        _refuse_unwritable(config.archive_path, "archive")
    if config.checkpoint_path:
        _refuse_unwritable(config.checkpoint_path, "checkpoint")
    _validate_factors(length, d1, d2)
    ctx = CrtContext(d1, d2)
    lam = (length + 1) // 2
    _, _, expanded1 = compressed_census(length, d1)
    _, _, expanded2 = compressed_census(length, d2)
    tasks = build_tasks(expanded1, expanded2)
    fingerprint = _fingerprint(length, d1, d2, expanded1, expanded2)

    progress = _Progress(fingerprint, len(tasks), config.checkpoint_path)
    progress.start(resume, length)
    pending = tasks[progress.done:]
    if pending:
        plan = _Plan(tasks, ctx, progress.records)
        pending = [plan.lifted(t) for t in pending]

    size = min(_BATCH, -(-len(pending) // config.threads))
    with ExitStack() as stack:
        stack.callback(progress.flush)
        if config.threads > 1 and pending:
            batches = [pending[i:i + size] for i in range(0, len(pending), size)]
            pool = ProcessPoolExecutor(max_workers=min(config.threads, len(batches)))
            stack.callback(pool.shutdown, cancel_futures=True)
            futures = [pool.submit(_worker, b, ctx) for b in batches]
            results = (pair for f in futures for pair in f.result())
        else:
            results = ((t.index, run_task(t, ctx)) for t in pending)
        for n, (index, new_records) in enumerate(results, 1):
            progress.mark(index, plan.records(index, new_records))
            if config.stop_after is not None and len(progress.records) >= config.stop_after:
                break
            if n % size == 0:
                progress.flush()

    final = _finalize(progress, lam)
    summary = {
        "length": length,
        "factors": [d1, d2],
        "lambda": lam,
        "tasks": len(tasks),
        "completed": progress.done,
        "records": len(final),
    }
    if config.archive_path:
        seqio.write_archive(config.archive_path, final, summary)
    return final, summary
