"""End-to-end Legendre pair search over one coprime factorization.

The pipeline: generate compressed complementary pairs for both factors,
combine every delta1-pair with every delta2-pair into a task carrying four
marginal instances, enumerate each instance's binary matrices as arrays of
uint64 mask words (bit g is v_g of the reshaped vector), and join the two
sides of each cross-matching by sorting (Fletcher, Gysin and Seberry),
kept exact.  The held side's keys lam - PAF(u, g) over the half lags
g = 1..(l-1)/2 are sorted once by a uint64 print; the streamed side's
PAF(v, g) prints are located by binary search, and a hit counts only when
the full keys agree.  By PAF symmetry a hit is exactly a complementary
pair; every hit is still confirmed by the exact test before it becomes a
record.

Results are deduplicated by the unordered pair of decimation-class canonical
forms and sorted, which makes the final archive independent of worker count
and scheduling.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import seqio
from .bmfm import MarginalInstance, _leaf_chunks, _unpack, count
from .bmfm import enumerate_with_spectrum  # noqa: F401  bench/tracing.py patches this name
from .compress import CrtContext
from .cyclic import decimation_canon
from .errors import InvariantViolation
from .pairgen import enum_candidates, expand_pairs, match_pairs
from .spectral import exact_complementary, paf


@dataclass(frozen=True)
class SearchConfig:
    """Run options.  None of them changes the records a completed task
    produces, so a run may be resumed with any of them changed."""

    threads: int = 1
    max_bucket_memory: int = 2_000_000
    stop_after: int | None = None
    checkpoint_path: str | None = None
    archive_path: str | None = None

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        if self.max_bucket_memory < 1:
            raise ValueError(
                f"max_bucket_memory must be at least 1, got {self.max_bucket_memory}"
            )
        if self.stop_after is not None and self.stop_after < 1:
            raise ValueError(f"stop_after must be None or at least 1, got {self.stop_after}")


@dataclass(frozen=True)
class SearchTask:
    """One (delta1-pair, delta2-pair) combination: four marginal instances."""

    index: int
    members1: tuple[tuple[int, ...], tuple[int, ...]]
    members2: tuple[tuple[int, ...], tuple[int, ...]]

    def instance(self, i: int, j: int) -> MarginalInstance:
        return MarginalInstance(self.members1[i], self.members2[j])

    @property
    def instances(self) -> tuple[MarginalInstance, ...]:
        return tuple(self.instance(i, j) for i in (0, 1) for j in (0, 1))


@dataclass(frozen=True)
class LegendrePairRecord:
    u: tuple[int, ...]
    v: tuple[int, ...]
    canon_u: tuple[int, ...]
    canon_v: tuple[int, ...]
    lam: int
    rho_u: int
    rho_v: int
    task: int
    instances: tuple[tuple[int, int], tuple[int, int]]

    @property
    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return tuple(sorted((self.canon_u, self.canon_v)))


# the two cross-matchings of the four instances: (u-instance, v-instance)
_MATCHINGS = (((0, 0), (1, 1)), ((0, 1), (1, 0)))
_PRINT_BASE = 0x9E3779B97F4A7C15  # odd, so every key weight is odd


def correlation_energy(v) -> int:
    """Sum of squared off-peak autocorrelations of the {-1,1} version of v,
    over the first half of the lags."""
    w = tuple(2 * int(x) - 1 for x in v)
    values = paf(w)
    return sum(values[j] ** 2 for j in range(1, (len(w) - 1) // 2 + 1))


def canonicalize_lp(u, v, lam: int, task: int = -1,
                    instances=((0, 0), (1, 1))) -> LegendrePairRecord:
    """Build the deduplication record for a verified pair.

    The record key is the unordered pair of decimation-class canonical
    forms; equal keys identify equivalent pairs.
    """
    if not exact_complementary(u, v, lam):
        raise ValueError("not a complementary pair at the stated lambda")
    return LegendrePairRecord(
        u=tuple(u),
        v=tuple(v),
        canon_u=decimation_canon(u)[0],
        canon_v=decimation_canon(v)[0],
        lam=lam,
        rho_u=correlation_energy(u),
        rho_v=correlation_energy(v),
        task=task,
        instances=tuple((int(a), int(b)) for a, b in instances),
    )


def compressed_census(length: int, delta: int):
    """Candidates, matched pairs, and expanded pairs for one factor.

    Returns (candidates, pairs, expanded).
    """
    _validate_length(length)
    if length % delta != 0:
        raise ValueError(f"{delta} does not divide {length}")
    delta2 = length // delta
    if gcd(delta, delta2) != 1:
        raise ValueError(f"cofactors {delta}, {delta2} are not coprime")
    lam = (length + 1) // 2
    cands = list(enum_candidates(delta, delta2, lam, float(lam)))
    pairs = match_pairs(cands, lam=lam, delta2=delta2)
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


def _rotation(d: np.ndarray, g: int, w: int) -> np.ndarray:
    """The low w words of d >> g.  With d = x | x << ell (plus a spare top
    word), that is x rotated by g: bit i holds bit i + g mod ell of x, and
    bits at or above ell are junk."""
    q, r = divmod(g, 64)
    return (d[:, q:q + w] >> r) | ((d[:, q + 1:q + 1 + w] << 1) << (63 - r))


def _paf_keys(x: np.ndarray, ell: int) -> np.ndarray:
    """(N, (ell-1)/2) uint8: PAF(v, g) for g = 1..(ell-1)/2 of each row's vector.

    Row i of x holds the uint64 words of a vector whose bit g is v_g.
    PAF(v, g) is popcount(x & rot(x, g)), summed over the words; since
    PAF(v, g) = PAF(v, ell - g), these lags determine the whole PAF.
    """
    n, w = x.shape
    q, r = divmod(ell, 64)
    d = np.zeros((n, q + 1 + w), dtype=np.uint64)
    d[:, :w] = x
    d[:, q:q + w] |= x << r
    d[:, q + 1:q + 1 + w] |= (x >> 1) >> (63 - r)
    counts = np.empty(((ell - 1) // 2, n, w), dtype=np.uint8)
    for g in range(1, (ell + 1) // 2):
        np.bitwise_count(x & _rotation(d, g, w), out=counts[g - 1])
    return counts.sum(axis=2, dtype=np.uint8).T


def _key_prints(keys: np.ndarray) -> np.ndarray:
    """sum_g key_g * _PRINT_BASE^(g+1) mod 2^64 per row: equal keys, equal prints."""
    weights = np.full(keys.shape[1], _PRINT_BASE, dtype=np.uint64).cumprod()
    return keys.astype(np.uint64) @ weights


def _join(held: np.ndarray, streamed, ell: int, lam: int):
    """Yield (u, v) word rows, u from held and v from the streamed chunks,
    with PAF(u, g) + PAF(v, g) = lam at every lag g != 0.

    The held keys lam - PAF(u) are sorted once by print and each chunk's
    prints are located with searchsorted; a hit counts only when the full
    keys agree, so a collision costs time and never makes or loses a pair.
    """
    want = lam - _paf_keys(held, ell)
    prints = _key_prints(want)
    order = np.argsort(prints, kind="stable")
    prints = prints[order]
    for chunk in streamed:
        keys = _paf_keys(chunk, ell)
        probe = _key_prints(keys)
        lo = np.searchsorted(prints, probe, "left")
        hi = np.searchsorted(prints, probe, "right")
        for s in np.flatnonzero(lo < hi):
            for h in order[lo[s]:hi[s]]:
                if np.array_equal(want[h], keys[s]):
                    yield held[h], chunk[s]


def _held_slices(inst: MarginalInstance, bits, cap: int):
    """The instance's leaves as mask arrays of at most cap rows each."""
    pending, size = [], 0
    for chunk in _leaf_chunks(inst, bits):
        while len(chunk):
            take = cap - size
            pending.append(chunk[:take])
            size, chunk = size + len(pending[-1]), chunk[take:]
            if size == cap:
                yield np.concatenate(pending)
                pending, size = [], 0
    if pending:
        yield np.concatenate(pending)


def _vector(words: np.ndarray, ell: int) -> tuple[int, ...]:
    """The 0/1 entries v_0..v_{ell-1} of one row of mask words."""
    return tuple(_unpack(words, ell).tolist())


def run_task(task: SearchTask, ctx: CrtContext, config: SearchConfig) -> list[LegendrePairRecord]:
    """All Legendre pairs discoverable from one pair combination.

    For each of the two cross-matchings, the instance with fewer solutions
    is held, in slices of at most `max_bucket_memory` masks, keyed by
    lam - PAF(u, g) over the half lags; the other instance streams its
    masks past each slice in chunks and is matched by sorting (see
    `_join`).  A hit satisfies PAF(u, g) + PAF(v, g) = lam at every
    nonzero lag; canonicalize_lp confirms it with the exact test before
    the record is kept.
    """
    ell = ctx.ell
    lam = (ell + 1) // 2
    bits = ctx.cell_bits
    records: list[LegendrePairRecord] = []

    for matching in _MATCHINGS:
        inst_u, inst_v = (task.instance(i, j) for i, j in matching)
        n_u = count(inst_u)
        n_v = count(inst_v)
        if n_u == 0 or n_v == 0:
            continue
        swapped = n_v < n_u
        small, large = (inst_v, inst_u) if swapped else (inst_u, inst_v)
        for held in _held_slices(small, bits, config.max_bucket_memory):
            for x, y in _join(held, _leaf_chunks(large, bits), ell, lam):
                u, v = (y, x) if swapped else (x, y)
                records.append(canonicalize_lp(
                    _vector(u, ell), _vector(v, ell), lam,
                    task=task.index, instances=matching))
    return records


def _validate_length(length: int) -> None:
    if length < 3 or length % 2 == 0:
        raise ValueError(f"length must be odd and at least 3, got {length}")


def _validate_factors(length: int, d1: int, d2: int) -> None:
    _validate_length(length)
    if d1 * d2 != length:
        raise ValueError(f"{d1} * {d2} != {length}")
    if gcd(d1, d2) != 1:
        raise ValueError(f"factors {d1}, {d2} are not coprime")
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


def _record_from_doc(doc) -> LegendrePairRecord:
    return LegendrePairRecord(
        u=seqio._bits(doc["u"]),
        v=seqio._bits(doc["v"]),
        canon_u=seqio._bits(doc["canon_u"]),
        canon_v=seqio._bits(doc["canon_v"]),
        lam=doc["lambda"],
        rho_u=doc["rho_u"],
        rho_v=doc["rho_v"],
        task=doc["task"],
        instances=tuple((int(a), int(b)) for a, b in doc["instances"]),
    )


def _worker(task: SearchTask, ctx: CrtContext, config: SearchConfig):
    return task.index, run_task(task, ctx, config)


class _Progress:
    """Task completion tracking with optional on-disk checkpointing."""

    def __init__(self, fingerprint: str, n_tasks: int, path):
        self.fingerprint = fingerprint
        self.n_tasks = n_tasks
        self.path = path
        self.completed: set[int] = set()
        self.records: list[LegendrePairRecord] = []
        self._records_path = str(path) + ".records" if path else None

    def start(self, resume: bool) -> None:
        """Load the checkpoint when resuming one; otherwise start clean.

        A fresh run removes any old checkpoint and empties the records
        sidecar, so records of an earlier run can never be read back.
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
        self.completed = set(cp.completed)
        with open(sidecar, "r+") as fh:
            data = fh.read(cp.partial_offset)
            fh.truncate(cp.partial_offset)
        for line in data.splitlines():
            if line.strip():
                self.records.append(_record_from_doc(json.loads(line)))

    def mark(self, index: int, new_records) -> None:
        self.completed.add(index)
        self.records.extend(new_records)
        if not self.path:
            return
        with open(self._records_path, "a") as fh:
            for record in new_records:
                fh.write(seqio.record_to_json(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        offset = os.path.getsize(self._records_path)
        seqio.save_checkpoint(self.path, seqio.Checkpoint(
            fingerprint=self.fingerprint,
            n_tasks=self.n_tasks,
            completed=frozenset(self.completed),
            partial_offset=offset,
        ))


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
    key and is identical for any worker count.  With a checkpoint path,
    a run with resume=True restarts from the last completed task and
    refuses a checkpoint of different inputs (length, factor order or
    compressed pairs); a run without resume starts from scratch.
    """
    _validate_factors(length, d1, d2)
    ctx = CrtContext(d1, d2)
    lam = (length + 1) // 2
    _, _, expanded1 = compressed_census(length, d1)
    _, _, expanded2 = compressed_census(length, d2)
    tasks = build_tasks(expanded1, expanded2)
    fingerprint = _fingerprint(length, d1, d2, expanded1, expanded2)

    progress = _Progress(fingerprint, len(tasks), config.checkpoint_path)
    progress.start(resume)
    pending = [t for t in tasks if t.index not in progress.completed]

    def stop() -> bool:
        return config.stop_after is not None and len(progress.records) >= config.stop_after

    if config.threads > 1 and pending:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            futures = [pool.submit(_worker, t, ctx, config) for t in pending]
            for future in as_completed(futures):
                index, new_records = future.result()
                progress.mark(index, new_records)
                if stop():
                    for f in futures:
                        f.cancel()
                    break
    else:
        for task in pending:
            progress.mark(task.index, run_task(task, ctx, config))
            if stop():
                break

    final = _finalize(progress, lam)
    summary = {
        "length": length,
        "factors": [d1, d2],
        "lambda": lam,
        "tasks": len(tasks),
        "completed": len(progress.completed),
        "records": len(final),
    }
    if config.archive_path:
        seqio.write_archive(config.archive_path, final, summary)
    return final, summary
