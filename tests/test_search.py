"""The assembled search pipeline: tasks, matching, dedup, checkpointing."""

import filecmp
import hashlib
import importlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from concurrent.futures import Future, process
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lppairs import bmfm, search, seqio, spectral
from lppairs.bmfm import (
    MarginalInstance,
    _leaf_stream,
    count,
    enumerate_matrices,
    solutions,
)
from lppairs.compress import CrtContext, compress, theta_inv
from lppairs.cyclic import decimate, shift
from lppairs.oracle import oracle_lp
from lppairs.search import (
    SearchConfig,
    build_tasks,
    canonicalize_lp,
    compressed_census,
    correlation_energy,
    run_search,
    run_task,
)
from lppairs.spectral import _PRINT_BASE, _key_prints, exact_complementary, paf

from conftest import guided_join, one_job_join


def test_correlation_energy_examples():
    # constant vector: every off-peak correlation of the +-1 version is n
    assert correlation_energy((1, 1, 1, 1, 1)) == 2 * 25
    # quadratic residue sequence of length 7: all off-peak values are -1
    assert correlation_energy((0, 1, 1, 0, 1, 0, 0)) == 3


def test_correlation_energy_equals_the_sum_over_the_pm1_paf():
    rng = random.Random(7)
    for n in (*range(8), 15, 33, 77):
        for _ in range(10):
            v = tuple(rng.randint(0, 1) for _ in range(n))
            w = paf(tuple(2 * x - 1 for x in v))
            assert correlation_energy(v) == sum(w[g] ** 2 for g in range(1, (n - 1) // 2 + 1))


def test_correlation_energy_is_shift_and_decimation_invariant():
    v = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0)
    base = correlation_energy(v)
    assert correlation_energy(shift(v, 4)) == base
    assert correlation_energy(decimate(v, 2)) == base


def test_canonicalize_lp_accepts_only_pairs():
    with pytest.raises(ValueError):
        canonicalize_lp((1, 0, 0), (1, 1, 0), 2)
    rec = canonicalize_lp((1, 1, 0), (1, 0, 1), 2)
    assert rec.lam == 2
    # the key is unordered: swapping members gives the same key
    rec2 = canonicalize_lp((1, 0, 1), (1, 1, 0), 2)
    assert rec.key == rec2.key


def test_compressed_census_validates_input():
    with pytest.raises(ValueError):
        compressed_census(15, 4)
    with pytest.raises(ValueError):
        compressed_census(45, 3)  # cofactor 15 shares a factor
    with pytest.raises(ValueError):
        compressed_census(14, 7)  # even length


def test_build_tasks_shape():
    _, _, e1 = compressed_census(15, 3)
    _, _, e2 = compressed_census(15, 5)
    tasks = build_tasks(e1, e2)
    assert len(tasks) == len(e1) * len(e2)
    assert [t.index for t in tasks] == list(range(len(tasks)))
    for t in tasks:
        inst = t.instance(0, 1)
        assert inst.row_sums == t.members1[0]
        assert inst.col_sums == t.members2[1]


def test_run_search_matches_oracle_at_15():
    records, summary = run_search(15, 3, 5)
    assert {r.key for r in records} == oracle_lp(15)
    assert summary["records"] == len(records)
    assert summary["tasks"] == summary["completed"]


def test_run_search_matches_oracle_at_21():
    records, _ = run_search(21, 3, 7)
    assert {r.key for r in records} == oracle_lp(21)


def test_records_verify_and_are_sorted():
    records, _ = run_search(21, 3, 7)
    keys = [r.key for r in records]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for r in records:
        assert exact_complementary(r.u, r.v, r.lam)
        assert r.rho_u == correlation_energy(r.u)
        assert r.rho_v == correlation_energy(r.v)
        assert r.rho_u == r.rho_v  # equal densities: (-2 - a_g)^2 terms, cross terms sum to 0


def test_pipeline_vectors_are_plain_int_tuples():
    # plain tuples of Python ints from census to record keep records
    # JSON-serialisable and comparable with literals
    def plain(x):
        return type(x) is tuple and all(type(e) is int for e in x)

    pairs = [pair for delta in (3, 5) for pair in compressed_census(15, delta)[2]]
    assert any(pair.r != 1 for pair in pairs)  # some second members were decimated
    for pair in pairs:
        for c in (pair.q, pair.p):
            assert plain(c.vector) and plain(c.paf)
        assert all(plain(m) for m in pair.members)
    records, _ = run_search(15, 3, 5)
    assert records
    for r in records:
        assert all(plain(x) for x in (r.u, r.v, r.canon_u, r.canon_v))


def test_factor_order_is_irrelevant():
    a, _ = run_search(15, 3, 5)
    b, _ = run_search(15, 5, 3)
    assert {r.key for r in a} == {r.key for r in b}


# (length, d1, d2) -> (sampled task indices, raw records, sha256 of
# repr([(task, instances, u, v), ...])) of the d1 x d2 order
SAMPLED_TASKS = {
    (35, 5, 7): ([63, 134, 157, 258, 292, 343, 348, 442, 561, 580], 33,
                 "13a793992d13269690ef236783fb38e1f0fc8c8f14d2b1b6cf5eab91d520f0ad"),
    (45, 5, 9): ([176, 592, 670, 2110, 2227, 2483, 2774, 3421, 3967, 3997], 15,
                 "62039c2fa99cbf80978dbd7765160acc1a4c43afaaa39d9a1902fb659794991e"),
}


@pytest.mark.parametrize("length,d1,d2", sorted(SAMPLED_TASKS))
def test_sampled_tasks_find_the_same_pairs_in_both_factor_orders(length, d1, d2):
    # past the oracle's reach: task (i, j) of the d1 x d2 search and task
    # (j, i) of the d2 x d1 search lift the same four compressions, so they
    # find the same unordered pairs; ten tasks drawn by seed, not by outcome
    _, _, e1 = compressed_census(length, d1)
    _, _, e2 = compressed_census(length, d2)
    forward, backward = build_tasks(e1, e2), build_tasks(e2, e1)
    chosen = sorted(random.Random(length).sample(range(len(forward)), 10))
    raw = []
    for index in chosen:
        i, j = divmod(index, len(e2))
        records = run_task(forward[index], CrtContext(d1, d2))
        reverse = run_task(backward[j * len(e1) + i], CrtContext(d2, d1))
        assert {frozenset((r.u, r.v)) for r in records} == {frozenset((r.u, r.v)) for r in reverse}
        raw += [(r.task, r.instances, r.u, r.v) for r in records]
    digest = hashlib.sha256(repr(raw).encode()).hexdigest()
    assert (chosen, len(raw), digest) == SAMPLED_TASKS[(length, d1, d2)]


def _tasks(length, d1, d2):
    _, _, e1 = compressed_census(length, d1)
    _, _, e2 = compressed_census(length, d2)
    return build_tasks(e1, e2)


@pytest.mark.parametrize("length,d1,d2", [(15, 3, 5), (21, 3, 7)])
def test_run_task_agrees_with_brute_cross_join(length, d1, d2):
    # every (u, v) of every cross-matching, checked with the exact test
    ctx = CrtContext(d1, d2)
    lam = (length + 1) // 2
    ours, brute = Counter(), Counter()
    for task in _tasks(length, d1, d2):
        for record in run_task(task, ctx):
            ours[(record.task, record.instances, record.u, record.v)] += 1
        for matching in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
            us = [theta_inv(m, ctx) for m in solutions(task.instance(*matching[0]))]
            vs = [theta_inv(m, ctx) for m in solutions(task.instance(*matching[1]))]
            for u in us:
                for v in vs:
                    if exact_complementary(u, v, lam):
                        brute[(task.index, matching, tuple(u), tuple(v))] += 1
    assert brute and ours == brute


def test_run_task_checks_each_instance_once(monkeypatch):
    # count() checks each instance's ranges and sums, and its memo runs
    # Gale-Ryser once per state; the enumeration it vouches for checks
    # nothing, and feasible() is never called
    spies = {name: [] for name in ("_well_formed", "_gale_ryser", "feasible")}
    for name, calls in spies.items():
        real = getattr(bmfm, name)
        monkeypatch.setattr(bmfm, name, lambda *a, calls=calls, real=real: calls.append(a) or real(*a))
    bmfm._count_sorted.cache_clear()
    task = _tasks(15, 3, 5)[0]
    ctx = CrtContext(3, 5)
    assert run_task(task, ctx)
    instances = sorted(((task.instance(i, j),) for i in (0, 1) for j in (0, 1)), key=repr)
    assert sorted(spies["_well_formed"], key=repr) == instances
    states = spies["_gale_ryser"]
    assert states and len(set(states)) == len(states)
    assert run_task(task, ctx)
    assert len(spies["_well_formed"]) == 8 and spies["_gale_ryser"] == states
    assert not spies["feasible"]


def test_run_task_skips_a_matching_with_an_empty_instance(monkeypatch):
    # no census task through length 55 has one, so the task is built by
    # hand: u (density 11, the complement of {0, 1, 3, 7}) and v = {0, 5}
    # complement at lam = 8, and the cross instances' sums 11 and 2 differ
    u = tuple(int(g not in (0, 1, 3, 7)) for g in range(15))
    v = tuple(int(g in (0, 5)) for g in range(15))
    task = search.SearchTask(0, (compress(u, 3), compress(v, 3)), (compress(u, 5), compress(v, 5)))
    assert [count(task.instance(0, 1)), count(task.instance(1, 0))] == [0, 0]
    seen = []
    monkeypatch.setattr(search, "_leaf_stream",
                        lambda insts, bits: seen.extend(insts) or bmfm._leaf_stream(insts, bits))
    records = run_task(task, CrtContext(3, 5))
    assert (u, v) in {(r.u, r.v) for r in records}
    assert {r.instances for r in records} == {((0, 0), (1, 1))}
    assert set(seen) == {task.instance(0, 0), task.instance(1, 1)}


def _sample_instances(length, d1, d2, limit=3000):
    """Instances of a few spread-out tasks, skipping the largest."""
    tasks = _tasks(length, d1, d2)
    for task in tasks[:: max(1, len(tasks) // 5)]:
        for inst in (task.instance(i, j) for i in (0, 1) for j in (0, 1)):
            if 0 < count(inst) <= limit:
                yield inst


@pytest.mark.parametrize("length,d1,d2", [(15, 3, 5), (21, 7, 3), (33, 3, 11)])
def test_mask_leaves_equal_reshaped_matrices_in_order(length, d1, d2):
    ctx = CrtContext(d1, d2)
    seen = 0
    for inst in _sample_instances(length, d1, d2):
        expected = []
        enumerate_matrices(inst, lambda m: expected.append(tuple(theta_inv(m, ctx))))
        masks = np.concatenate(list(_leaf_stream((inst,), ctx.cell_bits)))
        assert len(masks) == len(expected)
        got = [tuple((x >> g) & 1 for g in range(length)) for x in masks[:, 0].tolist()]
        assert got == expected
        keys = search._paf_keys(masks, length, np.arange(1, (length + 1) // 2))
        for key, v in zip(keys.tolist(), expected):
            assert tuple(key) == paf(v)[1:(length + 1) // 2]
        seen += len(expected)
    assert seen > 0


@pytest.mark.parametrize("length,d1,d2", [(33, 3, 11), (33, 11, 3), (35, 7, 5), (35, 5, 7)])
def test_multi_line_steps_keep_every_leaf_in_order(monkeypatch, length, d1, d2):
    # _CHUNK = 1 caps a step's table at one row, so every line with more
    # than one r-subset is a step of its own; _TAIL = 1 looks up the last
    # line alone; the default groups lines into steps and into the tail
    from lppairs import bmfm

    bits = CrtContext(d1, d2).cell_bits
    grouped, tails = [], []
    step, tail = bmfm._step, bmfm._tail
    monkeypatch.setattr(bmfm, "_step", lambda lines, *a: grouped.append(len(lines)) or step(lines, *a))
    monkeypatch.setattr(bmfm, "_tail", lambda lines, *a: tails.append(len(lines)) or tail(lines, *a))
    seen = 0
    for inst in _sample_instances(length, d1, d2, limit=1500):
        default = np.concatenate(list(_leaf_stream((inst,), bits)))
        for name in ("_CHUNK", "_TAIL"):
            before = getattr(bmfm, name)
            monkeypatch.setattr(bmfm, name, 1)
            assert np.array_equal(np.concatenate(list(_leaf_stream((inst,), bits))), default)
            monkeypatch.setattr(bmfm, name, before)
        assert len(default) == count(inst)
        seen += 1
    assert seen > 0 and max(grouped) > 1 and max(tails) > 1


_LEAF_DIGESTS = {
    (3, 11): "f7d6062dcd8242290beea6018927de0ef843b62d981ceac17db94c48b8f9dcc8",
    (11, 3): "9c47741ccdaa0a54eecd5ceaff42ca76ea5fe3e77e5c40348551e9e7ce3d63f6",
    (5, 7): "dd562162276353bf55dc9f80c978bb971e637b3b7e513afc578df3c6e999501b",
    (7, 5): "3f60c2900e19d39fa51120f052e346388050db224ded5511c4b23f8d63902905",
}


@pytest.mark.parametrize("length,d1,d2,leaves", [
    (33, 3, 11, 1_370_598), (33, 11, 3, 1_370_598), (35, 5, 7, 18_706_612), (35, 7, 5, 18_706_612),
])
def test_every_leaf_stream_is_pinned_in_both_factor_orders(length, d1, d2, leaves):
    # sha256 of the little-endian mask words of every instance, instances
    # in build_tasks order and (i, j) order within a task
    bits = CrtContext(d1, d2).cell_bits
    digest, total, counted = hashlib.sha256(), 0, 0
    for task in _tasks(length, d1, d2):
        for inst in (task.instance(i, j) for i in (0, 1) for j in (0, 1)):
            counted += count(inst)
            for chunk in _leaf_stream((inst,), bits):
                digest.update(chunk.astype("<u8").tobytes())
                total += len(chunk)
    assert total == counted == leaves
    assert digest.hexdigest() == _LEAF_DIGESTS[d1, d2]


def _job(task, matching, ctx):
    """(held leaves, streamed instance) of the join run_task makes for one
    cross-matching, or None when an instance has no solution."""
    insts = [task.instance(i, j) for i, j in matching]
    n_u, n_v = map(count, insts)
    if not (n_u and n_v):
        return None
    small, large = insts if n_u <= n_v else insts[::-1]
    return np.concatenate(list(_leaf_stream((small,), ctx.cell_bits))), large


def _hits(held, streamed, lags, ctx):
    return [(search._vector(a, ctx.ell), search._vector(b, ctx.ell))
            for a, b in one_job_join(held, streamed, ctx.ell, lags)]


@pytest.mark.parametrize("length,d1,d2,step", [
    (15, 3, 5, 1), (15, 5, 3, 1), (21, 3, 7, 1), (21, 7, 3, 1), (33, 3, 11, 12), (33, 11, 3, 12),
])
def test_free_lag_join_equals_all_lag_join(length, d1, d2, step):
    # every job of every task (every step-th task at length 33)
    ctx, lam, seen = CrtContext(d1, d2), (length + 1) // 2, 0
    free, half = search._free_lags(ctx), np.arange(1, (length + 1) // 2)
    for task in _tasks(length, d1, d2)[::step]:
        for job in filter(None, (_job(task, m, ctx) for m in search._MATCHINGS)):
            held, large = job
            hits = _hits(held, _leaf_stream((large,), ctx.cell_bits), free, ctx)
            assert hits == _hits(held, _leaf_stream((large,), ctx.cell_bits), half, ctx)
            assert all(exact_complementary(u, v, lam) for u, v in hits)
            seen += len(hits)
    assert seen > 0


@pytest.mark.parametrize("d1,d2", [(3, 5), (3, 11), (5, 7), (5, 9), (7, 11)])
def test_free_lags_avoid_both_factors(d1, d2):
    lags = search._free_lags(CrtContext(d1, d2)).tolist()
    assert len(lags) == (d1 - 1) * (d2 - 1) // 2
    assert lags == sorted(set(lags))
    assert all(0 < g < d1 * d2 / 2 and g % d1 and g % d2 for g in lags)


def _brute_hits(held, rows, ctx):
    # every (held, row) pair whose keys agree on all half lags, row-major
    half = np.arange(1, (ctx.ell + 1) // 2)
    want = (ctx.ell + 1) // 2 - search._paf_keys(held, ctx.ell, half)
    keys = search._paf_keys(rows, ctx.ell, half)
    pairs = np.argwhere((keys[:, None, :] == want[None, :, :]).all(axis=2))
    return [(search._vector(held[h], ctx.ell), search._vector(rows[s], ctx.ell)) for s, h in pairs]


def _patch_prints(monkeypatch, prints):
    # the join's prints, when given, through a patch that counts its calls,
    # so that a patch the join no longer reads fails the test
    calls = []
    if prints:
        monkeypatch.setattr(spectral, "_key_prints", lambda keys, out=None: calls.append(1) or prints(keys))
    return calls


@pytest.mark.parametrize("prints", [
    None,
    lambda keys, out=None: np.zeros(len(keys), dtype=np.uint64),
    lambda keys, out=None: keys.astype(np.uint64).sum(axis=1) % 5 * np.uint64(_PRINT_BASE),
], ids=["real-prints", "one-print", "five-prints"])
def test_presence_table_loses_no_hit(monkeypatch, prints):
    # A length-35 job whose 1,860 held leaves need a 2^14-entry presence
    # table, and a held side of one leaf that hits.  The streamed side is
    # every leaf of a hit plus 64 others, so the all-colliding join stays small.
    ctx = CrtContext(5, 7)
    held, large = _job(_tasks(35, 5, 7)[687], search._MATCHINGS[0], ctx)
    leaves = np.concatenate(list(_leaf_stream((large,), ctx.cell_bits)))
    hits = _brute_hits(held, leaves, ctx)
    partners = {v for _, v in hits}
    rows = {i for i, row in enumerate(leaves) if search._vector(row, 35) in partners}
    streamed = leaves[sorted(rows | set(range(64)))]
    one = held[[[search._vector(row, 35) for row in held].index(hits[0][0])]]
    assert len(held) == 1860 and len(hits) == 52
    calls = _patch_prints(monkeypatch, prints)
    free = search._free_lags(ctx)
    for side in (held, one):
        chunks = [streamed[:40], streamed[40:]]
        assert _hits(side, chunks, free, ctx) == _brute_hits(side, streamed, ctx)
    assert bool(calls) == bool(prints)


@pytest.mark.parametrize("prints", [None, lambda keys, out=None: np.zeros(len(keys), dtype=np.uint64)],
                         ids=["real-prints", "one-print"])
def test_jobs_never_pair_across_a_group(monkeypatch, prints):
    # One join of four length-21 jobs, the first of them twice: as job 0
    # and as job 256, whose low key byte is job 0's, so only the exact job
    # comparison keeps their equal keys apart.  The streamed blocks cut
    # across jobs.  With one print for every row, every held row of the
    # group is a candidate for every streamed row.
    ctx = CrtContext(3, 7)
    jobs = [_job(task, m, ctx) for task in _tasks(21, 3, 7)[:3] for m in search._MATCHINGS]
    jobs = [(h, np.concatenate(list(_leaf_stream((large,), ctx.cell_bits)))) for h, large in filter(None, jobs)]
    jobs = [job for job in jobs if _brute_hits(*job, ctx)][:4]
    jobs.append(jobs[0])
    ids = [0, 1, 2, 3, 256]
    streamed = [s for _, s in jobs]
    held = np.concatenate([h for h, _ in jobs])
    owner = np.repeat(ids, [len(h) for h, _ in jobs])
    rows = np.concatenate(streamed)
    row_jobs = np.repeat(ids, list(map(len, streamed)))
    blocks = [(rows[lo:lo + 23], row_jobs[lo:lo + 23]) for lo in range(0, len(rows), 23)]
    calls = _patch_prints(monkeypatch, prints)
    got = {job: [] for job in ids}
    for job, u, v in search._join(held, owner, blocks, 21, search._free_lags(ctx)):
        got[job].append((search._vector(u, 21), search._vector(v, 21)))
    for job, (h, _), s in zip(ids, jobs, streamed):
        assert got[job] == _brute_hits(h, s, ctx)
    assert got[0] and got[0] == got[256]
    assert bool(calls) == bool(prints)


def _task_with_an_empty_matching():
    # as in test_run_task_skips_a_matching_with_an_empty_instance
    u = tuple(int(g not in (0, 1, 3, 7)) for g in range(15))
    v = tuple(int(g in (0, 5)) for g in range(15))
    return search.SearchTask(99, (compress(u, 3), compress(v, 3)), (compress(u, 5), compress(v, 5)))


@pytest.mark.parametrize("length,d1,d2,step,chunk,held", [
    (15, 3, 5, 1, 16, 1), (21, 3, 7, 1, 80, 1), (33, 3, 11, 9, 1024, 100), (33, 11, 3, 9, 1024, 100),
    (35, 5, 7, 36, 8192, 500),
])
def test_any_batch_split_gives_the_same_records(monkeypatch, length, d1, d2, step, chunk, held):
    # run_tasks over random partitions of a task list gives each task the
    # records run_task gives it, in the same order: at the default sizes,
    # and at sizes where the jobs of one batch make several groups and a
    # group's held side is sliced
    ctx, rng = CrtContext(d1, d2), random.Random(length * d1)
    tasks = _tasks(length, d1, d2)[::step]
    if length == 15:
        tasks.insert(3, _task_with_an_empty_matching())
    default = None
    for sizes in ({}, {"_CHUNK": chunk, "_HELD": held}):
        with monkeypatch.context() as m:
            for name, value in sizes.items():
                m.setattr(bmfm if name == "_CHUNK" else search, name, value)
            if sizes:
                jobs = list(search._jobs(tasks))
                assert sum(len(group) > 1 for group in search._groups(jobs, chunk)) > 1
                assert any(j.n_streamed > chunk and j.n_held > held for j in jobs)
            # a held side in slices finds a job's hits slice by slice, but
            # each job's records are sorted by rank: every size gives each
            # task the same records in the same order
            base = [run_task(task, ctx) for task in tasks]
            assert sum(map(len, base)) > 0
            default = default or base
            assert base == default
            for _ in range(3):
                cuts = sorted(rng.sample(range(1, len(tasks)), rng.randint(0, 4)))
                parts = [tasks[a:b] for a, b in zip([0, *cuts], [*cuts, len(tasks)])]
                assert [records for part in parts for records in search.run_tasks(part, ctx)] == base


def test_groups_are_sized_by_held_rows_alone():
    # Held rows alone size a group, whatever its jobs stream: at length 35
    # some jobs stream more than _CHUNK leaves yet hold few rows, and they
    # join beside their neighbours.  A group closes only when the next job
    # would take it past cap held rows, so a job that holds more than cap
    # rows is a group of its own (none does at _CHUNK; at 256 most do).
    tasks = _tasks(35, 5, 7)
    jobs = search._jobs(tasks)
    assert (len(tasks), len(jobs)) == (720, 1440)
    for cap in (bmfm._CHUNK, 256):
        groups = list(search._groups(jobs, cap))
        assert [k for group in groups for k in group] == list(range(len(jobs)))
        for group, after in zip(groups, groups[1:] + [None]):
            rows = sum(jobs[k].n_held for k in group)
            assert len(group) == 1 or rows <= cap
            assert after is None or rows + jobs[after[0]].n_held > cap
    groups = search._groups(jobs, bmfm._CHUNK)
    assert any(len(group) > 1 and any(jobs[k].n_streamed > bmfm._CHUNK for k in group) for group in groups)


def test_memory_cap_keeps_every_raw_record(monkeypatch):
    # with _HELD = 1 every group's held side is sliced a row at a time
    ctx, tasks = CrtContext(3, 7), _tasks(21, 3, 7)
    base = [run_task(task, ctx) for task in tasks]
    monkeypatch.setattr(bmfm, "_CHUNK", 16)
    monkeypatch.setattr(search, "_HELD", 1)
    held, join = [], search._join
    monkeypatch.setattr(search, "_join", lambda rows, *a: held.append(len(rows)) or join(rows, *a))
    for task, records in zip(tasks, base):
        assert Counter(records) == Counter(run_task(task, ctx))
    assert max(held) == 1 and len(held) > 2 * len(tasks)


def test_a_batch_frees_each_held_slice_before_its_records(monkeypatch):
    # The records of a batch are built after every join, so a hit must not
    # keep a row of its held slice: a row shares its slice's memory, and
    # the slices of a held side would stay alive until the batch ends.  When
    # the first record is built, at most the last slice (still bound in
    # run_tasks) may be alive, though many slices had hits.  Several slices
    # may be views of one enumerated chunk, so live arrays are counted, not
    # views.
    import weakref

    ctx = CrtContext(3, 7)
    monkeypatch.setattr(bmfm, "_CHUNK", 40)
    monkeypatch.setattr(search, "_HELD", 8)
    real_slices, real_canon = search._slices, search.canonicalize_lp
    slices, alive = [], []

    def spy_slices(chunks, cap):
        for block in real_slices(chunks, cap):
            if cap == search._HELD:
                owner = block if block.base is None else block.base
                slices.append(weakref.ref(owner))
            yield block

    def spy_canon(*args, **kwargs):
        live = [owner for ref in slices if (owner := ref()) is not None]
        alive.append(len({id(owner) for owner in live}))
        return real_canon(*args, **kwargs)

    monkeypatch.setattr(search, "_slices", spy_slices)
    monkeypatch.setattr(search, "canonicalize_lp", spy_canon)
    records = search.run_tasks(_tasks(21, 3, 7), ctx)
    assert sum(map(len, records)) > 10 and len(slices) > 10
    assert alive[0] <= 1


def test_memory_cap_splits_without_losing_records(tmp_path, monkeypatch):
    # held sides in slices of 2 find a job's hits slice by slice; sorted by
    # rank, they give the same records sidecar and archive, byte for byte
    files = []
    for capped in (False, True):
        with monkeypatch.context() as m:
            if capped:
                m.setattr(bmfm, "_CHUNK", 4)  # groups of at most 4 held rows, sliced in 2s
                m.setattr(search, "_HELD", 2)
            cp, out = tmp_path / f"{capped}.json", tmp_path / f"{capped}.jsonl"
            run_search(15, 3, 5, SearchConfig(checkpoint_path=str(cp), archive_path=str(out)))
            files.append((out.read_bytes(), Path(str(cp) + ".records").read_bytes()))
    assert files[0] == files[1]


def _hit_jobs(tasks, ctx, records=None):
    """The jobs (2 t + m) with records when every job is run, with their
    record counts (from records, when given), and the classes of
    _job_classes."""
    records = records or [r for t in tasks for r in run_task(t, ctx)]
    found = Counter(2 * r.task + search._MATCHINGS.index(r.instances) for r in records)
    return found, search._job_classes(tasks, ctx)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("length,factors,derived,flipped", [
    (15, (3, 5), 25, 0), (15, (5, 3), 25, 4), (21, (3, 7), 15, 0), (33, (3, 11), 385, 0), (33, (11, 3), 385, 0),
])
def test_derived_records_equal_the_records_of_every_job(tmp_path, length, factors, threads, derived, flipped):
    # run_search lifts one job per symmetry class and maps the others'
    # records from it: its sidecar must equal what running every job of
    # every task writes, byte for byte.  derived counts the records mapped,
    # flipped those mapped by an element that swaps u and v
    cp = tmp_path / "cp.json"
    run_search(length, *factors, SearchConfig(threads=threads, checkpoint_path=str(cp)))
    ctx, tasks = CrtContext(*factors), _tasks(length, *factors)
    every = [r for t in tasks for r in run_task(t, ctx)]
    assert _sidecar_lines(cp) == [seqio.record_to_json(r) for r in every]
    found, (rep, swap, _, _) = _hit_jobs(tasks, ctx, every)
    mapped = [j for j in found if rep[j] != j]
    assert sum(found[j] for j in mapped) == derived
    assert sum(found[j] for j in mapped if swap[j] != swap[rep[j]]) == flipped


def test_job_classes_equal_a_direct_canonical_form():
    # the class key of every length-33 job, from the group's definition in
    # plain Python: the least (form at d1, form at d2) over swapping u and v
    # and decimating u by -1, a form being the least (rotation, rotation)
    # over the units of Z_d
    from lppairs.cyclic import units

    def least_rotation(x):
        return min(x[j:] + x[:j] for j in range(len(x)))

    def form(x, y):
        return min((least_rotation(decimate(x, k)), least_rotation(decimate(y, k))) for k in units(len(x)))

    ctx, tasks = CrtContext(3, 11), _tasks(33, 3, 11)
    keys = []
    for task in tasks:
        for (iu, ju), (iv, jv) in search._MATCHINGS:
            x = (task.members1[iu], task.members2[ju])
            y = (task.members1[iv], task.members2[jv])
            rx = tuple(decimate(z, -1) for z in x)
            keys.append(min(tuple(form(a, b) for a, b in zip(*pair)) for pair in ((x, y), (rx, y), (y, x), (y, rx))))
    first = {}
    want = [first.setdefault(key, j) for j, key in enumerate(keys)]
    rep = search._job_classes(tasks, ctx)[0]
    assert rep.tolist() == want and len(first) == 436


def test_rotation_ranks_of_vectors_too_long_for_one_word():
    # 37 positions of 2-bit digits do not fit a uint64 code: the ranks
    # come from Python ints, and must order the least rotations as tuples
    from lppairs.cyclic import units

    rng = random.Random(37)
    vectors = [tuple(rng.randint(0, 3) for _ in range(37)) for _ in range(6)]
    vectors.append(shift(decimate(vectors[0], 5), 3))
    rank, rot, size = search._rotation_ranks(vectors, 37)
    least = [[min(shift(decimate(v, k), -j) for j in range(37)) for k in units(37)] for v in vectors]
    order = sorted({x for row in least for x in row})
    assert size == len(order) and rank.tolist() == [[order.index(x) for x in row] for row in least]
    for v, row, shifts in zip(vectors, least, rot.tolist()):
        assert [shift(decimate(v, k), j) for k, j in zip(units(37), shifts)] == row
    assert sorted(rank[0]) == sorted(rank[-1])


def test_a_wrong_derived_mapping_is_refused(monkeypatch):
    # one derived job's shift of u moved by 1: its mapped hits lose its
    # compressions, and the run stops before any record is marked
    ctx, tasks = CrtContext(3, 7), _tasks(21, 3, 7)
    found, (rep, *_) = _hit_jobs(tasks, ctx)
    job = min(j for j in found if rep[j] != j)
    real = search._job_classes

    def corrupt(*args):
        rep, swap, unit, shift = real(*args)
        shift = shift.copy()
        shift[job, 0] += 1
        return rep, swap, unit, shift

    monkeypatch.setattr(search, "_job_classes", corrupt)
    with pytest.raises(search.InvariantViolation, match="not one of its hits"):
        run_search(21, 3, 7)


def test_a_mapped_pair_that_is_not_complementary_is_refused(monkeypatch):
    # a representative's record whose u has a 2 x 2 switch of cells keeps
    # u's compressions but is no hit: the pair mapped from it keeps the
    # derived job's compressions too, and the exact check must refuse it
    from dataclasses import replace

    ctx, tasks = CrtContext(3, 7), _tasks(21, 3, 7)
    found, (rep, *_) = _hit_jobs(tasks, ctx)
    source = int(rep[min(j for j in found if rep[j] != j)])
    cell = {psi: g for g, psi in enumerate(ctx.index_pairs)}

    def switch(u):
        for (i, j), (k, m) in ((a, b) for a in cell for b in cell if a[0] < b[0] and a[1] != b[1]):
            one, zero = (cell[i, j], cell[k, m]), (cell[i, m], cell[k, j])
            if all(u[g] for g in one) and not any(u[g] for g in zero):
                return tuple(1 - x if g in one + zero else x for g, x in enumerate(u))

    real = search.run_task

    def switched(task, ctx):
        records = real(task, ctx)
        for k, r in enumerate(records):
            if 2 * r.task + search._MATCHINGS.index(r.instances) == source:
                u = switch(r.u)
                assert compress(u, 3) == compress(r.u, 3) and compress(u, 7) == compress(r.u, 7)
                assert not exact_complementary(u, r.v, r.lam)
                records[k] = replace(r, u=u)
                break
        return records

    monkeypatch.setattr(search, "run_task", switched)
    with pytest.raises(search.InvariantViolation, match="not one of its hits"):
        run_search(21, 3, 7)


def test_resume_maps_records_of_tasks_before_the_checkpoint(tmp_path, monkeypatch):
    # interrupted in task 2, the run keeps tasks 0 and 1; on resume, job 4
    # (task 2) is mapped from job 2 (task 1), whose records the resumed
    # run reads back from the sidecar
    clean, cp = tmp_path / "clean.json", tmp_path / "cp.json"
    run_search(21, 3, 7, SearchConfig(checkpoint_path=str(clean), archive_path=str(tmp_path / "clean.jsonl")))
    ctx, tasks = CrtContext(3, 7), _tasks(21, 3, 7)
    found, (rep, *_) = _hit_jobs(tasks, ctx)
    assert [j for j in found if j >= 4 and rep[j] < 4 and found[rep[j]]]
    real = search.run_task

    def interrupted(task, ctx):
        if task.index == 2:
            raise KeyboardInterrupt
        return real(task, ctx)

    with monkeypatch.context() as m:
        m.setattr(search, "run_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    assert seqio.load_checkpoint(cp).done == 2
    run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp), archive_path=str(tmp_path / "resumed.jsonl")),
               resume=True)
    assert _sidecar_lines(cp) == _sidecar_lines(clean)
    assert filecmp.cmp(tmp_path / "clean.jsonl", tmp_path / "resumed.jsonl", shallow=False)


def test_resuming_a_finished_run_plans_nothing(tmp_path, monkeypatch):
    cp, calls = tmp_path / "cp.json", []
    real = search._job_classes
    monkeypatch.setattr(search, "_job_classes", lambda *a: calls.append(1) or real(*a))
    records, _ = run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    assert calls == [1]
    assert run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)), resume=True)[0] == records
    assert calls == [1]


def test_archives_are_identical_across_worker_counts(tmp_path):
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    run_search(21, 3, 7, SearchConfig(threads=1, archive_path=str(one)))
    run_search(21, 3, 7, SearchConfig(threads=2, archive_path=str(two)))
    assert filecmp.cmp(one, two, shallow=False)


def test_worker_pool_is_no_larger_than_the_pending_tasks(monkeypatch):
    # a stand-in pool that runs each task inline: no process is started
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(search, "ProcessPoolExecutor", InlinePool)
    records, summary = run_search(15, 3, 5, SearchConfig(threads=5000))
    assert sizes == [summary["tasks"]]
    assert records == run_search(15, 3, 5)[0]


def test_interrupted_run_resumes_to_identical_archive(tmp_path):
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    cp = tmp_path / "cp.json"
    run_search(21, 3, 7, SearchConfig(archive_path=str(clean)))
    _, partial = run_search(
        21, 3, 7, SearchConfig(stop_after=3, checkpoint_path=str(cp))
    )
    assert 0 < partial["completed"] < partial["tasks"]
    _, full = run_search(
        21, 3, 7,
        SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)),
        resume=True,
    )
    assert full["completed"] == full["tasks"]
    assert filecmp.cmp(clean, resumed, shallow=False)


def test_resume_refuses_config_changes(tmp_path):
    # the factor order is part of the fingerprint: tasks are numbered by it
    cp = tmp_path / "cp.json"
    run_search(15, 3, 5, SearchConfig(stop_after=1, checkpoint_path=str(cp)))
    with pytest.raises(ValueError, match="refusing to resume"):
        run_search(15, 5, 3, SearchConfig(checkpoint_path=str(cp)), resume=True)


def test_resume_refuses_non_binary_digits_in_the_records_file(tmp_path):
    cp = tmp_path / "cp.json"
    run_search(15, 3, 5, SearchConfig(stop_after=1, checkpoint_path=str(cp)))
    sidecar = Path(str(cp) + ".records")
    first, *rest = sidecar.read_text().splitlines(keepends=True)
    doc = json.loads(first)
    doc["u"] = "2" + doc["u"][1:]
    # same length, so the checkpoint's byte offset still covers the line
    first = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    sidecar.write_text("".join([first] + rest))
    with pytest.raises(ValueError, match="non-binary digits"):
        run_search(15, 3, 5, SearchConfig(checkpoint_path=str(cp)), resume=True)


@pytest.mark.parametrize("damage", ["missing", "short"])
def test_resume_refuses_a_missing_or_short_records_file(tmp_path, damage):
    cp = tmp_path / "cp.json"
    run_search(21, 3, 7, SearchConfig(stop_after=3, checkpoint_path=str(cp)))
    sidecar = Path(str(cp) + ".records")
    lines = sidecar.read_text().splitlines(keepends=True)
    assert len(lines) >= 2
    if damage == "missing":
        sidecar.unlink()
    else:
        sidecar.write_text("".join(lines[: len(lines) // 2]))
    before = (cp.read_bytes(), sidecar.exists() and sidecar.read_bytes())
    with pytest.raises(ValueError, match="refusing to resume"):
        run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)), resume=True)
    assert (cp.read_bytes(), sidecar.exists() and sidecar.read_bytes()) == before


def test_fresh_run_discards_stale_checkpoint_records(tmp_path):
    cp = tmp_path / "cp.json"
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    run_search(21, 3, 7, SearchConfig(archive_path=str(clean)))
    run_search(15, 3, 5, SearchConfig(checkpoint_path=str(cp)))
    run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    _, summary = run_search(
        21, 3, 7, SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)),
        resume=True,
    )
    assert summary["completed"] == summary["tasks"]
    assert filecmp.cmp(clean, resumed, shallow=False)


def test_fresh_run_interrupted_before_any_task_resumes_cleanly(tmp_path, monkeypatch):
    # the old checkpoint must not outlive the records file a fresh run empties
    import lppairs.search as search

    cp = tmp_path / "cp.json"
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp), archive_path=str(clean)))

    def interrupted(*args):
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(search, "run_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    run_search(
        21, 3, 7, SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)),
        resume=True,
    )
    assert filecmp.cmp(clean, resumed, shallow=False)


def _sidecar_lines(cp) -> list[str]:
    return Path(str(cp) + ".records").read_text().splitlines()


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each batch at submit;
    the batch numbered `fail` (from 1) raises in its future instead."""

    def __init__(self, fail=None):
        self.fail, self.calls = fail, 0

    def __call__(self, max_workers):
        return self

    def shutdown(self, wait=True, cancel_futures=False):
        pass

    def submit(self, fn, *args):
        self.calls += 1
        future = Future()
        if self.calls == self.fail:
            future.set_exception(RuntimeError("worker failed"))
        else:
            future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("k", range(1, 9))
def test_resume_at_every_task_boundary(tmp_path, monkeypatch, k):
    # an interrupt in task k keeps exactly tasks 1..k-1, written on the way out
    cp = tmp_path / "cp.json"
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    run_search(15, 3, 5, SearchConfig(archive_path=str(clean)))
    tasks = _tasks(15, 3, 5)
    assert len(tasks) == 8
    real, calls = search.run_task, []

    def interrupted(task, ctx):
        calls.append(task.index)
        if len(calls) == k:
            raise KeyboardInterrupt
        return real(task, ctx)

    with monkeypatch.context() as m:
        m.setattr(search, "run_task", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_search(15, 3, 5, SearchConfig(checkpoint_path=str(cp)))
    done = tasks[:k - 1]
    assert seqio.load_checkpoint(cp).done == k - 1
    ctx = CrtContext(3, 5)
    assert _sidecar_lines(cp) == [
        seqio.record_to_json(r) for t in done for r in run_task(t, ctx)
    ]
    run_search(
        15, 3, 5, SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)), resume=True
    )
    assert filecmp.cmp(clean, resumed, shallow=False)


def test_parallel_run_stops_and_resumes_to_identical_archive(tmp_path):
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    cp = tmp_path / "cp.json"
    run_search(21, 3, 7, SearchConfig(archive_path=str(clean)))
    _, partial = run_search(
        21, 3, 7, SearchConfig(threads=2, stop_after=3, checkpoint_path=str(cp))
    )
    assert 0 < partial["completed"] < partial["tasks"]
    assert seqio.load_checkpoint(cp).done == partial["completed"]
    _, full = run_search(
        21, 3, 7,
        SearchConfig(threads=2, checkpoint_path=str(cp), archive_path=str(resumed)),
        resume=True,
    )
    assert full["completed"] == full["tasks"]
    assert filecmp.cmp(clean, resumed, shallow=False)


def test_failing_worker_batch_keeps_the_batches_before_it(tmp_path, monkeypatch):
    cp = tmp_path / "cp.json"
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    run_search(15, 3, 5, SearchConfig(archive_path=str(clean)))
    pool = _InlinePool(fail=2)
    with monkeypatch.context() as m:
        m.setattr(search, "ProcessPoolExecutor", pool)
        with pytest.raises(RuntimeError, match="worker failed"):
            run_search(15, 3, 5, SearchConfig(threads=2, checkpoint_path=str(cp)))
    assert pool.calls == 2
    first = _tasks(15, 3, 5)[:4]  # 8 tasks over 2 workers: batches of 4
    assert seqio.load_checkpoint(cp).done == len(first)
    ctx = CrtContext(3, 5)
    assert _sidecar_lines(cp) == [
        seqio.record_to_json(r) for t in first for r in run_task(t, ctx)
    ]
    run_search(
        15, 3, 5, SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)), resume=True
    )
    assert filecmp.cmp(clean, resumed, shallow=False)


def test_stop_after_keeps_the_same_tasks_for_any_worker_count(tmp_path, monkeypatch):
    # stop_after is checked after every task, not after every batch: a pool
    # run keeps task 0 alone, as a one-worker run does, not its batch of 4
    one, two = tmp_path / "one.json", tmp_path / "two.json"
    run_search(21, 3, 7, SearchConfig(stop_after=3, checkpoint_path=str(one)))
    with monkeypatch.context() as m:
        m.setattr(search, "ProcessPoolExecutor", _InlinePool())
        run_search(21, 3, 7, SearchConfig(threads=2, stop_after=3, checkpoint_path=str(two)))
    assert seqio.load_checkpoint(two).done == seqio.load_checkpoint(one).done == 1
    assert len(_sidecar_lines(two)) == 6
    assert _sidecar_lines(two) == _sidecar_lines(one)


@pytest.mark.parametrize("stop_after", [None, 3])
def test_two_workers_write_the_same_run_files_as_one(tmp_path, monkeypatch, stop_after):
    # a real two-worker pool, two batches of 4 tasks; task 0 is slowed so
    # that the second batch finishes first, yet the checkpoint and the
    # records sidecar must follow task order, as in a one-worker run
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the stand-in run_tasks reaches the pool workers only by fork")
    real = search.run_tasks

    def slow(batch, *args):
        if any(task.index == 0 for task in batch):
            time.sleep(0.3)
        return real(batch, *args)

    monkeypatch.setattr(search, "run_tasks", slow)
    files = []
    for threads in (1, 2):
        cp = tmp_path / f"{threads}.json"
        run_search(21, 3, 7, SearchConfig(threads=threads, stop_after=stop_after, checkpoint_path=str(cp)))
        files.append((cp.read_bytes(), Path(str(cp) + ".records").read_bytes()))
    assert files[0] == files[1]


def test_failing_batch_cancels_the_batches_not_yet_started(tmp_path, monkeypatch):
    # A real two-worker pool with one task per batch; the stand-in run_tasks
    # reaches the workers through fork and logs each task to a file.  Task
    # 0 fails, and every later task waits for a marker that the pool
    # creates only once shutdown has cancelled every batch not yet started,
    # so what runs is fixed when the failure is seen: task 0, the task each
    # worker then holds, and the full call queue (max_workers +
    # EXTRA_QUEUED_CALLS batches, which the pool no longer cancels).
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the stand-in run_tasks reaches the pool workers only by fork")
    log, marker = tmp_path / "calls", tmp_path / "released"
    real = search.run_tasks
    deadline = time.monotonic() + 120  # the waits end by then, so a regression fails, not hangs

    def failing(batch, *args):
        with open(log, "a") as fh:
            fh.writelines(f"{task.index}\n" for task in batch)
        if any(task.index == 0 for task in batch):
            raise RuntimeError("task 0 failed")
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(batch, *args)

    pools = []

    class Pool(search.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.workers, self.futures = max_workers, []
            pools.append(self)

        def submit(self, *args):
            self.futures.append(super().submit(*args))
            return self.futures[-1]

        def shutdown(self, wait=True, *, cancel_futures=False):
            def release():
                while cancel_futures and time.monotonic() < deadline and any(
                        not (f.running() or f.done()) for f in self.futures):
                    time.sleep(0.01)
                marker.touch()
            threading.Thread(target=release).start()
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(search, "_BATCH", 1)
    monkeypatch.setattr(search, "run_tasks", failing)
    monkeypatch.setattr(search, "ProcessPoolExecutor", Pool)
    with pytest.raises(RuntimeError, match="task 0 failed"):
        run_search(33, 3, 11, SearchConfig(threads=2))
    [pool] = pools
    calls = sorted(map(int, log.read_text().split()))
    queued = pool.workers + process.EXTRA_QUEUED_CALLS
    assert calls[0] == 0 and len(calls) == len(set(calls))
    assert len(calls) <= 1 + pool.workers + queued == 6  # of 432 tasks
    assert sum(f.cancelled() for f in pool.futures) >= 432 - len(calls)


def test_retried_flush_neither_tears_nor_doubles_records(tmp_path, monkeypatch):
    # the second checkpoint save fails after its records reached the
    # sidecar; the flush on the way out must cut them back before rewriting
    cp = tmp_path / "cp.json"
    clean_cp = tmp_path / "clean_cp.json"
    clean = tmp_path / "clean.jsonl"
    resumed = tmp_path / "resumed.jsonl"
    monkeypatch.setattr(search, "_BATCH", 2)
    run_search(21, 3, 7, SearchConfig(checkpoint_path=str(clean_cp), archive_path=str(clean)))
    real, saves = seqio.save_checkpoint, []

    def failing_once(path, checkpoint):
        saves.append(checkpoint)
        if len(saves) == 2:
            raise OSError("disk full")
        real(path, checkpoint)

    with monkeypatch.context() as m:
        m.setattr(seqio, "save_checkpoint", failing_once)
        with pytest.raises(OSError, match="disk full"):
            run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    assert len(saves) == 3
    assert seqio.load_checkpoint(cp).done == 4
    run_search(
        21, 3, 7, SearchConfig(checkpoint_path=str(cp), archive_path=str(resumed)), resume=True
    )
    assert filecmp.cmp(clean, resumed, shallow=False)
    lines = _sidecar_lines(cp)
    assert len(set(lines)) == len(lines)
    assert lines == _sidecar_lines(clean_cp)


def test_checkpoint_is_written_once_per_batch(tmp_path, monkeypatch):
    cp = tmp_path / "cp.json"
    real, saves = seqio.save_checkpoint, []

    def counted(path, checkpoint):
        saves.append(checkpoint)
        real(path, checkpoint)

    monkeypatch.setattr(seqio, "save_checkpoint", counted)
    records, summary = run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)))
    assert len(saves) == -(-summary["tasks"] // search._BATCH)
    ctx = CrtContext(3, 7)
    raw = sum(len(run_task(t, ctx)) for t in _tasks(21, 3, 7))
    assert len(_sidecar_lines(cp)) == raw > len(records)
    # resuming the finished run marks no task, so it rewrites nothing
    sidecar = Path(str(cp) + ".records")
    before = cp.read_bytes(), sidecar.read_bytes()
    saves.clear()
    assert run_search(21, 3, 7, SearchConfig(checkpoint_path=str(cp)), resume=True)[0] == records
    assert saves == []
    assert (cp.read_bytes(), sidecar.read_bytes()) == before


def test_a_search_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, a cost each fresh worker of
    # a run would pay on its first hit; the check needs a fresh interpreter
    code = textwrap.dedent("""
        import sys
        from lppairs.cyclic import decimate, decimation_canon, shift, units
        from lppairs.search import run_search
        assert run_search(15, 3, 5)[1]["records"] > 0
        v = (2, -1, 0, -1, 3, -4, 0)
        assert decimation_canon(v)[0] == min(
            shift(decimate(v, k), j) for k in units(7) for j in range(7))
        print("numpy.ma" in sys.modules)
    """)
    src = str(Path(search.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]


@pytest.mark.parametrize("option", [
    {"threads": 0},
    {"threads": -2},
    {"threads": -1},
    {"stop_after": -100},
    {"stop_after": 0},
    {"stop_after": -1},
])
def test_search_config_rejects_out_of_range_options(option):
    with pytest.raises(ValueError, match=next(iter(option))):
        SearchConfig(**option)


def test_search_config_accepts_boundary_values():
    SearchConfig(threads=1, stop_after=1)
    SearchConfig(stop_after=None)


def test_run_task_finds_self_paired_solutions():
    # length 15 admits pairs where both members decompress from the same
    # marginal instances; the cross-matchings must surface them
    from lppairs.compress import CrtContext

    ctx = CrtContext(3, 5)
    _, _, e1 = compressed_census(15, 3)
    _, _, e2 = compressed_census(15, 5)
    hits = []
    for task in build_tasks(e1, e2):
        hits.extend(run_task(task, ctx))
    assert any(r.u == r.v for r in hits)


def _key_digest(records) -> str:
    # sha256 over the sorted canonical keys, one "u,v" bit-string line each
    lines = sorted(
        "".join(map(str, a)) + "," + "".join(map(str, b)) for a, b in (r.key for r in records)
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("factors,threads", [((3, 11), 1), ((11, 3), 2)])
def test_length_33_search_is_pinned_in_both_factor_orders(tmp_path, factors, threads):
    cp = tmp_path / "cp.json"
    records, summary = run_search(33, *factors, SearchConfig(threads=threads, checkpoint_path=str(cp)))
    with open(str(cp) + ".records") as fh:
        raw = sum(1 for line in fh if line.strip())
    assert summary["tasks"] == summary["completed"] == 432
    assert (raw, len(records)) == (778, 284)
    assert _key_digest(records) == "0ddfec1a5c637031499da8a03f1eca4fe984d47ae9045487b9ad0aa3a4913f4b"


def test_length_35_search_is_pinned(tmp_path):
    cp = tmp_path / "cp.json"
    records, summary = run_search(35, 7, 5, SearchConfig(threads=2, checkpoint_path=str(cp)))
    with open(str(cp) + ".records") as fh:
        raw = sum(1 for line in fh if line.strip())
    assert summary["tasks"] == summary["completed"] == 720
    assert (raw, len(records)) == (2756, 829)
    digest = hashlib.sha256(repr(sorted(r.key for r in records)).encode()).hexdigest()
    assert digest == "4575a81a412514216148ac6a1ade064b32a9494ed2fd0707cb20146635cf8e5c"


def test_length_33_run_files_are_pinned_byte_for_byte(tmp_path):
    # the archive and the records sidecar of a 2-worker run, as the
    # search wrote them before its keys, prints and canonical forms were
    # last reworked: no change to the leaf path may move a byte of either
    cp, out = tmp_path / "cp.json", tmp_path / "out.jsonl"
    run_search(33, 3, 11, SearchConfig(threads=2, checkpoint_path=str(cp), archive_path=str(out)))
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in (out, tmp_path / "cp.json.records")]
    assert digests == ["1b0138ea76613d430f5c91ee8e99afbd0f3d716fe9fd79d441f6a32faea9149f",
                       "d4561440f02da190db6cb8a496cc859559d6d5508cc195c56031464f3cbb4281"]


@pytest.mark.parametrize("lags", range(1, 65))
def test_key_prints_keep_their_formula(lags):
    # sum_g key_g * _PRINT_BASE^(g+1) mod 2^64 in Python ints, on a
    # contiguous array and on the transposed (lags, N) buffer that
    # _paf_keys returns: a sum kept in uint8 or in float64 would differ
    rng = np.random.default_rng(lags)
    keys = rng.integers(0, 256, size=(30, lags), dtype=np.uint8)
    keys[0], keys[1], keys[2, ::2] = 0, 255, 255
    want = [sum(k * _PRINT_BASE ** (g + 1) for g, k in enumerate(row)) % 2**64
            for row in keys.tolist()]
    for view in (keys, np.ascontiguousarray(keys.T).T):
        assert _key_prints(view).tolist() == want


def _masks(ints, ell):
    width = -(-ell // 64)
    return np.array([[(x >> (64 * k)) & (2**64 - 1) for k in range(width)] for x in ints], dtype=np.uint64)


@pytest.mark.parametrize("ell", [15, 21, 33, 43, 45, 47, 63, 64, 65, 77, 99, 127, 129])
def test_word_keys_equal_exact_paf(ell):
    rng = random.Random(ell)
    ints = [rng.getrandbits(ell) for _ in range(40)] + [0, 2**ell - 1, 1, 1 << (ell - 1)]
    keys = search._paf_keys(_masks(ints, ell), ell, np.arange(1, (ell + 1) // 2))
    for x, key in zip(ints, keys.tolist()):
        v = tuple((x >> g) & 1 for g in range(ell))
        assert tuple(key) == paf(v)[1:(ell + 1) // 2]
        assert search._vector(_masks([x], ell)[0], ell) == v
    # each lag alone: whether the high part is computed depends on the lags
    for g in range(1, (ell + 1) // 2):
        alone = search._paf_keys(_masks(ints, ell), ell, np.array([g]))
        assert alone[:, 0].tolist() == keys[:, g - 1].tolist()
    # two more lag sets of one size at this ell, keyed after the ones above,
    # so constants cached under too coarse a key would give wrong PAFs
    pafs = [paf(tuple((x >> g) & 1 for g in range(ell))) for x in ints]
    for first in (1, 2):
        lags = np.arange(first, first + 2 * ((ell - 1) // 4), 2)
        got = search._paf_keys(_masks(ints, ell), ell, lags)
        assert got.tolist() == [[p[g] for g in lags.tolist()] for p in pafs]


def test_word_keys_on_free_lags_on_both_sides_of_the_spill_edge():
    # 5 x 9 at ell = 45: the free lags run to 22, and only lags above
    # 64 - 45 = 19 (here 21 and 22) have high-part bits below ell
    ell, lags = 45, search._free_lags(CrtContext(5, 9))
    assert lags.min() <= 64 - ell < lags.max()
    rng = random.Random(ell)
    ints = [rng.getrandbits(ell) for _ in range(40)] + [0, 2**ell - 1, 1, 1 << (ell - 1)]
    keys = search._paf_keys(_masks(ints, ell), ell, lags)
    for x, key in zip(ints, keys.tolist()):
        pafs = paf(tuple((x >> g) & 1 for g in range(ell)))
        assert tuple(key) == tuple(pafs[g] for g in lags.tolist())


@pytest.mark.parametrize("ell", [33, 43, 45, 47, 77, 129])
def test_word_keys_cross_a_block_boundary(ell):
    # three rows past one block of _KEY_WORDS words per temporary
    width = -(-ell // 64)
    n = search._KEY_WORDS // ((ell - 1) // 2 * width) + 3
    rng = np.random.default_rng(ell)
    bits = rng.integers(0, 2, size=(n, ell), dtype=np.uint8)
    octets = np.packbits(bits, axis=1, bitorder="little")
    words = np.zeros((n, 8 * width), dtype=np.uint8)
    words[:, :octets.shape[1]] = octets
    keys = search._paf_keys(words.view("<u8"), ell, np.arange(1, (ell + 1) // 2))
    assert keys.shape == (n, (ell - 1) // 2)
    for v, key in zip(bits.tolist(), keys.tolist()):
        assert tuple(key) == paf(v)[1:(ell + 1) // 2]


def _random_rows(ell, n, seed):
    """n random length-ell 0/1 vectors and their rows of mask words."""
    rng = random.Random(seed)
    ints = [rng.getrandbits(ell) for _ in range(n)]
    return [tuple((x >> g) & 1 for g in range(ell)) for x in ints], _masks(ints, ell)


@pytest.mark.parametrize("ell,factors", [(33, (3, 11)), (55, (5, 11)), (65, (5, 13)), (77, (7, 11)),
                                         (129, (3, 43))])
def test_word_keys_do_not_depend_on_the_block_size(monkeypatch, ell, factors):
    # W = 1, 1, 2, 2, 3 words per row; blocks of one row, then blocks of
    # three rows over ten (a short last block), then the default blocks,
    # with a fresh output and into a used one
    vectors, rows = _random_rows(ell, 10, ell)
    for lags in (np.arange(1, (ell + 1) // 2), search._free_lags(CrtContext(*factors))):
        want = [[paf(v)[g] for g in lags.tolist()] for v in vectors]
        width = len(lags) * rows.shape[1]
        for words in (width, 3 * width, search._KEY_WORDS):
            monkeypatch.setattr(search, "_KEY_WORDS", words)
            assert search._paf_keys(rows, ell, lags).tolist() == want
            out = np.full((len(lags), len(rows)), 255, dtype=np.uint8)
            keys = search._paf_keys(rows, ell, lags, out=out)
            assert keys.base is out and out.T.tolist() == want


def test_threads_key_at_once():
    # numpy drops the GIL inside the ufuncs that fill the key buffers, so
    # threads sharing one buffer would get each other's keys; three
    # threads, more than a 2-core machine runs at once
    ell, lags = 33, search._free_lags(CrtContext(3, 11))
    sets = [_random_rows(ell, 6000, seed) for seed in (1, 2, 3)]
    wants = [[[paf(v)[g] for g in lags.tolist()] for v in vectors] for vectors, _ in sets]
    start, wrong = threading.Barrier(len(sets), timeout=30), []

    def key(rows, want):
        start.wait()
        for _ in range(20):
            if search._paf_keys(rows, ell, lags).tolist() != want:
                wrong.append(want)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=key, args=(rows, want)) for (_, rows), want in zip(sets, wants)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong


def test_two_threads_join_at_once():
    # each thread's joins take its own buffers and presence table
    ctx = CrtContext(3, 11)
    tasks = _tasks(33, 3, 11)[:96]
    want = search.run_tasks(tasks, ctx)
    got = {}

    def run(name, batch):
        got[name] = [r for lo in range(0, len(batch), 16) for r in search.run_tasks(batch[lo:lo + 16], ctx)]
    threads = [threading.Thread(target=run, args=(k, tasks)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert got == {0: want, 1: want} and sum(map(len, want)) > 0


@pytest.mark.parametrize("ell,factors", [(33, (3, 11)), (55, (5, 11))])
def test_warm_word_keys_allocate_no_block(ell, factors):
    # a warm call into a given output reuses its thread's buffers: one
    # block's 2 x 512 KB of rotated words used to be allocated afresh
    import tracemalloc

    lags = search._free_lags(CrtContext(*factors))
    rows = np.random.default_rng(ell).integers(0, 2**63, size=(16384, 1), dtype=np.uint64)
    out = np.empty((len(lags), len(rows)), dtype=np.uint8)
    search._paf_keys(rows, ell, lags, out=out)
    tracemalloc.start()
    try:
        search._paf_keys(rows, ell, lags, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak


def test_a_join_clears_its_presence_table(monkeypatch):
    # the table is kept for the thread's next join, so a join must clear
    # the entries it set, also when it is left early; the leaf join and
    # the census pair join take the same table
    from lppairs import pairgen

    ctx = CrtContext(5, 7)
    held, large = _job(_tasks(35, 5, 7)[687], search._MATCHINGS[0], ctx)
    leaves = np.concatenate(list(_leaf_stream((large,), ctx.cell_bits)))
    blocks = [(leaves[lo:lo + 500], np.zeros(len(leaves[lo:lo + 500]), dtype=np.uint8))
              for lo in range(0, len(leaves), 500)]
    lags, owner = search._free_lags(ctx), np.zeros(len(held), dtype=np.uint8)
    complete = list(search._join(held, owner, blocks, 35, lags))
    assert complete and not spectral._scratch.present.any()
    early = search._join(held, owner, blocks, 35, lags)
    next(early)
    assert spectral._scratch.present is None  # taken while the join runs
    early.close()
    assert not spectral._scratch.present.any()

    own = np.array([c.paf[1:6] for c in pairgen.enum_candidates(11, 3, 17)])
    assert len(pairgen._half_lag_join(own, 3 * 17, 11)[0])
    assert not spectral._scratch.present.any()
    taken = []

    def stop(*args):  # the census join's first run of hits: leave it there
        taken.append(spectral._scratch.present is None)
        raise RuntimeError("left early")
    monkeypatch.setattr(spectral, "_runs", stop)
    with pytest.raises(RuntimeError, match="left early"):
        pairgen._half_lag_join(own, 3 * 17, 11)
    assert taken == [True] and not spectral._scratch.present.any()


def test_a_record_costs_three_pafs(monkeypatch):
    # the exact check's two, and PAF(u), which gives both energies
    from lppairs import spectral

    calls = Counter()
    for module in (search, spectral):
        real = module.paf
        monkeypatch.setattr(module, "paf", lambda v, real=real: calls.update([1]) or real(v))
    records, _ = run_search(21, 3, 7)
    for r in records:
        calls.clear()
        again = canonicalize_lp(r.u, r.v, r.lam)
        assert calls[1] == 3
        assert (again.rho_u, again.rho_v) == (r.rho_u, r.rho_v) == (correlation_energy(r.u), correlation_energy(r.v))
    assert records


def test_bundled_77_pair_is_a_hit_of_a_guided_join(lp77):
    # The pair's own marginals in CrtContext(7, 11): the engine fills those
    # 7 x 11 instances as 11 columns of 7 cells.  Fixing the first 4 (u)
    # and 6 (v) columns to the pair's cells leaves a few thousand leaves
    # per side, all with two-word masks; the join on the search's 30 free
    # lags must pair u with v.
    u, v = (tuple(x) for x in lp77)
    ctx = CrtContext(7, 11)
    assert len(search._free_lags(ctx)) == 30
    insts = [MarginalInstance(compress(x, 7), compress(x, 11)) for x in (u, v)]
    counts, hits = guided_join((u, v), insts, ctx, (4, 6))
    assert counts == (17_604, 21_346)
    assert (u, v) in hits
    assert all(exact_complementary(a, b, 39) for a, b in hits)


def test_run_task_looks_up_traced_names_at_call_time(monkeypatch):
    # the bench harness (bench/tracing.py, bench/run.py) looks up and wraps
    # these module attributes by name; the package re-exports a function
    # `compress`, which hides the submodule of that name
    for module, names in (
        ("search", ("compressed_census", "enum_candidates", "match_pairs", "expand_pairs",
                    "build_tasks", "run_task", "count", "enumerate_with_spectrum",
                    "exact_complementary", "canonicalize_lp")),
        ("seqio", ("save_checkpoint", "load_checkpoint", "write_archive", "load_archive",
                   "read_sequences")),
        ("cli", ("paf", "psd", "first_failing_lag")),
        ("spectral", ("paf", "exact_complementary")),
        ("bmfm", ("count", "enumerate_matrices", "enumerate_with_spectrum")),
        ("compress", ("CrtContext", "theta_inv")),
        ("oracle", ("oracle_lp",)),
    ):
        for name in names:
            assert callable(getattr(importlib.import_module(f"lppairs.{module}"), name)), name
    calls = Counter()

    def counted(name):
        inner = getattr(search, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in ("count", "canonicalize_lp", "exact_complementary"):
        monkeypatch.setattr(search, name, counted(name))
    records = [r for t in _tasks(15, 3, 5) for r in run_task(t, CrtContext(3, 5))]
    assert calls["count"] > 0
    assert calls["canonicalize_lp"] == calls["exact_complementary"] == len(records) > 0


def test_bench_tracing_finds_every_hooked_name(monkeypatch):
    # bench/tracing.py patches these modules' attributes by name and raises
    # AttributeError on any that is gone; entering and leaving restores them
    from lppairs import cli, seqio

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    tracing = importlib.import_module("tracing")
    modules = (search, seqio, cli)
    before = [dict(vars(m)) for m in modules]
    trace = tracing.Trace()
    with tracing.instrument(SimpleNamespace(search=search, seqio=seqio, cli=cli), trace):
        assert search.run_task is not before[0]["run_task"]
        # the bench's census checks read these span attributes
        cands, pairs, _ = search.compressed_census(15, 5)
    assert [dict(vars(m)) for m in modules] == before
    attrs = {s["name"]: s["attrs"] for s in trace.spans}
    assert attrs["pairgen.enum_candidates"] == {"n": len(cands), "delta": 5, "length": 15}
    assert attrs["pairgen.match_pairs"] == {"n": len(pairs)}


def test_progress_refuses_a_task_out_of_order():
    # done tasks are a prefix of the task list: the count is the checkpoint
    progress = search._Progress("f", 3, None)
    progress.mark(0, [])
    with pytest.raises(search.InvariantViolation, match="task 2 completed before task 1"):
        progress.mark(2, [])
    assert progress.done == 1
