"""The assembled search pipeline: tasks, matching, dedup, checkpointing."""

import filecmp
import hashlib
import importlib
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lppairs import search
from lppairs.bmfm import (
    MarginalInstance,
    _leaf_chunks,
    count,
    enumerate_matrices,
    solutions,
)
from lppairs.compress import CrtContext, theta, theta_inv
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
from lppairs.spectral import divisor_psd_check, exact_complementary, paf


def test_correlation_energy_examples():
    # constant vector: every off-peak correlation of the +-1 version is n
    assert correlation_energy((1, 1, 1, 1, 1)) == 2 * 25
    # quadratic residue sequence of length 7: all off-peak values are -1
    assert correlation_energy((0, 1, 1, 0, 1, 0, 0)) == 3


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
        assert len(t.instances) == 4
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
        assert divisor_psd_check(r.u, r.v, float(r.lam))
        assert r.rho_u == correlation_energy(r.u)
        assert r.rho_v == correlation_energy(r.v)


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
        for record in run_task(task, ctx, SearchConfig()):
            ours[(record.task, record.instances, record.u, record.v)] += 1
        for matching in (((0, 0), (1, 1)), ((0, 1), (1, 0))):
            us = [theta_inv(m, ctx) for m in solutions(task.instance(*matching[0]))]
            vs = [theta_inv(m, ctx) for m in solutions(task.instance(*matching[1]))]
            for u in us:
                for v in vs:
                    if exact_complementary(u, v, lam):
                        brute[(task.index, matching, tuple(u), tuple(v))] += 1
    assert brute and ours == brute


def _sample_instances(length, d1, d2, limit=3000):
    """Instances of a few spread-out tasks, skipping the largest."""
    tasks = _tasks(length, d1, d2)
    for task in tasks[:: max(1, len(tasks) // 5)]:
        for inst in task.instances:
            if 0 < count(inst) <= limit:
                yield inst


@pytest.mark.parametrize("length,d1,d2", [(15, 3, 5), (21, 7, 3), (33, 3, 11)])
def test_mask_leaves_equal_reshaped_matrices_in_order(length, d1, d2):
    ctx = CrtContext(d1, d2)
    seen = 0
    for inst in _sample_instances(length, d1, d2):
        expected = []
        enumerate_matrices(inst, lambda m: expected.append(tuple(theta_inv(m, ctx))))
        masks = np.concatenate(list(_leaf_chunks(inst, ctx.cell_bits)))
        assert len(masks) == len(expected)
        got = [tuple((x >> g) & 1 for g in range(length)) for x in masks[:, 0].tolist()]
        assert got == expected
        keys = search._paf_keys(masks, length)
        for key, v in zip(keys.tolist(), expected):
            assert tuple(key) == paf(v)[1:(length + 1) // 2]
        seen += len(expected)
    assert seen > 0


def test_memory_cap_keeps_every_raw_record():
    ctx = CrtContext(3, 7)
    for task in _tasks(21, 3, 7):
        base = run_task(task, ctx, SearchConfig())
        capped = run_task(task, ctx, SearchConfig(max_bucket_memory=1))
        assert Counter(base) == Counter(capped)


def test_memory_cap_splits_without_losing_records():
    base, _ = run_search(15, 3, 5)
    capped, _ = run_search(15, 3, 5, SearchConfig(max_bucket_memory=2))
    assert {r.key for r in base} == {r.key for r in capped}


def test_archives_are_identical_across_worker_counts(tmp_path):
    one = tmp_path / "one.jsonl"
    two = tmp_path / "two.jsonl"
    run_search(21, 3, 7, SearchConfig(threads=1, archive_path=str(one)))
    run_search(21, 3, 7, SearchConfig(threads=2, archive_path=str(two)))
    assert filecmp.cmp(one, two, shallow=False)


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


@pytest.mark.parametrize("option", [
    {"threads": 0},
    {"threads": -2},
    {"max_bucket_memory": 0},
    {"max_bucket_memory": -5},
    {"stop_after": 0},
    {"stop_after": -1},
])
def test_search_config_rejects_out_of_range_options(option):
    with pytest.raises(ValueError, match=next(iter(option))):
        SearchConfig(**option)


def test_search_config_accepts_boundary_values():
    SearchConfig(threads=1, max_bucket_memory=1, stop_after=1)
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
        hits.extend(run_task(task, ctx, SearchConfig()))
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


def _masks(ints, ell):
    width = -(-ell // 64)
    return np.array([[(x >> (64 * k)) & (2**64 - 1) for k in range(width)] for x in ints], dtype=np.uint64)


@pytest.mark.parametrize("ell", [15, 33, 63, 64, 65, 77, 129])
def test_word_keys_equal_exact_paf(ell):
    rng = random.Random(ell)
    ints = [rng.getrandbits(ell) for _ in range(40)] + [0, 2**ell - 1, 1, 1 << (ell - 1)]
    keys = search._paf_keys(_masks(ints, ell), ell)
    for x, key in zip(ints, keys.tolist()):
        v = tuple((x >> g) & 1 for g in range(ell))
        assert tuple(key) == paf(v)[1:(ell + 1) // 2]
        assert search._vector(_masks([x], ell)[0], ell) == v


def test_bundled_77_pair_is_a_hit_of_a_guided_join(lp77):
    # The pair's own marginals in CrtContext(7, 11): the engine fills those
    # 7 x 11 instances as 11 columns of 7 cells.  Fixing each member's first
    # columns as base bits leaves a few thousand leaves per side, all with
    # two-word masks; the join must pair u with v.
    u, v = (tuple(x) for x in lp77)
    ell, lam = 77, 39
    ctx = CrtContext(7, 11)

    def guided(x, k):
        rows = theta(x, ctx).rows
        base = sum(ctx.cell_bits[i][j] for i in range(7) for j in range(k) if rows[i][j])
        inst = MarginalInstance(
            [sum(row[k:]) for row in rows], [sum(col) for col in zip(*rows)][k:]
        )
        bits = tuple(row[k:] for row in ctx.cell_bits)
        return inst, bits, base

    inst_u, bits_u, base_u = guided(u, 4)
    inst_v, bits_v, base_v = guided(v, 6)
    assert (count(inst_u), count(inst_v)) == (17_604, 21_346)
    held = np.concatenate(list(_leaf_chunks(inst_u, bits_u, base_u)))
    assert held.shape == (17_604, 2)
    hits = [
        (search._vector(a, ell), search._vector(b, ell))
        for a, b in search._join(held, _leaf_chunks(inst_v, bits_v, base_v), ell, lam)
    ]
    assert (u, v) in hits
    assert all(exact_complementary(a, b, lam) for a, b in hits)


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
    records = [r for t in _tasks(15, 3, 5) for r in run_task(t, CrtContext(3, 5), SearchConfig())]
    assert calls["count"] > 0
    assert calls["canonicalize_lp"] == calls["exact_complementary"] == len(records) > 0
