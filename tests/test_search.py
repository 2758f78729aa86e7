"""The assembled search pipeline: tasks, matching, dedup, checkpointing."""

import filecmp
from collections import Counter

import pytest

from lppairs.bmfm import count, enumerate_masks, enumerate_matrices, solutions
from lppairs.compress import CrtContext, theta_inv
from lppairs.cyclic import CyclicVector, decimate, shift
from lppairs.oracle import oracle_lp
from lppairs.search import (
    SearchConfig,
    build_tasks,
    canonicalize_lp,
    compressed_census,
    correlation_energy,
    half_paf,
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
    v = CyclicVector((0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0))
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
        assert exact_complementary(CyclicVector(r.u), CyclicVector(r.v), r.lam)
        assert divisor_psd_check(r.u, r.v, float(r.lam))
        assert r.rho_u == correlation_energy(r.u)
        assert r.rho_v == correlation_energy(r.v)


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
        masks = []
        assert enumerate_masks(inst, ctx.cell_bits, masks.append) == len(expected)
        got = [tuple((x >> g) & 1 for g in range(length)) for x in masks]
        assert got == expected
        for x, v in zip(masks, expected):
            assert half_paf(x, length) == paf(v).values[1:(length + 1) // 2]
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


def test_compressed_census_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="tolerance"):
        compressed_census(15, 5, tolerance=-1e-9)
    assert compressed_census(15, 5, tolerance=0.0)


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
