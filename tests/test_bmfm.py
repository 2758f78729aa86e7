"""Binary matrices with fixed marginals: feasibility, counting, enumeration."""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from lppairs.bmfm import (
    MarginalInstance,
    _leaf_chunks,
    _runs,
    count,
    enumerate_matrices,
    enumerate_with_spectrum,
    feasible,
    solutions,
)
from lppairs.oracle import oracle_bmfm, oracle_bmfm_census, oracle_feasible_subsets
from lppairs.spectral import two_dim_dft

from conftest import random_marginals


def test_instance_normalizes_and_transposes():
    inst = MarginalInstance([1, 2], [1, 1, 1])
    assert inst.n_rows == 2 and inst.n_cols == 3
    t = MarginalInstance(inst.col_sums, inst.row_sums)
    assert t.row_sums == (1, 1, 1) and t.col_sums == (1, 2)


def test_known_counts():
    assert count(MarginalInstance([1, 1], [1, 1])) == 2
    assert count(MarginalInstance([0, 0], [0, 0])) == 1
    assert count(MarginalInstance([2, 0], [2, 0])) == 0
    assert count(MarginalInstance([2, 1], [1, 1, 1])) == 3


def test_count_mismatched_totals_is_zero():
    assert count(MarginalInstance([2, 2], [1, 1, 1])) == 0
    assert not feasible(MarginalInstance([2, 2], [1, 1, 1]))


def test_count_matches_transpose_and_permutation():
    rng = random.Random(401)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows, cols = random_marginals(rng, m, n)
        rows, cols = list(rows), list(cols)
        inst = MarginalInstance(rows, cols)
        assert count(inst) == count(MarginalInstance(inst.col_sums, inst.row_sums))
        rng.shuffle(rows)
        rng.shuffle(cols)
        assert count(inst) == count(MarginalInstance(rows, cols))


def test_exhaustive_3x3_against_oracle():
    census = oracle_bmfm_census(3, 3)
    for rows in iproduct(range(4), repeat=3):
        for cols in iproduct(range(4), repeat=3):
            if sum(rows) != sum(cols):
                continue
            inst = MarginalInstance(rows, cols)
            assert count(inst) == census.get((rows, cols), 0)


def test_enumeration_matches_oracle_solution_sets():
    rng = random.Random(402)
    for _ in range(25):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        rows = tuple(rng.randint(0, n) for _ in range(m))
        cols = tuple(rng.randint(0, m) for _ in range(n))
        if sum(rows) != sum(cols):
            continue
        inst = MarginalInstance(rows, cols)
        _, oracle_hits = oracle_bmfm(rows, cols)
        ours = {mat.rows for mat in solutions(inst)}
        assert ours == set(oracle_hits)
        assert count(inst) == len(ours)


def test_enumerate_visits_each_solution_once():
    inst = MarginalInstance([2, 1, 2], [2, 1, 2])
    seen = []
    total = enumerate_matrices(inst, lambda mat: seen.append(mat.rows))
    assert total == len(seen) == len(set(seen)) == count(inst)
    for rows in seen:
        assert tuple(sum(r) for r in rows) == inst.row_sums
        assert tuple(sum(c) for c in zip(*rows)) == inst.col_sums


def test_visitor_returning_false_stops_enumeration():
    inst = MarginalInstance([2, 2, 1, 2], [2, 1, 2, 2])
    everything = solutions(inst)
    seen = []

    def visit(mat):
        seen.append(mat)
        return len(seen) < 3

    assert enumerate_matrices(inst, visit) == 3
    assert seen == everything[:3] and len(everything) > 3


def test_masks_or_cell_bits_into_base():
    # a caller that fixes cells outside the instance ORs their bits (here
    # 64) into every chunk itself
    inst = MarginalInstance([1, 2], [1, 1, 1])
    bits = ((1, 2, 4), (8, 16, 32))
    masks = [int(x) for chunk in _leaf_chunks(inst, bits) for x in chunk[:, 0] | np.uint64(64)]
    assert len(masks) == count(inst)
    expected = [
        64 | sum(bits[i][j] for i in range(2) for j in range(3) if mat.rows[i][j])
        for mat in solutions(inst)
    ]
    assert masks == expected


def test_enumerate_with_spectrum_matches_direct_dft():
    inst = MarginalInstance([2, 1, 2], [1, 2, 1, 1])

    def check(mat, spec):
        direct = two_dim_dft(np.array(mat.rows))
        assert np.allclose(spec, direct, atol=1e-9)

    assert enumerate_with_spectrum(inst, check) == count(inst)


def test_gale_ryser_agrees_with_subset_oracle():
    rng = random.Random(403)
    hits = 0
    for _ in range(200):
        rows, cols = random_marginals(rng, 4, 4)
        ours = feasible(MarginalInstance(rows, cols))
        assert ours == oracle_feasible_subsets(rows, cols)
        # feasibility must also agree with a positive count
        assert ours == (count(MarginalInstance(rows, cols)) > 0)
        hits += ours
    assert 0 < hits < 200


def test_feasible_rejects_out_of_range_marginals():
    # a row sum larger than the column count is impossible even when the
    # totals balance; same for a column sum larger than the row count
    assert not feasible(MarginalInstance([4, 0], [2, 1, 1]))
    assert count(MarginalInstance([4, 0], [2, 1, 1])) == 0
    assert not feasible(MarginalInstance([2, 2], [3, 1]))


def test_memoized_count_is_stable():
    inst = MarginalInstance([3, 2, 2], [2, 2, 2, 1])
    first = count(inst)
    assert first == count(inst)
    assert first == count(MarginalInstance([2, 2, 3], [1, 2, 2, 2]))


def test_leaf_order_and_chunk_bound_do_not_depend_on_chunk_size(monkeypatch):
    from lppairs import bmfm

    rng = random.Random(404)
    for _ in range(20):
        rows, cols = random_marginals(rng, rng.randint(1, 4), rng.randint(2, 7))
        inst = MarginalInstance(rows, cols)
        bits = tuple(tuple(1 << (i * len(cols) + j) for j in range(len(cols))) for i in range(len(rows)))
        whole = [int(x) for c in bmfm._leaf_chunks(inst, bits) for x in c[:, 0]]
        monkeypatch.setattr(bmfm, "_CHUNK", 4)
        chunks = list(bmfm._leaf_chunks(inst, bits))
        monkeypatch.undo()
        assert all(len(c) <= 4 for c in chunks)
        assert [int(x) for c in chunks for x in c[:, 0]] == whole
        assert len(whole) == count(inst)


def test_multi_line_steps_keep_leaf_order_on_random_marginals(monkeypatch):
    # _CHUNK = 1 commits one line per step (lines of one r-subset aside);
    # _TAIL = 1 looks up only the last line (and any lines of one r-subset
    # before it), which then takes exactly the positions still owing 1; the
    # default commits up to isqrt(_CHUNK) subset choices per step and looks
    # up a tail of up to _TAIL choices
    from lppairs import bmfm

    rng = random.Random(405)
    for _ in range(40):
        rows, cols = random_marginals(rng, rng.randint(1, 7), rng.randint(1, 6))
        inst = MarginalInstance(rows, cols)
        bits = tuple(tuple(1 << (i * len(cols) + j) for j in range(len(cols))) for i in range(len(rows)))
        default = [int(x) for c in bmfm._leaf_chunks(inst, bits) for x in c[:, 0]]
        for name in ("_CHUNK", "_TAIL"):
            monkeypatch.setattr(bmfm, name, 1)
            stream = [int(x) for c in bmfm._leaf_chunks(inst, bits) for x in c[:, 0]]
            monkeypatch.undo()
            assert stream == default
        assert len(default) == count(inst)


def test_a_step_of_many_full_lines_does_not_wrap():
    # 299 lines of one r-subset each form one step; their per-position
    # counts (299) must not wrap in the step table
    inst = MarginalInstance([2] * 300, [300, 300])
    assert count(inst) == 1
    assert [mat.rows for mat in solutions(inst)] == [((1, 1),) * 300]


def test_lines_wider_than_64_cells_key_exactly():
    # 66 lines of 66 cells: a one-line tail's key 2^g would wrap a uint64
    # at g = 64, 65 and let the last line take column 64 after the first
    # line took it; the two solutions swap columns 64 and 65
    rows = [1] + [0] * 64 + [1]
    cols = [0] * 64 + [1, 1]
    inst = MarginalInstance(rows, cols)
    found = solutions(inst)
    assert len(found) == count(inst) == 2
    for mat in found:
        assert tuple(sum(r) for r in mat.rows) == inst.row_sums
        assert tuple(sum(c) for c in zip(*mat.rows)) == inst.col_sums


@pytest.mark.parametrize("lo,hi", [
    ([], []),
    ([4], [9]),
    # zero-length ranges between non-empty ones, and one with hi < lo
    ([3, 5, 5, 0, 9, 2, 7], [6, 5, 8, 0, 10, 2, 4]),
    ([0, 0, 0], [0, 0, 0]),
])
@pytest.mark.parametrize("cap", [1, 2, 3, 1000])
def test_runs_equal_a_double_loop(lo, hi, cap):
    lo, hi = np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)
    want = [(i, j) for i in range(len(lo)) for j in range(lo[i], hi[i])]
    chunks = list(_runs(lo, hi, cap))
    got = [pair for i, j in chunks for pair in zip(i.tolist(), j.tolist())]
    assert got == want
    assert [len(i) for i, _ in chunks] == [min(cap, len(want) - k) for k in range(0, len(want), cap)]
