"""Binary matrices with fixed marginals: feasibility, counting, enumeration."""

import random
from itertools import product as iproduct

import numpy as np
import pytest

from lppairs.bmfm import (
    MarginalInstance,
    _leaf_chunks,
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
    t = inst.transpose()
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
        assert count(inst) == count(inst.transpose())
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
    assert enumerate_matrices(inst) == total  # no visitor: counted by chunk
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
    inst = MarginalInstance([1, 2], [1, 1, 1])
    bits = ((1, 2, 4), (8, 16, 32))
    masks = [int(x) for chunk in _leaf_chunks(inst, bits, base=64) for x in chunk[:, 0]]
    assert len(masks) == count(inst)
    expected = [
        64 | sum(bits[i][j] for i in range(2) for j in range(3) if mat.rows[i][j])
        for mat in solutions(inst)
    ]
    assert masks == expected


def test_enumerate_with_spectrum_matches_direct_dft():
    inst = MarginalInstance([2, 1, 2], [1, 2, 1, 1])

    def check(mat, spec):
        direct = two_dim_dft(np.array(mat.rows), 3, 4)
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
        # every line here has at most C(4, 2) = 6 subsets, so a step's slice
        # holds at most max(4, 6) children
        assert all(len(c) <= 6 for c in chunks)
        assert [int(x) for c in chunks for x in c[:, 0]] == whole
        assert len(whole) == count(inst)
