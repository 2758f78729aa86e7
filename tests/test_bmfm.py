"""Binary matrices with fixed marginals: feasibility, counting, enumeration."""

import random
from itertools import combinations
from itertools import product as iproduct
from math import isqrt

import numpy as np
import pytest

from lppairs.bmfm import (
    MarginalInstance,
    _leaf_rank,
    _leaf_stream,
    _unpack,
    count,
    enumerate_matrices,
    enumerate_with_spectrum,
    feasible,
    solutions,
)
from lppairs.spectral import _runs
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
    masks = [int(x) for chunk in _leaf_stream((inst,), bits) for x in chunk[:, 0] | np.uint64(64)]
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
        whole = [int(x) for c in bmfm._leaf_stream((inst,), bits) for x in c[:, 0]]
        monkeypatch.setattr(bmfm, "_CHUNK", 4)
        chunks = list(bmfm._leaf_stream((inst,), bits))
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
        default = [int(x) for c in bmfm._leaf_stream((inst,), bits) for x in c[:, 0]]
        for name in ("_CHUNK", "_TAIL"):
            monkeypatch.setattr(bmfm, name, 1)
            stream = [int(x) for c in bmfm._leaf_stream((inst,), bits) for x in c[:, 0]]
            monkeypatch.undo()
            assert stream == default
        assert len(default) == count(inst)


@pytest.mark.parametrize("name", [None, "_CHUNK", "_TAIL"])
def test_one_stream_of_a_layout_cuts_into_each_instance_leaves(monkeypatch, name):
    # _leaf_stream enumerates instances of one line layout from one
    # frontier; cut by count, the stream gives each instance's own leaves in
    # order: a repeated instance twice, one with no solution (its needs are
    # in range but one too many) none.  Its instances share the line sums
    # of a random matrix and take the sums across of its lines shuffled.
    from lppairs import bmfm

    if name:
        monkeypatch.setattr(bmfm, name, 1)
    rng, empty = random.Random(407), 0
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        by_rows = m >= n
        size = (m, n) if by_rows else (n, m)  # (lines, cells per line)
        first = [[rng.randint(0, 1) for _ in range(size[1])] for _ in range(size[0])]
        needs = []
        for _ in range(rng.randint(1, 4)):
            lines = [rng.sample(line, len(line)) for line in first]
            needs.append(tuple(map(sum, zip(*lines))))
        needs.insert(rng.randint(0, len(needs)), needs[0])
        sums = tuple(map(sum, first))
        if min(needs[0]) < size[0]:
            wrong = list(needs[0])
            wrong[wrong.index(min(wrong))] += 1
            needs.insert(rng.randint(0, len(needs)), tuple(wrong))
        insts = [MarginalInstance(sums, need) if by_rows else MarginalInstance(need, sums) for need in needs]
        bits = tuple(tuple(1 << (i * n + j) for j in range(n)) for i in range(m))
        chunks = list(bmfm._leaf_stream(insts, bits))
        assert all(len(c) <= bmfm._CHUNK for c in chunks)
        stream = [int(x) for c in chunks for x in c[:, 0]]
        start = 0
        for inst in insts:
            own = [int(x) for c in _leaf_stream((inst,), bits) for x in c[:, 0]] if count(inst) else []
            assert stream[start:start + len(own)] == own and len(own) == count(inst)
            start += len(own)
        assert start == len(stream) and stream
        empty += min(map(count, insts)) == 0
    assert empty > 10
    with pytest.raises(ValueError):
        bmfm._leaf_stream([MarginalInstance([1, 0], [1, 0]), MarginalInstance([0, 1], [1, 0])], ((1, 2), (4, 8)))


@pytest.mark.parametrize("name", [None, "_CHUNK", "_TAIL"])
def test_leaf_stream_yields_leaves_in_ascending_rank(monkeypatch, name):
    # the search sorts each job's hits by _leaf_rank, and a job run whole
    # finds them in stream order: on the marginals of random matrices, with
    # lines of both orientations and cell bits in one mask word or scattered
    # over two, the stream must ascend in rank.  _CHUNK = 1 commits one line
    # per step and _TAIL = 1 makes the tail the last line alone.
    from lppairs import bmfm

    if name:
        monkeypatch.setattr(bmfm, name, 1)
    rng, seen = random.Random(409), set()
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        cells = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
        inst = MarginalInstance(tuple(map(sum, cells)), tuple(map(sum, zip(*cells))))
        spots = rng.sample(range(rng.choice((m * n, 128))), m * n)
        bits = tuple(tuple(1 << spots[i * n + j] for j in range(n)) for i in range(m))
        chunks = list(_leaf_stream((inst,), bits))
        leaves = [_unpack(row, 128).tolist() for c in chunks for row in c]
        ranks = list(map(_leaf_rank(inst, bits), leaves))
        assert ranks == sorted(ranks) and len(set(ranks)) == len(ranks) == count(inst)
        if len(ranks) > 1:
            seen.add((m >= n, chunks[0].shape[1]))
    assert seen == {(True, 2), (False, 2), (True, 1), (False, 1)}


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


def _direct_product(lines, sums, width):
    """Per-position 1-cell counts and mask words of every choice of one
    r-subset per line, first line major, by a plain loop over all choices."""
    n = len(lines[0])
    counts, words = [], []
    for choice in iproduct(*(combinations(range(n), r) for r in sums)):
        per = [0] * n
        mask = 0
        for line, subset in zip(lines, choice):
            for j in subset:
                per[j] += 1
                mask |= line[j]
        counts.append(per)
        words.append([(mask >> (64 * k)) & ((1 << 64) - 1) for k in range(width)])
    return counts, np.array(words, dtype=np.uint64).reshape(-1, width)


def _same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tolist() == want.tolist() if got.dtype == object else got.tobytes() == want.tobytes()


def _check_layout(bits, by_rows, sums, step_rows, tail_rows):
    """`_layout`'s tables equal direct products over the lines it chose."""
    from lppairs import bmfm

    lines = bits if by_rows else tuple(zip(*bits))
    width = max(1, -(-max(b.bit_length() for line in lines for b in line) // 64))
    steps, (weights, keys, words), got_width = bmfm._layout(bits, by_rows, sums, step_rows, tail_rows)
    assert got_width == width
    start = 0
    for (table, step_words), left in steps:
        stop = len(sums) - left
        counts, want_words = _direct_product(lines[start:stop], sums[start:stop], width)
        want = np.array(counts, dtype=np.min_scalar_type(stop - start)).T[:, None, :].copy()
        _same(table, want)
        _same(step_words, want_words)
        start = stop
    counts, want_words = _direct_product(lines[start:], sums[start:], width)
    base, n = len(sums) - start + 1, len(lines[0])
    dtype = np.uint64 if base ** n <= 1 << 64 else object
    want_keys = [sum(c * base ** g for g, c in enumerate(per)) for per in counts]
    order = sorted(range(len(want_keys)), key=want_keys.__getitem__)  # stable
    _same(weights, np.array([base ** g for g in range(n)], dtype=dtype))
    _same(keys, np.array([want_keys[i] for i in order], dtype=dtype))
    _same(words, want_words[order])


@pytest.mark.parametrize("step_rows,tail_rows", [
    (isqrt(1 << 14), 1 << 10),  # the defaults, isqrt(_CHUNK) and _TAIL
    (1, 1 << 10),  # _CHUNK = 1: a step per line
    (isqrt(1 << 14), 1),  # _TAIL = 1: the last line alone is looked up
])
def test_layout_tables_equal_direct_products(step_rows, tail_rows):
    # the tables come from products cached per suffix and key vectors summed
    # by broadcasting; many layouts run, so later ones reuse cached suffixes
    rng = random.Random(406)
    for _ in range(120):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        rows, cols = random_marginals(rng, m, n)
        # row-major cell bits, and the same bits past bit 63 (two mask words)
        for offset in (0, 60):
            bits = tuple(tuple(1 << (offset + i * n + j) for j in range(n)) for i in range(m))
            by_rows = m >= n
            _check_layout(bits, by_rows, rows if by_rows else cols, step_rows, tail_rows)


def test_layout_tables_of_wide_and_long_lines():
    # 66-cell lines: the tail keys are Python ints (2 ** 66 > 2 ** 64), and
    # overlapping cell bits spread over two words are ORed; then 300 such
    # lines of one r-subset each: the first 299 form one step, whose counts
    # (299) need a uint16
    wide = tuple(tuple(1 << ((i * 66 + j) % 128) for j in range(66)) for i in range(300))
    _check_layout(wide[:66], True, (1,) + (0,) * 64 + (1,), isqrt(1 << 14), 1 << 10)
    _check_layout(wide[:66], True, (1,) + (0,) * 64 + (1,), 1, 1)
    _check_layout(wide, True, (66,) * 300, isqrt(1 << 14), 1 << 10)


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
