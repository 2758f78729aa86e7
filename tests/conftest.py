"""Shared fixtures: worked-example vectors and small reference data.

The length-35 vectors and their compressions are the hand-checkable
examples used throughout the unit tests; both simultaneous compressions
and the 7x5 reshape were verified against independent arithmetic.
"""

import random

import pytest

# length 35, delta1 = 7, delta2 = 5
V35 = (1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0,
       0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0)
U35 = (1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 1,
       0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0)
Q1 = (4, 2, 1, 4, 3, 3, 1)   # 7-compression of V35
Q2 = (5, 2, 3, 4, 4)         # 5-compression of V35
P1 = (3, 4, 3, 2, 2, 1, 3)   # 7-compression of U35
P2 = (6, 3, 2, 4, 3)         # 5-compression of U35

# theta(V35) under the (7, 5) CRT reshape
A35 = ((1, 0, 1, 1, 1),
       (1, 1, 0, 0, 0),
       (0, 0, 0, 0, 1),
       (1, 1, 0, 1, 1),
       (0, 0, 1, 1, 1),
       (1, 0, 1, 1, 0),
       (1, 0, 0, 0, 0))


@pytest.fixture
def lp77():
    from lppairs import seqio
    from importlib import resources

    path = resources.files("lppairs.data") / "lp77.txt"
    sf = seqio.read_sequences(str(path))
    return sf.sequences


def random_binary(rng: random.Random, n: int, density: int) -> tuple:
    """Binary vector of length n with exactly `density` ones."""
    ones = rng.sample(range(n), density)
    return tuple(1 if i in set(ones) else 0 for i in range(n))


def random_vector(rng: random.Random, n: int, lo: int = 0, hi: int = 3) -> tuple:
    return tuple(rng.randint(lo, hi) for _ in range(n))


def random_marginals(rng: random.Random, m: int, n: int) -> tuple[tuple, tuple]:
    """Random in-range row/column sums with matching totals."""
    rows = tuple(rng.randint(0, n) for _ in range(m))
    while True:
        cols = tuple(rng.randint(0, m) for _ in range(n))
        if sum(cols) == sum(rows):
            return rows, cols


def guided_join(pair, instances, ctx, fixed):
    """The search's join on two marginal instances, each with its first
    columns fixed to the cells of one member of a known pair.

    Instance i must have pair[i]'s marginals in ctx; its first fixed[i]
    columns take pair[i]'s cells, and the bits of those cells are OR-ed
    into every leaf of the other columns.  pair[0]'s side is held and
    pair[1]'s side streams, joined on the free lags as `run_task` joins.
    Returns both sides' leaf counts and the hits as (u, v) vectors.
    """
    import numpy as np

    from lppairs import search
    from lppairs.bmfm import MarginalInstance, _leaf_stream, count
    from lppairs.compress import theta

    width = -(-ctx.ell // 64)

    def leaves(rest, bits, words):
        for chunk in _leaf_stream((rest,), bits):
            assert chunk.shape[1] == width
            yield chunk | words

    counts, sides = [], []
    for z, inst, k in zip(pair, instances, fixed):
        rows = theta(z, ctx).rows
        assert (tuple(map(sum, rows)), tuple(map(sum, zip(*rows)))) == (inst.row_sums, inst.col_sums)
        rest = MarginalInstance([sum(row[k:]) for row in rows], inst.col_sums[k:])
        cells = sum(b for brow, row in zip(ctx.cell_bits, rows) for b, x in zip(brow[:k], row) if x)
        words = np.array([(cells >> (64 * w)) & (2**64 - 1) for w in range(width)], dtype=np.uint64)
        counts.append(count(rest))
        sides.append(leaves(rest, tuple(brow[k:] for brow in ctx.cell_bits), words))
    held = np.concatenate(list(sides[0]))
    assert len(held) == counts[0]
    hits = [
        (search._vector(a, ctx.ell), search._vector(b, ctx.ell))
        for a, b in one_job_join(held, sides[1], ctx.ell, search._free_lags(ctx))
    ]
    return tuple(counts), hits


def one_job_join(held, chunks, ell, lags):
    """The (u, v) word rows that `search._join` pairs when every held and
    streamed row belongs to job 0, as the rows of a one-job group do."""
    import numpy as np

    from lppairs import search

    def job0(rows):
        return np.zeros(len(rows), dtype=np.intp)

    for job, u, v in search._join(held, job0(held), ((c, job0(c)) for c in chunks), ell, lags):
        assert job == 0
        yield u, v
