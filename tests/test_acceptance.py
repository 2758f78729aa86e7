"""Acceptance criteria for the assembled package.

Each criterion is one test (parametrized where it has several countable
outcomes), so the verbose report doubles as a per-criterion pass/fail
summary:

  1. the bundled length-77 pair verifies exactly, in under a second;
  2. the length-55 compressed census: class-pair, expansion, and instance
     counts for both factorizations;
  3. the full pipeline equals the brute-force oracle at lengths 15 and 21;
  4. matrix counting/enumeration and feasibility agree with exhaustive
     oracles, with zero discrepancies;
  5. the spectral subsampling and two-dimensional DFT conversion
     identities hold to 1e-9;
  6. the orbit-overlap counting formulas equal brute-force orbit scans;
  7. the compressed sum-of-squares invariant holds on every emitted pair.

Desk-scale targets (the full length-55 Legendre pair enumeration and the
length-77 discovery search) are exercised through the same entry points
but excluded here; they are long-running modes, not test material.

Known honest failure: the delta=11 class-pair count.  This implementation
deduplicates pairs by the unordered pair of decimation classes and finds
1521; an independent brute-force equivalence count over all literal
complementary compressed pairs confirms 1521 for that convention, and
every downstream figure (expansion 3038, instances 376,712) is reproduced
exactly.  The expected census value 2051 remains the assertion target, so
that one parametrized case fails until the counting convention behind it
is identified.
"""

import random
import time
from itertools import product as iproduct

import numpy as np
import pytest

from conftest import U35, V35, random_binary, random_marginals

# ---------------------------------------------------------------- criterion 1


def test_criterion_1_bundled_pair_verifies(capsys):
    from lppairs.cli import main

    start = time.perf_counter()
    code = main(["verify"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    assert "lambda: 39" in out
    assert "kappa: u=39 v=39" in out
    assert "ok at all 76 nonzero lags" in out
    assert elapsed < 1.0, f"verification took {elapsed:.2f}s"


# ---------------------------------------------------------------- criterion 2


@pytest.fixture(scope="module")
def census55():
    from lppairs.search import build_tasks, compressed_census

    out = {}
    start = time.perf_counter()
    _, pairs5, expanded5 = compressed_census(55, 5)
    out["delta5_seconds"] = time.perf_counter() - start
    start = time.perf_counter()
    _, pairs11, expanded11 = compressed_census(55, 11)
    out["delta11_seconds"] = time.perf_counter() - start
    out["delta5_pairs"] = len(pairs5)
    out["delta11_pairs"] = len(pairs11)
    out["delta5_expanded"] = len(expanded5)
    out["delta11_expanded"] = len(expanded11)
    out["instances"] = 4 * len(build_tasks(expanded5, expanded11))
    return out


@pytest.mark.parametrize(
    "figure,expected",
    [
        ("delta5_pairs", 17),
        ("delta11_pairs", 2051),
        ("delta5_expanded", 31),
        ("delta11_expanded", 3038),
        ("instances", 376_712),
    ],
)
def test_criterion_2_census_counts(census55, figure, expected):
    actual = census55[figure]
    assert actual == expected, (
        f"{figure}: got {actual}, expected census value {expected}"
        + (
            " (class-level deduplication; see the module docstring)"
            if figure == "delta11_pairs"
            else ""
        )
    )


def test_criterion_2_census_runtime(census55):
    assert census55["delta5_seconds"] < 60.0
    assert census55["delta11_seconds"] < 60.0


# ---------------------------------------------------------------- criterion 3


@pytest.mark.parametrize("length,d1,d2", [(15, 3, 5), (21, 3, 7)])
def test_criterion_3_pipeline_equals_oracle(length, d1, d2):
    from lppairs.oracle import oracle_lp
    from lppairs.search import run_search

    start = time.perf_counter()
    records, _ = run_search(length, d1, d2)
    found = {r.key for r in records}
    expected = oracle_lp(length)
    elapsed = time.perf_counter() - start
    assert found == expected
    assert elapsed < 600.0, f"length {length} took {elapsed:.0f}s"


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_counts_and_enumeration_exhaustive_to_4x4():
    from lppairs.bmfm import MarginalInstance, count, solutions
    from lppairs.oracle import oracle_bmfm_census

    discrepancies = []
    for m in range(1, 5):
        for n in range(1, 5):
            census = oracle_bmfm_census(m, n)
            # counts, including every infeasible marginal combination
            for rows in iproduct(range(n + 1), repeat=m):
                for cols in iproduct(range(m + 1), repeat=n):
                    if sum(rows) != sum(cols):
                        continue
                    want = census.get((rows, cols), 0)
                    got = count(MarginalInstance(rows, cols))
                    if got != want:
                        discrepancies.append((rows, cols, got, want))
            # enumeration: distinct, marginal-correct, and complete per class
            for (rows, cols), want in census.items():
                mats = solutions(MarginalInstance(rows, cols))
                distinct = {mat.rows for mat in mats}
                if len(mats) != want or len(distinct) != want:
                    discrepancies.append((rows, cols, len(mats), want))
                    continue
                for mat in mats:
                    if mat.row_sums != rows or mat.col_sums != cols:
                        discrepancies.append((rows, cols, mat.rows, "bad marginals"))
    assert not discrepancies, discrepancies[:5]


def test_criterion_4_random_4x5_instances():
    from lppairs.bmfm import MarginalInstance, count, solutions
    from lppairs.oracle import oracle_bmfm_census

    census = oracle_bmfm_census(4, 5)
    rng = random.Random(501)
    discrepancies = []
    for _ in range(500):
        rows, cols = random_marginals(rng, 4, 5)
        want = census.get((rows, cols), 0)
        inst = MarginalInstance(rows, cols)
        if count(inst) != want:
            discrepancies.append((rows, cols, count(inst), want))
            continue
        mats = solutions(inst)
        distinct = {mat.rows for mat in mats}
        if len(distinct) != want:
            discrepancies.append((rows, cols, len(distinct), want))
    assert not discrepancies, discrepancies[:5]


def test_criterion_4_feasibility_on_random_5x5():
    from lppairs.bmfm import MarginalInstance, feasible
    from lppairs.oracle import oracle_feasible_subsets

    rng = random.Random(502)
    discrepancies = []
    for _ in range(2000):
        rows, cols = random_marginals(rng, 5, 5)
        ours = feasible(MarginalInstance(rows, cols))
        theirs = oracle_feasible_subsets(rows, cols)
        if ours != theirs:
            discrepancies.append((rows, cols, ours, theirs))
    assert not discrepancies, discrepancies[:5]


# ---------------------------------------------------------------- criterion 5


def _spectral_cases():
    rng = random.Random(503)
    cases = [V35, U35]
    while len(cases) < 202:
        cases.append(tuple(rng.randint(0, 1) for _ in range(35)))
    return cases


def test_criterion_5_subsampling_identity():
    from lppairs.compress import compress
    from lppairs.spectral import dft

    for v in _spectral_cases():
        full = dft(v)
        for d1, d2 in ((5, 7), (7, 5)):
            small = dft(compress(v, d1))
            for k in range(d1):
                assert abs(small[k] - full[(k * d2) % 35]) <= 1e-9


def test_criterion_5_two_dimensional_dft_conversion():
    from lppairs.compress import CrtContext, theta
    from lppairs.spectral import dft, two_dim_dft

    for d1, d2 in ((5, 7), (7, 5)):
        ctx = CrtContext(d1, d2)
        assert ctx.z == 3
        for v in _spectral_cases():
            m = two_dim_dft(np.array(theta(v, ctx).rows), d1, d2)
            mu = dft(v)
            # the reshaped two-dimensional spectrum is the z-decimation of
            # the one-dimensional one: M[psi(g)] = mu_{g z^{-1}}
            for g in range(35):
                assert abs(m[ctx.psi(g)] - mu[(g * ctx.z_inv) % 35]) <= 1e-9


# ---------------------------------------------------------------- criterion 6


def _coprime_density(rng, n, choices):
    return rng.choice(choices)


def test_criterion_6_class_overlap_formula():
    from lppairs.compress import CrtContext, class_overlap_count, compress
    from lppairs.oracle import oracle_orbit

    rng = random.Random(504)
    for n, ctx, densities in (
        (15, CrtContext(3, 5), (4, 7, 8, 11)),
        (35, CrtContext(5, 7), (8, 9, 11, 12, 13, 16)),
    ):
        for _ in range(50):
            v = random_binary(rng, n, rng.choice(densities))
            q = compress(v, ctx.d1)
            brute = sum(
                1
                for _, tags in oracle_orbit(v, compression_sizes=(ctx.d1,))
                if tags[ctx.d1] == tuple(q)
            )
            assert class_overlap_count(v, q, ctx) == brute


def test_criterion_6_simultaneous_overlap_formula():
    from lppairs.compress import compress, simul_overlap_count
    from lppairs.oracle import oracle_orbit

    rng = random.Random(505)
    for n, (d1, d2), densities in (
        (15, (3, 5), (4, 7, 8, 11)),
        (35, (5, 7), (8, 9, 11, 12, 13, 16)),
    ):
        for _ in range(50):
            v = random_binary(rng, n, rng.choice(densities))
            qs = [tuple(compress(v, d1)), tuple(compress(v, d2))]
            brute = sum(
                1
                for _, tags in oracle_orbit(v, compression_sizes=(d1, d2))
                if tags[d1] == qs[0] and tags[d2] == qs[1]
            )
            assert simul_overlap_count(v, qs) == brute


def test_criterion_6_sum_rule_at_15():
    from itertools import combinations

    from lppairs.compress import CrtContext, class_overlap_count, count_decompressions
    from lppairs.cyclic import decimation_canon

    ctx = CrtContext(3, 5)
    residues = [[g + j * 3 for j in range(5)] for g in range(3)]
    for q in ((1, 1, 2), (2, 1, 1), (0, 2, 2)):
        total = 0
        classes = {}
        for picks in iproduct(
            *[combinations(residues[g], q[g]) for g in range(3)]
        ):
            ones = {i for pick in picks for i in pick}
            v = tuple(1 if i in ones else 0 for i in range(15))
            total += 1
            classes.setdefault(tuple(decimation_canon(v)[0]), v)
        assert total == count_decompressions(q, 5)
        summed = sum(
            class_overlap_count(v, q, ctx)
            for v in classes.values()
        )
        assert summed == total


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_sum_of_squares_identity():
    from lppairs.pairgen import enum_candidates, match_pairs

    # the worked example: kappa = lambda = 18, delta1 = 7, delta2 = 5
    q1 = (4, 2, 1, 4, 3, 3, 1)
    p1 = (3, 4, 3, 2, 2, 1, 3)
    value = sum(x * x for x in q1) + sum(x * x for x in p1)
    assert value == 108
    assert value == 2 * 18 * 18 - (7 - 1) * 5 * 18

    for length, delta in ((15, 3), (15, 5), (21, 3), (21, 7), (55, 5)):
        delta2 = length // delta
        lam = (length + 1) // 2
        cands = list(enum_candidates(delta, delta2, lam, float(lam)))
        for pair in match_pairs(cands, lam=lam, delta2=delta2):
            ssq = sum(x * x for x in pair.q.vector) + sum(
                x * x for x in pair.p.vector
            )
            assert ssq == 2 * lam * lam - (delta - 1) * delta2 * lam
