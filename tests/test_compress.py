"""Modular compression, the CRT reshape, and the overlap counting formulas."""

import random
from math import comb, prod

import pytest

from lppairs.bmfm import MarginalInstance, count
from lppairs.compress import (
    BinaryMatrix,
    CrtContext,
    class_overlap_count,
    compress,
    count_decompressions,
    simul_overlap_count,
    theta,
    theta_inv,
)
from lppairs.cyclic import decimate, shift, units
from lppairs.errors import InvariantViolation
from lppairs.oracle import oracle_orbit

from conftest import A35, P1, P2, Q1, Q2, U35, V35, random_binary, random_vector


def test_compress_worked_example():
    assert tuple(compress(V35, 7)) == Q1
    assert tuple(compress(V35, 5)) == Q2
    assert tuple(compress(U35, 7)) == P1
    assert tuple(compress(U35, 5)) == P2


def test_compress_preserves_density():
    rng = random.Random(301)
    for _ in range(20):
        n = rng.choice([12, 15, 35])
        v = random_vector(rng, n)
        for d in (3, n):
            if n % d == 0:
                assert sum(compress(v, d)) == sum(v)


def test_compress_shift_maps_to_short_shift():
    # shifting v by j shifts its delta-compression by j mod delta
    rng = random.Random(302)
    for _ in range(15):
        v = random_binary(rng, 15, 7)
        j = rng.randrange(15)
        left = tuple(compress(shift(v, j), 3))
        right = shift(compress(v, 3), j % 3)
        assert left == right


def test_crt_context_validation():
    with pytest.raises(ValueError):
        CrtContext(6, 3)  # not coprime


def test_crt_context_bijection_and_z():
    for d1, d2 in ((3, 5), (7, 5), (5, 7), (7, 11)):
        ctx = CrtContext(d1, d2)
        seen = {ctx.psi(g) for g in range(ctx.ell)}
        assert len(seen) == ctx.ell
        assert ctx.psi(1) == (1, 1)
        # z reduces to the paired modular inverses
        assert ctx.z % d1 == pow(d2, -1, d1)
        assert ctx.z % d2 == pow(d1, -1, d2)
    assert CrtContext(7, 5).z == 3
    assert CrtContext(5, 7).z == 3


def test_theta_worked_example():
    ctx = CrtContext(7, 5)
    a = theta(V35, ctx)
    assert a.rows == A35
    assert a.row_sums == Q1
    assert a.col_sums == Q2


def test_theta_roundtrip():
    rng = random.Random(303)
    ctx = CrtContext(3, 5)
    for _ in range(10):
        v = random_binary(rng, 15, 8)
        assert theta_inv(theta(v, ctx), ctx) == v


def test_theta_inv_shape_check():
    ctx = CrtContext(3, 5)
    with pytest.raises(ValueError):
        theta_inv(BinaryMatrix(((1, 0), (0, 1))), ctx)


def test_theta_checks_length_and_entries():
    ctx = CrtContext(3, 5)
    with pytest.raises(ValueError, match="binary"):
        theta((2,) + (0,) * 14, ctx)
    with pytest.raises(ValueError, match="length"):
        theta((0,) * 14, ctx)


def test_count_decompressions():
    assert count_decompressions((0, 0, 0), 5) == 1
    assert count_decompressions((5, 5, 5), 5) == 1
    assert count_decompressions(Q1, 5) == prod(comb(5, x) for x in Q1)
    assert count_decompressions(Q1, 5) == 625_000
    with pytest.raises(ValueError):
        count_decompressions((6, 0), 5)


def test_single_compression_decompression_count_matches_direct():
    # the binomial product counts binary vectors with the given compression
    from itertools import product as iproduct

    q = (1, 2, 0)
    n, d1 = 9, 3
    direct = 0
    for bits in iproduct((0, 1), repeat=n):
        if tuple(compress(bits, d1)) == q:
            direct += 1
    assert direct == count_decompressions(q, n // d1)


def test_class_overlap_formula_matches_brute_force():
    rng = random.Random(304)
    ctx = CrtContext(3, 5)
    checked = 0
    while checked < 20:
        v = random_binary(rng, 15, rng.choice([4, 7, 8]))
        q = compress(v, 3)
        formula = class_overlap_count(v, ctx)
        members = oracle_orbit(v, compression_sizes=(3,))
        brute = sum(1 for _, tags in members if tags[3] == tuple(q))
        assert formula == brute
        checked += 1


def test_class_overlap_rejects_bad_density():
    ctx = CrtContext(3, 5)
    v = (1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        class_overlap_count(v, ctx)


def test_simul_overlap_formula_matches_brute_force():
    rng = random.Random(305)
    for _ in range(20):
        v = random_binary(rng, 15, rng.choice([4, 7, 8]))
        qs = [tuple(compress(v, 3)), tuple(compress(v, 5))]
        formula = simul_overlap_count(v, (3, 5))
        members = oracle_orbit(v, compression_sizes=(3, 5))
        brute = sum(
            1 for _, tags in members
            if tags[3] == qs[0] and tags[5] == qs[1]
        )
        assert formula == brute


def test_simul_overlap_on_worked_example():
    members = oracle_orbit(V35, compression_sizes=(7, 5))
    brute = sum(1 for _, tags in members if tags[7] == Q1 and tags[5] == Q2)
    assert simul_overlap_count(V35, (7, 5)) == brute == 1


def test_simul_overlap_rejects_bad_sizes():
    with pytest.raises(ValueError, match="do not multiply"):
        simul_overlap_count(V35, (7, 3))
    with pytest.raises(ValueError, match="not coprime"):
        simul_overlap_count((1, 1, 0, 1, 0, 0, 0, 0, 0), (3, 3))


def test_sum_rule_partitions_decompressions():
    # every decompression of q belongs to exactly one decimation class, so
    # summing the class overlap over distinct classes recovers the binomial
    # product count
    from itertools import combinations, product as iproduct

    ctx = CrtContext(3, 5)
    q = (1, 1, 2)  # density 4, coprime to 15
    residues = [[g + j * 3 for j in range(5)] for g in range(3)]
    total = 0
    classes = {}
    for picks in iproduct(*[combinations(residues[g], q[g]) for g in range(3)]):
        ones = {i for pick in picks for i in pick}
        v = tuple(1 if i in ones else 0 for i in range(15))
        total += 1
        from lppairs.cyclic import decimation_canon

        classes.setdefault(tuple(decimation_canon(v)[0]), v)
    assert total == count_decompressions(q, 5)
    summed = sum(
        class_overlap_count(v, ctx) for v in classes.values()
    )
    assert summed == total


def test_decimation_multiplier_compatibility():
    # a decimation of v re-compresses to q (up to shift) iff its residue
    # is a multiplier of q
    from lppairs.cyclic import multiplier_group

    rng = random.Random(306)
    for _ in range(10):
        v = random_binary(rng, 15, 8)
        q = compress(v, 3)
        h = multiplier_group(q)
        for k in units(15):
            image = compress(decimate(v, k), 3)
            same_class = any(shift(image, j) == q for j in range(3))
            assert same_class == (k % 3 in h)
