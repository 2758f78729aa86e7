"""Shift/decimation algebra and canonical forms."""

import random
from math import gcd

import pytest

from lppairs.cyclic import (
    decimate,
    decimation_canon,
    euler_phi,
    multiplier_group,
    shift,
    units,
)

from conftest import random_binary, random_vector


def test_units_are_coprime_and_match_phi():
    for n in (1, 2, 7, 12, 15, 35, 77):
        us = units(n)
        assert all(gcd(u, n) == 1 for u in us)
        assert len(us) == euler_phi(n)
        assert us == tuple(sorted(us))


def test_shift_moves_entries():
    v = (1, 2, 3, 4, 5)
    # (c_j v)_g = v_{g-j}
    assert tuple(shift(v, 1)) == (5, 1, 2, 3, 4)
    assert tuple(shift(v, -1)) == (2, 3, 4, 5, 1)
    assert tuple(shift(v, 5)) == tuple(v)


def test_decimate_uses_inverse_index():
    v = (0, 1, 2, 3, 4)
    # (d_k v)_g = v_{k^{-1} g}; for k=2 on Z_5, k^{-1}=3
    assert tuple(decimate(v, 2)) == (0, 3, 1, 4, 2)
    assert tuple(decimate(v, 1)) == tuple(v)


def test_decimate_rejects_non_units():
    with pytest.raises(ValueError):
        decimate((1, 0, 0, 1, 0, 0), 2)


def test_shift_composition():
    rng = random.Random(101)
    for _ in range(20):
        n = rng.choice([5, 9, 15])
        v = random_vector(rng, n)
        j, k = rng.randrange(n), rng.randrange(n)
        assert shift(shift(v, j), k) == shift(v, j + k)


def test_decimation_composition():
    rng = random.Random(102)
    for _ in range(20):
        n = rng.choice([5, 9, 15, 21])
        v = random_vector(rng, n)
        a, b = rng.choice(units(n)), rng.choice(units(n))
        assert decimate(decimate(v, a), b) == decimate(v, (a * b) % n)


def test_decimation_shift_commutation():
    # d_k c_j = c_{kj} d_k
    rng = random.Random(103)
    for _ in range(20):
        n = rng.choice([7, 15, 35])
        v = random_vector(rng, n)
        j, k = rng.randrange(n), rng.choice(units(n))
        assert decimate(shift(v, j), k) == shift(decimate(v, k), k * j)


def test_decimation_canon_is_orbit_invariant():
    rng = random.Random(105)
    for _ in range(15):
        n = rng.choice([9, 15, 21])
        v = random_vector(rng, n, 0, 2)
        canon, (j, k) = decimation_canon(v)
        assert shift(decimate(v, k), j) == canon
        moved = shift(decimate(v, rng.choice(units(n))), rng.randrange(n))
        assert decimation_canon(moved)[0] == canon


def test_decimation_canon_is_orbit_minimum():
    rng = random.Random(106)
    for _ in range(10):
        n = rng.choice([9, 15])
        v = random_vector(rng, n, 0, 1)
        canon, _ = decimation_canon(v)
        orbit = {
            tuple(shift(decimate(v, k), j))
            for k in units(n)
            for j in range(n)
        }
        assert tuple(canon) == min(orbit)


def _brute_canon(v):
    # the smallest shift(decimate(v, k), j), ties to the smallest k, then
    # the smallest j
    n, best = len(v), None
    for k in units(n):
        for j in range(n):
            cand = tuple(shift(decimate(v, k), j))
            if best is None or cand < best[0]:
                best = (cand, (j, k))
    return best


@pytest.mark.parametrize("n", [1, 2, 7, 15, 33, 63, 64, 65, 77])
def test_decimation_canon_equals_brute_minimum_with_first_witness(n):
    # binary (one first word of 63 positions), 4 and 5 values (words of 31
    # and 21 positions), 6 values, and symmetric inputs
    rng = random.Random(107 + n)
    cases = [random_vector(rng, n, 0, 1) for _ in range(4)]
    cases += [random_vector(rng, n, 0, 3), random_vector(rng, n, 0, 4)]
    cases += [random_vector(rng, n, -2, 3) for _ in range(2)]
    cases += [(1,) * n, tuple(int(g % 3 == 0) for g in range(n))]
    for v in cases:
        canon, witness = decimation_canon(v)
        assert (tuple(canon), witness) == _brute_canon(v)
        assert type(canon) is tuple and all(type(x) is int for x in canon)


@pytest.mark.parametrize("v,per", [
    ((1, 1, 0, 1) + (0,) * 73, 63),  # binary: 63 positions per word
    ((4, 3, 2, 1) + (0,) * 29, 21),  # 5 values: 21 positions per word
])
def test_decimation_canon_decides_after_a_tied_first_word(v, per):
    # the least orbit rows agree on the first word and differ after it,
    # so the later words pick the canonical form (here by decimation -1)
    n = len(v)
    rows = {tuple(shift(decimate(v, k), j)) for k in units(n) for j in range(n)}
    least = min(row[:per] for row in rows)
    assert len({row for row in rows if row[:per] == least}) > 1
    canon, witness = decimation_canon(v)
    assert (canon, witness) == _brute_canon(v)
    assert witness[1] == n - 1


@pytest.mark.parametrize("n", [3, 15, 33, 63, 65, 77])
def test_binary_canon_agrees_with_the_rank_path(n):
    # a 0/1 vector skips the rank pass; doubling its entries sends it down
    # the rank path, which must find twice its canonical form, same witness
    rng = random.Random(211 + n)
    cases = [random_vector(rng, n, 0, 1) for _ in range(20)] + [(0,) * n, (1,) * n]
    for v in cases:
        canon, witness = decimation_canon(v)
        doubled, doubled_witness = decimation_canon(tuple(2 * x for x in v))
        assert doubled == tuple(2 * x for x in canon)
        assert doubled_witness == witness


def test_multiplier_group_members():
    # brute force over units(n): g is a member when some shift of
    # decimate(v, g) equals v; binary, non-binary (as census candidates
    # are) and periodic inputs
    rng = random.Random(107)
    for n in (1, 7, 13, 15, 33):
        cases = [random_binary(rng, n, rng.randint(0, n)) for _ in range(4)]
        cases += [random_vector(rng, n, 0, 4) for _ in range(3)]
        cases += [(2,) * n, tuple(g % 3 for g in range(n))]
        cases.append(tuple((g - 1) ** 2 % n for g in range(n)))  # unit -1 needs shift n - 2
        for v in cases:
            g = multiplier_group(v)
            brute = tuple(
                k for k in units(n)
                if any(shift(decimate(v, k), j) == v for j in range(n))
            )
            assert g == brute
            assert 1 % n in g  # units(1) == (0,)


def test_multiplier_group_is_closed():
    rng = random.Random(108)
    for _ in range(15):
        n = rng.choice([7, 13, 15, 21])
        v = random_binary(rng, n, rng.randint(1, n - 1))
        g = multiplier_group(v)
        members = set(g)
        for a in members:
            assert pow(a, -1, n) % n in members
            for b in members:
                assert (a * b) % n in members


def test_quadratic_residue_multipliers():
    # the quadratic residue sequence of length 7 has the residues {1, 2, 4}
    # as multipliers
    v = (0, 1, 1, 0, 1, 0, 0)
    assert multiplier_group(v) == (1, 2, 4)


def test_orbit_size_divides_group_order():
    # |orbit| * |G_v| = n * phi(n) for density coprime to n
    rng = random.Random(109)
    for _ in range(10):
        n = 15
        v = random_binary(rng, n, 4)
        g = multiplier_group(v)
        orbit = {
            tuple(shift(decimate(v, k), j))
            for k in units(n)
            for j in range(n)
        }
        assert len(orbit) * len(g) == n * euler_phi(n)
