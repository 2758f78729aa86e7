"""The brute-force reference implementations and their size caps."""

import pytest

from lppairs.oracle import (
    oracle_bmfm,
    oracle_bmfm_census,
    oracle_feasible_subsets,
    oracle_lp,
    oracle_orbit,
)


def test_oracle_lp_length_3():
    # every weight-2 vector of length 3 pairs with every other; all nine
    # combinations collapse to one canonical pair
    assert len(oracle_lp(3)) == 1


def test_oracle_lp_keys_are_canonical_and_sorted_pairs():
    from lppairs.cyclic import decimation_canon

    for cu, cv in oracle_lp(15):
        assert cu <= cv
        assert tuple(decimation_canon(cu)[0]) == cu
        assert tuple(decimation_canon(cv)[0]) == cv


def test_oracle_lp_refuses_large_lengths():
    with pytest.raises(ValueError):
        oracle_lp(23)


def test_oracle_bmfm_examples():
    assert oracle_bmfm((1, 1), (1, 1))[0] == 2
    assert oracle_bmfm((0, 0), (0, 0))[0] == 1
    assert oracle_bmfm((2, 0), (2, 0))[0] == 0


def test_oracle_bmfm_refuses_large_grids():
    with pytest.raises(ValueError):
        oracle_bmfm((3,) * 5, (3,) * 5)


def test_oracle_bmfm_census_covers_all_marginals():
    census = oracle_bmfm_census(2, 2)
    # 16 grids, bucketed by (row sums, col sums); total must be 16
    assert sum(census.values()) == 16
    assert census[((1, 1), (1, 1))] == 2


def test_oracle_feasible_examples():
    assert oracle_feasible_subsets((2, 2), (2, 2))
    assert not oracle_feasible_subsets((2, 0), (2, 0))
    assert oracle_feasible_subsets((0, 0), (0, 0))


def test_oracle_feasible_refuses_large_instances():
    with pytest.raises(ValueError):
        oracle_feasible_subsets((1,) * 13, (1,) * 13)


def test_oracle_orbit_singleton_support():
    orbit = oracle_orbit((1, 0, 0, 0, 0))
    # a single 1 can sit at any position: the orbit is all shifts
    assert len(orbit) == 5


def test_oracle_orbit_tags_match_compressions():
    from lppairs.compress import compress

    orbit = oracle_orbit((1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0),
                         compression_sizes=(3, 5))
    for member, tags in orbit:
        assert tags[3] == compress(member, 3)
        assert tags[5] == compress(member, 5)


def test_oracle_orbit_refuses_large_lengths():
    with pytest.raises(ValueError):
        oracle_orbit((0, 1) * 21)
