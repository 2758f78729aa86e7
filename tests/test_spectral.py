"""DFT, PSD, and exact autocorrelation checks."""

import random

import numpy as np
import pytest

from lppairs.compress import compress
from lppairs.cyclic import decimate
from lppairs.spectral import (
    MAX_DFT_LENGTH,
    dft,
    divisor_psd_check,
    exact_complementary,
    first_failing_lag,
    paf,
    proper_divisors,
    psd,
    two_dim_dft,
)

from conftest import U35, V35, random_binary, random_vector


def test_paf_is_exact_and_symmetric():
    v = (1, 1, 0, 1, 0)
    values = paf(v)
    assert all(isinstance(x, int) for x in values)
    assert values[0] == 3
    n = len(values)
    assert all(values[g] == values[n - g] for g in range(1, n))


def test_paf_matches_direct_sum():
    rng = random.Random(201)
    for _ in range(10):
        n = rng.choice([5, 9, 14])
        v = random_vector(rng, n)
        values = paf(v)
        for g in range(n):
            assert values[g] == sum(v[i] * v[(i + g) % n] for i in range(n))


def test_psd_matches_numpy():
    rng = random.Random(202)
    for _ in range(10):
        n = rng.choice([6, 11, 15])
        v = random_vector(rng, n)
        ours = psd(v)
        theirs = np.abs(np.fft.fft(v)) ** 2
        assert np.allclose(ours, theirs, atol=1e-9)


def test_psd_is_dft_of_paf():
    # Wiener-Khinchin: the DFT of the autocorrelation equals |DFT|^2
    rng = random.Random(203)
    for _ in range(10):
        n = rng.choice([7, 12, 15])
        v = random_vector(rng, n)
        assert np.allclose(psd(v), np.fft.fft(paf(v)).real, atol=1e-9)


def test_dft_refuses_oversized_input():
    with pytest.raises(ValueError):
        dft([1] * (MAX_DFT_LENGTH + 1))


def test_exact_complementary_small_cases():
    u = (1, 1, 0)
    v = (1, 0, 1)
    # every weight-2 vector of length 3 has PAF 1 at both nonzero lags
    assert exact_complementary(u, v, 2)
    assert not exact_complementary(u, v, 3)
    assert first_failing_lag(u, v, 2) is None
    assert first_failing_lag(u, v, 3) == (1, 2)


def test_lag_checks_refuse_mismatched_lengths():
    # all-zero vectors would pass every lag at lam = 0 if the lengths went unchecked
    with pytest.raises(ValueError, match="length mismatch"):
        first_failing_lag((0, 0, 0), (0, 0, 0, 0, 0), 0)
    with pytest.raises(ValueError, match="length mismatch"):
        exact_complementary((0, 0, 0), (0, 0, 0, 0, 0), 0)


def _literal_pairs_15(limit=20):
    """Some genuine complementary pairs at length 15, by direct join."""
    from itertools import combinations

    by_paf = {}
    for ones in combinations(range(15), 8):
        v = tuple(1 if i in ones else 0 for i in range(15))
        by_paf.setdefault(paf(v)[1:], []).append(v)
    pairs = []
    for key, group in sorted(by_paf.items()):
        want = tuple(8 - x for x in key)
        if want in by_paf:
            for u in group:
                for v in by_paf[want]:
                    pairs.append((u, v))
                    if len(pairs) >= limit:
                        return pairs
    return pairs


def test_psd_test_filters_pair_members():
    # any member of an exact pair has all off-peak PSD at most gamma
    for u, v in _literal_pairs_15():
        assert psd(u)[1:].max() < 8.0 + 1e-6
        assert psd(v)[1:].max() < 8.0 + 1e-6
    # the all-ones-block vector concentrates PSD far above gamma
    assert psd((1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0))[1:].max() > 8.0 + 1e-6


def test_divisor_psd_check_matches_exact_test():
    # on density-(n+1)/2 binary vectors, passing at the divisor indices
    # alone must imply the full exact property; checked on random
    # negatives plus genuine pairs and their orbit images
    from lppairs.cyclic import decimate, shift, units

    rng = random.Random(205)
    n = 15
    lam = 8
    cases = []
    for _ in range(300):
        cases.append((random_binary(rng, n, lam), random_binary(rng, n, lam)))
    positives = _literal_pairs_15()
    for u, v in positives:
        # independent shifts and a shared decimation both preserve the
        # pair property, so these images must certify too
        k = rng.choice(units(n))
        cases.append((u, v))
        cases.append((shift(decimate(u, k), rng.randrange(n)),
                      shift(decimate(v, k), rng.randrange(n))))
    seen_true = 0
    for u, v in cases:
        cert = divisor_psd_check(u, v, float(lam))
        full = exact_complementary(u, v, lam)
        assert cert == full
        seen_true += cert
    assert seen_true >= 2 * len(positives)


def test_divisor_psd_check_rejects_wrong_density():
    with pytest.raises(ValueError):
        divisor_psd_check((1, 0, 0), (1, 1, 0), 2.0)


def test_proper_divisors():
    assert proper_divisors(77) == (1, 7, 11)
    assert proper_divisors(15) == (1, 3, 5)


def test_two_dim_dft_matches_direct_sum():
    rng = random.Random(206)
    a = np.array([[rng.randint(0, 1) for _ in range(5)] for _ in range(3)])
    m = two_dim_dft(a, 3, 5)
    for r in range(3):
        for c in range(5):
            direct = sum(
                a[i, j]
                * np.exp(2j * np.pi * r * i / 3)
                * np.exp(2j * np.pi * c * j / 5)
                for i in range(3)
                for j in range(5)
            )
            assert abs(m[r, c] - direct) < 1e-9


def test_compression_subsamples_spectrum():
    # the DFT of the delta1-compression reads the full DFT at multiples
    # of delta2
    rng = random.Random(207)
    for d1, d2 in ((5, 7), (7, 5), (3, 5)):
        n = d1 * d2
        for _ in range(5):
            v = random_binary(rng, n, (n + 1) // 2)
            full = dft(v)
            small = dft(compress(v, d1))
            for k in range(d1):
                assert abs(small[k] - full[(k * d2) % n]) < 1e-9


def test_subsampling_on_worked_example():
    full = dft(V35)
    small = dft(compress(V35, 7))
    for k in range(7):
        assert abs(small[k] - full[(k * 5) % 35]) < 1e-9
    fullu = dft(U35)
    smallu = dft(compress(U35, 5))
    for k in range(5):
        assert abs(smallu[k] - fullu[(k * 7) % 35]) < 1e-9
