"""Compressed candidate enumeration, class matching, and expansion."""

import hashlib

import pytest

from lppairs.cyclic import CyclicVector, decimation_canon
from lppairs.oracle import oracle_candidates, relative_match_audit
from lppairs.pairgen import (
    enum_candidates,
    expand_pairs,
    match_pairs,
    psd_equiv_decimations,
)
from lppairs.spectral import paf


def _census(length, delta):
    delta2 = length // delta
    lam = (length + 1) // 2
    cands = list(enum_candidates(delta, delta2, lam, float(lam)))
    pairs = match_pairs(cands, lam=lam, delta2=delta2)
    return cands, pairs, expand_pairs(pairs)


def test_enum_candidates_are_canonical_and_in_range():
    cands = list(enum_candidates(5, 3, 8, 8.0))
    assert cands
    for c in cands:
        assert sum(c.vector) == 8
        assert all(0 <= x <= 3 for x in c.vector)
        assert tuple(decimation_canon(c.vector)[0]) == tuple(c.vector)
        assert c.paf == paf(c.vector)
    vectors = [tuple(c.vector) for c in cands]
    assert vectors == sorted(vectors)


def test_enum_candidates_rejects_even_length():
    with pytest.raises(ValueError):
        list(enum_candidates(4, 3, 6, 6.0))


def test_small_census_counts():
    # (length, delta) -> (candidates, pairs, expanded)
    expected = {
        (15, 3): (3, 2, 2),
        (15, 5): (4, 3, 4),
        (21, 3): (3, 1, 1),
        (21, 7): (11, 5, 8),
    }
    for (length, delta), want in expected.items():
        cands, pairs, expanded = _census(length, delta)
        assert (len(cands), len(pairs), len(expanded)) == want


def test_pairs_are_exactly_complementary():
    for length, delta in ((15, 3), (15, 5), (21, 7)):
        delta2 = length // delta
        lam = (length + 1) // 2
        _, pairs, expanded = _census(length, delta)
        for pr in pairs + expanded:
            pq = paf(pr.q.vector)
            pp = paf(pr.p.vector)
            assert all(pq[g] + pp[g] == delta2 * lam for g in range(1, delta))


def test_pair_members_share_density():
    _, pairs, _ = _census(21, 7)
    for pr in pairs:
        assert sum(pr.q.vector) == sum(pr.p.vector) == 11


def test_pair_key_uses_class_canonical_forms():
    for length, delta in ((15, 5), (21, 7)):
        _, pairs, _ = _census(length, delta)
        for pr in pairs:
            assert tuple(decimation_canon(pr.q.vector)[0]) == tuple(pr.q.vector)
            assert tuple(decimation_canon(pr.p.vector)[0]) == pr.p_canon
            assert pr.key == (tuple(pr.q.vector), pr.p_canon)
        keys = [pr.key for pr in pairs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_relative_alignment_is_recorded():
    # some pairs match with the representatives as-is (r = 1), others only
    # after decimating the second member; both cases occur in small censuses
    from lppairs.cyclic import decimate

    rs = set()
    for length, delta in ((15, 5), (21, 7)):
        _, pairs, _ = _census(length, delta)
        for pr in pairs:
            rs.add(pr.r)
            # the stored member really is the decimation of its canonical form
            image = decimate(CyclicVector(pr.p_canon), pr.r)
            assert tuple(pr.p.vector) == tuple(image)
    assert 1 in rs
    assert any(r != 1 for r in rs)


def test_expansion_count_formula():
    # one variant per PSD-preserving non-multiplier decimation of the
    # second member, plus the pair itself
    for length, delta in ((15, 5), (21, 7)):
        _, pairs, expanded = _census(length, delta)
        assert len(expanded) == sum(1 + len(pr.s_p) for pr in pairs)


def test_expansion_preserves_key_and_complementarity():
    _, pairs, expanded = _census(21, 7)
    base_keys = {pr.key for pr in pairs}
    for pr in expanded:
        assert pr.key in base_keys
        pq = paf(pr.q.vector)
        pp = paf(pr.p.vector)
        assert all(pq[g] + pp[g] == 3 * 11 for g in range(1, 7))


def test_psd_equiv_decimations_preserve_paf():
    cands = list(enum_candidates(7, 3, 11, 11.0))
    found = 0
    for c in cands:
        for s in psd_equiv_decimations(c):
            assert s not in c.multipliers.members
            from lppairs.cyclic import decimate

            image = decimate(c.vector, s)
            assert paf(image) == c.paf
            found += 1
    assert found > 0


def test_relative_match_audit_flags_misaligned_pairs():
    cands = list(enum_candidates(7, 3, 11, 11.0))
    audit = relative_match_audit(cands, lam=11, delta2=3)
    # the length-21 delta=7 census has classes that only pair after
    # re-aligning one side, so the audit must be non-empty there
    assert audit
    for q, p, valid in audit:
        assert valid
        assert 1 not in valid


@pytest.mark.parametrize("length,delta", [(15, 3), (15, 5), (21, 7), (35, 5), (35, 7)])
def test_enum_candidates_equal_oracle(length, delta):
    lam = (length + 1) // 2
    want = oracle_candidates(delta, length // delta, lam, float(lam))
    got = [(tuple(c.vector), c.paf) for c in enum_candidates(delta, length // delta, lam, float(lam))]
    assert want
    assert got == want


@pytest.mark.parametrize("delta,delta2,kappa,gamma", [
    # 7**25 > 2**63: rotations compare column by column, not as int64 codes
    (25, 6, 3, 7.0),
    (25, 6, 3, 9.0),
    (1, 4, 3, 3.0),
    (1, 4, 0, 1.0),
])
def test_enum_candidates_equal_oracle_at_the_edges(delta, delta2, kappa, gamma):
    want = oracle_candidates(delta, delta2, kappa, gamma)
    got = [(tuple(c.vector), c.paf) for c in enum_candidates(delta, delta2, kappa, gamma)]
    assert want
    assert got == want


@pytest.mark.parametrize("delta,base", [(11, 6), (25, 7)])
def test_rotation_below_matches_tuple_comparison(delta, base):
    import numpy as np

    from lppairs.pairgen import _rotation_below

    rng = np.random.default_rng(delta)
    rows = rng.integers(0, base, size=(300, delta))
    rows[:100] = rng.integers(0, 2, size=(100, delta))  # many ties and periods
    ref = rows[rng.permutation(len(rows))]
    ref[:50] = rows[:50]
    got = _rotation_below(rows, ref, base)
    doubled = [tuple(r) * 2 for r in rows.tolist()]
    want = [
        any(d[t:t + delta] < tuple(b) for t in range(delta))
        for d, b in zip(doubled, ref.tolist())
    ]
    assert got.tolist() == want
    assert any(want) and not all(want)


# sha256 of repr([(vector, paf), ...]) for the candidate lists of each
# (length, delta) census, recorded from the scalar candidate walk that the
# batched walk replaced; equal lists keep pairs, tasks and checkpoint
# fingerprints unchanged.
CANDIDATE_DIGESTS = {
    (33, 11): (228, "416c1d8b2da061f1ef82c3d741d2be53f0e20be59d4cfda5c63af47c6fedb166"),
    (39, 13): (1297, "a43e37a0a8ec5563af4f14625aaee07c152fb6b2bd08de78b53537dce4494384"),
    (45, 9): (407, "cbc2243c046aec379c99e57ba29276cea921638ca4631852b2d27cf6ac695165"),
    (55, 5): (32, "f910e4ba6be9fa6e5170297b576474aa6509184baa6bdd62091626e3583e3381"),
    (55, 11): (2815, "dd862248c951d7e192907106ccd2929b2d3fabaddb584af9fc8e92da9f33e4c6"),
    (77, 7): (403, "bc5ae27925ed491906bba2873428141fdc5d630f91a090bae10215306680dd2a"),
}


@pytest.mark.parametrize("length,delta", sorted(CANDIDATE_DIGESTS))
def test_candidate_lists_are_pinned(length, delta):
    lam = (length + 1) // 2
    cands = [
        (tuple(c.vector), c.paf)
        for c in enum_candidates(delta, length // delta, lam, float(lam))
    ]
    digest = hashlib.sha256(repr(cands).encode()).hexdigest()
    assert (len(cands), digest) == CANDIDATE_DIGESTS[(length, delta)]


def test_bundled_lp77_compressions_are_census_pairs(lp77):
    # the headline pair of length 77 is reachable from both compressed
    # censuses: its 7- and 11-compressions form a class pair of each
    from lppairs.compress import compress
    from lppairs.search import compressed_census

    u, v = lp77
    for delta, n_pairs in ((7, 236), (11, 8219)):
        _, pairs, _ = compressed_census(77, delta)
        assert len(pairs) == n_pairs
        cu = tuple(decimation_canon(compress(u, delta))[0])
        cv = tuple(decimation_canon(compress(v, delta))[0])
        assert (min(cu, cv), max(cu, cv)) in {pr.key for pr in pairs}
