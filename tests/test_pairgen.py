"""Compressed candidate enumeration, class matching, and expansion."""

import hashlib
from math import gcd

import pytest

from lppairs.cyclic import decimate, decimation_canon, multiplier_group
from lppairs.errors import InvariantViolation
from lppairs.oracle import oracle_candidates, relative_match_audit
from lppairs.pairgen import (
    _equiv_decimations,
    _paf_orbit,
    enum_candidates,
    expand_pairs,
    match_pairs,
)
from lppairs.spectral import exact_complementary, paf


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _pair_rows(pairs):
    return [
        (tuple(pr.q.vector), tuple(pr.p.vector), pr.p_canon, pr.r, pr.s_q, pr.s_p)
        for pr in pairs
    ]


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
    rs = set()
    for length, delta in ((15, 5), (21, 7)):
        _, pairs, _ = _census(length, delta)
        for pr in pairs:
            rs.add(pr.r)
            # the stored member really is the decimation of its canonical form
            image = decimate(pr.p_canon, pr.r)
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


def test_equiv_decimations_preserve_paf():
    cands = list(enum_candidates(7, 3, 11, 11.0))
    found = 0
    for c in cands:
        for s in _equiv_decimations(c, _paf_orbit(c.paf)[2]):
            assert s not in multiplier_group(c.vector)
            image = decimate(c.vector, s)
            assert paf(image) == c.paf
            found += 1
    assert found > 0


def test_pair_off_the_psd_sum_raises():
    # (0,1,1) with itself complements at 2*1 on every lag and has the sum
    # of squares 2*kappa^2 - (delta-1)*delta2*lam = 4, but its PSD sums
    # are 4 - 2 = 2, not lam = 1
    with pytest.raises(InvariantViolation, match="PSD sums"):
        match_pairs(list(enum_candidates(3, 2, 2, 12.0)), lam=1, delta2=2)


@pytest.mark.parametrize("length,delta", [(15, 5), (21, 7), (33, 11), (35, 7)])
def test_match_pairs_equals_brute_force_join(length, delta):
    # every (a, b) with a <= b over the sorted candidates, aligned by the
    # least unit r whose decimation of PAF(b) complements PAF(a) off-peak
    from lppairs.oracle import _oracle_decimate

    delta2, lam = length // delta, (length + 1) // 2
    cands = sorted(enum_candidates(delta, delta2, lam, float(lam)), key=lambda c: tuple(c.vector))
    unit_list = [r for r in range(delta) if gcd(r, delta) == 1]
    want = []
    for i, a in enumerate(cands):
        complement = tuple(delta2 * lam - x for x in a.paf[1:])
        for b in cands[i:]:
            valid = [r for r in unit_list if _oracle_decimate(b.paf, r)[1:] == complement]
            if valid:
                want.append((tuple(a.vector), tuple(b.vector), min(valid)))
    got = [(tuple(pr.q.vector), pr.p_canon, pr.r) for pr in match_pairs(cands, lam, delta2)]
    assert want
    assert got == want


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


# (pairs, sha256, expanded, sha256) of repr([(q.vector, p.vector, p_canon, r,
# s_q, s_p), ...]) over the pair and expanded lists of each census, recorded
# from the census whose join scanned every unit per pair; (77, 11) is checked
# by the length-77 test below, which runs that census anyway.
PAIR_DIGESTS = {
    (33, 11): (109, "58e1097422f6ecfc83e9fca4f4a8e130bc77dc64cef1f476c814c42de85115d8",
               216, "b791f55561b20c5b7f559431d1a80ddef69e0b63cfa11a90ac8f1557ae1b7c5e"),
    (35, 7): (24, "8a2ef4ae4e44ac07279b76b52f4156849963d8c0ef61bcc626ebf4e46ecbbe75",
              48, "fd8f11db937d741fd68ecc03ece2db13c0306171dff604203840605283c6b6ea"),
    (39, 13): (675, "89ea0bf9e9c026effe14bb970e3bc1523d38ef08d6cb2288343b276323519eac",
               1348, "49234a48f880d8081bb6a9f9d57407e56c24d56f54e7b796fd7aaca75ac01551"),
    (45, 9): (159, "4116def7f1594108f1f98ce45fa330e1cb15311b8725bf6dd4e166e4e31d9d34",
              308, "e10c1a3e616747addb199da43ae4b10776d40baed4f29bf111fa163c37e5ceb2"),
    (55, 5): (17, "d9a98194256b8bfcdcb43f3955d0372af7151bd77aa634ad580aefe08054c68c",
              31, "8b0c72168f978d6b473d522d77eadfa095a610dff4a5c10eb8d63aecbe603db6"),
    (55, 11): (1521, "cd26598bf9d52e81c60cf0b4c4745a89ba7c140456a744e4944829ff776b098b",
               3038, "8e750afeec1e9835d883d4654d52fa0d9bd40d552d22bdb41db784969f806137"),
    (77, 7): (236, "17be4325e6cbd083921075e0dc73da9728f8712acf7dc797136bab1cf1816924",
              469, "7e8168fb59b7cd3ca839a7270f65a9577c997acabb6c209f78849ee8fb352293"),
    (77, 11): (8219, "faaa104459ca674a45185375b8ae930d5e6e624119a0e7cb3c24497940dc8943",
               16376, "cb1b39b2c0825c08205bb6cbb98158871c5f375a0cf8701e4c076a85e161f4a8"),
}


def _pair_digests(pairs, expanded):
    return (len(pairs), _digest(_pair_rows(pairs)), len(expanded), _digest(_pair_rows(expanded)))


@pytest.mark.parametrize("length,delta", sorted(set(PAIR_DIGESTS) - {(77, 11)}))
def test_pair_lists_are_pinned(length, delta):
    _, pairs, expanded = _census(length, delta)
    assert _pair_digests(pairs, expanded) == PAIR_DIGESTS[(length, delta)]


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
    from lppairs.cyclic import shift, units
    from lppairs.search import SearchTask, _MATCHINGS, compressed_census

    u, v = lp77
    expanded = {}
    for delta, n_pairs in ((7, 236), (11, 8219)):
        _, pairs, expanded[delta] = compressed_census(77, delta)
        assert len(pairs) == n_pairs
        assert _pair_digests(pairs, expanded[delta]) == PAIR_DIGESTS[(77, delta)]
        cu = tuple(decimation_canon(compress(u, delta))[0])
        cv = tuple(decimation_canon(compress(v, delta))[0])
        assert (min(cu, cv), max(cu, cv)) in {pr.key for pr in pairs}

    # Some task, one expanded 7-pair with one expanded 11-pair, has four
    # marginal instances that are compressions of a pair equivalent to the
    # bundled one: (shift(d_k x, a), shift(d_k y, b)) for a joint unit k,
    # independent shifts a and b, and (x, y) = (u, v) or (v, u).  A
    # d-compression of shift(z, a) depends on a mod d only, so the shifts
    # are searched per factor and joined by the CRT.
    index = {d: {pr.members: i for i, pr in enumerate(expanded[d])} for d in (7, 11)}
    crt = {(t % 7, t % 11): t for t in range(77)}
    found = []
    for k in units(77):
        for swapped, (x, y) in enumerate(((u, v), (v, u))):
            images = (decimate(x, k), decimate(y, k))
            hits = {}
            for d in (7, 11):
                cx, cy = ([tuple(compress(shift(z, a), d)) for a in range(d)] for z in images)
                hits[d] = [(a, b, (cx[a], cy[b])) for a in range(d) for b in range(d)]
            hits7 = [(a, b, m7) for a, b, m7 in hits[7] if m7 in index[7]]
            for a11, b11, (mx, my) in hits[11]:
                # x takes the 11-pair's first member in the straight matching
                # and its second in the crossed one
                for m, m11 in enumerate(((mx, my), (my, mx))):
                    if m11 in index[11]:
                        found += [
                            (index[7][m7], index[11][m11], m, swapped, k, crt[a7, a11], crt[b7, b11])
                            for a7, b7, m7 in hits7
                        ]
    # three equivalents, all in one task and its crossed matching
    assert found == [
        (142, 4969, 1, 0, 5, 57, 44),
        (142, 4969, 1, 0, 27, 46, 11),
        (142, 4969, 1, 0, 38, 2, 33),
    ]
    for i7, i11, m, swapped, k, a, b in found:
        task = SearchTask(  # as build_tasks numbers it
            index=i7 * len(expanded[11]) + i11,
            members1=expanded[7][i7].members,
            members2=expanded[11][i11].members,
        )
        x, y = (v, u) if swapped else (u, v)
        pair = (shift(decimate(x, k), a), shift(decimate(y, k), b))
        assert exact_complementary(*pair, 39)
        for z, (i, j) in zip(pair, _MATCHINGS[m]):
            inst = task.instance(i, j)
            assert (inst.row_sums, inst.col_sums) == (tuple(compress(z, 7)), tuple(compress(z, 11)))
