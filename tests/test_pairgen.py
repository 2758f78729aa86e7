"""Compressed candidate enumeration, class matching, and expansion."""

import hashlib
from math import gcd

import pytest

from lppairs.cyclic import decimate, decimation_canon, multiplier_group
from lppairs.errors import InvariantViolation
from lppairs.oracle import oracle_candidates
from lppairs.pairgen import (
    _equiv_decimations,
    enum_candidates,
    expand_pairs,
    match_pairs,
)
from lppairs.spectral import exact_complementary, paf

from conftest import guided_join


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _pair_rows(pairs):
    return [
        (tuple(pr.q.vector), tuple(pr.p.vector), pr.p_canon, pr.r, pr.s_q, pr.s_p)
        for pr in pairs
    ]


def _census(length, delta):
    cands = list(enum_candidates(delta, length // delta, (length + 1) // 2))
    pairs = match_pairs(cands)
    return cands, pairs, expand_pairs(pairs)


def test_enum_candidates_are_canonical_and_in_range():
    cands = list(enum_candidates(5, 3, 8))
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
        list(enum_candidates(4, 3, 6))


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
    # against the definition: the units whose decimation keeps the PAF,
    # less the multiplier group; (9, 5, 23) and (7, 11, 39) are the
    # delta = 9 and delta = 7 candidate spaces of lengths 45 and 77
    import numpy as np

    from lppairs.cyclic import units

    found = 0
    for delta, delta2, lam in ((7, 3, 11), (11, 5, 28), (9, 5, 23), (7, 11, 39)):
        cands = list(enum_candidates(delta, delta2, lam))
        pafs = np.array([c.paf for c in cands], dtype=np.int64)
        got = _equiv_decimations(np.array([c.vector for c in cands]), pafs[:, 1:(delta + 1) // 2])
        for c, equiv in zip(cands, got, strict=True):
            assert equiv == tuple(
                s for s in units(delta)
                if paf(decimate(c.vector, s)) == c.paf and s not in multiplier_group(c.vector)
            )
            found += len(equiv)
    assert found > 0


def test_pair_off_the_psd_sum_raises():
    # (1,1,1) with itself complements at 2*3 on every lag and has the sum
    # of squares 2*lam^2 - (delta-1)*delta2*lam = 6, but its PSD sums are
    # 6 - 6 = 0, not lam = 3
    with pytest.raises(InvariantViolation, match="PSD sums stray from 3"):
        match_pairs(list(enum_candidates(3, 2, 3)))


def test_match_pairs_refuses_candidates_of_different_spaces():
    mixed = list(enum_candidates(5, 3, 8)) + list(enum_candidates(5, 4, 8))
    with pytest.raises(ValueError, match="different candidate spaces"):
        match_pairs(mixed)


def test_match_pairs_names_the_first_failing_pair():
    from lppairs.pairgen import CompressedCandidate

    # made-up PAFs that complement off-peak but not in the sum of squares
    bad = [CompressedCandidate((0, 0, 3), 3, 3, (9, 0, 0)), CompressedCandidate((1, 1, 1), 3, 3, (5, 9, 9))]
    with pytest.raises(InvariantViolation) as caught:
        match_pairs(bad)
    assert str(caught.value) == "sum of squares 14 != 0 for pair (0, 0, 3), (1, 1, 1)"
    with pytest.raises(InvariantViolation) as caught:
        match_pairs(list(enum_candidates(3, 2, 3)))
    assert str(caught.value) == "PSD sums stray from 3 for pair (1, 1, 1), (1, 1, 1)"


# (45, 9): the only composite delta in reach; (77, 7): delta2 = 11 puts the
# largest PAF values of these cases through the packed keys; (15, 1) has no
# half lags, (15, 15) binary entries, and (15, 3) and (21, 3) one half lag
@pytest.mark.parametrize("length,delta", [
    (15, 5), (21, 7), (33, 11), (35, 7), (45, 9), (77, 7), (15, 1), (15, 3), (15, 15), (21, 3),
])
def test_match_pairs_equals_brute_force_join(length, delta):
    # every (a, b) with a <= b over the sorted candidates, aligned by the
    # least unit r whose decimation of PAF(b) complements PAF(a) off-peak,
    # with each class's units that fix its PAF but not its rotation class
    from lppairs.oracle import _oracle_decimate, _oracle_rotations

    delta2, lam = length // delta, (length + 1) // 2
    cands = sorted(enum_candidates(delta, delta2, lam), key=lambda c: tuple(c.vector))
    unit_list = [r for r in range(delta) if gcd(r, delta) == 1]

    def equiv(c):
        return tuple(
            s for s in unit_list
            if _oracle_decimate(c.paf, s) == c.paf
            and _oracle_decimate(c.vector, s) not in _oracle_rotations(c.vector)
        )

    want = []
    for i, a in enumerate(cands):
        complement = tuple(delta2 * lam - x for x in a.paf[1:])
        for b in cands[i:]:
            valid = [r for r in unit_list if _oracle_decimate(b.paf, r)[1:] == complement]
            if valid:
                want.append((a.vector, b.vector, min(valid), equiv(a), equiv(b)))
    got = [(pr.q.vector, pr.p_canon, pr.r, pr.s_q, pr.s_p) for pr in match_pairs(cands)]
    assert want
    assert got == want
    if delta >= 5:
        # some classes pair only after re-aligning one side by a decimation,
        # and some have a decimation that keeps the PAF but not the class
        assert any(r != 1 for _, _, r, _, _ in got)
        assert any(s_p for *_, s_p in got)


# _BATCH = 1 and 7 cut the join's blocks of complements and its runs of
# lookup hits at other places than the default size does
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("length,delta", [(33, 11), (55, 5), (21, 7)])
def test_pair_lists_do_not_depend_on_the_block_size(monkeypatch, batch, length, delta):
    from lppairs import pairgen, spectral

    cands = list(enum_candidates(delta, length // delta, (length + 1) // 2))
    want = match_pairs(cands)
    seen = []  # lookup hits in each block expanded by the join

    def spy(lo, hi, cap):
        for query, pos in runs(lo, hi, cap):
            seen.append(len(query))
            yield query, pos

    runs = spectral._runs
    monkeypatch.setattr(pairgen, "_BATCH", batch)
    monkeypatch.setattr(spectral, "_runs", spy)  # the one the key join calls
    pairs = match_pairs(cands)
    assert pairs == want
    assert expand_pairs(pairs) == expand_pairs(want)
    assert seen and 0 < max(seen) <= batch


@pytest.mark.parametrize("length,delta", [(15, 3), (15, 5), (21, 7), (35, 5), (35, 7)])
def test_enum_candidates_equal_oracle(length, delta):
    lam = (length + 1) // 2
    want = oracle_candidates(delta, length // delta, lam, float(lam))
    got = [(tuple(c.vector), c.paf) for c in enum_candidates(delta, length // delta, lam)]
    assert want
    assert got == want


@pytest.mark.parametrize("delta,delta2,lam", [
    # 8**21 = 2**63: rotations compare column by column, not as int64 codes
    (21, 7, 5),
    (1, 4, 3),
    (1, 4, 0),
    # one-hot vectors: PSD exactly lam = 1 at every k, which the screen keeps
    (3, 1, 1),
    (5, 1, 1),
    (11, 1, 1),
    (13, 1, 1),
])
def test_enum_candidates_equal_oracle_at_the_edges(delta, delta2, lam):
    want = oracle_candidates(delta, delta2, lam, float(lam))
    got = [(tuple(c.vector), c.paf) for c in enum_candidates(delta, delta2, lam)]
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
# batched walk replaced ((77, 11) from the batched walk that screened the PSD
# on an FFT of every rotation-minimal row); equal lists keep pairs, tasks and
# checkpoint fingerprints unchanged.  (77, 11) is checked by the length-77
# test below, which runs that census anyway.
CANDIDATE_DIGESTS = {
    (33, 11): (228, "416c1d8b2da061f1ef82c3d741d2be53f0e20be59d4cfda5c63af47c6fedb166"),
    (39, 13): (1297, "a43e37a0a8ec5563af4f14625aaee07c152fb6b2bd08de78b53537dce4494384"),
    (45, 9): (407, "cbc2243c046aec379c99e57ba29276cea921638ca4631852b2d27cf6ac695165"),
    (55, 5): (32, "f910e4ba6be9fa6e5170297b576474aa6509184baa6bdd62091626e3583e3381"),
    (55, 11): (2815, "dd862248c951d7e192907106ccd2929b2d3fabaddb584af9fc8e92da9f33e4c6"),
    (77, 7): (403, "bc5ae27925ed491906bba2873428141fdc5d630f91a090bae10215306680dd2a"),
    (77, 11): (15021, "52cba7ffc9a4b59297233c6f019db88af97fdb9a4743693b946b1c9b745af72a"),
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


# prints that keep only the first one or two half lags, or none (every
# print equal): nearly every lookup hit is then a print collision that only
# the whole-row confirmation rejects
@pytest.mark.parametrize("length,delta,lags", [
    (33, 11, 1), (33, 11, 2), (45, 9, 1), (45, 9, 2), (55, 11, 1), (55, 11, 2), (33, 11, 0),
])
def test_print_collisions_never_make_or_lose_a_pair(monkeypatch, lags, length, delta):
    import numpy as np

    from lppairs import spectral

    real, calls = spectral._print_weights, []
    monkeypatch.setattr(spectral, "_print_weights",
                        lambda n: calls.append(n) or np.where(np.arange(n) < lags, real(n), 0))
    assert lags < (delta - 1) // 2
    pairs = match_pairs(list(enum_candidates(delta, length // delta, (length + 1) // 2)))
    assert _pair_digests(pairs, expand_pairs(pairs)) == PAIR_DIGESTS[(length, delta)]
    assert calls  # the join read the patched weights


def test_pair_join_allocates_less_than_the_candidate_walk():
    # census55's memory peak is its 55/11 candidate walk's; the join and the
    # expansion of that census must peak below it
    import tracemalloc

    list(enum_candidates(11, 5, 28))  # per-length tables are built once
    tracemalloc.start()
    try:
        cands = list(enum_candidates(11, 5, 28))
        walk = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pairs = match_pairs(cands)
        expanded = expand_pairs(pairs)
        join = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert (len(pairs), len(expanded)) == (1521, 3038)
    assert join <= walk, (join, walk)


@pytest.mark.parametrize("length,delta", sorted(set(CANDIDATE_DIGESTS) - {(77, 11)}))
def test_candidate_lists_are_pinned(length, delta):
    lam = (length + 1) // 2
    cands = [
        (tuple(c.vector), c.paf)
        for c in enum_candidates(delta, length // delta, lam)
    ]
    digest = hashlib.sha256(repr(cands).encode()).hexdigest()
    assert (len(cands), digest) == CANDIDATE_DIGESTS[(length, delta)]


# blocks of one (prefix, tail) pair, and of 7 pairs that cut across the
# prefixes' ranges, screen the same vectors as blocks of the default size
@pytest.mark.parametrize("batch,length,delta", [(1, 55, 5), (7, 55, 5), (7, 33, 11), (7, 77, 7)])
def test_candidate_lists_do_not_depend_on_the_block_size(monkeypatch, batch, length, delta):
    from lppairs import pairgen

    seen = []  # pairs in each block of the split-spectrum screen

    def spy(lo, hi, cap):
        for parent, row in runs(lo, hi, cap):
            seen.append(len(parent))
            yield parent, row

    runs = pairgen._runs
    monkeypatch.setattr(pairgen, "_BATCH", batch)
    monkeypatch.setattr(pairgen, "_runs", spy)
    lam = (length + 1) // 2
    cands = [
        (tuple(c.vector), c.paf)
        for c in enum_candidates(delta, length // delta, lam)
    ]
    digest = hashlib.sha256(repr(cands).encode()).hexdigest()
    assert (len(cands), digest) == CANDIDATE_DIGESTS[(length, delta)]
    assert max(seen) == batch


@pytest.mark.parametrize("delta,n", [(1, 1), (15, 15)])
def test_census_at_the_trivial_compressions_equals_oracle(delta, n):
    from lppairs.search import compressed_census

    cands, _, _ = compressed_census(15, delta)
    want = oracle_candidates(delta, 15 // delta, 8, 8.0)
    assert len(want) == n
    assert [(c.vector, c.paf) for c in cands] == want


def test_bundled_lp77_compressions_are_census_pairs(lp77):
    # the headline pair of length 77 is reachable from both compressed
    # censuses: its 7- and 11-compressions form a class pair of each
    from lppairs.compress import CrtContext, compress
    from lppairs.cyclic import shift, units
    from lppairs.search import SearchTask, _MATCHINGS, compressed_census

    u, v = lp77
    expanded = {}
    for delta, n_pairs in ((7, 236), (11, 8219)):
        cands, pairs, expanded[delta] = compressed_census(77, delta)
        assert (len(cands), _digest([(c.vector, c.paf) for c in cands])) == CANDIDATE_DIGESTS[(77, delta)]
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
    equivalents = {}
    for i7, i11, m, swapped, k, a, b in found:
        task = SearchTask(  # as build_tasks numbers it
            index=i7 * len(expanded[11]) + i11,
            members1=expanded[7][i7].members,
            members2=expanded[11][i11].members,
        )
        x, y = (v, u) if swapped else (u, v)
        pair = (shift(decimate(x, k), a), shift(decimate(y, k), b))
        assert exact_complementary(*pair, 39)
        insts = [task.instance(i, j) for i, j in _MATCHINGS[m]]
        for z, inst in zip(pair, insts):
            assert (inst.row_sums, inst.col_sums) == (tuple(compress(z, 7)), tuple(compress(z, 11)))
        equivalents[k] = pair, insts

    # The search reaches the k = 5 equivalent on that task's own instances:
    # with the first 5 of their 11 columns fixed to its cells, the join on
    # the free lags pairs its members.
    pair, insts = equivalents[5]
    counts, hits = guided_join(pair, insts, CrtContext(7, 11), (5, 5))
    assert counts == (8_439, 6_252)
    assert pair in hits
    assert all(exact_complementary(x, y, 39) for x, y in hits)
