"""Isomorphism search and the small-order enumeration, cross-checked."""

import hashlib
from itertools import permutations, product

import pytest

from rackmod import (
    all_isomorphisms,
    enumerate_pointed_racks,
    find_isomorphism,
    trivial_rack,
    validate_rack,
)
from rackmod import corpus, isomorphism
from rackmod.errors import BoundExceeded
from rackmod.functors import enumerate_homs, enumerate_homs_bruteforce
from rackmod.isomorphism import enumerate_pointed_racks_bruteforce
from rackmod.racks import _self_distributivity_witness
from rackmod.search import _law_letters, _solving_order


def test_counts_up_to_isomorphism():
    assert [len(enumerate_pointed_racks(n)) for n in (1, 2, 3, 4)] == [1, 1, 2, 6]


def test_enumeration_agrees_with_unpruned_search():
    for n in (1, 2, 3):
        fast = enumerate_pointed_racks(n)
        slow = enumerate_pointed_racks_bruteforce(n)
        assert len(fast) == len(slow)
        for rack in slow:
            matches = [rep for rep in fast if find_isomorphism(rack, rep) is not None]
            assert len(matches) == 1


def test_representatives_are_pairwise_nonisomorphic():
    reps = enumerate_pointed_racks(4)
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            assert find_isomorphism(a, b) is None


def test_order_three_representatives():
    reps = enumerate_pointed_racks(3)
    assert reps[0].table == trivial_rack(3).table
    assert reps[1].table == ((0, 0, 0), (1, 2, 2), (2, 1, 1))


def test_adjoined_dihedral_rack_appears_at_order_four(racks):
    reps = enumerate_pointed_racks(4)
    hits = [i for i, rep in enumerate(reps) if find_isomorphism(racks["r3plus"], rep)]
    assert len(hits) == 1


def test_bounds():
    with pytest.raises(BoundExceeded):
        enumerate_pointed_racks(8)
    with pytest.raises(BoundExceeded):
        enumerate_pointed_racks_bruteforce(4)
    with pytest.raises(ValueError):
        enumerate_pointed_racks(0)


def test_find_isomorphism_refuses_unpointed_racks(monkeypatch):
    """A pointed isomorphism needs basepoints; the refusal comes before any
    search is built."""

    def unsearched(*args):
        raise AssertionError("a search was built")

    monkeypatch.setattr(isomorphism, "iso_search", unsearched)
    r3 = corpus.unpointed_racks()["r3"]
    with pytest.raises(ValueError, match="pointed racks or groups"):
        find_isomorphism(r3, r3)


def test_find_isomorphism_on_a_relabeling(racks):
    cs3 = racks["cs3"]
    # push CS3 through the permutation swapping the two 3-cycles
    perm = [0, 1, 2, 4, 3, 5]
    inv = [perm.index(i) for i in range(6)]
    table = [
        [perm[cs3.table[inv[a]][inv[b]]] for b in range(6)] for a in range(6)
    ]
    other = validate_rack(table, 0)
    iso = find_isomorphism(cs3, other)
    assert iso is not None
    for a in range(6):
        for b in range(6):
            assert iso.map[cs3.table[a][b]] == other.table[iso.map[a]][iso.map[b]]


def test_no_isomorphism_between_different_orders(racks):
    assert find_isomorphism(racks["t2"], racks["t3"]) is None
    assert find_isomorphism(racks["t3"], racks["v3"]) is None


def test_identity_is_first_among_automorphisms(racks):
    autos = all_isomorphisms(racks["cs3"], racks["cs3"])
    assert autos[0].map == (0, 1, 2, 3, 4, 5)
    # rack automorphisms of the S3 conjugation rack are its inner ones
    assert len(autos) == 6


def test_all_isomorphisms_sorted(racks):
    maps = [h.map for h in all_isomorphisms(racks["v3"], racks["v3"])]
    assert maps == sorted(maps)
    assert maps == [(0, 1, 2), (0, 2, 1)]


def _enumerate_by_column_permutations(n):
    """Unpruned oracle: every table of the full product of column permutations.

    Fixes the basepoint row and column, fills the other columns with every
    combination of permutations, and keeps each self-distributive table that
    is not isomorphic to an earlier representative.
    """
    reps = []
    for cols in product(permutations(range(1, n)), repeat=n - 1):
        table = [[0] * n for _ in range(n)]
        for a in range(1, n):
            table[a][0] = a
        for b in range(1, n):
            for a, v in enumerate(cols[b - 1], 1):
                table[a][b] = v
        if _self_distributivity_witness(table) is not None:
            continue
        rack = validate_rack(table, 0)
        if any(find_isomorphism(rack, rep) is not None for rep in reps):
            continue
        reps.append(rack)
    reps.sort(key=lambda r: r.table)
    return reps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_the_column_permutation_oracle(n):
    fast = enumerate_pointed_racks(n)
    slow = _enumerate_by_column_permutations(n)
    assert [r.table for r in fast] == [r.table for r in slow]
    assert [r.basepoint for r in fast] == [0] * len(slow)


# sha256 of repr(tuple of the tables) of the 19 order-5 representatives, as
# the column-permutation generate-and-test picked them (3 s to recompute with
# _enumerate_by_column_permutations(5))
ORDER_FIVE_SHA256 = "1c6473120c51ca228c83dc9f5c2d0fb093f12c42775fa5cd79a8174af2a54996"


def test_order_five_representatives_are_pinned():
    reps = enumerate_pointed_racks(5)
    assert len(reps) == 19
    assert all(r.basepoint == 0 for r in reps)
    tables = repr(tuple(r.table for r in reps)).encode()
    assert hashlib.sha256(tables).hexdigest() == ORDER_FIVE_SHA256


# The same digest of the 74 order-6 representatives, pinned from the column
# search as it was before it solved for forced columns (it took 11 s then)
ORDER_SIX_SHA256 = "a2731b988ede639e39b2c7de602dfa72c8a7cd407b2475ff669801a221bb69c8"


def test_order_six_representatives_are_pinned():
    reps = enumerate_pointed_racks(6)
    assert len(reps) == 74
    assert all(r.basepoint == 0 for r in reps)
    tables = repr(tuple(r.table for r in reps)).encode()
    assert hashlib.sha256(tables).hexdigest() == ORDER_SIX_SHA256


# The same digest of the 353 order-7 representatives (the number of racks of
# order 6, OEIS A181771).  The column search that deduplicated every leaf by
# isomorphism search gives the same digest in about 225 s.
ORDER_SEVEN_SHA256 = "122b8189d68ba68e244aec3818862f5b416b357b5ab147752bd1272180a426fd"


def test_order_seven_representatives_are_pinned():
    reps = enumerate_pointed_racks(7)
    assert len(reps) == 353
    assert all(r.basepoint == 0 for r in reps)
    tables = repr(tuple(r.table for r in reps)).encode()
    assert hashlib.sha256(tables).hexdigest() == ORDER_SEVEN_SHA256


def _columns(r):
    """The columns of r's table, column 0 first."""
    return tuple(zip(*r.table))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_representatives_are_column_lex_least(n, relabel):
    """No relabelling fixing the basepoint makes a representative's columns
    lexicographically smaller."""
    for r in enumerate_pointed_racks(n):
        for rest in permutations(range(1, n)):
            assert _columns(relabel(r, (0,) + rest)) >= _columns(r), (r.table, rest)


def _labelled_racks(n, placed=()):
    """Every rack table with the basepoint row and column fixed, in the
    lexicographic order of its columns 1..n-1, each a permutation of 1..n-1,
    found column by column: a column is kept when every self-distributivity
    triple whose reads are all placed holds."""
    k = len(placed) + 1
    if k == n:
        yield [[a] + [col[a] for col in placed] for a in range(n)]
        return
    for rest in permutations(range(1, n)):
        cols = [tuple(range(n)), *placed, (0,) + rest]
        if all(
            cols[c][cols[b][a]] == cols[cols[c][b]][cols[c][a]]
            for a in range(n)
            for b in range(k + 1)
            for c in range(k + 1)
            if cols[c][b] <= k
        ):
            yield from _labelled_racks(n, placed + ((0,) + rest,))


def _deduplicated_by_isomorphism(n):
    """The first of each isomorphism class among ``_labelled_racks(n)``,
    found by pairwise isomorphism search, in table order."""
    reps = []
    for table in _labelled_racks(n):
        rack = validate_rack(table, 0)
        if all(find_isomorphism(rack, rep) is None for rep in reps):
            reps.append(rack)
    return sorted(reps, key=lambda r: r.table)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_pairwise_deduplication(n):
    fast = enumerate_pointed_racks(n)
    assert [r.table for r in fast] == [r.table for r in _deduplicated_by_isomorphism(n)]


# sha256 of repr of the maps over every ordered pair of the 29 representatives
# of order <= 5, in enumeration order (None where there is no isomorphism),
# pinned from the isomorphism search as it was before it solved forced values
FIND_ISOMORPHISM_SHA256 = "d2aca36600635bda85c13a4fc1ea97788529ad8c10e0fdf0c64ad19d5f3ef2f0"
ALL_ISOMORPHISMS_SHA256 = "35f1f7c508ccc37ee26985177e0630a2545a11ac50babbfcd3968449ac0fcdc3"


def test_isomorphisms_between_small_representatives_are_pinned():
    reps = [r for n in range(1, 6) for r in enumerate_pointed_racks(n)]
    assert len(reps) == 29
    first = tuple(None if (h := find_isomorphism(a, b)) is None else h.map for a in reps for b in reps)
    every = tuple(tuple(h.map for h in all_isomorphisms(a, b)) for a in reps for b in reps)
    assert hashlib.sha256(repr(first).encode()).hexdigest() == FIND_ISOMORPHISM_SHA256
    assert hashlib.sha256(repr(every).encode()).hexdigest() == ALL_ISOMORPHISMS_SHA256


# A rack with a law whose result is placed last: the most-constrained order
# places 0 and 5 (one candidate each) before 1, 2, 3, 4 (four each), so the
# law 5 ◁ 1 = 2 can be tested only once 2 is placed, after both 5 and 1.
SHIFT_RACK_TABLE = [
    [0] * 6,
    [1, 1, 1, 1, 1, 2],
    [2, 2, 2, 2, 2, 3],
    [3, 3, 3, 3, 3, 4],
    [4, 4, 4, 4, 4, 1],
    [5] * 6,
]


def test_automorphism_search_tests_every_law():
    r = validate_rack(SHIFT_RACK_TABLE, 0)
    assert [h.map for h in all_isomorphisms(r, r)] == [
        (0, 1, 2, 3, 4, 5),
        (0, 2, 3, 4, 1, 5),
        (0, 3, 4, 1, 2, 5),
        (0, 4, 1, 2, 3, 5),
    ]


def _isomorphisms_by_permutations(a, b):
    """Unpruned oracle: the basepoint-fixing bijections that commute with
    the operations, in lexicographic order."""
    return [
        perm
        for perm in permutations(range(b.size))
        if perm[a.basepoint] == b.basepoint
        and all(
            perm[a.table[x][y]] == b.table[perm[x]][perm[y]]
            for x in range(a.size)
            for y in range(a.size)
        )
    ]


def test_isomorphisms_match_the_permutation_oracle_under_every_relabeling(relabel):
    """Each representative of order <= 4 against every relabelling of every
    representative of its order, so every pair has equal sizes and most
    have no isomorphism; the shift rack against its own relabellings."""
    reps = [enumerate_pointed_racks(n) for n in (1, 2, 3, 4)]
    shift = validate_rack(SHIFT_RACK_TABLE, 0)
    pairs = [(a, b) for same in reps for a in same for b in same] + [(shift, shift)]
    for a, b in pairs:
        for rest in permutations(range(1, b.size)):
            other = relabel(b, (0,) + rest)
            found = [h.map for h in all_isomorphisms(a, other)]
            assert found == _isomorphisms_by_permutations(a, other), (a.table, b.table, rest)
            first = find_isomorphism(a, other)
            assert (first is None) == (a is not b), (a.table, b.table, rest)
            assert first is None or first.map in found


def test_find_isomorphism_is_the_least_in_the_solving_order(racks, relabel):
    """The first isomorphism is the least map read in the solving order of
    every hom-set search, the order in which its variables are assigned."""
    cs3 = racks["cs3"]
    var = _solving_order(_law_letters(cs3), cs3.size)
    by_variable = sorted(range(cs3.size), key=var.__getitem__)
    for rest in permutations(range(1, cs3.size)):
        other = relabel(cs3, (0,) + rest)
        least = min(
            (h.map for h in all_isomorphisms(cs3, other)),
            key=lambda m: [m[a] for a in by_variable],
        )
        assert find_isomorphism(cs3, other).map == least, rest
    other = relabel(cs3, (0, 2, 3, 5, 1, 4))
    assert find_isomorphism(cs3, other).map == (0, 2, 3, 5, 1, 4)


def test_rack_homs_out_of_every_relabeling_match_the_unpruned_oracle(racks, relabel):
    """Relabelings move each element before or after the laws that force its
    image, so the hom search reaches both of its forced cases: an image read
    off the target's table, and one read off the inverse of a column."""
    for r in (r for n in (3, 4) for r in enumerate_pointed_racks(n)):
        for perm in permutations(range(r.size)):
            x = relabel(r, perm)
            for y in (racks["r3plus"], racks["cs3"]):
                fast = enumerate_homs(x, y)
                assert fast == enumerate_homs_bruteforce(x, y), (r.table, perm)
