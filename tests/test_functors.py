"""Presentations, hom-set enumeration, and the two adjunction checks.

Hom counts pinned here were computed by the unpruned enumerator and agree
with the backtracking one; they are frozen as regression oracles.
"""

import hashlib
import random
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackmod import (
    as_presentation,
    check_adjunction_bijection,
    check_xmod_adjunction,
    conj_rack,
    conj_xmod,
    cyclic_group,
    enumerate_homs,
    enumerate_pointed_racks,
    enumerate_presented_homs,
    evaluate_word,
    product_rack,
    substructure,
    trivial_rack,
)
from rackmod import corpus, functors, search
from rackmod.errors import AxiomError, BijectionFail, HomBasepointFail, HomLawFail
from rackmod.functors import Presentation, enumerate_homs_bruteforce
from rackmod.search import Masked, assignments
from rackmod.tables import validate_hom
from rackmod.xmod import validate_xmod_morphism


def test_presentation_of_the_trivial_rack(racks):
    p = as_presentation(racks["t2"])
    assert p.generators == ("x0", "x1")
    assert len(p.relators) == 4
    assert p.relators[0] == (-1, -1, 1, 1)
    assert p.relators[1] == (-2, -1, 2, 1)
    assert p.pointed_relator == (1,)


def test_presentation_uses_rack_labels(racks):
    p = as_presentation(racks["cs3"])
    assert p.generators == ("e", "(23)", "(12)", "(123)", "(132)", "(13)")
    # relator for the pair (a, b) says b^-1 a^-1 b equals a <| b
    a, b = 2, 5
    assert p.relators[a * 6 + b] == (-6, -3, 6, racks["cs3"].table[a][b] + 1)


def test_evaluate_word():
    z4 = cyclic_group(4)
    assert evaluate_word((1, 1), (1,), z4) == 2
    assert evaluate_word((-1,), (1,), z4) == 3
    assert evaluate_word((2, -1), (3, 1), z4) == 2
    assert evaluate_word((), (0,), z4) == 0


def test_a_zero_letter_is_rejected():
    # letter 0 names no generator; it must not be read as the last one
    with pytest.raises(ValueError, match="letter 0"):
        evaluate_word((0,), (0, 0, 5), cyclic_group(6))
    with pytest.raises(ValueError, match="letter 0"):
        enumerate_presented_homs(Presentation(("a",), ((1, 0),), (1,)), cyclic_group(2))


Z2 = cyclic_group(2)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: evaluate_word((-1,), (-1,), Z2), r"assignment\[0\] = -1 is out of range"),
        (lambda: evaluate_word((1,), (True,), Z2), r"assignment\[0\] = True is not an integer"),
        (lambda: evaluate_word((1,), (7,), Z2), r"assignment\[0\] = 7 is out of range"),
        (lambda: evaluate_word((5,), (0,), Z2), "has the letter 5"),
        (lambda: evaluate_word((1.0,), (1,), Z2), "has the letter 1.0"),
        (lambda: enumerate_presented_homs(Presentation(("a",), ((2,),), (1,)), Z2), "letter 2"),
        (lambda: enumerate_presented_homs(Presentation(("a",), ((1,),), (-2,)), Z2), "letter -2"),
    ],
    ids=["negative-value", "bool-value", "value-past-g", "letter-past-assignment", "float-letter",
         "relator-letter-past-generators", "pointed-letter-past-generators"],
)
def test_words_and_assignments_out_of_range_are_rejected(call, match):
    # a negative value or letter must not be read from the end of a table
    with pytest.raises(ValueError, match=match):
        call()


def test_an_empty_relator_constrains_nothing(racks):
    # the empty word is the identity, as x0·x0⁻¹ is
    p = as_presentation(racks["cs3"])
    z2 = cyclic_group(2)
    empty = enumerate_presented_homs(replace(p, pointed_relator=()), z2)
    cancelled = enumerate_presented_homs(replace(p, pointed_relator=(1, -1)), z2)
    assert empty == cancelled
    assert len(empty) == 2 * len(enumerate_presented_homs(p, z2))


# Z1-Z4 and S3: abelian and not, with elements of every order up to 4
ORACLE_GROUPS = [cyclic_group(k) for k in range(1, 5)] + [corpus.groups()["s3"]]


@st.composite
def presentations(draw):
    """Up to three generators and words of 0-7 letters that repeat them, so
    that relators split into halves of every length from 0 to 4."""
    n = draw(st.integers(0, 3))
    letters = st.sampled_from([s * (i + 1) for i in range(n) for s in (1, -1)]) if n else st.nothing()
    words = st.lists(letters, max_size=7 if n else 0).map(tuple)
    relators = tuple(draw(st.lists(words, max_size=4)))
    return Presentation(tuple(f"x{i}" for i in range(n)), relators, draw(words))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(presentations(), st.sampled_from(ORACLE_GROUPS))
def test_presented_homs_are_the_assignments_that_kill_every_relator(p, g):
    """Unpruned oracle: every assignment of g to the generators, filtered by
    ``evaluate_word``'s letter loop, against the search that tests a relator
    of at most four letters as two table reads and solves what it can."""
    words = p.relators + (p.pointed_relator,)
    expected = tuple(
        f
        for f in product(range(g.size), repeat=len(p.generators))
        if all(evaluate_word(w, f, g) == g.identity for w in words)
    )
    assert enumerate_presented_homs(p, g) == expected


def test_hom_enumeration_into_conj_s3(racks):
    hs = enumerate_homs(racks["t2"], racks["cs3"])
    # the non-basepoint element can land anywhere: conjugation is idempotent
    assert hs == tuple((0, v) for v in range(6))


PINNED_HOM_COUNTS = [
    ("t2", "cs3", 6),
    ("cs3", "cz2", 4),
    ("v3", "cz2", 2),
    ("cz3", "cz3", 9),
    ("cz3", "cs3", 18),
    ("cz4", "cz2", 8),
    ("cz2", "r3plus", 4),
    ("cs3", "cs3", 24),
]


@pytest.mark.parametrize("xname,yname,count", PINNED_HOM_COUNTS)
def test_hom_counts_and_enumerator_agreement(racks, xname, yname, count):
    fast = enumerate_homs(racks[xname], racks[yname])
    slow = enumerate_homs_bruteforce(racks[xname], racks[yname])
    assert fast == slow
    assert len(fast) == count


def test_presented_homs_into_an_abelian_group(racks):
    # conjugation relators die in any abelian group; only the basepoint
    # generator is pinned
    hs = enumerate_presented_homs(as_presentation(racks["t2"]), cyclic_group(2))
    assert hs == ((0, 0), (0, 1))


PINNED_ADJUNCTION_COUNTS = [
    ("t2", "s3", 6),
    ("cs3", "s3", 24),
    ("cs3", "z2", 4),
    ("v3", "z3", 3),
]


def test_adjunction_pinned_counts(racks, groups, shared_leaves):
    for xname, gname, count in PINNED_ADJUNCTION_COUNTS:
        x, g = racks[xname], groups[gname]
        homs = shared_leaves(check_adjunction_bijection, x, g)
        assert len(homs) == count, (xname, gname)
        assert homs == enumerate_homs(x, conj_rack(g)), (xname, gname)


def test_adjunction_across_all_small_racks(adjunction_pairs, shared_leaves):
    seen = 0
    for name, x, g in adjunction_pairs:
        homs = shared_leaves(check_adjunction_bijection, x, g)
        assert len(set(homs)) == len(homs), name
        # the everything-to-the-identity assignment always survives
        assert (g.identity,) * x.size in homs, name
        seen += 1
    # every pointed rack of order <= 3 against four groups
    assert seen == 16


def test_adjunction_counts_only_maps_that_pass_every_law(
    racks, groups, adjunction_pairs, shared_leaves
):
    """Each side is pruned by its own filed laws only, so the check cannot
    see a map that both sides wrongly admit; here every map it counts must
    also pass ``validate_hom`` into Conj G and kill every relator in G."""
    pinned = tuple((f"{x}/{g}", racks[x], groups[g]) for x, g, _ in PINNED_ADJUNCTION_COUNTS)
    for name, x, g in adjunction_pairs + pinned:
        p, cg = as_presentation(x), conj_rack(g)
        for m in shared_leaves(check_adjunction_bijection, x, g):
            validate_hom(x, cg, m)
            for word in p.relators + (p.pointed_relator,):
                assert evaluate_word(word, m, g) == g.identity, (name, m, word)


def test_xmod_adjunction_pinned_counts(rack_xmods, group_xmods, shared_leaves):
    for xname, gname, count in [("a3r_cs3", "a3_s3", 18), ("point_t2", "identity_z2", 2)]:
        x, g = rack_xmods[xname], group_xmods[gname]
        assert len(shared_leaves(check_xmod_adjunction, x, g)) == count, (xname, gname)


def test_xmod_adjunction_across_corpus(xmod_adjunction_pairs, shared_leaves):
    seen = 0
    for name, x, g in xmod_adjunction_pairs:
        pairs = shared_leaves(check_xmod_adjunction, x, g)
        assert len(pairs) >= 1, name
        assert len(set(pairs)) == len(pairs), name
        seen += 1
    assert seen == 156


def test_xmod_adjunction_counts_only_pairs_that_pass_every_law(
    xmod_adjunction_pairs, shared_leaves
):
    """Every pair the crossed-module check counts must be a crossed-module
    morphism into Conj(g) and kill the relators of both presentations."""
    for name, x, g in xmod_adjunction_pairs:
        cg = conj_xmod(g)
        for f1, f0 in shared_leaves(check_xmod_adjunction, x, g):
            validate_xmod_morphism(
                validate_hom(x.dom, cg.dom, f1), validate_hom(x.cod, cg.cod, f0), x, cg
            )
            for r, h, m in ((x.dom, g.dom, f1), (x.cod, g.cod, f0)):
                p = as_presentation(r)
                for word in p.relators + (p.pointed_relator,):
                    assert evaluate_word(word, m, h) == h.identity, (name, m, word)


def _square_pairs(x, tops, bottoms, d, act):
    """Unpruned cross-check: the pairs (m1, m0) of two hom lists whose squares commute."""
    return sorted(
        (m1, m0)
        for m1 in tops
        for m0 in bottoms
        if all(d[m1[r]] == m0[x.boundary.map[r]] for r in x.dom.elements())
        and all(
            m1[x.act(r, s)] == act(m1[r], m0[s])
            for r in x.dom.elements()
            for s in x.cod.elements()
        )
    )


def test_xmod_adjunction_matches_the_product_filter_on_both_sides(
    xmod_adjunction_pairs, shared_leaves
):
    for name, x, g in xmod_adjunction_pairs:
        cg = conj_xmod(g)
        # each hom search of both sides against the maps of the full product
        for r, h, ch in ((x.dom, g.dom, cg.dom), (x.cod, g.cod, cg.cod)):
            unpruned = enumerate_homs_bruteforce(r, ch)
            assert enumerate_homs(r, ch) == unpruned, name
            assert enumerate_presented_homs(as_presentation(r), h) == unpruned, name
        rack_side = _square_pairs(
            x,
            enumerate_homs(x.dom, cg.dom),
            enumerate_homs(x.cod, cg.cod),
            cg.boundary.map,
            cg.act,
        )
        presented_side = _square_pairs(
            x,
            enumerate_presented_homs(as_presentation(x.dom), g.dom),
            enumerate_presented_homs(as_presentation(x.cod), g.cod),
            g.boundary.map,
            g.act,
        )
        pairs = shared_leaves(check_xmod_adjunction, x, g)
        assert pairs == tuple(rack_side), name
        assert pairs == tuple(presented_side), name


def test_xmod_adjunction_rejects_a_tampered_presented_side(monkeypatch, rack_xmods, group_xmods):
    """Without the relator that kills the basepoint generator, the presented
    side gains pairs that are not crossed-module morphisms."""
    real = functors.as_presentation

    def tampered(x):
        p = real(x)
        return Presentation(p.generators, p.relators, (1, -1))

    monkeypatch.setattr(functors, "as_presentation", tampered)
    with pytest.raises(BijectionFail) as exc:
        check_xmod_adjunction(rack_xmods["identity_cs3"], group_xmods["identity_s3"])
    assert exc.value.side == "presented"
    assert exc.value.witness == ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


def test_hom_counts_multiply_over_products(racks):
    x = racks["cs3"]
    for a_name, b_name in [("cz2", "v3"), ("t2", "cz3")]:
        a, b = racks[a_name], racks[b_name]
        into_product = len(enumerate_homs(x, product_rack(a, b)))
        assert into_product == len(enumerate_homs(x, a)) * len(enumerate_homs(x, b))


def test_presented_homs_match_unpruned_rack_homs_on_all_small_racks(adjunction_pairs):
    for name, x, g in adjunction_pairs:
        unpruned = enumerate_homs_bruteforce(x, conj_rack(g))
        assert enumerate_homs(x, conj_rack(g)) == unpruned, name
        presented = enumerate_presented_homs(as_presentation(x), g)
        assert presented == unpruned, name


def _commuting_tuples(g, m, memo):
    """C_m(g), the number of commuting m-tuples of the group g: C_0 = 1 and
    C_m(g) is the sum over x of C_{m-1} of the centralizer of x, built by
    ``substructure``.  ``memo`` keeps each value by (table, m)."""
    if m == 0:
        return 1
    if (g.mul, m) not in memo:
        memo[g.mul, m] = sum(
            _commuting_tuples(
                substructure(g, [y for y in g.elements() if g.mul[x][y] == g.mul[y][x]]).dom,
                m - 1,
                memo,
            )
            for x in g.elements()
        )
    return memo[g.mul, m]


def test_homs_out_of_a_trivial_rack_are_the_commuting_tuples(groups):
    """trivial_rack(m+1)'s hom laws say only that f(a) and f(b) commute, so
    both adjunction sides count the commuting m-tuples of G: a closed form
    that reaches sizes the unpruned enumerator cannot and that does not go
    through the search kernel."""
    memo: dict = {}
    counts = {}
    for name, g in groups.items():
        counts[name] = []
        for m in range(1, 7):
            x = trivial_rack(m + 1)
            expected = _commuting_tuples(g, m, memo)
            assert len(enumerate_homs(x, conj_rack(g))) == expected, (name, m)
            assert check_adjunction_bijection(x, g) == expected, (name, m)
            counts[name].append(expected)
    assert counts["s3"] == [6, 18, 48, 126, 336, 918]
    assert counts["z6"] == [6**m for m in range(1, 7)]
    # one size further, on the check alone: 6^7 maps, none built
    z6 = groups["z6"]
    assert check_adjunction_bijection(trivial_rack(8), z6) == _commuting_tuples(z6, 7, memo) == 279_936


def _orbit_count(x) -> int:
    """The number of orbits of the rack x: each orbit is the closure of one
    of its elements under p -> p ◁ q, each q acting by a permutation."""
    seen, orbits = set(), 0
    for a in x.elements():
        if a in seen:
            continue
        orbits += 1
        todo = [a]
        while todo:
            p = todo.pop()
            if p not in seen:
                seen.add(p)
                todo.extend(x.table[p])
    return orbits


def test_homs_into_an_abelian_group_are_constant_on_the_orbits(racks, groups):
    """Into an abelian G, Conj G is a trivial rack, so a hom X -> Conj G is
    a map constant on X's orbits that sends the basepoint's orbit to e:
    |G|^(orbits - 1) of them.  The larger racks reach counts that only the
    presolve makes cheap, such as 6^11 out of trivial_rack(12)."""
    small = [rk for n in range(1, 6) for rk in enumerate_pointed_racks(n)]
    cs3 = racks["cs3"]
    large = [product_rack(cs3, racks[b]) for b in ("cz2", "cz3", "cs3")] + [trivial_rack(12)]
    assert [_orbit_count(x) for x in large] == [6, 9, 9, 12]
    for x in small + large:
        for gname in ("z2", "z3", "z4", "z6"):
            g = groups[gname]
            expected = g.size ** (_orbit_count(x) - 1)
            assert check_adjunction_bijection(x, g) == expected, (x.size, gname)
    assert len(small) == 29


def test_homs_out_of_a_cyclic_group_are_the_elements_of_dividing_order(groups):
    """A hom out of Z_n is fixed by the image g of its generator, which may
    be any g with g^n = e."""
    for name, g in groups.items():
        for n in range(1, 9):
            roots = 0
            for x in g.elements():
                acc = g.identity
                for _ in range(n):
                    acc = g.mul[acc][x]
                roots += acc == g.identity
            assert len(enumerate_homs(cyclic_group(n), g)) == roots, (name, n)


def _in_variable_order(m, var, nvars):
    out = [None] * nvars
    for a, v in enumerate(m):
        out[var[a]] = v
    return out


def _agrees(f, w, upto):
    """Whether f equals w on the variables below ``upto`` that w holds."""
    return all(v is None or f[i] == v for i, v in enumerate(w[:upto]))


def _admitting(search, *extras):
    """``search`` with its domains widened to also admit ``extras``."""

    def tampered(*args):
        var, nvars = args[-2:]
        wants = [_in_variable_order(m, var, nvars) for m in extras]

        def widened(k, domain):
            def values(f):
                found = domain(f) if callable(domain) else domain
                return sorted({*found, *(w[k] for w in wants if _agrees(f, w, k))})

            return values if domain is not None else None

        return [widened(k, d) for k, d in enumerate(search(*args))]

    return tampered


def _rejecting(search, missing):
    """``search`` with the last value of ``missing`` dropped from its last domain,
    if the search holds the last variable."""

    def tampered(*args):
        var, nvars = args[-2:]
        domains = search(*args)
        last = domains[-1]
        if last is None:
            return domains
        lost = _in_variable_order(missing, var, nvars)

        def values(f):
            found = last(f) if callable(last) else last
            return [v for v in found if v != lost[-1] or not _agrees(f, lost, nvars - 1)]

        return domains[:-1] + [values]

    return tampered


def test_adjunction_rejects_a_tampered_rack_side(monkeypatch, racks, groups):
    """An extra assignment on the rack side must fail the relator re-check."""
    real = functors.enumerate_homs
    x, g = racks["cs3"], groups["z2"]
    # (23) to the generator, everything else to the identity: not constant
    # on the orbits of cs3, so no hom into the trivial rack Conj(Z2)
    extra = (0, 1, 0, 0, 0, 0)
    assert extra not in real(x, conj_rack(g))

    monkeypatch.setattr(functors, "hom_search", _admitting(functors.hom_search, extra))
    with pytest.raises(BijectionFail) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.side == "rack"
    assert exc.value.witness == extra


def test_adjunction_rejects_a_tampered_presented_side(monkeypatch, racks, groups):
    """An extra presented assignment that breaks a rack law must fail the
    re-check with the law and witness that ``validate_hom`` reports."""
    x, g = racks["cs3"], groups["z2"]
    extra = (0, 1, 0, 0, 0, 0)
    with pytest.raises(HomLawFail) as expected:
        validate_hom(x, conj_rack(g), extra)
    assert extra not in enumerate_presented_homs(as_presentation(x), g)

    monkeypatch.setattr(
        functors, "_presented_hom_search", _admitting(functors._presented_hom_search, extra)
    )
    with pytest.raises(HomLawFail) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.witness == expected.value.witness


def test_adjunction_rejects_an_unpointed_presented_assignment(monkeypatch, racks, groups):
    """A presented assignment that moves the basepoint fails ``validate_hom``'s
    basepoint check, not a hom law."""
    x, g = racks["t2"], groups["z2"]
    extra = (1, 1)
    monkeypatch.setattr(
        functors, "_presented_hom_search", _admitting(functors._presented_hom_search, extra)
    )
    with pytest.raises(HomBasepointFail) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.witness == (0, 1)


def test_reversed_variable_order_finds_the_same_hom_sets(adjunction_pairs):
    """Domains are placed by variable, so any order finds the same maps."""
    for name, x, g in adjunction_pairs:
        n = x.size
        relators = functors._compile_relators(as_presentation(x))
        for search in (
            lambda *v: functors.hom_search(x, conj_rack(g), *v),
            lambda *v: functors._presented_hom_search(relators, g, *v),
        ):
            found = {}
            for var in (range(n), range(n - 1, -1, -1)):
                maps = assignments(search(var, n))
                found[var.step] = {tuple(f[var[a]] for a in range(n)) for f in maps}
            assert found[1] == found[-1], name


def test_solving_order_puts_the_basepoint_first_and_solves_what_it_can(racks):
    x = racks["cs3"]
    var = functors._solving_order(functors._law_letters(x), x.size)
    assert sorted(var) == list(range(x.size))
    assert var[x.basepoint] == 0
    # e, then (23) and (12) free; (13) = (23) ◁ (12) solved; (123) free
    # again, and (132) = (123) ◁ (23) solved
    order = sorted(range(x.size), key=var.__getitem__)
    assert order == [0, 1, 2, 5, 3, 4]
    # the domain of the certify-ladder adjunction, cs3×cz2, (a, b) at 2a + b:
    # by level, (e,0), then the transpositions, then the 3-cycles, and last
    # (e,1), which is useful in no word
    x = product_rack(racks["cs3"], racks["cz2"])
    var = functors._solving_order(functors._law_letters(x), x.size)
    assert var == [0, 11, 1, 2, 3, 5, 7, 9, 8, 10, 4, 6]
    # the presentation's relators give the same order
    p = as_presentation(x)
    words = [[abs(letter) - 1 for letter in w] for w in p.relators + (p.pointed_relator,)]
    assert functors._solving_order(words, x.size) == var


def _useful(words, i):
    """The number of words that read generator i and some other generator
    exactly once, counted letter by letter."""
    return sum(i in w and any(w.count(j) == 1 for j in set(w) - {i}) for w in words)


def test_a_generator_useful_in_no_word_is_placed_last(racks):
    """In cs3×cz2, p ◁ (e,1) = p and (e,1) ◁ q = (e,1), so every word that
    reads (e,1) reads each other generator twice or not at all: placing it
    helps to solve nothing, and it is placed after every generator that can."""
    x = product_rack(racks["cs3"], racks["cz2"])
    words = functors._law_letters(x)
    idle = [i for i in x.elements() if i != x.basepoint and _useful(words, i) == 0]
    assert [x.label(i) for i in idle] == ["(e,1)"]
    assert functors._solving_order(words, x.size)[idle[0]] == x.size - 1


def _rack_side_nodes(x, g) -> int:
    """The number of domain evaluations of the rack side's own search in
    ``check_adjunction_bijection(x, g)``: the rack domains that the check
    passes to ``_count_shared_leaves`` (``_sides``) are each wrapped in a
    callable that counts its calls, and ``assignments`` searches them to
    the end.  The check itself runs unwrapped, so its presolve is not
    disturbed, and the count does not depend on whether it walks."""
    _, (rack, *_) = _sides(check_adjunction_bijection, x, g)
    calls = [0]

    def counted(domain):
        def values(f):
            calls[0] += 1
            return domain(f)

        return values

    for _ in assignments([counted(d) for d in rack]):
        pass
    return calls[0]


@pytest.mark.parametrize("gname,nodes", [("z6", 3392), ("s3", 578)])
def test_the_rack_side_of_the_benchmark_adjunction_makes_pinned_node_counts(
    racks, groups, gname, nodes
):
    """Node counts repeat exactly, so they catch a worse solving order that
    timings cannot; (e,1) at level 1 of cs3×cz2 made 12,572 and 1,028."""
    x = product_rack(racks["cs3"], racks["cz2"])
    assert _rack_side_nodes(x, groups[gname]) == nodes


@pytest.mark.parametrize(
    "gname,rack_reads,presented_reads",
    [("z6", 72, 52), ("s3", 102, 102)],
    ids=["z6-72", "s3-102"],
)
def test_the_benchmark_adjunction_files_pinned_read_counts(
    racks, groups, gname, rack_reads, presented_reads
):
    """Both sides of cs3×cz2 file 132 reads without pruning; a read that
    allows every value, most of them into the trivial rack Conj Z6, or that
    repeats another of its level, is dropped.  Into Z6 the presented side
    builds support tables with equal rows from different relator tables,
    and a read of one repeats a read of the other."""
    x, g = product_rack(racks["cs3"], racks["cz2"]), groups[gname]
    var = functors._solving_order(functors._law_letters(x), x.size)
    relators = functors._compile_relators(as_presentation(x))
    rack = functors.hom_search(x, conj_rack(g), var, x.size)
    presented = functors._presented_hom_search(relators, g, var, x.size)
    assert sum(len(d.reads) for d in rack) == rack_reads
    assert sum(len(d.reads) for d in presented) == presented_reads


def test_the_node_count_hardly_depends_on_the_labelling(racks, groups, relabel):
    """Over relabellings of cs3×cz2 that fix the basepoint, the rack side
    into Z6 stays within 1.1× of the node count of the catalog labelling.
    With the lowest free generator placed first it spanned 3,182 to 19,052."""
    x, z6 = product_rack(racks["cs3"], racks["cz2"]), groups["z6"]
    base = _rack_side_nodes(x, z6)
    rng = random.Random(0)
    for _ in range(20):
        rest = [a for a in x.elements() if a != x.basepoint]
        rng.shuffle(rest)
        perm = rest[: x.basepoint] + [x.basepoint] + rest[x.basepoint :]
        nodes = _rack_side_nodes(relabel(x, perm), z6)
        assert base / 1.1 <= nodes <= base * 1.1, perm


@pytest.mark.parametrize(
    "builder,expected",
    [("hom_search", BijectionFail("rack", (0, 0, 0, 0, 0, 1))), ("_presented_hom_search", HomLawFail(1, 2))],
)
def test_adjunction_reports_the_least_bad_map(monkeypatch, racks, groups, builder, expected):
    """The witness comes from the least bad map by element, a, not from the
    first one found: cs3 places (13) before the 3-cycles, so b comes first."""
    x, g = racks["cs3"], groups["z2"]
    a, b = (0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0)
    monkeypatch.setattr(functors, builder, _admitting(getattr(functors, builder), b, a))
    with pytest.raises(type(expected)) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.witness == expected.witness
    assert getattr(exc.value, "side", None) == getattr(expected, "side", None)


@pytest.mark.parametrize("side,builder", [("rack", "_presented_hom_search"), ("presented", "hom_search")])
def test_adjunction_rejects_a_map_missing_from_one_side(monkeypatch, racks, groups, side, builder):
    """A hom that one side's search loses, here because that side's last
    domain drops the hom's last value, is reported from the other side."""
    x, g = racks["cs3"], groups["s3"]
    missing = enumerate_homs(x, conj_rack(g))[5]
    monkeypatch.setattr(functors, builder, _rejecting(getattr(functors, builder), missing))
    with pytest.raises(BijectionFail) as exc:
        check_adjunction_bijection(x, g)
    assert (exc.value.side, exc.value.witness) == (side, missing)


def test_adjunction_rechecks_the_basepoint_of_presented_maps(monkeypatch, racks, groups):
    """When both builders admit a map that moves the basepoint, the rack
    side's basepoint domain, which the check narrows to Conj G's basepoint
    itself, still drops it, so the presented side reports it with
    ``validate_hom``'s basepoint failure."""
    x, g = racks["t2"], groups["z2"]
    for builder in ("hom_search", "_presented_hom_search"):
        monkeypatch.setattr(functors, builder, _admitting(getattr(functors, builder), (1, 1)))
    with pytest.raises(HomBasepointFail) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.witness == (0, 1)


def test_merge_counts_shared_leaves_and_raises_the_least_bad_one():
    """The two searches are walked together: a leaf in both is counted,
    and a leaf in one only is a bad map of that side.  Here (0, 0) is
    shared, and the presented side alone finds (0, 1), (0, 2), (1, 0) and
    (1, 1), of which (0, 1) is the least."""
    rack = [(0,), (0,)]
    presented = [range(2), lambda f: range(3) if f[0] == 0 else range(2)]
    with pytest.raises(BijectionFail) as exc:
        functors._count_shared_leaves(rack, presented, lambda f: f)
    assert (exc.value.side, exc.value.witness) == ("presented", (0, 1))


def test_merge_raises_the_rack_side_first():
    """Each side finds a leaf the other lacks; the rack side's is raised,
    though the presented side's would have been found too."""
    rack = [(0,), (0, 1)]
    presented = [(0,), (0, 2)]
    with pytest.raises(BijectionFail) as exc:
        functors._count_shared_leaves(rack, presented, lambda f: f)
    assert (exc.value.side, exc.value.witness) == ("rack", (0, 1))


def test_a_value_with_no_completion_is_no_bad_map():
    """The presented side gives 1 at level 0, which the rack side does not,
    but no value at level 1 completes it: the two leaf sets are equal, so
    the walk counts both shared leaves and raises nothing."""
    rack = [(0,), (0, 1)]
    presented = [(0, 1), lambda f: (0, 1) if f[0] == 0 else ()]
    assert functors._count_shared_leaves(rack, presented, lambda f: f) == 2


def test_the_least_bad_map_is_taken_over_every_divergence():
    """The rack side alone gives 1 at level 0, whose completions (1, 0) and
    (1, 1) are bad maps, and then 1 after (0,), a divergence the walk meets
    later at a deeper node; its leaf (0, 1) is the least, so it is raised."""
    rack = [range(3), range(2)]
    presented = [(0, 2), lambda f: (0,) if f[0] == 0 else (0, 1)]
    with pytest.raises(BijectionFail) as exc:
        functors._count_shared_leaves(rack, presented, lambda f: f)
    assert (exc.value.side, exc.value.witness) == ("rack", (0, 1))


def test_the_walk_reads_values_in_any_order():
    """Masks are sets: domains that give their values in descending order
    are compared as they are ascending."""
    rack = [(1, 0), lambda f: (2, 0) if f[0] else (1, 0)]
    presented = [(0, 1), lambda f: (0, 2) if f[0] else (0, 1)]
    assert functors._count_shared_leaves(rack, presented, lambda f: f) == 4


def _dead_ends(search, k, stuck_at):
    """``search`` with level k's domain widened to every value of the target
    and every value it gains there given no completion: level k + 1 gives
    nothing after a value that level k did not give before.  Each prefix
    that level k + 1 gives nothing for is appended to ``stuck_at``."""

    def tampered(*args):
        domains = search(*args)
        own, after = domains[k], domains[k + 1]
        every = range(args[1].size)

        def stuck(f):
            if f[k] in own(f):
                return after(f)
            stuck_at.append(tuple(f[: k + 1]))
            return ()

        return domains[:k] + [lambda f: every, stuck] + domains[k + 2 :]

    return tampered


def _lockstep(rack, presented, key, explain=None):
    """Test-only oracle: the two-stream merge that the walk of
    ``_count_shared_leaves`` replaced.  Each side is its own ``assignments``
    search, every domain ascending, and the two leaf streams are merged in
    lockstep; it raises by the same rules."""
    rack_leaves, presented_leaves = assignments(rack), assignments(presented)
    r, p = next(rack_leaves, None), next(presented_leaves, None)
    shared = 0
    bad_rack, bad_presented = [], []
    while r is not None or p is not None:
        if r == p:
            shared += 1
            r, p = next(rack_leaves, None), next(presented_leaves, None)
        elif p is None or (r is not None and r < p):
            bad_rack.append(key(r))
            r = next(rack_leaves, None)
        else:
            bad_presented.append(key(p))
            p = next(presented_leaves, None)
    if bad_rack:
        raise BijectionFail("rack", min(bad_rack))
    if bad_presented:
        m = min(bad_presented)
        if explain is not None:
            explain(m)
        raise BijectionFail("presented", m)
    return shared


def _outcome(count, *args):
    """The count, or the type, side and witness of the failure raised."""
    try:
        return count(*args)
    except AxiomError as exc:
        return type(exc).__name__, getattr(exc, "side", None), exc.witness


def _sides(check, x, g) -> tuple:
    """(outcome, args): the outcome of ``check(x, g)``, and the arguments it
    passes to ``_count_shared_leaves``: the rack side's domains, the
    presented side's, the key and, for the rack adjunction, ``explain``."""
    real, calls = functors._count_shared_leaves, []

    def recording(*args):
        calls.append(args)
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(functors, "_count_shared_leaves", recording)
        outcome = _outcome(check, x, g)
    (args,) = calls
    return outcome, args


def _walk_against_the_merge(check, x, g) -> tuple:
    """The outcome of ``check(x, g)``, asserted equal to the lockstep
    merge's over the very domains that the check passes to
    ``_count_shared_leaves``."""
    outcome, args = _sides(check, x, g)
    real = functors._count_shared_leaves
    assert _outcome(real, *args) == _outcome(_lockstep, *args) == outcome, (x, g)
    return outcome


def test_the_walk_agrees_with_the_lockstep_merge(adjunction_pairs, xmod_adjunction_pairs):
    for name, x, g in adjunction_pairs:
        assert _walk_against_the_merge(check_adjunction_bijection, x, g) >= 1, name
    for name, x, g in xmod_adjunction_pairs:
        assert _walk_against_the_merge(check_xmod_adjunction, x, g) >= 1, name


@pytest.mark.parametrize(
    "tamper,builder,xname,gname,expected",
    [
        ("admit", "hom_search", "cs3", "z2", ("BijectionFail", "rack", (0, 1, 0, 0, 0, 0))),
        ("admit", "_presented_hom_search", "cs3", "z2", ("HomLawFail", None, (1, 2))),
        ("admit", "_presented_hom_search", "t2", "z2", ("HomBasepointFail", None, (0, 1))),
        ("reject", "hom_search", "cs3", "s3", "presented"),
        ("reject", "_presented_hom_search", "cs3", "s3", "rack"),
        ("dead end", "hom_search", "cs3", "s3", 24),
        ("dead end", "_presented_hom_search", "cs3", "s3", 24),
    ],
)
def test_the_walk_agrees_with_the_lockstep_merge_on_tampered_sides(
    monkeypatch, racks, groups, tamper, builder, xname, gname, expected
):
    """The tampers of the tests above, each compared with the merge.  A dead
    end widens level 3 of one side of cs3 into S3, where (13) is solved
    for, to all of S3, with no completion for any value it gains: that
    side's leaves are unchanged, so the count stays 24 and nothing is
    raised."""
    x, g = racks[xname], groups[gname]
    real = getattr(functors, builder)
    stuck_at: list = []
    if tamper == "admit":
        extra = (0, 1, 0, 0, 0, 0)[: x.size] if x.size > 2 else (1, 1)
        tampered = _admitting(real, extra)
    elif tamper == "reject":
        tampered = _rejecting(real, enumerate_homs(x, conj_rack(g))[5])
    else:
        tampered = _dead_ends(real, 3, stuck_at)
    monkeypatch.setattr(functors, builder, tampered)
    outcome = _walk_against_the_merge(check_adjunction_bijection, x, g)
    if expected in ("rack", "presented"):
        assert outcome[:2] == ("BijectionFail", expected)
    else:
        assert outcome == expected
    assert bool(stuck_at) == (tamper == "dead end"), "no value was added"


@pytest.mark.parametrize("builder", ["hom_search", "_presented_hom_search"])
def test_the_xmod_walk_agrees_with_the_lockstep_merge_on_tampered_sides(
    monkeypatch, rack_xmods, group_xmods, builder
):
    x, g = rack_xmods["identity_cs3"], group_xmods["identity_s3"]
    real = getattr(functors, builder)
    a, b = (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
    for tampered in (_admitting(real, b, a), _rejecting(real, enumerate_homs(x.dom, conj_rack(g.dom))[5])):
        with monkeypatch.context() as mp:
            mp.setattr(functors, builder, tampered)
            assert _walk_against_the_merge(check_xmod_adjunction, x, g)[0] == "BijectionFail"


def test_the_presolved_count_is_the_walks(
    racks, groups, adjunction_pairs, xmod_adjunction_pairs, relabel
):
    """Wherever the presolve counts, its count is the whole walk's, and
    that walk finds no node where the two sides differ."""
    cases = [(check_adjunction_bijection, x, g) for _, x, g in adjunction_pairs]
    cases += [(check_xmod_adjunction, x, g) for _, x, g in xmod_adjunction_pairs]
    rng = random.Random(2)
    for b, gnames in (("cz2", ("z4", "z6", "s3")), ("cz3", ("z3",))):
        x = product_rack(racks["cs3"], racks[b])
        for gname in gnames:
            g = groups[gname]
            for _ in range(3):
                perm, gperm = rng.sample(range(x.size), x.size), rng.sample(range(g.size), g.size)
                cases.append((check_adjunction_bijection, relabel(x, perm), relabel(g, gperm)))
    presolved = 0
    for check, x, g in cases:
        _, (rack, presented, *rest) = _sides(check, x, g)
        presolved += search._parts(rack, presented) is not None
        assert functors._count_shared_leaves(rack, presented, *rest) == search._walk(
            rack, presented
        )[0], (x, g)
        assert search._walk(rack, presented)[1] == [], (x, g)
    assert (len(cases), presolved) == (184, 139)


@pytest.mark.parametrize(
    "gname,count,parts,walks",
    [("z6", 7776, [(1, 1)] * 6, [1] * 6), ("s3", 342, None, [12])],
)
def test_the_benchmark_adjunction_is_presolved_into_z6_and_walked_into_s3(
    monkeypatch, racks, groups, gname, count, parts, walks
):
    """Into Z6 every read of both sides of cs3×cz2 is an equality: the 12
    variables merge into 6 classes, one per orbit, in 6 parts of one
    class each, each walked at one level.  Into S3 nothing merges and the
    kept reads join every variable, so the 12 variables are walked whole.
    A silent fall back to the walk fails here."""
    x, g = product_rack(racks["cs3"], racks["cz2"]), groups[gname]
    _, (rack, presented, *_) = _sides(check_adjunction_bijection, x, g)
    classes = search._presolved(rack, {})[0]
    assert len(set(classes)) == (6 if gname == "z6" else 12)
    found = search._parts(rack, presented)
    assert found is None if parts is None else [tuple(map(len, p)) for p in found] == parts
    real, walked = search._walk, []

    def recording(a, b):
        walked.append(len(a))
        return real(a, b)

    monkeypatch.setattr(search, "_walk", recording)
    assert check_adjunction_bijection(x, g) == count
    assert walked == walks


def _dropping(search, k, i):
    """``search`` with read i of level k's domain removed."""

    def tampered(*args):
        domains = search(*args)
        d = domains[k]
        return domains[:k] + [Masked(d.base, d.reads[:i] + d.reads[i + 1 :])] + domains[k + 1 :]

    return tampered


def _tying(search, k, x):
    """``search`` with the equality f[k] = f[x] added to level k's domain,
    as a read of the diagonal of a table whose entry [u][v] is 1 << u."""

    def tampered(*args):
        domains = search(*args)
        n, d = args[1].size, domains[k]
        s = [[1 << u] * n for u in range(n)]
        return domains[:k] + [Masked(d.base, d.reads + ((s, x, x),))] + domains[k + 1 :]

    return tampered


# the least hom cs3×cz2 -> Conj Z6 that sends (e,1) and ((23),0), which
# variables 11 and 1 hold, to different values
_TIED_APART = (0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0)


@pytest.mark.parametrize(
    "tamper,builder,expected",
    [
        ("drop", "hom_search", ("BijectionFail", "rack", (0, 0, 1))),
        ("drop", "_presented_hom_search", ("HomLawFail", None, (1, 1))),
        ("tie", "hom_search", ("BijectionFail", "presented", _TIED_APART)),
        ("tie", "_presented_hom_search", ("BijectionFail", "rack", _TIED_APART)),
    ],
)
def test_one_equality_read_on_one_side_only_is_found_by_the_walk(
    monkeypatch, racks, groups, tamper, builder, expected
):
    """Removing the one read that merges two variables of v3 into Z3, or
    tying (e,1), the last variable of cs3×cz2, to variable 1 into Z6, on
    one side only gives the two sides different classes.  The presolve then
    declines, and the walk raises what the lockstep merge raises."""
    real = getattr(functors, builder)
    if tamper == "drop":
        x, g = racks["v3"], groups["z3"]
        _, (rack, presented, *_) = _sides(check_adjunction_bijection, x, g)
        assert search._presolved(rack, {})[0] == [0, 1, 1]
        tampered = _dropping(real, 2, 0)
    else:
        x, g = product_rack(racks["cs3"], racks["cz2"]), groups["z6"]
        tampered = _tying(real, 11, 1)
    monkeypatch.setattr(functors, builder, tampered)
    _, (rack, presented, *_) = _sides(check_adjunction_bijection, x, g)
    assert search._parts(rack, presented) is None
    assert _walk_against_the_merge(check_adjunction_bijection, x, g) == expected


# tables over two values whose every entry says an equality: [u][v] is
# 1 << u (f[k] = f[x]), 1 << v (f[k] = f[y]), and every value or none as
# u == v or not (f[x] = f[y])
_TAKES_X, _TAKES_Y, _SAME = [[1, 1], [2, 2]], [[1, 2], [1, 2]], [[3, 0], [0, 3]]


@pytest.mark.parametrize(
    "table,classes", [(_TAKES_X, [0, 1, 0]), (_TAKES_Y, [0, 1, 1]), (_SAME, [0, 0, 2])]
)
def test_each_equality_shape_merges_its_variables(table, classes):
    """A read (s, 0, 1) at level 2 merges what its table says; the merged
    search counts the same 4 maps as the lockstep merge."""
    domains = [Masked(3), Masked(3), Masked(3, [(table, 0, 1)])]
    assert search._presolved(domains, {})[0] == classes
    assert search._parts(domains, domains) is not None
    assert functors._count_shared_leaves(domains, domains, tuple) == 4
    assert _lockstep(domains, domains, tuple) == 4


def test_an_equality_in_one_row_only_merges_nothing():
    """s[0][0] is 1 << 0 but s[1][1] is not 1 << 1: the diagonal read says
    f[1] = 0 after f[0] = 0 and f[1] in {0, 1} after f[0] = 1, so three
    maps, not the two of f[1] = f[0]."""
    s = [[1, 0], [0, 3]]
    domains = [Masked(3), Masked(3, [(s, 0, 0)])]
    assert search._presolved(domains, {})[0] == [0, 1]
    assert functors._count_shared_leaves(domains, domains, tuple) == 3


def test_a_class_takes_the_and_of_its_members_bases():
    """f[1] = f[0], with f[0] in {0, 1} and f[1] in {0}: one map, though the
    class's least member, variable 0, allows two values."""
    domains = [Masked(3), Masked(1, [(_TAKES_X, 0, 0)])]
    assert search._presolved(domains, {})[1] == {0: 1}
    assert functors._count_shared_leaves(domains, domains, tuple) == 1


def test_sides_with_different_classes_are_walked():
    """Only the rack side says f[1] = f[0], so the presented side's maps
    (0, 1) and (1, 0) are its own."""
    rack = [Masked(3), Masked(3, [(_TAKES_X, 0, 0)])]
    presented = [Masked(3), Masked(3)]
    assert search._parts(rack, presented) is None
    with pytest.raises(BijectionFail) as exc:
        functors._count_shared_leaves(rack, presented, tuple)
    assert (exc.value.side, exc.value.witness) == ("presented", (0, 1))


def test_a_part_that_diverges_is_walked_whole():
    """Both sides say f[1] = f[0] and read (K, 1, 2) at level 3, where the
    rack side's K allows both values after f[1] = f[2] = 1 and the
    presented side's only 0.  The presolve gives one part of 3 classes on
    which the two sides diverge, so the whole walk runs and raises the
    rack side's own map; the product of the parts' shared counts would
    pass with 5."""
    rack, presented = (
        [Masked(3), Masked(3, [(_TAKES_X, 0, 0)]), Masked(3), Masked(3, [(k, 1, 2)])]
        for k in ([[1, 3], [2, 3]], [[1, 3], [2, 1]])
    )
    assert [len(part[0]) for part in search._parts(rack, presented)] == [3]
    expected = ("BijectionFail", "rack", (1, 1, 1, 1))
    assert _outcome(search._count_shared_leaves, rack, presented, tuple) == expected
    assert _outcome(_lockstep, rack, presented, tuple) == expected


def test_a_kept_read_dropped_on_one_side_makes_a_part_diverge(rack_xmods, group_xmods):
    """identity_cz2 into triv_z2 is presolved.  Without read 0 of level 3,
    a read that says no equality, on the rack side only, the two sides
    keep their classes and parts, but a part's walk diverges: the whole
    walk runs and raises what the lockstep merge raises."""
    x, g = rack_xmods["identity_cz2"], group_xmods["triv_z2"]
    _, (rack, presented, key) = _sides(check_xmod_adjunction, x, g)
    s, a, b = rack[3].reads[0]
    assert search._equality(s, a == b) == 0
    assert search._parts(rack, presented) is not None
    dropped = _dropping(lambda: rack, 3, 0)()
    parts = search._parts(dropped, presented)
    assert any(search._walk(*part)[1] for part in parts)
    expected = ("BijectionFail", "rack", ((0, 0), (0, 1)))
    assert _outcome(search._count_shared_leaves, dropped, presented, key) == expected
    assert _outcome(_lockstep, dropped, presented, key) == expected


def test_adjunction_and_presentations_refuse_groups_and_unpointed_racks(groups, group_xmods):
    """A group's multiplication table is not a rack table, and an unpointed
    rack has no basepoint to kill."""
    with pytest.raises(ValueError, match="pointed rack"):
        check_adjunction_bijection(groups["s3"], groups["s3"])
    s3 = group_xmods["identity_s3"]
    with pytest.raises(ValueError, match="pointed rack"):
        check_xmod_adjunction(s3, s3)
    r3 = corpus.unpointed_racks()["r3"]
    with pytest.raises(ValueError, match="pointed rack"):
        enumerate_homs(r3, r3)


def test_rack_homs_refuse_a_group_target():
    """Z2's multiplication table is not a rack table: the hom search refuses
    it with the error of ``validate_hom`` instead of reading it as one."""
    with pytest.raises(ValueError, match="hom endpoints are a FiniteRack and a FiniteGroup"):
        enumerate_homs(trivial_rack(2), cyclic_group(2))


def test_presented_homs_refuse_a_rack_target(racks):
    with pytest.raises(ValueError, match="evaluated in a group"):
        enumerate_presented_homs(as_presentation(racks["t2"]), racks["cz2"])


def test_evaluate_word_refuses_a_rack(racks):
    with pytest.raises(ValueError, match="evaluated in a group"):
        evaluate_word((1,), (0,), racks["cz2"])


@pytest.mark.parametrize(
    "gname,count,digest",
    [
        ("s3", 342, "ce21f7a0b4c6ff251cb05b9d4e93ff50623e8f9ca8f1061e3a26008e968bdc2a"),
        ("z6", 7776, "397741d61f1cb5239efb59657e6dcceede7ea82b6236045e4c87b1ebc220bfe7"),
    ],
)
def test_adjunction_on_the_benchmark_domain(racks, groups, shared_leaves, gname, count, digest):
    """cs3×cz2 is the domain of perfbench's certify-ladder adjunction jobs;
    into Z6 its 6^5 maps on the five orbits are all homs."""
    x = product_rack(racks["cs3"], racks["cz2"])
    homs = shared_leaves(check_adjunction_bijection, x, groups[gname])
    assert len(homs) == count
    assert hashlib.sha256(repr(homs).encode()).hexdigest() == digest


def test_xmod_adjunction_reports_the_least_bad_rack_pair(monkeypatch, rack_xmods, group_xmods):
    """Rack homs cs3 -> Conj S3 that move only the basepoint pass every
    square of the identity crossed modules but no pointed relator."""
    a, b = (1, 0, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)
    monkeypatch.setattr(functors, "hom_search", _admitting(functors.hom_search, b, a))
    with pytest.raises(BijectionFail) as exc:
        check_xmod_adjunction(rack_xmods["identity_cs3"], group_xmods["identity_s3"])
    assert (exc.value.side, exc.value.witness) == ("rack", (a, a))


@pytest.mark.parametrize("side,builder", [("rack", "_presented_hom_search"), ("presented", "hom_search")])
def test_xmod_adjunction_rejects_a_pair_missing_from_one_side(
    monkeypatch, rack_xmods, group_xmods, shared_leaves, side, builder
):
    """A pair that one side's search loses is reported from the other side;
    with identity boundaries f0 = f1, so losing f1 loses one pair."""
    x, g = rack_xmods["identity_cs3"], group_xmods["identity_s3"]
    missing = shared_leaves(check_xmod_adjunction, x, g)[5]
    monkeypatch.setattr(functors, builder, _rejecting(getattr(functors, builder), missing[0]))
    with pytest.raises(BijectionFail) as exc:
        check_xmod_adjunction(x, g)
    assert (exc.value.side, exc.value.witness) == (side, missing)
