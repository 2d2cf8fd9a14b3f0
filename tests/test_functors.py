"""Presentations, hom-set enumeration, and the two adjunction checks.

Hom counts pinned here were computed by the unpruned enumerator and agree
with the backtracking one; they are frozen as regression oracles.
"""

from dataclasses import replace

import pytest

from rackmod import (
    AdjunctionReport,
    as_presentation,
    check_adjunction_bijection,
    check_xmod_adjunction,
    conj_rack,
    conj_xmod,
    cyclic_group,
    enumerate_presented_homs,
    enumerate_rack_homs,
    evaluate_word,
    presentation_to_text,
    product_rack,
)
from rackmod import corpus, functors
from rackmod.errors import BijectionFail
from rackmod.functors import HomSet, Presentation, enumerate_rack_homs_bruteforce


def test_presentation_of_the_trivial_rack(racks):
    p = as_presentation(racks["t2"])
    assert p.generators == ("x0", "x1")
    assert len(p.relators) == 4
    assert p.relators[0] == (-1, -1, 1, 1)
    assert p.relators[1] == (-2, -1, 2, 1)
    assert p.pointed_relator == (1,)
    assert p.unit == (0, 1)


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
        enumerate_presented_homs(Presentation(("a",), ((1, 0),), (1,), (0,)), cyclic_group(2))


def test_an_empty_relator_constrains_nothing(racks):
    # the empty word is the identity, as x0·x0⁻¹ is
    p = as_presentation(racks["cs3"])
    z2 = cyclic_group(2)
    empty = enumerate_presented_homs(replace(p, pointed_relator=()), z2)
    cancelled = enumerate_presented_homs(replace(p, pointed_relator=(1, -1)), z2)
    assert empty.maps == cancelled.maps
    assert empty.count == 2 * enumerate_presented_homs(p, z2).count


def test_presentation_text_layout(racks):
    text = presentation_to_text(as_presentation(racks["t2"]))
    assert text == "-1 -1 1 1\n-2 -1 2 1\n-1 -2 1 2\n-2 -2 2 2\n1\n"


def test_hom_enumeration_into_conj_s3(racks):
    hs = enumerate_rack_homs(racks["t2"], racks["cs3"])
    # the non-basepoint element can land anywhere: conjugation is idempotent
    assert hs.maps == tuple((0, v) for v in range(6))
    assert hs.count == 6


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
    fast = enumerate_rack_homs(racks[xname], racks[yname])
    slow = enumerate_rack_homs_bruteforce(racks[xname], racks[yname])
    assert fast.maps == slow.maps
    assert fast.count == count


def test_presented_homs_into_an_abelian_group(racks):
    # conjugation relators die in any abelian group; only the basepoint
    # generator is pinned
    hs = enumerate_presented_homs(as_presentation(racks["t2"]), cyclic_group(2))
    assert hs.maps == ((0, 0), (0, 1))


def test_adjunction_pinned_counts(racks, groups):
    for xname, gname, count in [
        ("t2", "s3", 6),
        ("cs3", "s3", 24),
        ("cs3", "z2", 4),
        ("v3", "z3", 3),
    ]:
        report = check_adjunction_bijection(racks[xname], groups[gname])
        assert report.rack_hom_count == count, (xname, gname)
        assert report.presented_hom_count == count, (xname, gname)
        assert report.assignments == enumerate_rack_homs(
            racks[xname], conj_rack(groups[gname])
        ).maps


def test_adjunction_across_all_small_racks():
    seen = 0
    for name, x, g in corpus.adjunction_pairs():
        report = check_adjunction_bijection(x, g)
        assert isinstance(report, AdjunctionReport)
        assert report.rack_hom_count == report.presented_hom_count, name
        # the everything-to-the-identity assignment always survives
        assert report.rack_hom_count >= 1, name
        seen += 1
    # every pointed rack of order <= 3 against four groups
    assert seen == 16


def test_xmod_adjunction_pinned_counts(rack_xmods, group_xmods):
    report = check_xmod_adjunction(rack_xmods["a3r_cs3"], group_xmods["a3_s3"])
    assert (report.rack_side_count, report.group_side_count) == (18, 18)
    report = check_xmod_adjunction(rack_xmods["point_t2"], group_xmods["identity_z2"])
    assert (report.rack_side_count, report.group_side_count) == (2, 2)


def test_xmod_adjunction_across_corpus():
    seen = 0
    for name, x, g in corpus.xmod_adjunction_pairs():
        report = check_xmod_adjunction(x, g)
        assert report.rack_side_count == report.group_side_count, name
        assert report.rack_side_count >= 1, name
        assert report.pairs == tuple(sorted(report.pairs)), name
        seen += 1
    assert seen >= 5


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


def test_xmod_adjunction_matches_the_product_filter_on_both_sides():
    for name, x, g in corpus.xmod_adjunction_pairs():
        cg = conj_xmod(g)
        # each hom search of both sides against the maps of the full product
        for r, h, ch in ((x.dom, g.dom, cg.dom), (x.cod, g.cod, cg.cod)):
            unpruned = enumerate_rack_homs_bruteforce(r, ch).maps
            assert enumerate_rack_homs(r, ch).maps == unpruned, name
            assert enumerate_presented_homs(as_presentation(r), h).maps == unpruned, name
        rack_side = _square_pairs(
            x,
            enumerate_rack_homs(x.dom, cg.dom).maps,
            enumerate_rack_homs(x.cod, cg.cod).maps,
            cg.boundary.map,
            cg.act,
        )
        presented_side = _square_pairs(
            x,
            enumerate_presented_homs(as_presentation(x.dom), g.dom).maps,
            enumerate_presented_homs(as_presentation(x.cod), g.cod).maps,
            g.boundary.map,
            g.act,
        )
        report = check_xmod_adjunction(x, g)
        assert report.pairs == tuple(rack_side), name
        assert report.pairs == tuple(presented_side), name


def test_xmod_adjunction_rejects_a_tampered_presented_side(monkeypatch, rack_xmods, group_xmods):
    """Without the relator that kills the basepoint generator, the presented
    side gains pairs that are not crossed-module morphisms."""
    real = functors.as_presentation

    def tampered(x):
        p = real(x)
        return Presentation(p.generators, p.relators, (1, -1), p.unit)

    monkeypatch.setattr(functors, "as_presentation", tampered)
    with pytest.raises(BijectionFail) as exc:
        check_xmod_adjunction(rack_xmods["identity_cs3"], group_xmods["identity_s3"])
    assert exc.value.side == "presented"
    assert exc.value.witness == ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0, 0, 0))


def test_hom_counts_multiply_over_products(racks):
    x = racks["cs3"]
    for a_name, b_name in [("cz2", "v3"), ("t2", "cz3")]:
        a, b = racks[a_name], racks[b_name]
        into_product = enumerate_rack_homs(x, product_rack(a, b)).count
        assert (
            into_product
            == enumerate_rack_homs(x, a).count * enumerate_rack_homs(x, b).count
        )


def test_presented_homs_match_unpruned_rack_homs_on_all_small_racks():
    for name, x, g in corpus.adjunction_pairs():
        unpruned = enumerate_rack_homs_bruteforce(x, conj_rack(g)).maps
        assert enumerate_rack_homs(x, conj_rack(g)).maps == unpruned, name
        presented = enumerate_presented_homs(as_presentation(x), g)
        assert presented.maps == unpruned, name


def test_adjunction_rejects_a_tampered_rack_side(monkeypatch, racks, groups):
    """An extra assignment on the rack side must fail the relator re-check."""
    real = functors.enumerate_rack_homs
    x, g = racks["cs3"], groups["z2"]
    # (23) to the generator, everything else to the identity: not constant
    # on the orbits of cs3, so no hom into the trivial rack Conj(Z2)
    extra = (0, 1, 0, 0, 0, 0)
    assert extra not in real(x, conj_rack(g)).maps

    def tampered(dom, cod):
        hs = real(dom, cod)
        return HomSet(hs.source, hs.target, hs.maps + (extra,))

    monkeypatch.setattr(functors, "enumerate_rack_homs", tampered)
    with pytest.raises(BijectionFail) as exc:
        check_adjunction_bijection(x, g)
    assert exc.value.side == "rack"
    assert exc.value.witness == extra
