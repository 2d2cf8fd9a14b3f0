"""Fiber products, pullbacks, their universal property, and the conjugation
functor's interaction with pullbacks.  Expected carriers and counts were
computed by hand from the S3 conventions and cross-checked by enumeration.
"""

import dataclasses
import hashlib
from itertools import product

import pytest

from rackmod import (
    FiniteGroup,
    XModMorphism,
    check_conj_preserves_pullback,
    compose_xmod_morphisms,
    conj_hom,
    conj_xmod,
    conj_xmod_morphism,
    constant_rack_hom,
    enumerate_homs,
    enumerate_xmod_morphisms,
    fiber_product,
    fiber_product_xmod,
    find_isomorphism,
    identity_hom,
    identity_xmod,
    identity_xmod_morphism,
    inclusion_xmod,
    is_normal_subrack,
    mediating_morphism,
    pullback_on_morphisms,
    pullback_xmod,
    substructure,
    trivial_action,
    trivial_rack,
    validate_hom,
    validate_xmod,
    validate_xmod_morphism,
    verify_universal_property,
)
from rackmod import corpus, pullback
from rackmod.interchange import canonical_json, document_for
from rackmod import racks as racks_module
from rackmod import xmod as xmod_module
from rackmod.errors import (
    AxiomError,
    BoundarySquareFail,
    BoundExceeded,
    NoIsomorphismFound,
    UniquenessFail,
)


def _pairs(pb):
    """The pairs (p, s) of a pullback's carrier, read off its two maps."""
    return tuple(zip(pb.f1.map, pb.src.boundary.map))


def _tampered(pb, f1_map, boundary_map):
    """``pb`` with its first projection and boundary maps replaced, unchecked."""
    boundary = dataclasses.replace(pb.src.boundary, map=boundary_map)
    return dataclasses.replace(
        pb,
        src=dataclasses.replace(pb.src, boundary=boundary),
        f1=dataclasses.replace(pb.f1, map=f1_map),
    )


def test_fiber_product_of_homs(rack_homs):
    proj1, proj2 = fiber_product(rack_homs["sgn_rack"], rack_homs["sgn_rack"])
    # evens pair with evens, odds with odds: 3*3 + 3*3
    assert proj1.dom.size == 18
    for i in range(18):
        assert rack_homs["sgn_rack"].map[proj1.map[i]] == rack_homs["sgn_rack"].map[proj2.map[i]]


def test_fiber_product_requires_common_codomain(rack_homs):
    with pytest.raises(ValueError):
        fiber_product(rack_homs["sgn_rack"], rack_homs["id_cs3"])


def test_fiber_product_xmod_diagonal_action(rack_xmods):
    a = rack_xmods["a3r_cs3"]
    xm = fiber_product_xmod(a, a)
    assert xm.dom.size == 3
    assert xm.cod.size == 6
    # the fiber over each 3-cycle is the diagonal pair
    assert xm.boundary.map == (0, 3, 4)


@pytest.mark.parametrize("kind,expected", [("rack", 481), ("group", 360)])
def test_fiber_product_xmod_is_the_limit_by_count(kind, expected):
    """Unpruned oracle for the universal property of a x_R b: from every
    catalog crossed module T of the same kind, the morphisms T -> a x_R b
    are as many as the pairs (u, v) of morphisms T -> a and T -> b that
    agree on the base."""
    xmods = corpus.rack_xmods() if kind == "rack" else corpus.group_xmods()
    legs = {(t, a): enumerate_xmod_morphisms(xmods[t], xmods[a]) for t in xmods for a in xmods}
    checks = 0
    for a, x in xmods.items():
        for b, y in xmods.items():
            if x.cod != y.cod:
                continue
            fx = fiber_product_xmod(x, y)
            for t, z in xmods.items():
                agreeing = sum(u.f0 == v.f0 for u in legs[t, a] for v in legs[t, b])
                assert len(enumerate_xmod_morphisms(z, fx)) == agreeing, (a, b, t)
                checks += 1
    assert checks == expected


def test_fiber_product_xmod_rejects_mixed_bases(rack_xmods):
    with pytest.raises(ValueError):
        fiber_product_xmod(rack_xmods["a3r_cs3"], rack_xmods["identity_cz2"])


def test_pullback_carrier_is_the_fiber_product(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["cz3_to_cs3"]
    pb = pullback_xmod(xm, phi)
    proj1, proj2 = fiber_product(xm.boundary, phi)
    assert _pairs(pb) == tuple(zip(proj1.map, proj2.map))
    assert pb.src.dom.table == proj1.dom.table
    assert pb.src.boundary.map == proj2.map
    assert pb.f1.map == proj1.map
    assert (pb.f0, pb.dst) == (phi, xm)


def test_pullback_square_commutes_on_corpus():
    seen = 0
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        for i in range(pb.src.dom.size):
            assert (
                phi.map[pb.src.boundary.map[i]]
                == xm.boundary.map[pb.f1.map[i]]
            ), name
        seen += 1
    assert seen >= 20


def test_pullback_along_identity_is_isomorphic(rack_xmods):
    """The canonical comparison (p, s) -> p, with the identity on the base,
    is a crossed-module morphism whose carrier map is a bijection."""
    for name in ("a3r_cs3", "identity_cz2", "point_cs3"):
        xm = rack_xmods[name]
        pb = pullback_xmod(xm, identity_hom(xm.cod))
        iso = validate_xmod_morphism(pb.f1, identity_hom(xm.cod), pb.src, xm)
        assert sorted(iso.f1.map) == list(xm.dom.elements()), name


def test_pullback_of_point_along_kernel_bearing_hom(racks, rack_homs):
    """Pulling the basepoint inclusion back along a hom carves out its kernel."""
    point = inclusion_xmod([0], racks["cz2"])
    pb = pullback_xmod(point, rack_homs["sgn_rack"])
    assert pb.src.dom.size == 3
    assert _pairs(pb) == ((0, 0), (0, 3), (0, 4))
    evens = substructure(racks["cs3"], [0, 3, 4]).dom
    assert find_isomorphism(pb.src.dom, evens) is not None
    cert = verify_universal_property(pb, pb)
    assert cert.mediating == identity_xmod_morphism(pb.src)


def test_pullback_of_full_base_is_the_graph(rack_xmods, rack_homs, racks):
    """With the whole base included, the carrier is the graph of the hom.

    The pairs are (sgn(s), s), one per element of the domain: six of them,
    not the twelve a full product would give.
    """
    pb = pullback_xmod(rack_xmods["identity_cz2"], rack_homs["sgn_rack"])
    assert pb.src.dom.size == 6
    assert _pairs(pb) == ((0, 0), (0, 3), (0, 4), (1, 1), (1, 2), (1, 5))
    iso = find_isomorphism(pb.src.dom, racks["cs3"])
    assert iso is not None
    assert iso.map == (0, 3, 4, 1, 2, 5)


def test_mediating_morphism_factorization(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    # cone: the pulled-back module itself with its comparison hom
    med = mediating_morphism(pb, pb)
    assert med.f1.map == tuple(range(pb.src.dom.size))
    for x in range(pb.src.dom.size):
        assert pb.f1.map[med.f1.map[x]] == pb.f1.map[x]
        assert pb.src.boundary.map[med.f1.map[x]] == pb.src.boundary.map[x]


def test_mediating_morphism_from_an_external_cone(racks, rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    evens = phi.dom
    cone_xmod = inclusion_xmod([evens.basepoint], evens)
    cone = validate_xmod_morphism(constant_rack_hom(cone_xmod.dom, xm.dom), phi, cone_xmod, xm)
    med = mediating_morphism(pb, cone)
    assert med.f1.map == (_pairs(pb).index((0, 0)),)


def test_mediating_morphism_rejects_non_cones(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    mu_xmod = identity_xmod(phi.dom)
    # the boundary square forces f == phi here, so the constant map cannot
    # be the leg of any cone over this pullback
    bad = constant_rack_hom(phi.dom, xm.dom)
    with pytest.raises(BoundarySquareFail):
        validate_xmod_morphism(bad, phi, mu_xmod, xm)
    # a morphism into the source over another base map is not a cone over phi
    with pytest.raises(ValueError):
        mediating_morphism(pb, identity_xmod_morphism(xm))


def test_universal_property_over_the_corpus():
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        cert = verify_universal_property(pb, pb)
        assert cert.mediating == identity_xmod_morphism(pb.src), name
        assert cert.search_space == pb.src.dom.size**pb.src.dom.size


# sha256 of repr of (mediating f1 map, search space) over every corpus
# pullback of one kind, pinned from the search as it was before it was built
# by hom_search and morphism_search
MEDIATING_SHA256 = {
    "rack": "1b1363e21dba352abd1d30362457bc4396d02f48d33c962bb26954152e04e836",
    "group": "6dbb9f1c1a94c7197c5795d86c5d8f68cab7e1328a97fd2309adb0e68d59a96f",
}


@pytest.mark.parametrize("kind", ["rack", "group"])
def test_mediating_maps_over_the_corpus_are_pinned(kind):
    instances = corpus.pullback_instances() if kind == "rack" else corpus.conj_preservation_instances()
    found = []
    for _name, xm, phi in instances:
        pb = pullback_xmod(xm, phi)
        cert = verify_universal_property(pb, pb)
        found.append((cert.mediating.f1.map, cert.search_space))
    assert hashlib.sha256(repr(tuple(found)).encode()).hexdigest() == MEDIATING_SHA256[kind]


# ---------------------------------------------------------------- pinned documents

_CATALOGS = (
    (corpus.racks(), corpus.rack_xmods()),
    (corpus.groups(), corpus.group_xmods()),
)


def _homs_into(structures, base):
    """(tag, hom) for every hom into ``base`` from every catalog structure."""
    for sname, s in structures.items():
        for f in enumerate_homs(s, base):
            yield f"{sname}{list(f)}", validate_hom(s, base, f)


def _pinned_documents(family):
    """(tag, object) for each case of one family of constructions, over the
    catalogs of both kinds; the fibre products are of rack crossed modules
    only."""
    for structures, xmods in _CATALOGS[:1] if family == "fiber" else _CATALOGS:
        for a, x in xmods.items():
            if family == "fiber":
                for b, y in xmods.items():
                    if x.cod == y.cod:
                        yield f"{a}x{b}", fiber_product_xmod(x, y)
            elif family == "pullback":
                for htag, phi in _homs_into(structures, x.cod):
                    pb = pullback_xmod(x, phi)
                    yield f"{a}<-{htag}", pb.src
                    yield f"{a}<-{htag}.f1", pb.f1
            elif family == "conj":
                for htag, phi in _homs_into(structures, x.cod):
                    if isinstance(x.dom, FiniteGroup):
                        yield f"{a}<-{htag}", check_conj_preserves_pullback(x, phi)
            else:
                for b, y in xmods.items():
                    if x.cod != y.cod:
                        continue
                    for m in enumerate_xmod_morphisms(x, y):
                        if m.f0 != identity_hom(x.cod):
                            continue
                        for htag, phi in _homs_into(structures, x.cod):
                            yield f"{a}->{b}{list(m.f1.map)}<-{htag}", pullback_on_morphisms(m, phi)


# Per family: the number of cases, and the sha256 over "tag\0document\0" for
# each case in catalog order, where the document is the canonical JSON of
# ``document_for``.  Pinned from the constructions before they shared one
# body.
DOCUMENT_SHA256 = {
    "fiber": (37, "021cbd1616015ab2b8e510fe532cf6d9a39b1b7112a74d96f3dfce7f8928641f"),
    "pullback": (2102, "e383db8b41e60da5638bbc68343a5f473a4bf63943adfa62f92ceec2a900d65b"),
    "lift": (2013, "0d34723d91a4fef3465903f5dc95ba730baa6492d0f3f4d6be093eed0e4a18bd"),
    "conj": (212, "2f2cb8f7a3f8d8374a73f91418511a6be383b487755913a19b6700366ae156d2"),
}


@pytest.mark.parametrize("family", DOCUMENT_SHA256)
def test_construction_documents_are_pinned(family):
    digest, count = hashlib.sha256(), 0
    for tag, obj in _pinned_documents(family):
        digest.update(f"{tag}\0{canonical_json(document_for(obj))}\0".encode())
        count += 1
    assert (count, digest.hexdigest()) == DOCUMENT_SHA256[family]


def _doctored_pullback(rack_xmods, rack_homs):
    """An honest pullback and a fake one whose inflated carrier admits two
    factorizations of the honest cone."""
    xm, phi = rack_xmods["point_cz2"], rack_homs["const_t2_cz2"]
    pb = pullback_xmod(xm, phi)
    assert _pairs(pb) == ((0, 0), (0, 1))
    # replace the 2-element carrier with a trivial 3-element rack whose
    # boundary hits 1 twice; everything validates, uniqueness does not
    padded = trivial_rack(3)
    fake_xmod = validate_xmod(
        validate_hom(padded, phi.dom, [0, 1, 1]),
        trivial_action(padded, phi.dom).table,
    )
    fake = XModMorphism(fake_xmod, xm, constant_rack_hom(padded, xm.dom), phi)
    assert _pairs(fake) == ((0, 0), (0, 1), (0, 1))
    return pb, fake


def test_universal_property_fails_for_a_doctored_pullback(rack_xmods, rack_homs):
    """An inflated carrier admits two factorizations of the honest cone."""
    pb, fake = _doctored_pullback(rack_xmods, rack_homs)
    with pytest.raises(UniquenessFail) as exc:
        verify_universal_property(fake, pb)
    assert exc.value.count == 2
    assert exc.value.witnesses == ((0, 1), (0, 2))


def test_preimage_instances_are_normal_subracks(preimage_cases):
    seen = 0
    for name, subset, base, phi in preimage_cases:
        incl = inclusion_xmod(subset, base)
        pb = pullback_xmod(incl, phi)
        members = set(subset)
        preimage = sorted(s for s in phi.dom.elements() if phi.map[s] in members)
        sub = substructure(phi.dom, preimage).dom
        assert find_isomorphism(pb.src.dom, sub) is not None, name
        assert is_normal_subrack(preimage, phi.dom).ok, name
        seen += 1
    assert seen == 36


def test_pullback_on_morphisms_preserves_identity(rack_xmods, rack_homs):
    xm, phi = rack_xmods["a3r_cs3"], rack_homs["cz3_to_cs3"]
    lifted = pullback_on_morphisms(identity_xmod_morphism(xm), phi)
    assert lifted.f1.map == tuple(range(len(lifted.f1.map)))


def test_pullback_on_morphisms_preserves_composition(functor_law_cases):
    seen = 0
    for name, m1, m2, phi in functor_law_cases:
        lifted_separately = compose_xmod_morphisms(
            pullback_on_morphisms(m1, phi), pullback_on_morphisms(m2, phi)
        )
        lifted_composite = pullback_on_morphisms(compose_xmod_morphisms(m1, m2), phi)
        assert lifted_separately.f1.map == lifted_composite.f1.map, name
        seen += 1
    assert seen == 334


def test_pullback_on_morphisms_requires_fixed_base(rack_xmods, rack_homs, racks):
    # base-moving morphisms are rejected before any construction happens
    moving = validate_xmod_morphism(
        validate_hom(rack_xmods["point_cz2"].dom, rack_xmods["point_cs3"].dom, [0]),
        constant_rack_hom(racks["cz2"], racks["cs3"]),
        rack_xmods["point_cz2"],
        rack_xmods["point_cs3"],
    )
    with pytest.raises(ValueError):
        pullback_on_morphisms(moving, rack_homs["sgn_rack"])


def test_group_pullback_and_its_universal_property(group_xmods, group_homs):
    pb = pullback_xmod(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert pb.src.dom.size == 3
    cert = verify_universal_property(pb, pb)
    assert cert.mediating == identity_xmod_morphism(pb.src)
    for i in range(pb.src.dom.size):
        assert (
            group_homs["z3_to_s3"].map[pb.src.boundary.map[i]]
            == group_xmods["a3_s3"].boundary.map[pb.f1.map[i]]
        )


def test_conj_preserves_pullback_on_required_instances(group_xmods, group_homs):
    m = check_conj_preserves_pullback(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert m.src.dom.size == 3
    assert m.f1.map == (0, 1, 2)
    # the trivial module pulled back along sgn: one fiber point over each
    # even permutation
    m = check_conj_preserves_pullback(group_xmods["triv_z2"], group_homs["sgn"])
    assert m.src.dom.size == 3
    assert m.f1.map == (0, 1, 2)


def test_conj_preserves_pullback_across_the_corpus():
    seen = 0
    for name, source, phi in corpus.conj_preservation_instances():
        m = check_conj_preserves_pullback(source, phi)
        # the isomorphism revalidates as a morphism in both directions
        inverse1 = [0] * len(m.f1.map)
        for i, v in enumerate(m.f1.map):
            inverse1[v] = i
        inverse0 = [0] * len(m.f0.map)
        for i, v in enumerate(m.f0.map):
            inverse0[v] = i
        back1 = validate_hom(m.dst.dom, m.src.dom, inverse1)
        back0 = validate_hom(m.dst.cod, m.src.cod, inverse0)
        validate_xmod_morphism(back1, back0, m.dst, m.src)
        seen += 1
    assert seen >= 5


def test_the_conj_comparison_is_natural(group_xmods, group_homs):
    """For m: A -> B fixing the base N and phi: S -> N, with c the comparison
    of ``check_conj_preserves_pullback``: c_B ∘ Conj(phi*m) equals
    (Conj phi)*(Conj m) ∘ c_A, over every base-fixing corpus group morphism
    and every corpus group hom into the base."""
    cases = 0
    for a, x in group_xmods.items():
        for b, y in group_xmods.items():
            if x.cod != y.cod:
                continue
            for m in enumerate_xmod_morphisms(x, y):
                if m.f0 != identity_hom(x.cod):
                    continue
                for hname, phi in group_homs.items():
                    if phi.cod != x.cod:
                        continue
                    c_a = check_conj_preserves_pullback(x, phi)
                    c_b = check_conj_preserves_pullback(y, phi)
                    conj_then_pull = pullback_on_morphisms(conj_xmod_morphism(m), conj_hom(phi))
                    pull_then_conj = conj_xmod_morphism(pullback_on_morphisms(m, phi))
                    assert compose_xmod_morphisms(pull_then_conj, c_b) == compose_xmod_morphisms(
                        c_a, conj_then_pull
                    ), (a, b, m.f1.map, hname)
                    cases += 1
    assert cases == 55


_CONJ_PRESERVATION = {
    name: (source, phi) for name, source, phi in corpus.conj_preservation_instances()
}


@pytest.mark.parametrize("name", _CONJ_PRESERVATION)
def test_conj_of_group_pullback_equals_rack_pullback_tables(name):
    """On these instances the two sides agree on the nose, not just up to iso."""
    source, phi = _CONJ_PRESERVATION[name]
    left = conj_xmod(pullback_xmod(source, phi).src)
    right = pullback_xmod(conj_xmod(source), conj_hom(phi)).src
    assert left.dom.table == right.dom.table
    assert left.boundary.map == right.boundary.map
    assert left.action == right.action


@pytest.mark.parametrize("name", _CONJ_PRESERVATION)
def test_group_pullback_carrier_is_the_fiber_product_of_group_homs(name):
    source, phi = _CONJ_PRESERVATION[name]
    pb = pullback_xmod(source, phi)
    proj1, proj2 = fiber_product(source.boundary, phi)
    assert isinstance(proj1.dom, FiniteGroup)
    assert proj1.dom == pb.src.dom
    assert tuple(zip(proj1.map, proj2.map)) == _pairs(pb)
    assert proj1 == pb.f1
    assert proj2 == pb.src.boundary


def test_conj_preserves_rejects_a_mislabelled_pullback(monkeypatch, group_xmods, group_homs):
    """Swapping two entries of the group pullback's first projection
    mislabels two of its pairs and breaks the comparison.

    The comparison is read off the pairs, so this fails although the tables
    stay as they are.  Only the group pullback, told apart by
    ``source.dom``, is tampered with.
    """
    real = pullback.pullback_xmod

    def mislabelled(source, phi):
        pb = real(source, phi)
        if not isinstance(source.dom, FiniteGroup):
            return pb
        firsts = list(pb.f1.map)
        firsts[1], firsts[3] = firsts[3], firsts[1]
        return _tampered(pb, tuple(firsts), pb.src.boundary.map)

    monkeypatch.setattr(pullback, "pullback_xmod", mislabelled)
    with pytest.raises(NoIsomorphismFound, match="canonical comparison"):
        check_conj_preserves_pullback(group_xmods["identity_s3"], group_homs["id_s3"])


def test_conj_preserves_rejects_a_comparison_that_is_not_onto(monkeypatch, group_xmods, group_homs):
    """A rack pullback listing a pair the group pullback lacks is not reached.

    Only the rack pullback, told apart by ``source.dom``, is tampered with.
    """
    real = pullback.pullback_xmod

    def padded(source, phi):
        pb = real(source, phi)
        if isinstance(source.dom, FiniteGroup):
            return pb
        return _tampered(
            pb, pb.f1.map + (source.dom.size,), pb.src.boundary.map + (phi.dom.size,)
        )

    monkeypatch.setattr(pullback, "pullback_xmod", padded)
    with pytest.raises(NoIsomorphismFound, match="the group pullback lacks a pair"):
        check_conj_preserves_pullback(group_xmods["a3_s3"], group_homs["z3_to_s3"])


def test_conj_preserves_builds_each_conjugation_rack_once(monkeypatch, group_xmods, group_homs):
    """Conj of the carrier, Conj S, Conj N, Conj R and the rack pullback's
    carrier: five racks, each validated once."""
    sizes = []
    real = racks_module.validate_rack

    def counting(table, *args, **kwargs):
        sizes.append(len(table))
        return real(table, *args, **kwargs)

    for module in (racks_module, xmod_module):
        monkeypatch.setattr(module, "validate_rack", counting)
    check_conj_preserves_pullback(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert sorted(sizes) == [3, 3, 3, 3, 6]


def test_pullback_of_a_group_xmod_is_the_group_pullback(group_xmods, group_homs):
    pb = pullback_xmod(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert isinstance(pb.src.dom, FiniteGroup)
    assert isinstance(pb.src.cod, FiniteGroup)
    assert _pairs(pb) == ((0, 0), (1, 1), (2, 2))
    assert pb.src.dom.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert pb.src.action == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_pullback_rejects_a_hom_of_the_other_kind(rack_xmods, group_xmods, rack_homs, group_homs):
    with pytest.raises(ValueError):
        pullback_xmod(rack_xmods["a3r_cs3"], group_homs["z3_to_s3"])
    with pytest.raises(ValueError):
        pullback_xmod(group_xmods["a3_s3"], rack_homs["z3_to_s3_rack"])


def test_fiber_products_of_group_xmods_are_preserved_by_conj(group_xmods):
    """Every pair of catalog group crossed modules over one base: the fibre
    product is a group crossed module, and conjugating it gives the fibre
    product of the conjugations, table for table and label for label."""
    pairs = [(a, b) for a, x in group_xmods.items() for b, y in group_xmods.items() if x.cod == y.cod]
    assert len(pairs) == 30
    for a, b in pairs:
        x, y = group_xmods[a], group_xmods[b]
        fx = fiber_product_xmod(x, y)
        assert isinstance(fx.dom, FiniteGroup), (a, b)
        assert validate_xmod(fx.boundary, fx.action) == fx, (a, b)
        left, right = conj_xmod(fx), fiber_product_xmod(conj_xmod(x), conj_xmod(y))
        assert left == right, (a, b)
        assert (left.dom.labels, left.cod.labels) == (right.dom.labels, right.cod.labels), (a, b)


def test_conj_xmod_rejects_a_rack_xmod(rack_xmods, rack_homs):
    with pytest.raises(ValueError, match="group"):
        conj_xmod(rack_xmods["a3r_cs3"])
    with pytest.raises(ValueError, match="group"):
        check_conj_preserves_pullback(rack_xmods["a3r_cs3"], rack_homs["z3_to_s3_rack"])


@pytest.mark.parametrize(
    "side,xname,hname",
    [("rack", "identity_cz2", "sgn_rack"), ("group", "a3_s3", "z3_to_s3")],
)
def test_universal_property_rejects_a_wrong_mediating_map(
    monkeypatch, rack_xmods, rack_homs, group_xmods, group_homs, side, xname, hname
):
    """The one surviving map must be the canonical mediating map.

    The check is an explicit raise of a typed error, so it also holds under
    ``python -O``, and both sides go through the same verifier.
    """
    if side == "rack":
        pb = pullback_xmod(rack_xmods[xname], rack_homs[hname])
    else:
        pb = pullback_xmod(group_xmods[xname], group_homs[hname])
    real = pullback.mediating_morphism

    def wrong(*args):
        med = real(*args)
        m = med.f1.map
        shifted = ((m[0] + 1) % pb.src.dom.size,) + m[1:]
        return dataclasses.replace(med, f1=dataclasses.replace(med.f1, map=shifted))

    monkeypatch.setattr(pullback, "mediating_morphism", wrong)
    with pytest.raises(AxiomError) as exc:
        verify_universal_property(pb, pb)
    assert exc.value.law == "construction"
    assert type(exc.value).__name__ == "ConstructionFail"
    # the witness is the one map that survived the scan: the honest one
    assert exc.value.witness == real(pb, pb).f1.map


# ---------------------------------------------------------------- unpruned oracles

UNPRUNED_SEARCH_LIMIT = 10**6


def _unpruned_satisfying(pb, cone, limit=UNPRUNED_SEARCH_LIMIT):
    """Unpruned oracle: filter every set map into the carrier by all five laws."""
    mu_xmod, f = cone.src, cone.f1
    x_dom, carrier = mu_xmod.dom, pb.src.dom
    n = x_dom.size
    if carrier.size**n > limit:
        raise BoundExceeded(f"{carrier.size}^{n} set maps exceed the limit {limit}")
    mu, dstar, proj = mu_xmod.boundary.map, pb.src.boundary.map, pb.f1.map
    satisfying = []
    for h in product(range(carrier.size), repeat=n):
        if h[x_dom.basepoint] != carrier.basepoint:
            continue
        if any(dstar[h[x]] != mu[x] for x in range(n)):
            continue
        if any(proj[h[x]] != f.map[x] for x in range(n)):
            continue
        if any(
            h[x_dom.table[x][y]] != carrier.table[h[x]][h[y]]
            for x in range(n)
            for y in range(n)
        ):
            continue
        if any(
            h[mu_xmod.act(x, s)] != pb.src.act(h[x], s)
            for x in range(n)
            for s in mu_xmod.cod.elements()
        ):
            continue
        satisfying.append(h)
    return tuple(satisfying)


def _satisfying(pb, cone):
    """The maps verify_universal_property found: the one it certified, or
    the witnesses of its UniquenessFail."""
    try:
        cert = verify_universal_property(pb, cone)
    except UniquenessFail as exc:
        return exc.witnesses
    return (cert.mediating.f1.map,)


def test_universal_property_matches_the_unpruned_oracle_on_the_corpus():
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        expected = _unpruned_satisfying(pb, pb)
        assert _satisfying(pb, pb) == expected, name
        assert len(expected) == 1, name


def test_universal_property_matches_the_unpruned_oracle_when_it_fails(rack_xmods, rack_homs):
    pb, fake = _doctored_pullback(rack_xmods, rack_homs)
    expected = _unpruned_satisfying(fake, pb)
    assert expected == ((0, 1), (0, 2))
    assert _satisfying(fake, pb) == expected


def test_universal_property_on_external_cones():
    """Test crossed modules other than the pullback itself: the basepoint
    inclusion and the identity over S, with every f that makes (f, phi) a
    morphism, so f is not the pullback's projection and h is not the
    pullback's own carrier map."""
    cases = 0
    for name, xm, phi in corpus.pullback_instances() + corpus.conj_preservation_instances():
        pb, s_x = pullback_xmod(xm, phi), phi.dom
        point = inclusion_xmod([s_x.basepoint], s_x)
        for mu_xmod in (point, identity_xmod(s_x)):
            cones = [m for m in enumerate_xmod_morphisms(mu_xmod, xm) if m.f0 == phi]
            for cone in cones:
                expected = _unpruned_satisfying(pb, cone)
                assert _satisfying(pb, cone) == expected, name
                assert len(expected) == 1, name
                cases += 1
    assert cases == 53


def test_unpruned_oracle_is_bounded(rack_xmods):
    xm = rack_xmods["identity_cs3"]
    pb = pullback_xmod(xm, identity_hom(xm.cod))
    assert len(_unpruned_satisfying(pb, pb, limit=6**6)) == 1
    with pytest.raises(BoundExceeded):
        _unpruned_satisfying(pb, pb, limit=6**6 - 1)
