"""Fiber products, pullbacks, their universal property, and the conjugation
functor's interaction with pullbacks.  Expected carriers and counts were
computed by hand from the S3 conventions and cross-checked by enumeration.
"""

import dataclasses
from itertools import permutations, product

import pytest

from rackmod import (
    FiniteGroup,
    check_conj_preserves_pullback,
    compose_xmod_morphisms,
    conj_hom,
    conj_xmod,
    constant_rack_hom,
    fiber_product,
    fiber_product_xmod,
    find_isomorphism,
    find_xmod_isomorphism,
    identity_hom,
    identity_xmod,
    identity_xmod_morphism,
    inclusion_xmod,
    is_normal_subrack,
    mediating_morphism,
    pullback_on_morphisms,
    pullback_xmod,
    restrict_rack,
    trivial_action,
    trivial_rack,
    validate_hom,
    validate_rack,
    validate_xmod,
    validate_xmod_morphism,
    verify_universal_property,
)
from rackmod import corpus, pullback
from rackmod import racks as racks_module
from rackmod import xmod as xmod_module
from rackmod.errors import (
    AxiomError,
    BoundExceeded,
    NoIsomorphismFound,
    NotAMorphism,
    UniquenessFail,
)
from rackmod.pullback import PullbackXMod


def test_fiber_product_of_homs(rack_homs):
    fp = fiber_product(rack_homs["sgn_rack"], rack_homs["sgn_rack"])
    # evens pair with evens, odds with odds: 3*3 + 3*3
    assert fp.carrier.size == 18
    for i in range(18):
        assert rack_homs["sgn_rack"].map[fp.proj1.map[i]] == rack_homs["sgn_rack"].map[fp.proj2.map[i]]


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


def test_fiber_product_xmod_rejects_mixed_bases(rack_xmods):
    with pytest.raises(ValueError):
        fiber_product_xmod(rack_xmods["a3r_cs3"], rack_xmods["identity_cz2"])


def test_pullback_carrier_is_the_fiber_product(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["cz3_to_cs3"]
    pb = pullback_xmod(xm, phi)
    fp = fiber_product(xm.boundary, phi)
    assert pb.pairs == fp.pairs
    assert pb.carrier.table == fp.carrier.table
    assert pb.xmod.boundary.map == fp.proj2.map
    assert pb.phi_prime.map == fp.proj1.map


def test_pullback_square_commutes_on_corpus():
    seen = 0
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        for i in range(pb.carrier.size):
            assert (
                phi.map[pb.xmod.boundary.map[i]]
                == xm.boundary.map[pb.phi_prime.map[i]]
            ), name
        seen += 1
    assert seen >= 20


def test_pullback_along_identity_is_isomorphic(rack_xmods):
    for name in ("a3r_cs3", "identity_cz2", "point_cs3"):
        xm = rack_xmods[name]
        pb = pullback_xmod(xm, identity_hom(xm.cod))
        iso = find_xmod_isomorphism(pb.xmod, xm)
        assert iso is not None, name


def test_pullback_of_point_along_kernel_bearing_hom(racks, rack_homs):
    """Pulling the basepoint inclusion back along a hom carves out its kernel."""
    point = inclusion_xmod([0], racks["cz2"])
    pb = pullback_xmod(point, rack_homs["sgn_rack"])
    assert pb.carrier.size == 3
    assert pb.pairs == ((0, 0), (0, 3), (0, 4))
    evens = restrict_rack(racks["cs3"], [0, 3, 4])
    assert find_isomorphism(pb.carrier, evens) is not None
    cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
    assert cert.satisfying_count == 1


def test_pullback_of_full_base_is_the_graph(rack_xmods, rack_homs, racks):
    """With the whole base included, the carrier is the graph of the hom.

    The pairs are (sgn(s), s), one per element of the domain: six of them,
    not the twelve a full product would give.
    """
    pb = pullback_xmod(rack_xmods["identity_cz2"], rack_homs["sgn_rack"])
    assert pb.carrier.size == 6
    assert pb.pairs == ((0, 0), (0, 3), (0, 4), (1, 1), (1, 2), (1, 5))
    iso = find_isomorphism(pb.carrier, racks["cs3"])
    assert iso is not None
    assert iso.map == (0, 3, 4, 1, 2, 5)


def test_mediating_morphism_factorization(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    # cone: the pulled-back module itself with its comparison hom
    med = mediating_morphism(pb, pb.phi_prime, pb.xmod)
    assert med.f1.map == tuple(range(pb.carrier.size))
    for x in range(pb.carrier.size):
        assert pb.phi_prime.map[med.f1.map[x]] == pb.phi_prime.map[x]
        assert pb.xmod.boundary.map[med.f1.map[x]] == pb.xmod.boundary.map[x]


def test_mediating_morphism_from_an_external_cone(racks, rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    evens = phi.dom
    cone_xmod = inclusion_xmod([evens.basepoint], evens)
    f = constant_rack_hom(cone_xmod.dom, xm.dom)
    med = mediating_morphism(pb, f, cone_xmod)
    assert med.f1.map == (pb.pairs.index((0, 0)),)


def test_mediating_morphism_rejects_non_cones(rack_xmods, rack_homs):
    xm, phi = rack_xmods["identity_cs3"], rack_homs["incl_a3r_cs3"]
    pb = pullback_xmod(xm, phi)
    cone = identity_xmod(phi.dom)
    # the boundary square forces f == phi here, so the constant map cannot
    # be the leg of any cone over this pullback
    bad = constant_rack_hom(phi.dom, xm.dom)
    with pytest.raises(NotAMorphism):
        mediating_morphism(pb, bad, cone)


def test_universal_property_over_the_corpus():
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
        assert cert.satisfying_count == 1, name
        assert cert.search_space == pb.carrier.size**pb.carrier.size


def _doctored_pullback(rack_xmods, rack_homs):
    """An honest pullback and a fake one whose inflated carrier admits two
    factorizations of the honest cone."""
    xm, phi = rack_xmods["point_cz2"], rack_homs["const_t2_cz2"]
    pb = pullback_xmod(xm, phi)
    assert pb.pairs == ((0, 0), (0, 1))
    # replace the 2-element carrier with a trivial 3-element rack whose
    # boundary hits 1 twice; everything validates, uniqueness does not
    padded = trivial_rack(3)
    fake_xmod = validate_xmod(
        validate_hom(padded, phi.dom, [0, 1, 1]),
        trivial_action(padded, phi.dom).table,
    )
    fake = PullbackXMod(
        fake_xmod,
        constant_rack_hom(padded, xm.dom),
        xm,
        phi,
        ((0, 0), (0, 1), (0, 1)),
    )
    return pb, fake


def test_universal_property_fails_for_a_doctored_pullback(rack_xmods, rack_homs):
    """An inflated carrier admits two factorizations of the honest cone."""
    pb, fake = _doctored_pullback(rack_xmods, rack_homs)
    with pytest.raises(UniquenessFail) as exc:
        verify_universal_property(fake, pb.phi_prime, pb.xmod)
    assert exc.value.count == 2
    assert exc.value.witnesses == ((0, 1), (0, 2))


def test_preimage_instances_are_normal_subracks():
    seen = 0
    for name, subset, base, phi in corpus.preimage_instances():
        incl = inclusion_xmod(subset, base)
        pb = pullback_xmod(incl, phi)
        members = set(subset)
        preimage = sorted(s for s in phi.dom.elements() if phi.map[s] in members)
        sub = restrict_rack(phi.dom, preimage)
        assert find_isomorphism(pb.carrier, sub) is not None, name
        assert is_normal_subrack(preimage, phi.dom).ok, name
        seen += 1
    assert seen >= 5


def test_pullback_on_morphisms_preserves_identity(rack_xmods, rack_homs):
    xm, phi = rack_xmods["a3r_cs3"], rack_homs["cz3_to_cs3"]
    lifted = pullback_on_morphisms(identity_xmod_morphism(xm), phi)
    assert lifted.f1.map == tuple(range(len(lifted.f1.map)))


def test_pullback_on_morphisms_preserves_composition():
    seen = 0
    for name, m1, m2, phi in corpus.slice_morphism_corpus():
        lifted_separately = compose_xmod_morphisms(
            pullback_on_morphisms(m1, phi), pullback_on_morphisms(m2, phi)
        )
        lifted_composite = pullback_on_morphisms(compose_xmod_morphisms(m1, m2), phi)
        assert lifted_separately.f1.map == lifted_composite.f1.map, name
        seen += 1
    assert seen >= 3


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
    assert pb.carrier.size == 3
    cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
    assert cert.satisfying_count == 1
    for i in range(pb.carrier.size):
        assert (
            group_homs["z3_to_s3"].map[pb.xmod.boundary.map[i]]
            == group_xmods["a3_s3"].boundary.map[pb.phi_prime.map[i]]
        )


def test_conj_preserves_pullback_on_required_instances(group_xmods, group_homs):
    report = check_conj_preserves_pullback(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert report.carrier_size == 3
    assert report.morphism.f1.map == (0, 1, 2)
    # the trivial module pulled back along sgn: one fiber point over each
    # even permutation
    report = check_conj_preserves_pullback(group_xmods["triv_z2"], group_homs["sgn"])
    assert report.carrier_size == 3
    assert report.morphism.f1.map == (0, 1, 2)


def test_conj_preserves_pullback_across_the_corpus():
    seen = 0
    for name, source, phi in corpus.conj_preservation_instances():
        report = check_conj_preserves_pullback(source, phi)
        # the isomorphism revalidates as a morphism in both directions
        inverse1 = [0] * len(report.morphism.f1.map)
        for i, v in enumerate(report.morphism.f1.map):
            inverse1[v] = i
        inverse0 = [0] * len(report.morphism.f0.map)
        for i, v in enumerate(report.morphism.f0.map):
            inverse0[v] = i
        back1 = validate_hom(
            report.pullback_of_conj.dom, report.conj_of_pullback.dom, inverse1
        )
        back0 = validate_hom(
            report.pullback_of_conj.cod, report.conj_of_pullback.cod, inverse0
        )
        validate_xmod_morphism(
            back1, back0, report.pullback_of_conj, report.conj_of_pullback
        )
        seen += 1
    assert seen >= 5


_CONJ_PRESERVATION = {
    name: (source, phi) for name, source, phi in corpus.conj_preservation_instances()
}


@pytest.mark.parametrize("name", _CONJ_PRESERVATION)
def test_conj_of_group_pullback_equals_rack_pullback_tables(name):
    """On these instances the two sides agree on the nose, not just up to iso."""
    source, phi = _CONJ_PRESERVATION[name]
    left = conj_xmod(pullback_xmod(source, phi).xmod)
    right = pullback_xmod(conj_xmod(source), conj_hom(phi)).xmod
    assert left.dom.table == right.dom.table
    assert left.boundary.map == right.boundary.map
    assert left.action == right.action


@pytest.mark.parametrize("name", _CONJ_PRESERVATION)
def test_group_pullback_carrier_is_the_fiber_product_of_group_homs(name):
    source, phi = _CONJ_PRESERVATION[name]
    pb = pullback_xmod(source, phi)
    fp = fiber_product(source.boundary, phi)
    assert isinstance(fp.carrier, FiniteGroup)
    assert fp.carrier == pb.carrier
    assert fp.pairs == pb.pairs
    assert fp.proj1 == pb.phi_prime
    assert fp.proj2 == pb.xmod.boundary


def test_conj_preserves_rejects_a_mislabelled_pullback(monkeypatch, group_xmods, group_homs):
    """Swapping two pair labels of the group pullback breaks the comparison.

    The comparison is read off the pairs, so this fails although the tables
    stay as they are.  Only the group pullback, told apart by
    ``source.dom``, is tampered with.
    """
    real = pullback.pullback_xmod

    def mislabelled(source, phi):
        pb = real(source, phi)
        if not isinstance(source.dom, FiniteGroup):
            return pb
        pairs = list(pb.pairs)
        pairs[1], pairs[3] = pairs[3], pairs[1]
        return dataclasses.replace(pb, pairs=tuple(pairs))

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
        return dataclasses.replace(pb, pairs=pb.pairs + ((source.dom.size, phi.dom.size),))

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

    for module in (racks_module, xmod_module, pullback):
        monkeypatch.setattr(module, "validate_rack", counting)
    check_conj_preserves_pullback(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert sorted(sizes) == [3, 3, 3, 3, 6]


def test_pullback_of_a_group_xmod_is_the_group_pullback(group_xmods, group_homs):
    pb = pullback_xmod(group_xmods["a3_s3"], group_homs["z3_to_s3"])
    assert isinstance(pb.carrier, FiniteGroup)
    assert isinstance(pb.xmod.cod, FiniteGroup)
    assert pb.pairs == ((0, 0), (1, 1), (2, 2))
    assert pb.carrier.table == ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert pb.xmod.action == ((0, 0, 0), (1, 1, 1), (2, 2, 2))


def test_pullback_rejects_a_hom_of_the_other_kind(rack_xmods, group_xmods, rack_homs, group_homs):
    with pytest.raises(ValueError):
        pullback_xmod(rack_xmods["a3r_cs3"], group_homs["z3_to_s3"])
    with pytest.raises(ValueError):
        pullback_xmod(group_xmods["a3_s3"], rack_homs["z3_to_s3_rack"])


def test_fiber_product_xmod_rejects_group_xmods(group_xmods):
    with pytest.raises(ValueError, match="racks"):
        fiber_product_xmod(group_xmods["a3_s3"], group_xmods["identity_s3"])


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
        shifted = ((m[0] + 1) % pb.carrier.size,) + m[1:]
        return dataclasses.replace(med, f1=dataclasses.replace(med.f1, map=shifted))

    monkeypatch.setattr(pullback, "mediating_morphism", wrong)
    with pytest.raises(AxiomError) as exc:
        verify_universal_property(pb, pb.phi_prime, pb.xmod)
    assert exc.value.law == "construction"
    assert type(exc.value).__name__ == "ConstructionFail"
    # the witness is the one map that survived the scan: the honest one
    assert exc.value.witness == real(pb, pb.phi_prime, pb.xmod).f1.map


# ---------------------------------------------------------------- unpruned oracles

UNPRUNED_SEARCH_LIMIT = 10**6


def _unpruned_satisfying(pb, f, mu_xmod, limit=UNPRUNED_SEARCH_LIMIT):
    """Unpruned oracle: filter every set map into the carrier by all five laws."""
    x_dom, carrier = mu_xmod.dom, pb.carrier
    n = x_dom.size
    if carrier.size**n > limit:
        raise BoundExceeded(f"{carrier.size}^{n} set maps exceed the limit {limit}")
    mu, dstar, proj = mu_xmod.boundary.map, pb.xmod.boundary.map, pb.phi_prime.map
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
            h[mu_xmod.act(x, s)] != pb.xmod.act(h[x], s)
            for x in range(n)
            for s in mu_xmod.cod.elements()
        ):
            continue
        satisfying.append(h)
    return tuple(satisfying)


def _satisfying(pb, f, mu_xmod):
    """The maps verify_universal_property found: the one it certified, or
    the witnesses of its UniquenessFail."""
    try:
        cert = verify_universal_property(pb, f, mu_xmod)
    except UniquenessFail as exc:
        return exc.witnesses
    return (cert.mediating.f1.map,)


def test_universal_property_matches_the_unpruned_oracle_on_the_corpus():
    for name, xm, phi in corpus.pullback_instances():
        pb = pullback_xmod(xm, phi)
        expected = _unpruned_satisfying(pb, pb.phi_prime, pb.xmod)
        assert _satisfying(pb, pb.phi_prime, pb.xmod) == expected, name
        assert len(expected) == 1, name


def test_universal_property_matches_the_unpruned_oracle_when_it_fails(rack_xmods, rack_homs):
    pb, fake = _doctored_pullback(rack_xmods, rack_homs)
    expected = _unpruned_satisfying(fake, pb.phi_prime, pb.xmod)
    assert expected == ((0, 1), (0, 2))
    assert _satisfying(fake, pb.phi_prime, pb.xmod) == expected


def test_unpruned_oracle_is_bounded(rack_xmods):
    xm = rack_xmods["identity_cs3"]
    pb = pullback_xmod(xm, identity_hom(xm.cod))
    assert len(_unpruned_satisfying(pb, pb.phi_prime, pb.xmod, limit=6**6)) == 1
    with pytest.raises(BoundExceeded):
        _unpruned_satisfying(pb, pb.phi_prime, pb.xmod, limit=6**6 - 1)


def _isomorphisms_by_permutations(a, b):
    """Every pointed isomorphism a -> b, in lexicographic order, found by
    validating each bijection that fixes the basepoint."""
    if a.size != b.size:
        return []
    isos = []
    for perm in permutations(range(b.size)):
        if perm[a.basepoint] != b.basepoint:
            continue
        try:
            isos.append(validate_hom(a, b, perm))
        except AxiomError:
            continue
    return isos


def _isomorphism_by_full_search(a, b):
    """Unpruned oracle: the first pair of pointed isomorphisms, both found
    by validating permutations, that satisfies both morphism squares."""
    bottom = _isomorphisms_by_permutations(a.cod, b.cod)
    for f1 in _isomorphisms_by_permutations(a.dom, b.dom):
        for f0 in bottom:
            try:
                return validate_xmod_morphism(f1, f0, a, b)
            except AxiomError:
                continue
    return None


def _relabeled_xmod(xm, top, bottom):
    """The crossed module xm carried along the permutations top and bottom."""

    def carry(rack, perm):
        inv = [perm.index(i) for i in range(rack.size)]
        table = [
            [perm[rack.table[inv[a]][inv[b]]] for b in range(rack.size)]
            for a in range(rack.size)
        ]
        return validate_rack(table, perm[rack.basepoint])

    dom, cod = carry(xm.dom, top), carry(xm.cod, bottom)
    boundary = [0] * dom.size
    action = [[0] * cod.size for _ in range(dom.size)]
    for r in range(xm.dom.size):
        boundary[top[r]] = bottom[xm.boundary.map[r]]
        for s in range(xm.cod.size):
            action[top[r]][bottom[s]] = top[xm.act(r, s)]
    return validate_xmod(validate_hom(dom, cod, boundary), action)


def test_xmod_isomorphism_matches_the_full_search_on_conj_preservation():
    for name, source, phi in corpus.conj_preservation_instances():
        conj_side = conj_xmod(pullback_xmod(source, phi).xmod)
        rack_side = pullback_xmod(conj_xmod(source), conj_hom(phi)).xmod
        expected = _isomorphism_by_full_search(conj_side, rack_side)
        assert expected is not None, name
        assert find_xmod_isomorphism(conj_side, rack_side) == expected, name


def test_xmod_isomorphism_matches_the_full_search_along_identities(rack_xmods):
    for name in ("a3r_cs3", "identity_cz2", "point_cs3"):
        xm = rack_xmods[name]
        pb = pullback_xmod(xm, identity_hom(xm.cod))
        expected = _isomorphism_by_full_search(pb.xmod, xm)
        assert expected is not None, name
        assert find_xmod_isomorphism(pb.xmod, xm) == expected, name


def test_xmod_isomorphism_matches_the_full_search_off_the_identity(rack_xmods):
    """A relabeling the identity pair does not respect: the full search runs."""
    xm = rack_xmods["identity_cs3"]
    # swap the transposition (12) with the 3-cycle (123): no automorphism
    perm = [0, 1, 3, 2, 4, 5]
    other = _relabeled_xmod(xm, perm, perm)
    with pytest.raises(AxiomError):
        validate_hom(xm.dom, other.dom, range(6))
    expected = _isomorphism_by_full_search(xm, other)
    assert expected is not None
    assert expected.f1.map != tuple(range(6))
    assert find_xmod_isomorphism(xm, other) == expected


def test_xmod_isomorphism_matches_the_full_search_when_there_is_none(rack_xmods):
    """Same carriers and bases, boundaries that no pair of bijections matches."""
    incl = rack_xmods["a3r_cs3"]
    flat = trivial_rack(3)
    constant = validate_xmod(
        constant_rack_hom(flat, incl.cod), trivial_action(flat, incl.cod).table
    )
    assert incl.dom.table == constant.dom.table
    assert _isomorphism_by_full_search(incl, constant) is None
    assert find_xmod_isomorphism(incl, constant) is None


def test_xmod_isomorphism_matches_the_full_search_when_one_square_fails(racks):
    """Carriers and bases match, and one of the two squares commutes for every pair."""
    flat, cs3 = trivial_rack(3), racks["cs3"]
    # constant boundaries, so every boundary square commutes; the odd
    # permutations swap 1 and 2 in one action and fix them in the other
    by_sign = [[(0, 2, 1)[t] if odd else t for odd in (0, 1, 1, 0, 0, 1)] for t in range(3)]
    swapping = validate_xmod(constant_rack_hom(flat, cs3), by_sign)
    fixing = validate_xmod(constant_rack_hom(flat, cs3), trivial_action(flat, cs3).table)
    # trivial actions, so every action square commutes; one boundary is constant
    t2, t3 = trivial_rack(2), trivial_rack(3)
    to_base = validate_xmod(constant_rack_hom(t2, t3), trivial_action(t2, t3).table)
    onto_one = validate_xmod(validate_hom(t2, t3, [0, 1]), trivial_action(t2, t3).table)
    for a, b in ((swapping, fixing), (to_base, onto_one)):
        assert _isomorphism_by_full_search(a, b) is None
        assert find_xmod_isomorphism(a, b) is None
