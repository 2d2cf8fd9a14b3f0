"""Acceptance suite: the eleven headline properties, one test per criterion.

Every test re-derives its claim from raw tables (no trust in constructor
state) and prints a single checklist line, visible under ``pytest -s``.
Counts pinned here (hom counts, carrier sizes) were frozen from independent
enumeration.
"""

import random
from contextlib import contextmanager

from rackmod import (
    adjoin_basepoint,
    check_adjunction_bijection,
    check_conj_preserves_pullback,
    check_xmod_adjunction,
    compose_xmod_morphisms,
    conj_rack,
    conj_xmod_morphism,
    conjugation_action,
    core_rack,
    enumerate_pointed_racks,
    enumerate_rack_homs,
    fiber_product,
    fiber_product_xmod,
    find_isomorphism,
    hemi_semidirect,
    identity_xmod_morphism,
    inclusion_xmod,
    is_normal_subrack,
    product_rack,
    pullback_on_morphisms,
    pullback_xmod,
    restrict_rack,
    validate_group,
    validate_hom,
    validate_rack,
    validate_unpointed_rack,
    validate_xmod,
    validate_xmod_morphism,
    verify_universal_property,
)
from rackmod import corpus
from rackmod.functors import enumerate_rack_homs_bruteforce
from rackmod.isomorphism import enumerate_pointed_racks_bruteforce


@contextmanager
def criterion(number, slug):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} {slug}: FAIL")
        raise
    print(f"criterion {number:02d} {slug}: PASS")


def revalidate_rack_xmod(xm):
    """Rebuild a crossed module of racks from its raw tables."""
    dom = validate_rack(xm.dom.table, xm.dom.basepoint, labels=xm.dom.labels)
    cod = validate_rack(xm.cod.table, xm.cod.basepoint, labels=xm.cod.labels)
    boundary = validate_hom(dom, cod, xm.boundary.map)
    return validate_xmod(boundary, xm.action)


def test_criterion_01_axiom_soundness():
    with criterion(1, "axiom soundness sweep"):
        checked = 0
        for n in range(1, 4):
            for rk in enumerate_pointed_racks(n):
                validate_rack(rk.table, rk.basepoint)
                checked += 1
        for rk in corpus.racks().values():
            validate_rack(rk.table, rk.basepoint, labels=rk.labels)
            checked += 1
        for ur in corpus.unpointed_racks().values():
            validate_unpointed_rack(ur.table, labels=ur.labels)
            checked += 1
        for g in corpus.groups().values():
            validate_group(g.mul, g.identity, labels=g.labels)
            checked += 1
        for h in corpus.rack_homs().values():
            validate_hom(h.dom, h.cod, h.map)
            checked += 1
        for h in corpus.group_homs().values():
            validate_hom(h.dom, h.cod, h.map)
            checked += 1
        for xm in corpus.rack_xmods().values():
            revalidate_rack_xmod(xm)
            checked += 1
        for gx in corpus.group_xmods().values():
            validate_xmod(gx.boundary, gx.action)
            checked += 1
        r = corpus.racks()
        derived = (
            conj_rack(corpus.groups()["s3"]),
            product_rack(r["cz2"], r["v3"]),
            hemi_semidirect(conjugation_action(r["cs3"])),
            adjoin_basepoint(core_rack(corpus.groups()["z3"])),
            restrict_rack(r["cs3"], [0, 3, 4]),
        )
        for rk in derived:
            validate_rack(rk.table, rk.basepoint, labels=rk.labels)
            checked += 1
        assert checked >= 60


def test_criterion_02_fiber_products_are_crossed_modules():
    with criterion(2, "fiber products satisfy both module laws"):
        instances = corpus.fiber_instances()
        assert len(instances) >= 10
        for name, a, b in instances:
            revalidate_rack_xmod(fiber_product_xmod(a, b))


def test_criterion_03_pullbacks_are_crossed_modules():
    with criterion(3, "pullbacks validate and sit over the fiber product"):
        instances = corpus.pullback_instances()
        assert len(instances) >= 20
        for name, xm, phi in instances:
            pb = pullback_xmod(xm, phi)
            revalidate_rack_xmod(pb.xmod)
            fp = fiber_product(xm.boundary, phi)
            assert pb.pairs == fp.pairs, name
            assert pb.carrier.table == fp.carrier.table, name
            for i in range(pb.carrier.size):
                assert (
                    phi.map[pb.xmod.boundary.map[i]]
                    == xm.boundary.map[pb.phi_prime.map[i]]
                ), name


def test_criterion_04_universal_property_holds_everywhere():
    with criterion(4, "universal property: exactly one factorization"):
        for name, xm, phi in corpus.pullback_instances():
            pb = pullback_xmod(xm, phi)
            cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
            assert cert.satisfying_count == 1, name
        # the basepoint module of CZ2 pulled back along the parity hom:
        # the carrier is the three even permutations
        r = corpus.racks()
        pb = pullback_xmod(
            inclusion_xmod([0], r["cz2"]), corpus.rack_homs()["sgn_rack"]
        )
        assert pb.carrier.size == 3
        evens = restrict_rack(r["cs3"], [0, 3, 4])
        assert evens.labels == ("e", "(123)", "(132)")
        assert find_isomorphism(pb.carrier, evens) is not None
        cert = verify_universal_property(pb, pb.phi_prime, pb.xmod)
        assert cert.satisfying_count == 1


def test_criterion_05_preimages_are_normal_subracks():
    with criterion(5, "pullback of an inclusion is the preimage subrack"):
        instances = corpus.preimage_instances()
        assert len(instances) >= 5
        for name, subset, base, phi in instances:
            pb = pullback_xmod(inclusion_xmod(subset, base), phi)
            members = set(subset)
            preimage = [s for s in phi.dom.elements() if phi.map[s] in members]
            sub = restrict_rack(phi.dom, preimage)
            assert find_isomorphism(pb.carrier, sub) is not None, name
            assert is_normal_subrack(preimage, phi.dom).ok, name


def test_criterion_06_full_base_pullback_is_the_graph():
    with criterion(6, "pulling back the whole base gives the graph"):
        xm = corpus.rack_xmods()["identity_cz2"]
        phi = corpus.rack_homs()["sgn_rack"]
        pb = pullback_xmod(xm, phi)
        # one carrier point per element of the domain of phi: the graph
        # {(phi(s), s)}, not the 12-element full product
        assert pb.carrier.size == phi.dom.size == 6
        assert pb.carrier.size != xm.dom.size * phi.dom.size
        assert pb.pairs == tuple(sorted((phi.map[s], s) for s in phi.dom.elements()))
        iso = find_isomorphism(pb.carrier, phi.dom)
        assert iso is not None and iso.map == (0, 3, 4, 1, 2, 5)


def test_criterion_07_hom_sets_match_presented_assignments():
    with criterion(7, "rack homs into conj = relator-killing assignments"):
        pairs = corpus.adjunction_pairs()
        assert len(pairs) == 16
        for name, x, g in pairs:
            rep = check_adjunction_bijection(x, g)
            assert rep.rack_hom_count == rep.presented_hom_count, name
        t2, s3 = corpus.racks()["t2"], corpus.groups()["s3"]
        rep = check_adjunction_bijection(t2, s3)
        assert (rep.rack_hom_count, rep.presented_hom_count) == (6, 6)


def test_criterion_08_crossed_module_adjunction():
    with criterion(8, "module morphisms match presented assignment pairs"):
        pairs = corpus.xmod_adjunction_pairs()
        assert len(pairs) >= 5
        names = [name for name, _, _ in pairs]
        assert "a3r_cs3/a3_s3" in names
        for name, x, g in pairs:
            rep = check_xmod_adjunction(x, g)
            assert rep.rack_side_count == rep.group_side_count, name
            if name == "a3r_cs3/a3_s3":
                assert rep.rack_side_count == 18


def test_criterion_09_conjugation_preserves_pullbacks():
    with criterion(9, "conj of a group pullback = rack pullback of conj"):
        instances = corpus.conj_preservation_instances()
        assert len(instances) >= 5
        names = [name for name, _, _ in instances]
        assert "a3_s3_along_z3" in names and "triv_z2_along_sgn" in names
        for name, source, phi in instances:
            report = check_conj_preserves_pullback(source, phi)
            m = report.morphism
            # re-validate the exhibited isomorphism and its inverse from raw maps
            f1 = validate_hom(m.f1.dom, m.f1.cod, m.f1.map)
            f0 = validate_hom(m.f0.dom, m.f0.cod, m.f0.map)
            validate_xmod_morphism(
                f1, f0, report.conj_of_pullback, report.pullback_of_conj
            )
            assert sorted(m.f1.map) == list(range(report.carrier_size)), name
            assert sorted(m.f0.map) == list(range(len(m.f0.map))), name
            inv1 = [0] * len(m.f1.map)
            for i, v in enumerate(m.f1.map):
                inv1[v] = i
            inv0 = [0] * len(m.f0.map)
            for i, v in enumerate(m.f0.map):
                inv0[v] = i
            validate_xmod_morphism(
                validate_hom(m.f1.cod, m.f1.dom, inv1),
                validate_hom(m.f0.cod, m.f0.dom, inv0),
                report.pullback_of_conj,
                report.conj_of_pullback,
            )


def test_criterion_10_functor_laws():
    with criterion(10, "pullback and conj act functorially on morphisms"):
        for name, m1, m2, phi in corpus.slice_morphism_corpus():
            lifted_id = pullback_on_morphisms(identity_xmod_morphism(m1.src), phi)
            assert lifted_id.f1.map == tuple(range(len(lifted_id.f1.map))), name
            both = compose_xmod_morphisms(
                pullback_on_morphisms(m1, phi), pullback_on_morphisms(m2, phi)
            )
            composite = pullback_on_morphisms(compose_xmod_morphisms(m1, m2), phi)
            assert both.f1.map == composite.f1.map, name
            assert both.f0.map == composite.f0.map, name
        for name, gm in corpus.group_morphism_corpus():
            conj_xmod_morphism(gm)


def test_criterion_11_enumerators_agree():
    with criterion(11, "independent enumerators agree"):
        for n in range(1, 4):
            fast = enumerate_pointed_racks(n)
            slow = enumerate_pointed_racks_bruteforce(n)
            assert len(fast) == len(slow)
            for rep in slow:
                matches = [f for f in fast if find_isomorphism(rep, f) is not None]
                assert len(matches) == 1
        rng = random.Random(20260822)
        names = sorted(corpus.racks())
        catalog = corpus.racks()
        done = 0
        while done < 10:
            x = catalog[rng.choice(names)]
            y = catalog[rng.choice(names)]
            if y.size**x.size > 50000:
                continue
            fast = enumerate_rack_homs(x, y)
            slow = enumerate_rack_homs_bruteforce(x, y)
            assert fast.maps == slow.maps
            done += 1
