"""Acceptance suite: the eleven headline properties, one test per criterion.

Every test re-derives its claim from raw tables (no trust in constructor
state) and prints a single checklist line, visible under ``pytest -s``.
Counts pinned here (hom counts, carrier sizes) were frozen from independent
enumeration.
"""

import random
from collections import Counter
from contextlib import contextmanager

from rackmod import (
    adjoin_basepoint,
    check_adjunction_bijection,
    check_conj_preserves_pullback,
    check_xmod_adjunction,
    compose_homs,
    compose_xmod_morphisms,
    conj_rack,
    conj_xmod_morphism,
    conjugation_action,
    core_rack,
    enumerate_homs,
    enumerate_pointed_racks,
    enumerate_xmod_morphisms,
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
    substructure,
    validate_group,
    validate_hom,
    validate_rack,
    validate_unpointed_rack,
    validate_xmod,
    validate_xmod_morphism,
    verify_universal_property,
)
from rackmod import corpus
from rackmod.functors import enumerate_homs_bruteforce
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
            substructure(r["cs3"], [0, 3, 4]).dom,
        )
        for rk in derived:
            validate_rack(rk.table, rk.basepoint, labels=rk.labels)
            checked += 1
        assert checked >= 60


def test_criterion_02_fiber_products_are_crossed_modules():
    with criterion(2, "fiber products satisfy both module laws"):
        xmods = corpus.rack_xmods()
        pairs = [(a, b) for a in xmods for b in xmods if xmods[a].cod == xmods[b].cod]
        assert len(pairs) == 37
        for a, b in pairs:
            fx = fiber_product_xmod(xmods[a], xmods[b])
            revalidate_rack_xmod(fx)
            # the fibre product is the pullback of a along the boundary of b
            pb = pullback_xmod(xmods[a], xmods[b].boundary)
            assert fx.dom == pb.src.dom, (a, b)
            assert fx.dom.labels == pb.src.dom.labels, (a, b)
            # FiniteRack == ignores labels, so the base must be a's own
            assert fx.cod.labels == xmods[a].cod.labels, (a, b)
            assert fx.boundary == compose_homs(pb.src.boundary, xmods[b].boundary), (a, b)
            assert fx.boundary == compose_homs(pb.f1, xmods[a].boundary), (a, b)


def test_criterion_03_pullbacks_are_crossed_modules():
    with criterion(3, "pullbacks validate and sit over the fiber product"):
        instances = corpus.pullback_instances()
        assert len(instances) >= 20
        for name, xm, phi in instances:
            pb = pullback_xmod(xm, phi)
            revalidate_rack_xmod(pb.src)
            proj1, proj2 = fiber_product(xm.boundary, phi)
            pairs = tuple(zip(pb.f1.map, pb.src.boundary.map))
            assert pairs == tuple(zip(proj1.map, proj2.map)), name
            assert pb.src.dom.table == proj1.dom.table, name
            for i in range(pb.src.dom.size):
                assert (
                    phi.map[pb.src.boundary.map[i]]
                    == xm.boundary.map[pb.f1.map[i]]
                ), name


def test_criterion_04_universal_property_holds_everywhere():
    with criterion(4, "universal property: exactly one factorization"):
        for name, xm, phi in corpus.pullback_instances():
            pb = pullback_xmod(xm, phi)
            cert = verify_universal_property(pb, pb)
            assert cert.mediating == identity_xmod_morphism(pb.src), name
        # the basepoint module of CZ2 pulled back along the parity hom:
        # the carrier is the three even permutations
        r = corpus.racks()
        pb = pullback_xmod(
            inclusion_xmod([0], r["cz2"]), corpus.rack_homs()["sgn_rack"]
        )
        assert pb.src.dom.size == 3
        evens = substructure(r["cs3"], [0, 3, 4]).dom
        assert evens.labels == ("e", "(123)", "(132)")
        assert find_isomorphism(pb.src.dom, evens) is not None
        cert = verify_universal_property(pb, pb)
        assert cert.mediating == identity_xmod_morphism(pb.src)


def test_criterion_05_preimages_are_normal_subracks(preimage_cases):
    with criterion(5, "pullback of an inclusion is the preimage subrack"):
        assert len(preimage_cases) == 36
        for name, subset, base, phi in preimage_cases:
            pb = pullback_xmod(inclusion_xmod(subset, base), phi)
            members = set(subset)
            preimage = [s for s in phi.dom.elements() if phi.map[s] in members]
            sub = substructure(phi.dom, preimage).dom
            assert find_isomorphism(pb.src.dom, sub) is not None, name
            assert is_normal_subrack(preimage, phi.dom).ok, name


def test_criterion_06_full_base_pullback_is_the_graph():
    with criterion(6, "pulling back the whole base gives the graph"):
        xm = corpus.rack_xmods()["identity_cz2"]
        phi = corpus.rack_homs()["sgn_rack"]
        pb = pullback_xmod(xm, phi)
        # one carrier point per element of the domain of phi: the graph
        # {(phi(s), s)}, not the 12-element full product
        assert pb.src.dom.size == phi.dom.size == 6
        assert pb.src.dom.size != xm.dom.size * phi.dom.size
        pairs = tuple(zip(pb.f1.map, pb.src.boundary.map))
        assert pairs == tuple(sorted((phi.map[s], s) for s in phi.dom.elements()))
        iso = find_isomorphism(pb.src.dom, phi.dom)
        assert iso is not None and iso.map == (0, 3, 4, 1, 2, 5)


def test_criterion_07_hom_sets_match_presented_assignments(adjunction_pairs, shared_leaves):
    with criterion(7, "rack homs into conj = relator-killing assignments"):
        assert len(adjunction_pairs) == 16
        for name, x, g in adjunction_pairs:
            homs = shared_leaves(check_adjunction_bijection, x, g)
            assert len(set(homs)) == len(homs), name
        t2, s3 = corpus.racks()["t2"], corpus.groups()["s3"]
        assert shared_leaves(check_adjunction_bijection, t2, s3) == tuple((0, v) for v in range(6))


def test_criterion_08_crossed_module_adjunction(xmod_adjunction_pairs, shared_leaves):
    with criterion(8, "module morphisms match presented assignment pairs"):
        assert len(xmod_adjunction_pairs) == 156
        counts = {}
        for name, x, g in xmod_adjunction_pairs:
            found = shared_leaves(check_xmod_adjunction, x, g)
            assert len(set(found)) == len(found), name
            counts[name] = len(found)
        assert counts["a3r_cs3/a3_s3"] == 18
        assert sum(counts.values()) == 1220


def test_criterion_09_conjugation_preserves_pullbacks():
    with criterion(9, "conj of a group pullback = rack pullback of conj"):
        instances = corpus.conj_preservation_instances()
        assert len(instances) >= 5
        names = [name for name, _, _ in instances]
        assert "a3_s3_along_z3" in names and "triv_z2_along_sgn" in names
        for name, source, phi in instances:
            m = check_conj_preserves_pullback(source, phi)
            # re-validate the exhibited isomorphism and its inverse from raw maps
            f1 = validate_hom(m.f1.dom, m.f1.cod, m.f1.map)
            f0 = validate_hom(m.f0.dom, m.f0.cod, m.f0.map)
            validate_xmod_morphism(f1, f0, m.src, m.dst)
            assert sorted(m.f1.map) == list(range(m.src.dom.size)), name
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
                m.dst,
                m.src,
            )


def test_criterion_10_functor_laws(functor_law_cases):
    with criterion(10, "pullback and conj act functorially on morphisms"):
        kinds = Counter(type(phi.dom).__name__ for _, _, _, phi in functor_law_cases)
        assert kinds == {"FiniteRack": 252, "FiniteGroup": 82}
        for name, m1, m2, phi in functor_law_cases:
            lifted_id = pullback_on_morphisms(identity_xmod_morphism(m1.src), phi)
            assert lifted_id.f1.map == tuple(range(len(lifted_id.f1.map))), name
            both = compose_xmod_morphisms(
                pullback_on_morphisms(m1, phi), pullback_on_morphisms(m2, phi)
            )
            composite = pullback_on_morphisms(compose_xmod_morphisms(m1, m2), phi)
            assert both.f1.map == composite.f1.map, name
            assert both.f0.map == composite.f0.map, name
        group_xmods = corpus.group_xmods().values()
        conjugated = 0
        for x in group_xmods:
            for y in group_xmods:
                for gm in enumerate_xmod_morphisms(x, y):
                    rm = conj_xmod_morphism(gm)
                    assert (rm.f1.map, rm.f0.map) == (gm.f1.map, gm.f0.map)
                    conjugated += 1
        assert conjugated == 378


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
            fast = enumerate_homs(x, y)
            slow = enumerate_homs_bruteforce(x, y)
            assert fast == slow
            done += 1
        # group homs through the same search and the same oracle
        group_homs = 0
        for x in corpus.groups().values():
            for y in corpus.groups().values():
                fast = enumerate_homs(x, y)
                assert fast == enumerate_homs_bruteforce(x, y)
                group_homs += len(fast)
        assert group_homs == 94
