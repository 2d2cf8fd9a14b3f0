"""Fiber products and pullbacks of crossed modules, with exhaustive certification.

Given a crossed module d: P -> R and a hom phi: S -> R, of racks or of
groups, the pullback crossed module lives on the fiber product carrier
{(p, s) : d(p) = phi(s)}, has boundary (p, s) -> s, and carries the action
(p, s) . s' = (p . phi(s'), s ◁ s'), where s ◁ s' is s'^-1 s s' for
groups.  One fiber product, one construction body and one crossed-module
validator serve both kinds; only the law families differ.  The body pulls
d back along a crossed module B over a hom psi into R: the pullback is the
case of S acting on itself over psi = phi, and the fiber product of two
crossed modules over R the case psi = id_R.  The pullback is returned as
its crossed-module morphism back to the source, (p, s) -> p over phi, and
a fiber product of homs as its two projections; the pairs (p, s) are read
off those maps, never stored beside them.  Every map into a pullback, the
pullback on morphisms and the Conj comparison included, is the mediating
morphism of a cone.  The universal property is certified here by counting
the set maps into the carrier that make a cone factor, which must leave
exactly one; maps that fail a one-coordinate condition are never
generated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import AxiomError, ConstructionFail, NoIsomorphismFound, UniquenessFail
from .racks import _self_action, _validator
from .search import assignments, hom_search, law_domains, morphism_search
from .tables import Hom, compose_homs, identity_hom, validate_hom
from .xmod import (
    XMod,
    XModMorphism,
    compose_xmod_morphisms,
    conj_xmod_morphism,
    validate_xmod,
    validate_xmod_morphism,
)


# ---------------------------------------------------------------- fiber products


def _pair_table(what: str, pairs, rows, cols, targets) -> list[list[int]]:
    """``targets`` with each pair replaced by its index in ``pairs``.

    targets[i][j] is the image of the tuples rows[i] and cols[j]; the first
    image, in row-major order, that is not one of the pairs raises
    ConstructionFail(what, rows[i] + cols[j]).
    """
    pos = {pair: i for i, pair in enumerate(pairs)}
    for r, row in zip(rows, targets):
        for c, target in zip(cols, row):
            if target not in pos:
                raise ConstructionFail(what, (*r, *c))
    return [[pos[target] for target in row] for row in targets]


def _pairs(pb: XModMorphism) -> list[tuple[int, int]]:
    """The carrier of the pullback ``pb`` as its pairs (p, s), read off the
    first projection and the boundary."""
    return list(zip(pb.f1.map, pb.src.boundary.map))


def fiber_product(alpha: Hom, beta: Hom) -> tuple[Hom, Hom]:
    """The two projections of the subrack, or subgroup, of the product on
    {(p, s) : alpha(p) = beta(s)}.

    alpha and beta are both rack homs or both group homs; the carrier is
    validated as a rack or as a group accordingly.  Pairs are listed in
    lexicographic order; the equalizer property alpha . proj1 = beta . proj2
    holds by construction and is re-checked.
    """
    if alpha.cod != beta.cod:
        raise ValueError("homs do not share a codomain")
    p_x, s_x, a, b = alpha.dom, beta.dom, alpha.map, beta.map
    pairs = [(p, s) for p in p_x.elements() for s in s_x.elements() if a[p] == b[s]]
    bp_pair = (p_x.basepoint, s_x.basepoint)
    if bp_pair not in pairs:
        raise ValueError("fiber product does not contain the pair of basepoints")
    table = _pair_table(
        "fiber product is not closed", pairs, pairs, pairs,
        [[(p_x.table[p][pp], s_x.table[s][sp]) for pp, sp in pairs] for p, s in pairs],
    )
    labels = [f"({p_x.label(p)},{s_x.label(s)})" for p, s in pairs]
    carrier = _validator(p_x)(table, pairs.index(bp_pair), labels=labels)
    firsts, seconds = zip(*pairs)
    proj1 = validate_hom(carrier, p_x, firsts)
    proj2 = validate_hom(carrier, s_x, seconds)
    for i in range(carrier.size):
        if a[proj1.map[i]] != b[proj2.map[i]]:
            raise ConstructionFail("equalizer property failed", (i,))
    return proj1, proj2


# ---------------------------------------------------------------- pullbacks


def _pull_back(source: XMod, psi: Hom, boundary: Hom, act) -> XModMorphism:
    """Pull d: P -> R back along a crossed module B over a hom psi: S -> R.

    B is given by its boundary d_B: Q -> S and its action ``act``.  The
    pullback lives on the fiber product of d and psi . d_B, over S, with
    boundary (p, q) -> d_B(q) and action (p, q).s = (p.psi(s), q.s): the
    limit of source -> I(R) <- B, where I is ``identity_xmod``, the left leg
    is (d, id) and the right one is fixed by psi.  Returns the validated
    morphism (proj1, psi) back to source.
    """
    proj1, proj2 = fiber_product(source.boundary, compose_homs(boundary, psi))
    pairs = list(zip(proj1.map, proj2.map))
    cols = [(s,) for s in psi.dom.elements()]
    table = _pair_table(
        "pullback action escapes the carrier", pairs, pairs, cols,
        [[(source.act(p, psi.map[s]), act(q, s)) for (s,) in cols] for p, q in pairs],
    )
    xmod = validate_xmod(compose_homs(proj2, boundary), table)
    try:
        return validate_xmod_morphism(proj1, psi, xmod, source)
    except AxiomError as exc:
        raise ConstructionFail("pullback square does not commute", exc.witness) from exc


def fiber_product_xmod(a: XMod, b: XMod) -> XMod:
    """Fiber product of two crossed modules, of racks or of groups, over one base R.

    The pullback of a along b over id_R: boundary (p, q) -> d_b(q), which is
    d_a(p), and the diagonal action (p, q).r = (p.r, q.r).  The base is
    a's own, labels included.
    """
    if a.cod != b.cod:
        raise ValueError("crossed modules are not over the same base")
    boundary = validate_hom(b.dom, a.cod, b.boundary.map)
    return _pull_back(a, identity_hom(a.cod), boundary, b.act).src


def pullback_xmod(source: XMod, phi: Hom) -> XModMorphism:
    """Pull a crossed module d: P -> R of racks or of groups back along phi: S -> R.

    Returns the crossed-module morphism phi*source -> source: ``src`` is the
    pullback crossed module, on exactly the fiber product of d and phi with
    boundary (p, s) -> s, ``f1`` the first projection (p, s) -> p, ``f0`` is
    phi and ``dst`` is source.  Both crossed-module laws, with the action
    laws for racks, are verified exhaustively on the pullback by
    ``validate_xmod``, and the commuting squares by
    ``validate_xmod_morphism``.
    """
    if phi.cod != source.cod:
        raise ValueError("hom does not land in the base of the crossed module")
    return _pull_back(source, phi, identity_hom(phi.dom), _self_action(phi.dom))


# ---------------------------------------------------------------- universal property


def mediating_morphism(pb: XModMorphism, cone: XModMorphism) -> XModMorphism:
    """The canonical factorization x -> (f(x), mu(x)) of a cone through the pullback.

    ``pb`` is a pullback from ``pullback_xmod``, and ``cone`` a crossed-module
    morphism (f, phi) from a test crossed module mu: X -> S into ``pb.dst``
    over ``pb.f0`` = phi; the result pairs with the identity on S.
    """
    if cone.dst != pb.dst or cone.f0 != pb.f0:
        raise ValueError("the cone does not end in the pullback's source over its hom")
    mu_xmod, f = cone.src, cone.f1
    x_dom = mu_xmod.dom
    mu, cols = mu_xmod.boundary.map, [(x,) for x in x_dom.elements()]
    (star,) = _pair_table(
        "image escapes the carrier despite the morphism laws", _pairs(pb), [()], cols,
        [[(f.map[x], mu[x]) for (x,) in cols]],
    )
    f_star = validate_hom(x_dom, pb.src.dom, star)
    med = validate_xmod_morphism(f_star, identity_hom(mu_xmod.cod), mu_xmod, pb.src)
    for x in x_dom.elements():
        if pb.f1.map[star[x]] != f.map[x]:
            raise ConstructionFail("mediating map does not lift f", (x,))
    return med


@dataclass(frozen=True)
class UniversalityCertificate:
    mediating: XModMorphism
    search_space: int


def verify_universal_property(pb: XModMorphism, cone: XModMorphism) -> UniversalityCertificate:
    """Decide the universal property over every set map into the carrier.

    Counts maps h (homomorphism or not) for which (h, id) is a morphism
    from the cone's source to the pullback with pb.f1 . h = cone.f1.
    Exactly one must survive, and it must be the canonical mediating
    morphism.  The projection condition reads one coordinate h[x], so one
    ``assignments`` search, built by ``morphism_search``, sets the base map
    to id and then h, each coordinate of h ranging over the ascending values
    the projection allows.  Each base coordinate s has the one-value domain
    {s} (``law_domains`` with no laws): id is a hom of the validated base,
    so filing the base's hom laws would reject nothing.  ``hom_search``
    pins the basepoint and files each hom law of h, and ``morphism_search``
    each boundary and action square, as a mask at its last coordinate.
    Every domain is a ``Masked``, and a coordinate tries only the values
    its masks keep, so the search yields exactly the maps of the full
    product that pass all five conditions, in the same order.
    ``search_space`` is the number of all set maps, carrier size to the
    power of the test carrier's.
    """
    med = mediating_morphism(pb, cone)
    mu_xmod, carrier = cone.src, pb.src.dom
    x_dom, s_x, n, ns = mu_xmod.dom, mu_xmod.cod, mu_xmod.dom.size, mu_xmod.cod.size
    proj, fmap = pb.f1.map, cone.f1.map
    allowed = [[v for v in carrier.elements() if proj[v] == fmap[x]] for x in range(n)]
    search = morphism_search(
        mu_xmod,
        pb.src,
        lambda *v: hom_search(x_dom, carrier, *v, allowed),
        lambda var, nvars: law_domains([1 << s for s in var] + [None] * n, ()),
    )
    satisfying = [h[ns:] for h in assignments(search)]
    if len(satisfying) != 1:
        raise UniquenessFail(len(satisfying), tuple(satisfying))
    if satisfying[0] != med.f1.map:
        raise ConstructionFail("the one factorization is not the mediating map", satisfying[0])
    return UniversalityCertificate(med, carrier.size**n)


def pullback_on_morphisms(m: XModMorphism, phi: Hom) -> XModMorphism:
    """Functorial action on a morphism over a fixed base: (p, s) -> (g(p), s),
    the mediating morphism of the cone phi*m.src -> m.src -> m.dst."""
    if m.f0 != identity_hom(m.src.cod):
        raise ValueError("morphism must fix the base rack")
    return mediating_morphism(
        pullback_xmod(m.dst, phi), compose_xmod_morphisms(pullback_xmod(m.src, phi), m)
    )


# ---------------------------------------------------------------- conjugation vs pullback


def check_conj_preserves_pullback(source: XMod, phi: Hom) -> XModMorphism:
    """Compare conjugation-then-pullback against pullback-then-conjugation.

    Conj of the group pullback phi*source -> source is a cone over the rack
    pullback (Conj phi)*(Conj source), both on fiber pairs (p, s) over the
    same base Conj S, and the canonical comparison is its mediating
    morphism, each pair to itself and the identity on Conj S.  The rack
    pullback must hold no pair the group pullback lacks, so the comparison
    is bijective, and being a crossed-module morphism it is then an
    isomorphism: conjugation preserves this pullback.  Returns the
    comparison, from Conj(phi*source) to (Conj phi)*(Conj source).  Each
    conjugation rack is built once, by ``conj_xmod_morphism``.
    """
    gp = pullback_xmod(source, phi)
    try:
        cone = conj_xmod_morphism(gp)
        rp = pullback_xmod(cone.dst, cone.f0)
        comparison = mediating_morphism(rp, cone)
        rp_pairs = _pairs(rp)
        _pair_table("the group pullback lacks a pair", _pairs(gp), [()], rp_pairs, [rp_pairs])
        return comparison
    except AxiomError as exc:
        raise NoIsomorphismFound(
            "the canonical comparison (p, s) -> (p, s) from the conjugation of the group "
            f"pullback to the rack pullback of the conjugation is not an isomorphism: {exc}"
        ) from exc
