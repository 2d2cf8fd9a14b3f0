"""Fiber products and pullbacks of crossed modules, with exhaustive certification.

Given a crossed module d: P -> R and a hom phi: S -> R, of racks or of
groups, the pullback crossed module lives on the fiber product carrier
{(p, s) : d(p) = phi(s)}, has boundary (p, s) -> s, and carries the action
(p, s) . s' = (p . phi(s'), s ◁ s'), where s ◁ s' is s'^-1 s s' for
groups.  One fiber product, one pullback body and one crossed-module
validator serve both sides; only the law families differ.  The universal
property is certified here by counting the set maps into the carrier that
make a morphism factor, which must leave exactly one; maps that fail a
one-coordinate condition are never generated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AxiomError,
    ConstructionFail,
    NoIsomorphismFound,
    NotAMorphism,
    UniquenessFail,
)
from .groups import FiniteGroup
from .racks import _self_action, _validator
from .search import assignments, hom_search, morphism_search
from .tables import FiniteStructure, Hom, identity_hom, validate_hom
from .xmod import (
    XMod,
    XModMorphism,
    conj_xmod,
    validate_xmod,
    validate_xmod_morphism,
)


# ---------------------------------------------------------------- fiber products


@dataclass(frozen=True)
class FiberProduct:
    carrier: FiniteStructure
    pairs: tuple[tuple[int, int], ...]
    proj1: Hom
    proj2: Hom


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


def fiber_product(alpha: Hom, beta: Hom) -> FiberProduct:
    """Subrack, or subgroup, of the product on {(p, s) : alpha(p) = beta(s)}.

    alpha and beta are both rack homs or both group homs; the carrier is
    validated as a rack or as a group accordingly.  Pairs are listed in
    lexicographic order; the equalizer property alpha . proj1 = beta . proj2
    holds by construction and is re-checked.
    """
    if alpha.cod != beta.cod:
        raise ValueError("homs do not share a codomain")
    p_x, s_x, a, b = alpha.dom, beta.dom, alpha.map, beta.map
    pairs = tuple((p, s) for p in p_x.elements() for s in s_x.elements() if a[p] == b[s])
    bp_pair = (p_x.basepoint, s_x.basepoint)
    if bp_pair not in pairs:
        raise ValueError("fiber product does not contain the pair of basepoints")
    table = _pair_table(
        "fiber product is not closed", pairs, pairs, pairs,
        [[(p_x.table[p][pp], s_x.table[s][sp]) for pp, sp in pairs] for p, s in pairs],
    )
    labels = [f"({p_x.label(p)},{s_x.label(s)})" for p, s in pairs]
    carrier = _validator(p_x)(table, pairs.index(bp_pair), labels=labels)
    proj1 = validate_hom(carrier, p_x, [p for p, _ in pairs])
    proj2 = validate_hom(carrier, s_x, [s for _, s in pairs])
    for i in range(carrier.size):
        if a[proj1.map[i]] != b[proj2.map[i]]:
            raise ConstructionFail("equalizer property failed", (i,))
    return FiberProduct(carrier, pairs, proj1, proj2)


def fiber_product_xmod(a: XMod, b: XMod) -> XMod:
    """Fiber product of two crossed modules of racks over the same base rack.

    Boundary (p, s) -> d_a(p) and the diagonal action (p, s).r = (p.r, s.r).
    """
    if isinstance(a.cod, FiniteGroup):
        raise ValueError("fiber products of crossed modules need crossed modules of racks")
    if a.cod != b.cod:
        raise ValueError("crossed modules are not over the same rack")
    fp = fiber_product(a.boundary, b.boundary)
    boundary = validate_hom(fp.carrier, a.cod, [a.boundary.map[p] for p, _ in fp.pairs])
    cols = [(r,) for r in a.cod.elements()]
    table = _pair_table(
        "diagonal action escapes the carrier", fp.pairs, fp.pairs, cols,
        [[(a.act(p, r), b.act(s, r)) for (r,) in cols] for p, s in fp.pairs],
    )
    return validate_xmod(boundary, table)


# ---------------------------------------------------------------- pullbacks


@dataclass(frozen=True)
class PullbackXMod:
    """The pullback of a crossed module of racks or of groups along phi."""

    xmod: XMod
    phi_prime: Hom
    source: XMod
    phi: Hom
    pairs: tuple[tuple[int, int], ...]

    @property
    def carrier(self) -> FiniteStructure:
        return self.xmod.dom


def pullback_xmod(source: XMod, phi: Hom) -> PullbackXMod:
    """Pull a crossed module d: P -> R of racks or of groups back along phi: S -> R.

    The carrier is exactly the fiber product of d and phi, with boundary
    (p, s) -> s and the first projection as the comparison hom back to P.
    Both crossed-module laws, with the action laws for racks, are verified
    exhaustively on the result by ``validate_xmod``, and the
    commuting square phi . boundary = d . phi_prime is re-checked.
    """
    if phi.cod != source.cod:
        raise ValueError("hom does not land in the base of the crossed module")
    fp = fiber_product(source.boundary, phi)
    s_x = phi.dom
    s_op = _self_action(s_x)
    cols = [(sp,) for sp in s_x.elements()]
    table = _pair_table(
        "pullback action escapes the carrier", fp.pairs, fp.pairs, cols,
        [[(source.act(p, phi.map[sp]), s_op(s, sp)) for (sp,) in cols] for p, s in fp.pairs],
    )
    xmod = validate_xmod(fp.proj2, table)
    d, boundary, proj = source.boundary.map, xmod.boundary.map, fp.proj1.map
    for i in range(len(fp.pairs)):
        if phi.map[boundary[i]] != d[proj[i]]:
            raise ConstructionFail("pullback square does not commute", (i,))
    return PullbackXMod(xmod, fp.proj1, source, phi, fp.pairs)


# ---------------------------------------------------------------- universal property


def mediating_morphism(pb: PullbackXMod, f: Hom, mu_xmod: XMod) -> XModMorphism:
    """The canonical factorization x -> (f(x), mu(x)) through the pullback.

    (f, pb.phi) must be a morphism from mu_xmod to the pulled-back crossed
    module's source; the result pairs with the identity on the base.
    """
    x_dom = mu_xmod.dom
    if mu_xmod.cod != pb.phi.dom:
        raise ValueError("test crossed module is not over the base of the pullback")
    if f.dom != x_dom or f.cod != pb.source.dom:
        raise ValueError("f endpoints do not match the pullback data")
    try:
        validate_xmod_morphism(f, pb.phi, mu_xmod, pb.source)
    except AxiomError as exc:
        raise NotAMorphism(exc) from exc
    mu, cols = mu_xmod.boundary.map, [(x,) for x in x_dom.elements()]
    (star,) = _pair_table(
        "image escapes the carrier despite the morphism laws", pb.pairs, [()], cols,
        [[(f.map[x], mu[x]) for (x,) in cols]],
    )
    f_star = validate_hom(x_dom, pb.carrier, star)
    med = validate_xmod_morphism(f_star, identity_hom(mu_xmod.cod), mu_xmod, pb.xmod)
    for x in x_dom.elements():
        if pb.phi_prime.map[star[x]] != f.map[x]:
            raise ConstructionFail("mediating map does not lift f", (x,))
    return med


@dataclass(frozen=True)
class UniversalityCertificate:
    mediating: XModMorphism
    satisfying_count: int
    search_space: int


def verify_universal_property(
    pb: PullbackXMod, f: Hom, mu_xmod: XMod
) -> UniversalityCertificate:
    """Decide the universal property over every set map into the carrier.

    Counts maps h (homomorphism or not) for which (h, id) is a morphism
    from mu_xmod to the pullback with phi_prime . h = f.  Exactly one must
    survive, and it must be the canonical mediating morphism.  The
    projection condition reads one coordinate h[x], so one ``assignments``
    search, built by ``morphism_search`` over ``hom_search``es, sets the
    base map to id and then h, each coordinate of h ranging over the
    ascending values the projection allows, or over the one allowed value a
    hom law forces.  ``hom_search`` pins the basepoint and tests each hom
    law, and ``morphism_search`` each boundary and action square, once its
    last coordinate is set: the search yields exactly the maps of the full
    product that pass all five conditions, in the same order.
    ``search_space`` is the number of all set maps, carrier size to the
    power of the test carrier's.
    """
    med = mediating_morphism(pb, f, mu_xmod)
    x_dom, s_x, n, ns = mu_xmod.dom, mu_xmod.cod, mu_xmod.dom.size, mu_xmod.cod.size
    proj, fmap = pb.phi_prime.map, f.map
    allowed = [[v for v in pb.carrier.elements() if proj[v] == fmap[x]] for x in range(n)]
    search = morphism_search(
        mu_xmod,
        pb.xmod,
        lambda *v: hom_search(x_dom, pb.carrier, *v, allowed),
        lambda *v: hom_search(s_x, s_x, *v, [(s,) for s in s_x.elements()]),
    )
    satisfying = [h[ns:] for h in assignments(*search)]
    if len(satisfying) != 1:
        raise UniquenessFail(len(satisfying), tuple(satisfying))
    if satisfying[0] != med.f1.map:
        raise ConstructionFail("the one factorization is not the mediating map", satisfying[0])
    return UniversalityCertificate(med, 1, pb.carrier.size**n)


def pullback_on_morphisms(m: XModMorphism, phi: Hom) -> XModMorphism:
    """Functorial action on a morphism over a fixed base: (p, s) -> (g(p), s)."""
    base = m.src.cod
    if m.dst.cod != base or m.f0.map != tuple(range(base.size)):
        raise ValueError("morphism must fix the base rack")
    if phi.cod != base:
        raise ValueError("hom does not land in the base rack")
    pb_src = pullback_xmod(m.src, phi)
    pb_dst = pullback_xmod(m.dst, phi)
    (mapped,) = _pair_table(
        "image escapes the carrier despite the morphism laws", pb_dst.pairs, [()], pb_src.pairs,
        [[(m.f1.map[p], s) for p, s in pb_src.pairs]],
    )
    f1 = validate_hom(pb_src.carrier, pb_dst.carrier, mapped)
    return validate_xmod_morphism(f1, identity_hom(phi.dom), pb_src.xmod, pb_dst.xmod)


# ---------------------------------------------------------------- conjugation vs pullback


def check_conj_preserves_pullback(source: XMod, phi: Hom) -> XModMorphism:
    """Compare conjugation-then-pullback against pullback-then-conjugation.

    Conjugation keeps elements, so both crossed modules of racks live on
    fiber pairs (p, s) over the same base Conj S.  The canonical comparison
    sends each pair to itself, read off the two pair lists by pair, and is
    the identity on Conj S.  Each pair list must hold every pair of the
    other, so the comparison is bijective; validated as a pair of rack homs
    and as a crossed-module morphism, it is then an isomorphism, and
    conjugation preserves this pullback.  Returns the comparison, from
    Conj(phi*source) to (Conj phi)*(Conj source).  Each conjugation rack is
    built once: Conj phi is validated between the bases of the two
    conjugated crossed modules.
    """
    gp = pullback_xmod(source, phi)
    conj_side = conj_xmod(gp.xmod)
    conj_source = conj_xmod(source)
    rp = pullback_xmod(conj_source, validate_hom(conj_side.cod, conj_source.cod, phi.map))
    rack_side = rp.xmod
    try:
        (f1,) = _pair_table("the rack pullback lacks a pair", rp.pairs, [()], gp.pairs, [gp.pairs])
        _pair_table("the group pullback lacks a pair", gp.pairs, [()], rp.pairs, [rp.pairs])
        return validate_xmod_morphism(
            validate_hom(conj_side.dom, rack_side.dom, f1),
            validate_hom(conj_side.cod, rack_side.cod, conj_side.cod.elements()),
            conj_side,
            rack_side,
        )
    except (AxiomError, ValueError) as exc:
        raise NoIsomorphismFound(
            "the canonical comparison (p, s) -> (p, s) from the conjugation of the group "
            f"pullback to the rack pullback of the conjugation is not an isomorphism: {exc}"
        ) from exc
