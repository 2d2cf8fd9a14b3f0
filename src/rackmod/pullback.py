"""Fiber products and pullbacks of crossed modules, with exhaustive certification.

Given a crossed module d: P -> R and a pointed rack hom phi: S -> R, the
pullback crossed module lives on the fiber product carrier
{(p, s) : d(p) = phi(s)}, has boundary (p, s) -> s, and carries the action
(p, s) . s' = (p . phi(s'), s ◁ s').  Its universal property is certified
here by counting the set maps into the carrier that make a morphism factor,
which must leave exactly one; maps that fail a one-coordinate condition are
never generated.  Group pullbacks have their own construction but share the
result type, the mediating morphism and the certification with the rack
side.
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
from .groups import validate_group
from .racks import FiniteRack, conj_hom, validate_rack
from .search import assignments, hom_laws, laws_hold, squares_hold, xmod_squares
from .tables import FiniteStructure, Hom, identity_hom, validate_hom
from .xmod import (
    GroupXMod,
    RackXMod,
    XModMorphism,
    conj_xmod,
    find_xmod_isomorphism,
    validate_action,
    validate_group_xmod,
    validate_rack_xmod,
    validate_xmod_morphism,
)


# ---------------------------------------------------------------- fiber products


@dataclass(frozen=True)
class FiberProduct:
    carrier: FiniteRack
    pairs: tuple[tuple[int, int], ...]
    proj1: Hom
    proj2: Hom


def _fiber_pairs(alpha: Hom, beta: Hom) -> tuple[tuple[int, int], ...]:
    """{(p, s) : alpha(p) = beta(s)} in lexicographic order."""
    a, b = alpha.map, beta.map
    return tuple(
        (p, s)
        for p in alpha.dom.elements()
        for s in beta.dom.elements()
        if a[p] == b[s]
    )


def fiber_product(alpha: Hom, beta: Hom) -> FiberProduct:
    """Subrack of the product on {(p, s) : alpha(p) = beta(s)}.

    Pairs are listed in lexicographic order; the equalizer property
    alpha . proj1 = beta . proj2 holds by construction and is re-checked.
    """
    if alpha.cod != beta.cod:
        raise ValueError("homs do not share a codomain")
    p_rack, s_rack = alpha.dom, beta.dom
    pairs = _fiber_pairs(alpha, beta)
    pos = {pair: i for i, pair in enumerate(pairs)}
    bp_pair = (p_rack.basepoint, s_rack.basepoint)
    if bp_pair not in pos:
        raise ValueError("fiber product does not contain the pair of basepoints")
    table = []
    for p, s in pairs:
        row = []
        for pp, sp in pairs:
            target = (p_rack.table[p][pp], s_rack.table[s][sp])
            if target not in pos:
                raise ConstructionFail("fiber product is not closed", (p, s, pp, sp))
            row.append(pos[target])
        table.append(row)
    labels = [f"({p_rack.label(p)},{s_rack.label(s)})" for p, s in pairs]
    carrier = validate_rack(table, pos[bp_pair], labels=labels)
    proj1 = validate_hom(carrier, p_rack, [p for p, _ in pairs])
    proj2 = validate_hom(carrier, s_rack, [s for _, s in pairs])
    for i in range(carrier.size):
        if alpha.map[proj1.map[i]] != beta.map[proj2.map[i]]:
            raise ConstructionFail("equalizer property failed", (i,))
    return FiberProduct(carrier, pairs, proj1, proj2)


def fiber_product_xmod(a: RackXMod, b: RackXMod) -> RackXMod:
    """Fiber product of two crossed modules over the same base rack.

    Boundary (p, s) -> d_a(p) and the diagonal action (p, s).r = (p.r, s.r).
    """
    if a.cod != b.cod:
        raise ValueError("crossed modules are not over the same rack")
    fp = fiber_product(a.boundary, b.boundary)
    r_rack = a.cod
    boundary = validate_hom(
        fp.carrier, r_rack, [a.boundary.map[p] for p, _ in fp.pairs]
    )
    pos = {pair: i for i, pair in enumerate(fp.pairs)}
    table = []
    for p, s in fp.pairs:
        row = []
        for r in r_rack.elements():
            target = (a.act(p, r), b.act(s, r))
            if target not in pos:
                raise ConstructionFail("diagonal action escapes the carrier", (p, s, r))
            row.append(pos[target])
        table.append(row)
    action = validate_action(table, fp.carrier, r_rack)
    return validate_rack_xmod(boundary, action)


# ---------------------------------------------------------------- pullbacks


@dataclass(frozen=True)
class PullbackXMod:
    """The pullback of a crossed module of racks or of groups along phi."""

    xmod: RackXMod | GroupXMod
    phi_prime: Hom
    source: RackXMod | GroupXMod
    phi: Hom
    pairs: tuple[tuple[int, int], ...]

    @property
    def carrier(self) -> FiniteStructure:
        return self.xmod.dom


def _square_checked(pb: PullbackXMod) -> PullbackXMod:
    """Re-check the commuting square phi . boundary = d . phi_prime."""
    phi, d = pb.phi.map, pb.source.boundary.map
    boundary, proj = pb.xmod.boundary.map, pb.phi_prime.map
    for i in range(len(pb.pairs)):
        if phi[boundary[i]] != d[proj[i]]:
            raise ConstructionFail("pullback square does not commute", (i,))
    return pb


def pullback_xmod(source: RackXMod, phi: Hom) -> PullbackXMod:
    """Pull a crossed module d: P -> R back along phi: S -> R.

    The carrier is exactly the fiber product of d and phi; the boundary is
    the second projection and the first projection is the comparison hom
    back to P.  Both crossed-module laws, the action laws, and the
    commuting square phi . boundary = d . phi_prime are verified
    exhaustively on the result.
    """
    if phi.cod != source.cod:
        raise ValueError("hom does not land in the base of the crossed module")
    fp = fiber_product(source.boundary, phi)
    s_rack = phi.dom
    pos = {pair: i for i, pair in enumerate(fp.pairs)}
    table = []
    for p, s in fp.pairs:
        row = []
        for sp in s_rack.elements():
            target = (source.act(p, phi.map[sp]), s_rack.table[s][sp])
            if target not in pos:
                raise ConstructionFail("pullback action escapes the carrier", (p, s, sp))
            row.append(pos[target])
        table.append(row)
    action = validate_action(table, fp.carrier, s_rack)
    xmod = validate_rack_xmod(fp.proj2, action)
    return _square_checked(PullbackXMod(xmod, fp.proj1, source, phi, fp.pairs))


def group_pullback_xmod(source: GroupXMod, phi: Hom) -> PullbackXMod:
    """Group-side pullback on {(m, s) : d(m) = phi(s)}.

    Boundary (m, s) -> s and action (m, s).s' = (m.phi(s'), s'^-1 s s').
    """
    if phi.cod != source.cod:
        raise ValueError("hom does not land in the base of the crossed module")
    m_grp, s_grp = source.dom, phi.dom
    pairs = _fiber_pairs(source.boundary, phi)
    pos = {pair: i for i, pair in enumerate(pairs)}
    ident_pair = (m_grp.identity, s_grp.identity)
    mul = [
        [pos[(m_grp.mul[m][mp], s_grp.mul[s][sp])] for mp, sp in pairs]
        for m, s in pairs
    ]
    labels = [f"({m_grp.label(m)},{s_grp.label(s)})" for m, s in pairs]
    carrier = validate_group(mul, pos[ident_pair], labels=labels)
    boundary = validate_hom(carrier, s_grp, [s for _, s in pairs])
    action = [
        [pos[(source.act(m, phi.map[sp]), s_grp.conj(s, sp))] for sp in s_grp.elements()]
        for m, s in pairs
    ]
    xmod = validate_group_xmod(boundary, action)
    phi_prime = validate_hom(carrier, m_grp, [m for m, _ in pairs])
    return _square_checked(PullbackXMod(xmod, phi_prime, source, phi, pairs))


# ---------------------------------------------------------------- universal property


def mediating_morphism(pb: PullbackXMod, f: Hom, mu_xmod: RackXMod | GroupXMod) -> XModMorphism:
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
    pos = {pair: i for i, pair in enumerate(pb.pairs)}
    mu = mu_xmod.boundary.map
    star = []
    for x in x_dom.elements():
        pair = (f.map[x], mu[x])
        if pair not in pos:
            raise ConstructionFail("image escapes the carrier despite the morphism laws", (x,))
        star.append(pos[pair])
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
    pb: PullbackXMod, f: Hom, mu_xmod: RackXMod | GroupXMod
) -> UniversalityCertificate:
    """Decide the universal property over every set map into the carrier.

    Counts maps h (homomorphism or not) for which (h, id) is a morphism
    from mu_xmod to the pullback with phi_prime . h = f.  Exactly one must
    survive, and it must be the canonical mediating morphism.  The
    basepoint and projection conditions each read one coordinate h[x], so
    one ``assignments`` search ranges over the ascending lists of values
    each coordinate allows, after the base map id as one-value domains, and
    tests each hom law and each boundary and action square of
    ``xmod_squares`` once its last coordinate is set: it yields exactly the
    maps of the full product that pass all five conditions, in the same
    order.
    ``search_space`` is the number of all set maps, carrier size to the
    power of the test carrier's.
    """
    med = mediating_morphism(pb, f, mu_xmod)
    x_dom, carrier, n, ns = mu_xmod.dom, pb.carrier, mu_xmod.dom.size, mu_xmod.cod.size
    x_bp, c_bp = x_dom.basepoint, carrier.basepoint
    c_table, pb_act = carrier.table, pb.xmod.act
    dstar, proj, fmap = pb.xmod.boundary.map, pb.phi_prime.map, f.map
    allowed = [
        [v for v in carrier.elements() if (x != x_bp or v == c_bp) and proj[v] == fmap[x]]
        for x in range(n)
    ]
    # variables 0..ns-1 hold the base map id, ns..ns+n-1 hold h
    base, top = range(ns), range(ns, ns + n)
    hom = hom_laws(x_dom.table, top, ns + n)
    squares = xmod_squares(mu_xmod, top, base, ns + n)

    def holds(k: int, h: list) -> bool:
        return laws_hold(hom[k], h, c_table) and squares_hold(squares[k], h, dstar, pb_act)

    satisfying = [h[ns:] for h in assignments([(s,) for s in base] + allowed, holds)]
    if len(satisfying) != 1:
        raise UniquenessFail(len(satisfying), tuple(satisfying))
    if satisfying[0] != med.f1.map:
        raise ConstructionFail("the one factorization is not the mediating map", satisfying[0])
    return UniversalityCertificate(med, 1, carrier.size**n)


# Group-side names of the shared pullback core, kept for existing callers.
GroupPullbackXMod = PullbackXMod
GroupUniversalityCertificate = UniversalityCertificate
verify_group_universal_property = verify_universal_property


def pullback_on_morphisms(m: XModMorphism, phi: Hom) -> XModMorphism:
    """Functorial action on a morphism over a fixed base: (p, s) -> (g(p), s)."""
    base = m.src.cod
    if m.dst.cod != base or m.f0.map != tuple(range(base.size)):
        raise ValueError("morphism must fix the base rack")
    if phi.cod != base:
        raise ValueError("hom does not land in the base rack")
    pb_src = pullback_xmod(m.src, phi)
    pb_dst = pullback_xmod(m.dst, phi)
    pos = {pair: i for i, pair in enumerate(pb_dst.pairs)}
    mapped = [pos[(m.f1.map[p], s)] for p, s in pb_src.pairs]
    f1 = validate_hom(pb_src.carrier, pb_dst.carrier, mapped)
    return validate_xmod_morphism(f1, identity_hom(phi.dom), pb_src.xmod, pb_dst.xmod)


# ---------------------------------------------------------------- conjugation vs pullback


@dataclass(frozen=True)
class ConjPreservationReport:
    morphism: XModMorphism
    conj_of_pullback: RackXMod
    pullback_of_conj: RackXMod
    carrier_size: int


def check_conj_preserves_pullback(source: GroupXMod, phi: Hom) -> ConjPreservationReport:
    """Compare conjugation-then-pullback against pullback-then-conjugation.

    Builds both crossed modules of racks and exhibits an explicit
    isomorphism between them, found by carrier isomorphism search and
    morphism-law filtering.
    """
    gp = group_pullback_xmod(source, phi)
    conj_side = conj_xmod(gp.xmod)
    rack_side = pullback_xmod(conj_xmod(source), conj_hom(phi)).xmod
    iso = find_xmod_isomorphism(conj_side, rack_side)
    if iso is None:
        raise NoIsomorphismFound(
            "no crossed-module isomorphism between the conjugation of the group "
            "pullback and the rack pullback of the conjugation"
        )
    return ConjPreservationReport(iso, conj_side, rack_side, conj_side.dom.size)
