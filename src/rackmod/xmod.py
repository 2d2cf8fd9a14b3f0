"""Rack actions, crossed modules of racks and of groups, and their morphisms.

A right action of a pointed rack R on a pointed rack S is a table
``s . r`` satisfying the exchange law ``(s.r).r' = (s.r').(r ◁ r')``, the
distributivity law ``(s ◁ s').r = (s.r) ◁ (s'.r)``, and pointed
compatibility ``1.r = 1`` and ``s.1 = s``.  The two unpointed laws do not
force the translations ``s -> s.r`` to be bijections, so constructions that
need bijectivity re-validate their output instead of assuming it.

A crossed module of racks is a pointed rack hom d: R -> S together with an
action of S on R such that d(r.s) = d(r) ◁ s and r.d(r') = r ◁ r'.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ActionAxiom1Fail,
    ActionAxiom2Fail,
    ActionSquareFail,
    AutomorphismFail,
    AxiomError,
    BoundarySquareFail,
    EquivarianceFail,
    GroupActionFail,
    NotNormal,
    PeifferFail,
    PointednessFail,
    ResultNotRack,
    X1Fail,
    X2Fail,
)
from .groups import FiniteGroup, subgroup
from .isomorphism import _candidates
from .racks import (
    FiniteRack,
    _normality,
    _pair_labels,
    conj_hom,
    conj_rack,
    restrict_rack,
    validate_rack,
)
from .search import assignments, hom_laws, laws_hold, squares_hold, xmod_squares
from .tables import Hom, compose_homs, identity_hom, rect_table, validate_hom


# ---------------------------------------------------------------- rack actions


@dataclass(frozen=True)
class RackAction:
    actee: FiniteRack
    actor: FiniteRack
    table: tuple[tuple[int, ...], ...]

    def act(self, s: int, r: int) -> int:
        return self.table[s][r]


def validate_action(table, actee: FiniteRack, actor: FiniteRack) -> RackAction:
    """Exhaustively check the two action laws and pointed compatibility."""
    s_rack, r_rack = actee, actor
    t = rect_table(table, s_rack.size, r_rack.size, s_rack.size, "action table")
    for s in s_rack.elements():
        for r in r_rack.elements():
            sr = t[s][r]
            for rp in r_rack.elements():
                if t[sr][rp] != t[t[s][rp]][r_rack.table[r][rp]]:
                    raise ActionAxiom1Fail(s, r, rp)
    for s in s_rack.elements():
        for sp in s_rack.elements():
            ssp = s_rack.table[s][sp]
            for r in r_rack.elements():
                if t[ssp][r] != s_rack.table[t[s][r]][t[sp][r]]:
                    raise ActionAxiom2Fail(s, sp, r)
    bp = s_rack.basepoint
    for r in r_rack.elements():
        if t[bp][r] != bp:
            raise PointednessFail(bp, r, t[bp][r], "absorb")
    for s in s_rack.elements():
        if t[s][r_rack.basepoint] != s:
            raise PointednessFail(s, r_rack.basepoint, t[s][r_rack.basepoint], "unit")
    return RackAction(s_rack, r_rack, t)


def trivial_action(actee: FiniteRack, actor: FiniteRack) -> RackAction:
    return validate_action([[s] * actor.size for s in actee.elements()], actee, actor)


def conjugation_action(r: FiniteRack) -> RackAction:
    """A rack acting on itself by its own operation."""
    return validate_action(r.table, r, r)


def hemi_semidirect(action: RackAction) -> FiniteRack:
    """Pair rack with (s, r) ◁ (s', r') = (s.r', r ◁ r'); s' is discarded.

    The output is re-validated: an action whose translations are not
    bijective yields a table with a collapsing column, reported as
    ResultNotRack.
    """
    s_rack, r_rack = action.actee, action.actor
    width = r_rack.size
    table = [
        [
            action.table[s][rp] * width + r_rack.table[r][rp]
            for _sp in s_rack.elements()
            for rp in r_rack.elements()
        ]
        for s in s_rack.elements()
        for r in r_rack.elements()
    ]
    bp = s_rack.basepoint * width + r_rack.basepoint
    try:
        return validate_rack(table, bp, labels=_pair_labels(s_rack, r_rack))
    except AxiomError as exc:
        raise ResultNotRack(exc) from exc


# ---------------------------------------------------------------- rack crossed modules


@dataclass(frozen=True)
class RackXMod:
    boundary: Hom
    action: RackAction

    @property
    def dom(self) -> FiniteRack:
        return self.boundary.dom

    @property
    def cod(self) -> FiniteRack:
        return self.boundary.cod

    def act(self, r: int, s: int) -> int:
        return self.action.table[r][s]


def validate_rack_xmod(boundary: Hom, action: RackAction) -> RackXMod:
    """Check both crossed-module laws over all pairs."""
    if action.actee != boundary.dom or action.actor != boundary.cod:
        raise ValueError("action endpoints do not match the boundary hom")
    r_rack, s_rack = boundary.dom, boundary.cod
    d = boundary.map
    t = action.table
    for r in r_rack.elements():
        for rp in r_rack.elements():
            if t[r][d[rp]] != r_rack.table[r][rp]:
                raise X2Fail(r, rp)
    for r in r_rack.elements():
        for s in s_rack.elements():
            if d[t[r][s]] != s_rack.table[d[r]][s]:
                raise X1Fail(r, s)
    return RackXMod(boundary, action)


def inclusion_xmod(subset, r: FiniteRack) -> RackXMod:
    """Normal subrack N of R, included into R, with R acting by conjugation.

    The subrack is validated once, and the inclusion is validated as a hom
    from it.
    """
    emb, check = _normality(subset, r)
    if not check.ok:
        raise NotNormal(*check.witness)
    sub = restrict_rack(r, emb)
    pos = {x: i for i, x in enumerate(emb)}
    boundary = validate_hom(sub, r, emb)
    table = [[pos[r.table[x][b]] for b in r.elements()] for x in emb]
    action = validate_action(table, sub, r)
    return validate_rack_xmod(boundary, action)


def identity_xmod(r: FiniteRack) -> RackXMod:
    return validate_rack_xmod(identity_hom(r), conjugation_action(r))


# ---------------------------------------------------------------- group crossed modules


@dataclass(frozen=True)
class GroupXMod:
    boundary: Hom
    action: tuple[tuple[int, ...], ...]

    @property
    def dom(self) -> FiniteGroup:
        return self.boundary.dom

    @property
    def cod(self) -> FiniteGroup:
        return self.boundary.cod

    def act(self, m: int, n: int) -> int:
        return self.action[m][n]


def validate_group_xmod(boundary: Hom, action) -> GroupXMod:
    """Right action by automorphisms, equivariance, and the Peiffer law."""
    m_grp, n_grp = boundary.dom, boundary.cod
    t = rect_table(action, m_grp.size, n_grp.size, m_grp.size, "action table")
    for n in n_grp.elements():
        for m in m_grp.elements():
            for mp in m_grp.elements():
                if t[m_grp.mul[m][mp]][n] != m_grp.mul[t[m][n]][t[mp][n]]:
                    raise AutomorphismFail(n, m, mp, "not multiplicative")
        seen: dict[int, int] = {}
        for m in m_grp.elements():
            v = t[m][n]
            if v in seen:
                raise AutomorphismFail(n, seen[v], m, "not injective")
            seen[v] = m
    for m in m_grp.elements():
        if t[m][n_grp.identity] != m:
            raise GroupActionFail(m, n_grp.identity, None)
    for m in m_grp.elements():
        for n in n_grp.elements():
            for np in n_grp.elements():
                if t[t[m][n]][np] != t[m][n_grp.mul[n][np]]:
                    raise GroupActionFail(m, n, np)
    d = boundary.map
    for m in m_grp.elements():
        for n in n_grp.elements():
            if d[t[m][n]] != n_grp.conj(d[m], n):
                raise EquivarianceFail(m, n)
    for m in m_grp.elements():
        for mp in m_grp.elements():
            if t[m][d[mp]] != m_grp.conj(m, mp):
                raise PeifferFail(m, mp)
    return GroupXMod(boundary, t)


def inclusion_group_xmod(subset, g: FiniteGroup) -> GroupXMod:
    """Normal subgroup included into g, with g acting by conjugation."""
    sub, emb_hom = subgroup(g, subset)
    emb = emb_hom.map
    pos = {x: i for i, x in enumerate(emb)}
    table = []
    for i, m in enumerate(emb):
        row = []
        for n in g.elements():
            v = g.conj(m, n)
            if v not in pos:
                raise NotNormal(m, n, v)
            row.append(pos[v])
        table.append(row)
    return validate_group_xmod(emb_hom, table)


def identity_group_xmod(g: FiniteGroup) -> GroupXMod:
    table = [[g.conj(m, n) for n in g.elements()] for m in g.elements()]
    return validate_group_xmod(identity_hom(g), table)


# ---------------------------------------------------------------- crossed-module morphisms


@dataclass(frozen=True)
class XModMorphism:
    """Crossed-module morphism of racks or of groups: f1 on carriers, f0 on bases."""

    src: RackXMod | GroupXMod
    dst: RackXMod | GroupXMod
    f1: Hom
    f0: Hom


def validate_xmod_morphism(
    f1: Hom, f0: Hom, src: RackXMod | GroupXMod, dst: RackXMod | GroupXMod
) -> XModMorphism:
    """Check the boundary square and the action square over all elements."""
    if f1.dom != src.dom or f1.cod != dst.dom:
        raise ValueError("f1 endpoints do not match the crossed modules")
    if f0.dom != src.cod or f0.cod != dst.cod:
        raise ValueError("f0 endpoints do not match the crossed modules")
    for r in src.dom.elements():
        if dst.boundary.map[f1.map[r]] != f0.map[src.boundary.map[r]]:
            raise BoundarySquareFail(r)
    for r in src.dom.elements():
        for s in src.cod.elements():
            if f1.map[src.act(r, s)] != dst.act(f1.map[r], f0.map[s]):
                raise ActionSquareFail(r, s)
    return XModMorphism(src, dst, f1, f0)


def identity_xmod_morphism(x: RackXMod | GroupXMod) -> XModMorphism:
    return validate_xmod_morphism(identity_hom(x.dom), identity_hom(x.cod), x, x)


def compose_xmod_morphisms(m1: XModMorphism, m2: XModMorphism) -> XModMorphism:
    """The composite "m1 then m2"."""
    if m1.dst != m2.src:
        raise ValueError("morphisms are not composable")
    return validate_xmod_morphism(
        compose_homs(m1.f1, m2.f1), compose_homs(m1.f0, m2.f0), m1.src, m2.dst
    )


# Rack- and group-side names of the shared morphism core, kept for existing callers.
RackXModMorphism = GroupXModMorphism = XModMorphism
validate_group_xmod_morphism = validate_xmod_morphism
compose_group_xmod_morphisms = compose_xmod_morphisms


def find_xmod_isomorphism(a: RackXMod, b: RackXMod) -> XModMorphism | None:
    """The least crossed-module isomorphism a -> b by map tuples (f1, f0), if any.

    One ``assignments`` search sets f1 on a's carrier and then f0 on its
    base, each coordinate ranging in ascending order over the elements of b
    with its invariants.  Both maps must be injective pointed rack homs, and
    the boundary squares d_b f1(r) = f0 d_a(r) and the action squares
    f1(r.s) = f1(r).f0(s), filed by ``xmod_squares``, must commute; each
    law is tested once its last coordinate is set.  A bijective morphism is
    an isomorphism of crossed modules, and the first hit is the least valid
    pair.
    """
    top, bottom = _candidates(a.dom, b.dom), _candidates(a.cod, b.cod)
    if top is None or bottom is None:
        return None
    m, n = len(top), len(bottom)
    top_laws = hom_laws(a.dom.table, range(m), m + n)
    bottom_laws = hom_laws(a.cod.table, range(m, m + n), m + n)
    squares = xmod_squares(a, range(m), range(m, m + n), m + n)

    def holds(k: int, f: list) -> bool:
        if k < m:
            return f.index(f[k]) == k and laws_hold(top_laws[k], f, b.dom.table)
        return (
            f.index(f[k], m) == k
            and laws_hold(bottom_laws[k], f, b.cod.table)
            and squares_hold(squares[k], f, b.boundary.map, b.act)
        )

    for f in assignments(top + bottom, holds):
        return validate_xmod_morphism(
            validate_hom(a.dom, b.dom, f[:m]), validate_hom(a.cod, b.cod, f[m:]), a, b
        )
    return None


# ---------------------------------------------------------------- conjugation functor


def conj_xmod(g: GroupXMod) -> RackXMod:
    """Conjugation racks on both groups, with the action table reused."""
    dom = conj_rack(g.dom)
    cod = conj_rack(g.cod)
    boundary = validate_hom(dom, cod, g.boundary.map)
    action = validate_action(g.action, dom, cod)
    return validate_rack_xmod(boundary, action)


def conj_xmod_morphism(m: XModMorphism) -> XModMorphism:
    return validate_xmod_morphism(
        conj_hom(m.f1), conj_hom(m.f0), conj_xmod(m.src), conj_xmod(m.dst)
    )
